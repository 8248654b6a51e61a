"""Outside-in tracer for the mopr benchmark.

The tracer wraps public functions of the ``mopr`` modules from outside the
package.  A function that other modules import by name (``from mopr.solver
import solve_lp``) is bound in each importing module too, so every module
attribute that holds the original function object is patched, and restored
on :meth:`Tracer.uninstall`.

Spans are kept in memory as ``(id, parent, name, start, end, root)`` rows,
where ``root`` is the id of the enclosing phase span (one set-up repetition or
one request), so all spans of one request share an identifier.  Self time is
derived afterwards as a span's duration minus the durations of its direct
children; calls run on one thread, so children never overlap.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict

# Public functions wrapped per module.  The order fixes the metric order.
LAYERS = {
    "datamodel": ("generate_synthetic", "save_dataset", "load_dataset"),
    "similarity": ("similarity_vector", "top_k"),
    "solver": ("solve_lp", "round_top_k"),
    "algorithm": ("mopr_retrieve", "mopr_qp_linear", "pareto_sweep", "mmr_retrieve"),
    "statclasses": ("fit_linear_ls", "fit_tree", "normalize_to_cprime"),
    "metric": (
        "mpr_exact_finite",
        "mpr_via_oracle",
        "mpr_closed_form_linear",
        "mpr_rkhs",
        "combined_features",
        "svd_context",
    ),
}

# Layers whose work happens during set-up; they are reported per set-up
# repetition, every other layer per timed request.
SETUP_LAYERS = ("datamodel",)

# Derived counters that are not a call count or a self time.
COUNTERS = (
    ("solver.solve_lp.infeasible", "1/req", "lower"),
    ("solver.solve_lp.rows_mean", "count", "lower"),
    ("algorithm.iterations", "1/req", "lower"),
    ("algorithm.new_cut_frac", "fraction", "higher"),
    ("algorithm.relaxed_frac", "fraction", "lower"),
)


def per_layer_metric_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    specs = []
    for module, functions in LAYERS.items():
        per = "setup" if module in SETUP_LAYERS else "req"
        for fn in functions:
            specs.append((f"{module}.{fn}.calls", f"1/{per}", "lower"))
            specs.append((f"{module}.{fn}.self_s", f"s/{per}", "lower"))
    specs.extend(COUNTERS)
    specs.append(("trace.request_s", "s/req", "lower"))
    specs.append(("trace.overhead_frac", "fraction", "lower"))
    return specs


class Tracer:
    """Records spans around wrapped ``mopr`` functions while a phase is open."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._root: int | None = None
        self._patches: list[tuple[object, str, object]] = []
        self.solve_rows: dict[int, list[int]] = defaultdict(list)
        self.solve_infeasible: dict[int, int] = defaultdict(int)
        self.retrievals: dict[int, list] = defaultdict(list)

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        mopr_modules = [
            mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "mopr" or name.startswith("mopr."))
        ]
        for module_name, functions in LAYERS.items():
            owner = importlib.import_module(f"mopr.{module_name}")
            for fn_name in functions:
                original = getattr(owner, fn_name)
                wrapper = self._wrap(f"{module_name}.{fn_name}", original)
                for mod in mopr_modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patches.append((mod, attr, original))
                            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def _wrap(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            if tracer._root is None:
                return fn(*args, **kwargs)
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._close(span)
                tracer._observe_error(name, args, kwargs, exc)
                raise
            tracer._close(span)
            tracer._observe(name, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    # -- spans --------------------------------------------------------------

    def _open(self, name: str) -> int:
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([span_id, parent, name, time.perf_counter(), None, self._root])
        self._stack.append(span_id)
        return span_id

    def _close(self, span_id: int) -> None:
        self.spans[span_id][4] = time.perf_counter()
        self._stack.pop()

    def phase(self, kind: str):
        """Context manager opening a root span (``setup`` or ``request``)."""
        tracer = self

        class _Phase:
            def __enter__(self):
                tracer._root = len(tracer.spans)
                tracer._open(kind)

            def __exit__(self, *exc):
                tracer._close(tracer._root)
                tracer._root = None
                return False

        return _Phase()

    # -- counters -----------------------------------------------------------

    def _observe(self, name: str, args, kwargs, result) -> None:
        if name == "solver.solve_lp":
            if result.status != "optimal":
                self.solve_infeasible[self._root] += 1
            if "rows" in result.diagnostics:
                self.solve_rows[self._root].append(int(result.diagnostics["rows"]))
        elif name in _RETRIEVERS:
            self.retrievals[self._root].append((_requested_rho(name, args, kwargs), result[1]))

    def _observe_error(self, name: str, args, kwargs, exc: BaseException) -> None:
        trace = getattr(exc, "trace", None)
        if name in _RETRIEVERS and trace is not None:
            self.retrievals[self._root].append((_requested_rho(name, args, kwargs), trace))

    # -- reporting ----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Self time of every span: duration minus its direct children's."""
        child = [0.0] * len(self.spans)
        for _, parent, _, start, end, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        return [end - start - child[i] for i, (_, _, _, start, end, _) in enumerate(self.spans)]

    def summary(self, request_s: float, overhead_frac: float) -> dict[str, float]:
        """Per-layer metrics: calls and self time per request or set-up."""
        roots = {span[0]: span[2] for span in self.spans if span[1] is None}
        n_phase = {"setup": 0, "request": 0}
        for kind in roots.values():
            n_phase[kind] += 1
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        for span, own in zip(self.spans, self.self_times()):
            if span[1] is None:
                continue
            key = (roots[span[5]], span[2])
            calls[key] += 1
            self_s[key] += own
        out: dict[str, float] = {}
        for module, functions in LAYERS.items():
            kind = "setup" if module in SETUP_LAYERS else "request"
            per = max(n_phase[kind], 1)
            for fn in functions:
                key = (kind, f"{module}.{fn}")
                out[f"{module}.{fn}.calls"] = calls[key] / per
                out[f"{module}.{fn}.self_s"] = self_s[key] / per
        n_req = max(n_phase["request"], 1)
        request_roots = [r for r, kind in roots.items() if kind == "request"]
        out["solver.solve_lp.infeasible"] = sum(self.solve_infeasible[r] for r in request_roots) / n_req
        rows = [n for r in request_roots for n in self.solve_rows[r]]
        out["solver.solve_lp.rows_mean"] = sum(rows) / len(rows) if rows else 0.0
        traces = [item for r in request_roots for item in self.retrievals[r]]
        records = [rec for _, t in traces for rec in t.iterations]
        asked = [rec for rec in records if rec.cut_added or rec.duplicate_cut]
        out["algorithm.iterations"] = len(records) / n_req
        out["algorithm.new_cut_frac"] = (
            sum(rec.cut_added for rec in asked) / len(asked) if asked else 0.0
        )
        out["algorithm.relaxed_frac"] = (
            sum(t.effective_rho > rho for rho, t in traces) / len(traces) if traces else 0.0
        )
        out["trace.request_s"] = request_s
        out["trace.overhead_frac"] = overhead_frac
        return out

    def write(self, path) -> None:
        """Write spans as JSON lines: id, parent, name, start, end, root, self_s."""
        with open(path, "w", encoding="utf-8") as fh:
            for span, own in zip(self.spans, self.self_times()):
                sid, parent, name, start, end, root = span
                fh.write(json.dumps({
                    "id": sid, "parent": parent, "name": name, "start": start,
                    "end": end, "root": root, "self_s": own,
                }) + "\n")


_RETRIEVERS = ("algorithm.mopr_retrieve", "algorithm.mopr_qp_linear")


def _requested_rho(name: str, args, kwargs) -> float:
    """The rho a retrieval was asked for, read from its call arguments."""
    if name == "algorithm.mopr_retrieve":
        cfg = args[4] if len(args) > 4 else kwargs["cfg"]
        return cfg.rho
    return args[4] if len(args) > 4 else kwargs["rho"]
