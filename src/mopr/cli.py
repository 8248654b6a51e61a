"""Command-line entry point for reproducible retrieval experiments.

Every command takes an explicit seed, writes its artifacts plus a JSON config
sidecar sufficient to re-run bit-identically, and exits nonzero with a
structured message on any failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from mopr import algorithm, bounds, datamodel, metric, similarity, solver
from mopr.algorithm import ORACLE_KINDS, MoprConfig
from mopr.statclasses import FEATURE_VIEWS


def _write_sidecar(out_path: str, config: dict) -> None:
    sidecar = Path(str(out_path) + ".config.json")
    sidecar.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _resolved(args: argparse.Namespace, *modes) -> dict:
    """The parsed arguments but those any of ``modes`` ignores: a retrieve
    algorithm, an mpr method or a retrieval oracle, ``("oracle", kind)``."""
    unread = {"func"}.union(*(_UNREAD_ARGS.get(mode, ()) for mode in modes))
    return {k: v for k, v in sorted(vars(args).items()) if k not in unread}


# the arguments each retrieve algorithm, mpr method or retrieval oracle
# ignores, which its sidecar leaves out; the finite class's exact retrieval
# runs no loop, so no iteration cap
_LOOP_ARGS = ("rho", "oracle", "feature_view", "iterations", "curation_pool")
_UNREAD_ARGS = {"topk": ("lam",) + _LOOP_ARGS, "mmr": _LOOP_ARGS, "mopr": ("lam",),
                "oracle": ("kernel",), "closed-form": ("oracle", "kernel"), "rkhs": ("oracle",),
                "finite": ("oracle", "kernel"), ("oracle", "finite"): ("iterations",)}


def _emit(args, text: str, config: dict) -> int:
    """Write a report to ``--out``, with its sidecar ``config``, or to stdout."""
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        _write_sidecar(args.out, config)
    else:
        sys.stdout.write(text)
    return 0


def _load_inputs(args):
    d_r, d_c = datamodel.reconcile(datamodel.load_dataset(args.retrieval, "retrieval"),
                                   datamodel.load_dataset(args.curated, "curated"))
    return d_r, d_c, datamodel.load_query(args.query)


def _floats(flag: str, text: str) -> list[float]:
    """The comma-separated numbers given to ``flag``."""
    values = []
    for part in text.split(","):
        try:
            values.append(float(part))
        except ValueError:
            raise ValueError(f"{flag}: {part!r} is not a number") from None
    return values


def _parse_kernel(text: str) -> tuple[str, float | None]:
    if text == "linear":
        return "linear", None
    if text.startswith("gaussian:"):
        sigmas = _floats("--kernel", text.split(":", 1)[1])
        if len(sigmas) == 1:
            return "gaussian", sigmas[0]
    raise ValueError(f"unknown kernel {text!r} (expected 'linear' or 'gaussian:SIGMA')")


def _mopr_config(args, rho: float) -> MoprConfig:
    return MoprConfig(
        rho=rho,
        T=args.iterations,
        oracle_kind=args.oracle,
        feature_view=args.feature_view,
        curation_pool_size=args.curation_pool,
        seed=args.seed,
    )


def cmd_gen(args) -> int:
    spec = datamodel.SyntheticSpec.from_json(Path(args.spec).read_text(encoding="utf-8"))
    if args.seed is not None:
        spec = replace(spec, seed=args.seed)
    d_r, d_c, q = datamodel.generate_synthetic(spec)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    datamodel.save_dataset(d_r, out_dir / "retrieval.csv")
    datamodel.save_dataset(d_c, out_dir / "curated.csv")
    datamodel.save_query(q, out_dir / "query.csv")
    _write_sidecar(out_dir / "datasets", {**_resolved(args), "spec": json.loads(spec.to_json())})
    return 0


def _selection_from_args(args, d_r, q):
    if args.selection:
        ids = datamodel.load_ids(args.selection)
        index = {item_id: i for i, item_id in enumerate(d_r.ids)}
        indicator = np.zeros(len(d_r), dtype=int)
        for item_id in ids:
            if item_id not in index:
                raise ValueError(f"selection id {item_id!r} not in retrieval dataset")
            if indicator[index[item_id]]:
                raise ValueError(f"selection id {item_id!r} appears more than once")
            indicator[index[item_id]] = 1
        return similarity.Selection(indicator, len(ids))
    if args.k is None:
        raise ValueError("mpr needs --k, or a --selection file")
    sel, _ = similarity.top_k(d_r, q, args.k)
    return sel


def cmd_mpr(args) -> int:
    d_r, d_c, q = _load_inputs(args)
    sel = _selection_from_args(args, d_r, q)
    if args.method == "closed-form":
        report = metric.mpr_closed_form_linear(sel, d_r, d_c, args.feature_view)
    elif args.method == "rkhs":
        kernel, sigma = _parse_kernel(args.kernel)
        report = metric.mpr_rkhs(sel, d_r, d_c, kernel, sigma, args.feature_view)
    elif args.method == "finite" or args.oracle == "finite":
        if args.feature_view != "labels":
            raise ValueError(f"the finite class needs the labels view, not {args.feature_view!r}")
        report = metric.CellCounts.build(d_r, d_c, sel.k).report(sel.indicator)
    else:
        report = metric.mpr_via_oracle(
            sel, d_r, d_c, oracle=args.oracle, feature_view=args.feature_view, seed=args.seed
        )
    return _emit(args, report.to_json() + "\n", {**_resolved(args, args.method), "k": sel.k})


def cmd_retrieve(args) -> int:
    d_r, d_c, q = _load_inputs(args)
    trace = None
    if args.algo == "topk":
        sel, _ = similarity.top_k(d_r, q, args.k)
    elif args.algo == "mmr":
        sel = algorithm.mmr_retrieve(d_r, q, args.k, args.lam)
    else:
        sel, trace = algorithm.mopr_retrieve(d_r, d_c, q, args.k, _mopr_config(args, args.rho))
    datamodel.save_ids(map(d_r.ids.__getitem__, sel.indices), args.out)
    sidecar = _resolved(args, args.algo, ("oracle", args.oracle))
    if trace is not None:
        sidecar["trace"] = trace.to_dict()
    _write_sidecar(args.out, sidecar)
    return 0


def cmd_sweep(args) -> int:
    d_r, d_c, q = _load_inputs(args)
    grid = _floats("--rho-grid", args.rho_grid)
    points = algorithm.pareto_sweep(d_r, d_c, q, args.k, _mopr_config(args, grid[0]), grid)
    algorithm.write_sweep_csv(points, args.out)
    _write_sidecar(args.out, _resolved(args, ("oracle", args.oracle)))
    return 0


def cmd_bounds(args) -> int:
    # the report itself carries only numeric parameters; output paths live in
    # the sidecar so re-runs into different directories stay byte-identical
    result: dict = {
        "parameters": {kk: v for kk, v in _resolved(args).items() if kk != "out"}
    }
    if args.m is not None:
        result["vc_rademacher_bound"] = bounds.vc_rademacher_bound(args.vc, args.m)
        if args.rademacher is not None:
            result["generalization_bound"] = bounds.generalization_bound(
                args.rademacher, args.m, args.delta
            )
    if args.epsilon is not None:
        result["query_budget"] = bounds.query_budget(
            args.vc, args.epsilon, args.delta, args.queries,
            conservative=not args.tight_budget,
        )
    return _emit(args, json.dumps(result, indent=2, sort_keys=True) + "\n", _resolved(args))


def cmd_compare_ip(args) -> int:
    d_r, d_c, q = _load_inputs(args)
    # one finite-class state for every rho: the similarity vector, the cell
    # counts and the items the exact retrieval ranks
    carry = algorithm._SweepCarry(d_r, d_c, q, args.k, MoprConfig(oracle_kind="finite"))
    s, counts = carry.s, carry.separator
    rows = []
    for rho in _floats("--rho-grid", args.rho_grid):
        cuts = [counts.cut(cell, rho) for cell in range(counts.curated.size)]
        lp = solver.solve_lp(s, cuts, args.k)
        if lp.status != "optimal":
            rows.append([rho, "infeasible", "", "", "", ""])
            continue
        rounded = solver.round_top_k(lp.a, args.k)
        # the rounded set's own MPR is above rho when rounding broke a cut
        figures = [datamodel.FLOAT_FMT % v for v in (lp.objective, float(s @ rounded.indicator),
                                                     counts.worst(rounded.indicator)[0])]
        # the finite class's exact retrieval solves its integer program
        ip_sel, trace = algorithm.mopr_retrieve(d_r, d_c, q, args.k,
                                                MoprConfig(rho=rho, oracle_kind="finite"),
                                                _carry=carry)
        if trace.effective_rho > rho:  # the relaxation is feasible, but no selection is
            rows.append([rho, "ip-infeasible", *figures, ""])
            continue
        rows.append([rho, "optimal", *figures, datamodel.FLOAT_FMT % float(s @ ip_sel.indicator)])
    datamodel.write_csv(args.out, ["rho", "status", "lp_objective", "rounded_objective",
                                   "rounded_mpr", "ip_objective"], rows)
    _write_sidecar(args.out, _resolved(args))
    return 0


def _add_io_args(p):
    """The input files and the seed of every command that reads a pool."""
    p.add_argument("--retrieval", required=True, help="retrieval pool CSV")
    p.add_argument("--curated", required=True, help="curated dataset CSV")
    p.add_argument("--query", required=True, help="query CSV")
    p.add_argument("--seed", type=int, default=0)


def _add_oracle_args(p):
    """The oracle and loop arguments that ``retrieve`` and ``sweep`` share."""
    p.add_argument("--oracle", choices=ORACLE_KINDS, default="linear")
    p.add_argument("--feature-view", dest="feature_view", choices=FEATURE_VIEWS, default="labels")
    p.add_argument("--iterations", type=int, default=50)
    p.add_argument("--curation-pool", dest="curation_pool", type=int, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mopr",
        description="Proportional-representation metrics and constrained top-k retrieval",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate synthetic datasets from a spec file")
    p.add_argument("--spec", required=True, help="synthetic spec JSON")
    p.add_argument("--seed", type=int, default=None, help="override the spec seed")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("mpr", help="report the representation gap of a selection")
    _add_io_args(p)
    p.add_argument("--k", type=int, help="measure the top k (unread with --selection)")
    p.add_argument("--selection", help="file of selected item ids (default: the top --k)")
    p.add_argument("--method", choices=["oracle", "closed-form", "rkhs", "finite"],
                   default="oracle")
    p.add_argument("--oracle", choices=ORACLE_KINDS, default="linear")
    p.add_argument("--feature-view", dest="feature_view", choices=FEATURE_VIEWS, default="labels")
    p.add_argument("--kernel", default="linear", help="'linear' or 'gaussian:SIGMA'")
    p.add_argument("--out", help="write report JSON here (default: stdout)")
    p.set_defaults(func=cmd_mpr)

    p = sub.add_parser("retrieve", help="run constrained retrieval or a baseline")
    _add_io_args(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--algo", choices=["mopr", "topk", "mmr"], default="mopr")
    p.add_argument("--rho", type=float, default=0.0)
    p.add_argument("--lambda", dest="lam", type=float, default=0.5, help="MMR trade-off")
    _add_oracle_args(p)
    p.add_argument("--out", required=True, help="selected item ids CSV")
    p.set_defaults(func=cmd_retrieve)

    p = sub.add_parser("sweep", help="trade-off sweep over a descending rho grid")
    _add_io_args(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--rho-grid", dest="rho_grid", required=True,
                   help="comma-separated descending rho values")
    _add_oracle_args(p)
    p.add_argument("--out", required=True, help="sweep CSV path")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("bounds", help="evaluate sample-complexity calculators")
    p.add_argument("--vc", type=int, required=True)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--delta", type=float, default=0.05)
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--queries", type=int, default=1, help="number of queries M")
    p.add_argument("--rademacher", type=float, default=None,
                   help="Rademacher estimate for the deviation bound")
    p.add_argument("--tight-budget", action="store_true",
                   help="drop the conservative factor of two on the log term")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="write JSON here (default: stdout)")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("compare-ip",
                       help="the finite class's LP relaxation, its rounding and its exact IP")
    _add_io_args(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--rho-grid", dest="rho_grid", required=True)
    p.add_argument("--out", required=True, help="comparison CSV path")
    p.set_defaults(func=cmd_compare_ip)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # structured nonzero exit for any module error
        print(f"mopr: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
