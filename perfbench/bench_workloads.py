"""Instances, requests and output checks of the mopr benchmark workloads.

The corpus is fixed: synthetic pools with d = 8 embedding dimensions and a
2 x 4 grid of group cells, skewed retrieval proportions and a similarity bias
that makes plain top-k unrepresentative, m = 500 curated items, k = 20.  The
workload seed draws the queries, near the bias direction, so the seed sets
the requests and the program receives only them.  Whether a retrieval
certifies or runs to its iteration cap varies from query to query, so each
retrieval request gets a query of its own: distinct queries average that out
faster than repeats of one.

Requests call the library through module attributes (``algorithm.X``,
``metric.X``), so the outside-in tracer and the smoke test's corruption hook
see every call.  Each request's output is recomputed independently after the
timed loop; see ``_check_retrieval`` and the ``check`` closures.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from mopr import algorithm, datamodel, metric, similarity, statclasses
from mopr.algorithm import MoprConfig
from mopr.datamodel import GroupAxis, Query, SyntheticSpec

D = 8
K = 20
RHO = 0.05
SWEEP_GRID = (0.2, 0.1, 0.05, 0.02)
AUDIT_KS = (10, 20, 50)
MMR_LAMBDA = 0.5
RKHS_SIGMA = 1.0
TREE_DEPTH = 3
QUERY_NOISE = 0.2
# Iteration cap of every retrieval.  The library default is 50, but whether
# a linear or QP retrieval certifies or stalls varies from query to query,
# and at 50 a stalled request costs 10-25 times a certified one, so a run
# held too few distinct requests for two seeds to agree.  At 10 the finite
# requests still run to the cap and certified ones still finish.
T = 10
# The pools are a fixed corpus; the workload seed draws the queries.
CORPUS_SEED = 2024
AXES = (
    GroupAxis("a", 2, retrieval_probs=(0.6, 0.4), curated_probs=(0.5, 0.5)),
    GroupAxis("b", 4, retrieval_probs=(0.4, 0.3, 0.2, 0.1), curated_probs=(0.25,) * 4),
)
BIAS = {"a": (0.4, -0.4), "b": (0.6, 0.2, -0.2, -0.6)}

# Tolerances of the output checks.  Values recomputed by the same arithmetic
# must agree to rounding; the closed form and the least-squares projection
# take different routes and agree to 1e-8 on these sizes.
SAME_TOL = 1e-9
ROUTE_TOL = 1e-8
CERTIFY_TOL = 1e-8


@dataclass(frozen=True)
class Sizes:
    """Pool sizes and query counts of each workload."""

    retrieve_n: tuple[int, ...] = (200, 1000, 3000)
    sweep_n: tuple[int, ...] = (200, 500)
    audit_n: tuple[int, ...] = (1000,)
    m: int = 500
    queries: dict = field(default_factory=lambda: {"retrieve": 48, "sweep": 24, "audit": 20})


FULL = Sizes()
TINY = Sizes(retrieve_n=(150,), sweep_n=(150,), audit_n=(150,), m=120,
             queries={"retrieve": 3, "sweep": 1, "audit": 1})


@dataclass
class Pool:
    n: int
    d_r: datamodel.Dataset
    d_c: datamodel.Dataset
    queries: list[Query]


@dataclass
class Request:
    """One call into the library; ``call`` returns the raw output."""

    label: str
    call: Callable[[], object]
    check: Callable[[object], "Outcome"]


@dataclass
class Outcome:
    """What the checks found in one request's output."""

    selections: list[np.ndarray]
    problems: list[str] = field(default_factory=list)
    # one (recomputed MPR, requested rho, similarity / top-k similarity)
    # per constrained retrieval in the request
    quality: list[tuple[float, float, float]] = field(default_factory=list)


@dataclass
class Workload:
    requests: list[Request]
    # percentile of latency_tail_s: the highest that keeps at least ten
    # requests beyond it in a full-length run of the code this benchmark
    # was written against
    tail_percentile: int
    warm_up: Callable[[], object]


def _pool(n: int, m: int, seed: int, n_queries: int, workdir: Path, tag: str) -> Pool:
    spec_seed = int(np.random.SeedSequence([CORPUS_SEED, n, m]).generate_state(1)[0])
    spec = SyntheticSpec(n=n, m=m, d=D, group_axes=AXES, similarity_bias=BIAS, seed=spec_seed)
    d_r, d_c, q0 = datamodel.generate_synthetic(spec)
    # the CLI user's path: the pools are read back from CSV
    paths = (workdir / f"{tag}-n{n}-retrieval.csv", workdir / f"{tag}-n{n}-curated.csv")
    datamodel.save_dataset(d_r, paths[0])
    datamodel.save_dataset(d_c, paths[1])
    loaded = (datamodel.load_dataset(paths[0], "retrieval"), datamodel.load_dataset(paths[1], "curated"))
    for before, after in zip((d_r, d_c), loaded):
        if (after.ids != before.ids or not np.array_equal(after.embeddings, before.embeddings)
                or not np.array_equal(after.labels, before.labels)
                or after.schema != before.schema):
            raise RuntimeError(f"CSV round trip changed the n={n} pool")
    rng = np.random.default_rng(np.random.SeedSequence([seed, n, m, 1]))
    queries = [
        Query(f"q{j}", q0.embedding + QUERY_NOISE * rng.standard_normal(D))
        for j in range(n_queries)
    ]
    return Pool(n, loaded[0], loaded[1], queries)


def build(name: str, seed: int, workdir: Path, sizes: Sizes = FULL) -> Workload:
    """Generate the instances of one workload and list its requests."""
    make = {"retrieve": _retrieve, "sweep": _sweep, "audit": _audit}
    workdir.mkdir(parents=True, exist_ok=True)
    ns = {"retrieve": sizes.retrieve_n, "sweep": sizes.sweep_n, "audit": sizes.audit_n}[name]
    pools = [_pool(n, sizes.m, seed, sizes.queries[name], workdir, name) for n in ns]
    return make[name](pools)


# -- independent recomputation ----------------------------------------------


def _similarity_reference(pool: Pool, q: Query) -> tuple[np.ndarray, float]:
    """Cosine similarities by plain numpy, and the plain top-k mean."""
    emb = pool.d_r.embeddings
    s = emb @ q.embedding / (np.linalg.norm(emb, axis=1) * np.linalg.norm(q.embedding))
    return s, float(np.mean(np.sort(s)[-K:]))


def _finite_reference(indices: np.ndarray, pool: Pool) -> float:
    """Largest cell-indicator gap by a plain scan of the label cells."""
    cards = pool.d_r.schema.label_cards
    names = pool.d_r.schema.label_names
    sel_labels = pool.d_r.labels[indices]
    best = 0.0
    for cell in np.ndindex(*(cards[n] for n in names)):
        in_sel = np.all(sel_labels == cell, axis=1)
        in_cur = np.all(pool.d_c.labels == cell, axis=1)
        gap = abs((2.0 * in_sel.mean() - 1.0) - (2.0 * in_cur.mean() - 1.0))
        best = max(best, gap)
    return best


def _tilde(indices: np.ndarray, pool: Pool, k: int) -> np.ndarray:
    a = np.zeros(pool.n)
    a[indices] = 1.0 / k
    return np.concatenate([a, np.full(len(pool.d_c), -1.0 / len(pool.d_c))])


def _linear_reference(indices: np.ndarray, pool: Pool, k: int, view: str = "labels") -> float:
    """Linear-class gap as the least-squares projection of the signed weights."""
    X = np.vstack([statclasses.feature_matrix(pool.d_r, view), statclasses.feature_matrix(pool.d_c, view)])
    tilde = _tilde(indices, pool, k)
    w, *_ = np.linalg.lstsq(X, tilde, rcond=None)
    m = len(pool.d_c)
    return float(np.sqrt(m * k / (m + k)) * np.linalg.norm(X @ w))


def _rkhs_reference(indices: np.ndarray, pool: Pool, sigma: float) -> float:
    """Gaussian-kernel mean-embedding distance from explicit pairwise distances."""
    R = statclasses.feature_matrix(pool.d_r, "labels")[indices]
    C = statclasses.feature_matrix(pool.d_c, "labels")

    def mean_kernel(A, B):
        sq = ((A[:, None, :] - B[None, :, :]) ** 2).sum(axis=2)
        return float(np.exp(-sq / (2.0 * sigma**2)).mean())

    radicand = mean_kernel(R, R) - 2.0 * mean_kernel(R, C) + mean_kernel(C, C)
    return float(np.sqrt(max(radicand, 0.0)))


def _check_retrieval(sel, trace, pool: Pool, q: Query, rho: float, oracle: str, out: Outcome) -> None:
    """Checks shared by every constrained retrieval; appends to ``out``."""
    idx = np.flatnonzero(sel.indicator)
    out.selections.append(idx)
    if sel.k != K or idx.size != K:
        out.problems.append(f"selection has {idx.size} items, expected {K}")
        return
    if trace.selection is not None and not np.array_equal(trace.selection.indicator, sel.indicator):
        out.problems.append("trace selection differs from the returned selection")
    if oracle == "finite":
        indicators = statclasses.all_cell_indicators(pool.d_r.schema.label_cards)
        mpr = metric.mpr_exact_finite(sel, pool.d_r, pool.d_c, indicators).value
        tol = SAME_TOL
        if abs(mpr - _finite_reference(idx, pool)) > SAME_TOL:
            out.problems.append("mpr_exact_finite disagrees with a plain scan of the cells")
    elif oracle == "linear":
        mpr = metric.mpr_closed_form_linear(sel, pool.d_r, pool.d_c, "labels").value
        tol = ROUTE_TOL
    else:
        mpr = metric.mpr_via_oracle(sel, pool.d_r, pool.d_c, "tree", "labels", tree_depth=TREE_DEPTH).value
        tol = SAME_TOL
    if abs(mpr - trace.achieved_mpr) > tol:
        out.problems.append(f"recomputed MPR {mpr!r} != reported {trace.achieved_mpr!r}")
    s, topk_mean = _similarity_reference(pool, q)
    mean_sim = float(np.mean(s[idx]))
    if abs(mean_sim - trace.mean_similarity) > SAME_TOL:
        out.problems.append(f"mean similarity {mean_sim!r} != reported {trace.mean_similarity!r}")
    if mean_sim > topk_mean + SAME_TOL:
        out.problems.append("mean similarity exceeds the plain top-k mean")
    out.quality.append((mpr, rho, mean_sim / topk_mean))


# -- retrieve ----------------------------------------------------------------


def _retrieve(pools: list[Pool]) -> Workload:
    # every request has its own query: whether a retrieval certifies or runs
    # to the iteration cap varies from query to query, so distinct queries
    # average that out faster than repeats of one
    kinds = ("linear", "qp", "finite")
    requests = []
    for p in range(len(pools[0].queries) // len(kinds)):
        for pool in pools:
            for i, kind in enumerate(kinds):
                j = p * len(kinds) + i
                requests.append(_retrieve_request(pool, pool.queries[j], kind, j))

    def warm_up():
        pool = pools[0]
        return algorithm.mopr_retrieve(pool.d_r, pool.d_c, pool.queries[0], K,
                                       MoprConfig(rho=RHO, oracle_kind="linear", T=2))

    return Workload(requests, 90, warm_up)


def _retrieve_request(pool: Pool, q: Query, kind: str, j: int) -> Request:
    if kind == "qp":
        def call():
            return algorithm.mopr_qp_linear(pool.d_r, pool.d_c, q, K, RHO, T=T)
        oracle = "linear"
    else:
        cfg = MoprConfig(rho=RHO, oracle_kind=kind, T=T)

        def call():
            return algorithm.mopr_retrieve(pool.d_r, pool.d_c, q, K, cfg)
        oracle = kind

    def check(raw) -> Outcome:
        sel, trace = raw
        out = Outcome([])
        _check_retrieval(sel, trace, pool, q, RHO, oracle, out)
        return out

    return Request(f"{kind}-n{pool.n}-q{j}", call, check)


# -- sweep -------------------------------------------------------------------


def _sweep(pools: list[Pool]) -> Workload:
    requests = [
        _sweep_request(pool, pool.queries[j], j)
        for j in range(len(pools[0].queries))
        for pool in pools
    ]

    def warm_up():
        pool = pools[0]
        cfg = MoprConfig(oracle_kind="tree", feature_view="labels", tree_depth=TREE_DEPTH, T=2)
        return algorithm.pareto_sweep(pool.d_r, pool.d_c, pool.queries[0], K, cfg, [SWEEP_GRID[0]])

    return Workload(requests, 75, warm_up)


def _sweep_request(pool: Pool, q: Query, j: int) -> Request:
    cfg = MoprConfig(oracle_kind="tree", feature_view="labels", tree_depth=TREE_DEPTH, T=T)

    def call():
        # pareto_sweep returns points without selections; record the
        # selection of each inner retrieval by wrapping the module binding
        # that pareto_sweep calls through
        captured = []
        inner = algorithm.mopr_retrieve

        def recording(*args, **kwargs):
            result = inner(*args, **kwargs)
            captured.append(result)
            return result

        algorithm.mopr_retrieve = recording
        try:
            points = algorithm.pareto_sweep(pool.d_r, pool.d_c, q, K, cfg, list(SWEEP_GRID))
        finally:
            algorithm.mopr_retrieve = inner
        return points, captured

    def check(raw) -> Outcome:
        points, captured = raw
        out = Outcome([])
        if len(points) != len(SWEEP_GRID) or len(captured) != len(SWEEP_GRID):
            out.problems.append(
                f"{len(points)} points and {len(captured)} retrievals for {len(SWEEP_GRID)} rho values"
            )
            return out
        _, topk_mean = _similarity_reference(pool, q)
        for rho, point, (sel, trace) in zip(SWEEP_GRID, points, captured):
            if point.rho_target != rho or point.halted_by == "infeasible":
                out.problems.append(f"point for rho={rho} is {point.halted_by}")
                continue
            if point.mpr_achieved != trace.achieved_mpr or point.mean_similarity != trace.mean_similarity:
                out.problems.append(f"point for rho={rho} does not match its retrieval")
            if abs(point.sim_frac_topk - point.mean_similarity / topk_mean) > SAME_TOL:
                out.problems.append(f"sim_frac_topk for rho={rho} is not mean / top-k mean")
            _check_retrieval(sel, trace, pool, q, rho, "tree", out)
        return out

    return Request(f"sweep-n{pool.n}-q{j}", call, check)


# -- audit -------------------------------------------------------------------

def _audit(pools: list[Pool]) -> Workload:
    requests = [
        _audit_request(pool, pool.queries[j], j, selector, k)
        for j in range(len(pools[0].queries))
        for pool in pools
        for selector in ("topk", "mmr")
        for k in AUDIT_KS
    ]

    def warm_up():
        pool = pools[0]
        sel, _ = similarity.top_k(pool.d_r, pool.queries[0], K)
        return metric.mpr_closed_form_linear(sel, pool.d_r, pool.d_c, "labels")

    return Workload(requests, 98, warm_up)


def _audit_request(pool: Pool, q: Query, j: int, selector: str, k: int) -> Request:
    """Select k items, then evaluate the selection's MPR by every method."""
    indicators = statclasses.all_cell_indicators(pool.d_r.schema.label_cards)
    d_r, d_c = pool.d_r, pool.d_c

    def call():
        if selector == "topk":
            sel, _ = similarity.top_k(d_r, q, k)
        else:
            sel = algorithm.mmr_retrieve(d_r, q, k, MMR_LAMBDA)
        reports = (
            metric.mpr_exact_finite(sel, d_r, d_c, indicators),
            metric.mpr_via_oracle(sel, d_r, d_c, "linear", "labels"),
            metric.mpr_via_oracle(sel, d_r, d_c, "tree", "concat", tree_depth=TREE_DEPTH),
            metric.mpr_closed_form_linear(sel, d_r, d_c, "labels"),
            metric.mpr_rkhs(sel, d_r, d_c, "gaussian", sigma=RKHS_SIGMA, feature_view="labels"),
        )
        return sel, reports

    def check(raw) -> Outcome:
        sel, (finite, oracle_linear, oracle_tree, closed_linear, rkhs) = raw
        idx = np.flatnonzero(sel.indicator)
        out = Outcome([idx])
        if sel.k != k or idx.size != k:
            out.problems.append(f"selection has {idx.size} items, expected {k}")
            return out
        if selector == "topk":
            s, _ = _similarity_reference(pool, q)
            expected = np.sort(np.argsort(-s, kind="stable")[:k])
            if not np.array_equal(idx, expected):
                out.problems.append("top-k selection differs from a plain sort")
        linear = _linear_reference(idx, pool, k)
        X = np.vstack([statclasses.feature_matrix(d_r, "concat"), statclasses.feature_matrix(d_c, "concat")])
        fitted = oracle_tree.witness.values_from_features(X)
        m = len(d_c)
        if abs(float(np.linalg.norm(fitted)) - np.sqrt(m * k / (m + k))) > ROUTE_TOL:
            out.problems.append("tree witness is not normalized over the context")
        if not 0.0 <= oracle_tree.value <= 1.0 + SAME_TOL:
            out.problems.append(f"tree MPR {oracle_tree.value!r} outside [0, 1]")
        expected_values = (
            ("mpr_exact_finite", finite.value, _finite_reference(idx, pool), SAME_TOL),
            ("linear oracle", oracle_linear.value, linear, ROUTE_TOL),
            ("linear closed form", closed_linear.value, linear, ROUTE_TOL),
            ("tree oracle", oracle_tree.value, abs(float(fitted @ _tilde(idx, pool, k))), SAME_TOL),
            ("gaussian rkhs", rkhs.value, _rkhs_reference(idx, pool, RKHS_SIGMA), ROUTE_TOL),
        )
        for what, value, ref, tol in expected_values:
            if abs(value - ref) > tol:
                out.problems.append(f"{what} MPR {value!r} != recomputed {ref!r}")
        return out

    return Request(f"audit-{selector}-k{k}-n{pool.n}-q{j}", call, check)


# -- quality, digests and fingerprints ----------------------------------------


def quality(outcomes: list[Outcome]) -> dict:
    """Quality of the constrained retrievals, each distinct one counted once.

    Certification uses the independently recomputed MPR, not ``halted_by``.
    """
    rows = [q for o in outcomes for q in o.quality]
    if not rows:
        return {}
    return {
        "certified_frac": sum(mpr <= rho + CERTIFY_TOL for mpr, rho, _ in rows) / len(rows),
        "mpr_excess_mean": sum(max(0.0, mpr - rho) for mpr, rho, _ in rows) / len(rows),
        "sim_frac_topk_mean": sum(frac for _, _, frac in rows) / len(rows),
        "retrievals": len(rows),
    }


def fingerprint(raw) -> bytes:
    """Bytes that identify a request's output, to compare repeats."""
    h = hashlib.sha256()
    if isinstance(raw, tuple) and len(raw) == 2 and isinstance(raw[1], list):
        points, captured = raw
        for point in points:
            h.update(repr(vars(point)).encode())
        for sel, _ in captured:
            h.update(np.flatnonzero(sel.indicator).tobytes())
    else:
        sel, second = raw
        h.update(np.flatnonzero(sel.indicator).tobytes())
        values = [r.value for r in second] if isinstance(second, tuple) else [second.achieved_mpr]
        h.update(repr(values).encode())
    return h.digest()


def selection_digest(labels: list[str], outcomes: list[Outcome]) -> str:
    """sha256 over every request's selected indices, in request order."""
    h = hashlib.sha256()
    for label, outcome in zip(labels, outcomes):
        h.update(label.encode())
        for idx in outcome.selections:
            h.update(b":" + ",".join(str(int(i)) for i in idx).encode())
        h.update(b"\n")
    return h.hexdigest()
