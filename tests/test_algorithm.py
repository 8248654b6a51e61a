import csv
import gc
import itertools
import math
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from conftest import make_dataset, random_pair, scipy_reference
from mopr import algorithm, metric, statclasses
from mopr.algorithm import (
    MoprConfig,
    SWEEP_CSV_HEADER,
    _SweepCarry,
    _cutting_plane,
    _selectable,
    _solve_with_relaxation,
    mmr_retrieve,
    mopr_qp_linear,
    mopr_retrieve,
    pareto_sweep,
    write_sweep_csv,
)
from mopr.datamodel import (
    GroupAxis,
    Query,
    SyntheticSpec,
    build_balanced_curation,
    generate_synthetic,
)
from mopr.metric import (
    CellCounts,
    LinearClass,
    OracleClass,
    class_partition,
    feature_groups,
    mpr_closed_form_linear,
    mpr_exact_finite,
    oracle_gap,
    signed_weights,
    svd_context,
)
from mopr.similarity import Selection, similarity_vector, top_k
from mopr.solver import check_cuts, round_top_k, solve_ip_exact, solve_lp, Cut
from mopr.statclasses import all_cell_indicators, target_norm


def binary_instance(rng, n=15, m=40, d=3, guaranteed_each=4):
    """Skewed binary-group retrieval pool with positive query similarities."""
    groups = [0] * guaranteed_each + [1] * guaranteed_each + [
        int(rng.integers(2)) for _ in range(n - 2 * guaranteed_each)
    ]
    emb = rng.standard_normal((n, d)) * 0.3
    emb[:, 0] = rng.uniform(1.5, 2.0, size=n)
    emb[:, 0] += np.where(np.array(groups) == 0, 0.3, -0.3)
    d_r = make_dataset(emb, [{"g": g} for g in groups], cards={"g": 2}, prefix="r")
    d_c = make_dataset(
        rng.standard_normal((m, d)),
        [{"g": 0 if i < 15 else 1} for i in range(m)],
        role="curated",
        prefix="c",
    )
    q = Query("q", np.eye(d)[0])
    return d_r, d_c, q


def grid_instance(seed=0, n=80, m=60):
    """2x4 grid of group cells, skewed in the retrieval pool and by similarity."""
    axes = (
        GroupAxis("a", 2, (0.7, 0.3), (0.5, 0.5)),
        GroupAxis("b", 4, (0.4, 0.3, 0.2, 0.1), (0.25,) * 4),
    )
    spec = SyntheticSpec(n=n, m=m, d=4, group_axes=axes,
                         similarity_bias={"a": (0.5, -0.5)}, seed=seed)
    return generate_synthetic(spec)


def cell_cuts(d_r, d_c, k, rho):
    """One cut per cell of the full product, from its indicator's values."""
    return [Cut(ind.values(d_r) / k, float(np.mean(ind.values(d_c))), rho)
            for ind in all_cell_indicators(d_r.schema.label_cards)]


def finite_scan(sel, d_r, d_c):
    """The cell-indicator gap of ``sel`` by a plain scan of the label tuples
    present in D_R or D_C; a cell absent from both has gap 0 at a selection."""
    rows = [tuple(r) for r in d_r.labels.tolist()]
    curated = [tuple(r) for r in d_c.labels.tolist()]
    picked = [rows[i] for i in sel.indices]
    k, m = sel.k, len(curated)
    return max(abs((2 * picked.count(c) - k) / k - (2 * curated.count(c) - m) / m)
               for c in set(rows) | set(curated))


def worst_cell_cut(counts):
    """The finite class as a separator: the worst cell's gap at ``a`` and its
    cut, bound 0, as ``compare-ip`` builds it."""

    def separate(a):
        value, cell = counts.worst(a)
        return value, counts.cut(cell, 0.0)

    return separate


def linear_mprs(subsets, d_r, d_c, k):
    """The labels-view linear-class MPR of each row of ``subsets`` (0/1, one
    selection a row), as the closed form's norm tn * ||U_l' sums(tilde)||."""
    ctx = svd_context(feature_groups(d_r, d_c, "labels"))
    n, m, groups = len(d_r), len(d_c), ctx.groups
    on_cells = np.eye(len(groups.rows))[groups.inverse]
    curated = on_cells[n:].sum(axis=0) * (-1.0 / m)
    z = (subsets @ on_cells[:n] / k + curated) @ ctx.U_l
    return target_norm(m, k) * np.linalg.norm(z, axis=1)


def loop_separator(d_r, d_c, q, k, cfg):
    """The separator ``mopr_retrieve`` builds for ``cfg``, its cut bounded by ``cfg.rho``."""
    separator = _SweepCarry(d_r, d_c, q, k, cfg).separator

    def separate(a):
        violation, cut = separator(a)
        return violation, cut.with_bound(cfg.rho)

    return separate


def qp_separator(d_r, d_c, k, rho):
    # the supporting hyperplane of mopr_qp_linear, in the same arithmetic
    ctx = svd_context(feature_groups(d_r, d_c, "labels"))
    n, m, tn = len(d_r), len(d_c), target_norm(len(d_c), k)

    def separate(a):
        tilde = np.concatenate([a / k, np.full(m, -1.0 / m)])
        z = ctx.U_l.T @ ctx.groups.sums(tilde)
        zn = float(np.linalg.norm(z))
        grad = (tn * (ctx.U_l @ z) / zn)[ctx.groups.inverse[:n]] / k
        return tn * zn, Cut(grad, float(grad @ a) - tn * zn, rho)

    return separate


def run_to_cap(s, k, rho, T, separate, cuts=(), start=None):
    """The cutting-plane loop without the stall halt: a duplicate cut is
    skipped and the loop goes on until the constraint holds or T is reached.
    Starts from ``cuts`` and the LP ``start`` (whose rows they are); returns
    the selection, its violation, and the cuts and LP where the loop ended."""
    cuts = list(cuts)
    for _ in range(T):
        lp = solve_lp(s, cuts, k, start=start)
        start = lp.lp
        sel = round_top_k(lp.a, k)
        violation, cut = separate(sel.indicator.astype(float))
        if violation <= rho + 1e-8:
            break
        if not any(np.max(np.abs(cut.coefficients - old.coefficients)) < 1e-9 for old in cuts):
            cuts.append(cut)
    return sel, separate(sel.indicator.astype(float))[0], cuts, start


@pytest.mark.parametrize("kind, rho", [("linear", 0.08), ("linear", 0.02), ("qp", 0.02)])
def test_stall_halt_matches_run_to_cap(kind, rho):
    d_r, d_c, q = grid_instance()
    k, T = 10, 30
    s = similarity_vector(d_r, q)
    if kind == "qp":
        sel, trace = mopr_qp_linear(d_r, d_c, q, k, rho=rho, T=T)
        separate = qp_separator(d_r, d_c, k, rho)
    else:
        cfg = MoprConfig(rho=rho, T=T, oracle_kind=kind)
        sel, trace = mopr_retrieve(d_r, d_c, q, k, cfg)
        separate = loop_separator(d_r, d_c, q, k, cfg)
    assert trace.effective_rho == rho  # no relaxation, which run_to_cap leaves out
    assert trace.halted_by == "stalled"
    assert len(trace.iterations) < T
    assert trace.iterations[-1].duplicate_cut and not trace.iterations[-1].cut_added
    ref_sel, ref_achieved, _, _ = run_to_cap(s, k, rho, T, separate)
    assert np.array_equal(sel.indicator, ref_sel.indicator)
    assert trace.achieved_mpr == ref_achieved


def record_retrievals(monkeypatch):
    """Wrap ``algorithm.mopr_retrieve``; returns the list its traces go to."""
    traces = []
    inner = algorithm.mopr_retrieve

    def recording(*args, **kwargs):
        result = inner(*args, **kwargs)
        traces.append(result[1])
        return result

    monkeypatch.setattr(algorithm, "mopr_retrieve", recording)
    return traces


@pytest.mark.parametrize("kind, seed", [pytest.param("linear", 1, id="linear"),
                                        pytest.param("tree", 0, id="tree")])
def test_sweep_matches_run_to_cap_carrying_cuts(kind, seed, monkeypatch):
    # the stall halt holds across grid values: a loop that never halts on a
    # duplicate, handed the cuts and LP of the value before, selects the same.
    # The instance of each class stalls at every grid value after the first
    d_r, d_c, q = grid_instance(seed)
    k, T, grid = 10, 30, [0.2, 0.1, 0.05, 0.02]
    cfg = MoprConfig(T=T, oracle_kind=kind)
    traces = record_retrievals(monkeypatch)
    pareto_sweep(d_r, d_c, q, k, cfg, grid)
    assert [t.effective_rho for t in traces] == grid  # no relaxation, which run_to_cap leaves out
    assert all(t.halted_by == "stalled" for t in traces[1:])
    s = similarity_vector(d_r, q)
    cuts, lp = [], None
    for rho, trace in zip(grid, traces):
        separate = loop_separator(d_r, d_c, q, k, replace(cfg, rho=rho))
        sel, achieved, cuts, lp = run_to_cap(
            s, k, rho, T, separate, [c.with_bound(rho) for c in cuts], lp)
        assert np.array_equal(trace.selection.indicator, sel.indicator)
        assert trace.achieved_mpr == achieved


# The loop on grid_instance(seed), k = 10, T = 30: per iteration (lp_pivots,
# n_fractional), then the selected indices and the halt.  The linear class runs
# at rho = 0.02; the tree class sweeps PINNED_GRID, one entry per grid value
# (the relaxed ones included), with the exact tree oracle of the labels view.
# The pivot and tie rules and the top-k start fix every number here, so a
# change to the LP's arithmetic that keeps them moves a selection only where
# LP values tie within round_top_k's TOL.  The finite class at rho = 0.05 is
# the exact cell greedy: one record with no LP, and the selection.
PINNED_GRID = [0.2, 0.1, 0.05, 0.02]
PINNED = {
    "finite/0": ([(0, 0)], [4, 5, 17, 27, 34, 50, 51, 71, 72, 75], "constraint-satisfied"),
    "linear/0": ([(0, 0), (1, 2), (4, 3), (2, 4), (3, 5)],
         [4, 5, 14, 27, 34, 51, 53, 71, 72, 75], "stalled"),
    "tree-sweep/0": [
        ([(0, 0), (4, 2), (4, 3), (1, 4)],
         [3, 5, 17, 27, 34, 51, 53, 70, 72, 75], "constraint-satisfied"),
        ([(6, 3), (8, 5), (3, 5), (2, 6), (0, 6)],
         [4, 5, 17, 27, 34, 51, 53, 71, 72, 75], "stalled"),
        ([(6, 6), (0, 6)],
         [4, 5, 17, 27, 34, 50, 51, 71, 72, 75], "stalled"),
        ([(6, 7)],
         [4, 5, 17, 27, 34, 50, 51, 71, 72, 75], "stalled"),
    ],
    "finite/1": ([(0, 0)], [11, 29, 34, 51, 52, 53, 56, 57, 70, 73], "constraint-satisfied"),
    "linear/1": ([(0, 0), (2, 2), (4, 3), (3, 4)],
         [11, 16, 29, 51, 52, 55, 56, 57, 70, 73], "stalled"),
    "tree-sweep/1": [
        ([(0, 0), (2, 2), (1, 3), (2, 3)],
         [11, 16, 29, 34, 38, 43, 52, 55, 56, 73], "stalled"),
        ([(5, 3), (2, 4), (1, 5), (2, 5), (0, 5)],
         [11, 16, 29, 34, 51, 52, 53, 56, 70, 73], "stalled"),
        ([(1, 5)],
         [11, 16, 29, 34, 51, 52, 53, 56, 70, 73], "stalled"),
        ([(2, 5), (0, 5)],
         [11, 16, 29, 51, 52, 53, 56, 57, 70, 73], "stalled"),
    ],
    "finite/2": ([(0, 0)], [19, 25, 36, 47, 48, 59, 64, 70, 71, 79], "constraint-satisfied"),
    "linear/2": ([(0, 0), (3, 2), (3, 3), (2, 4), (2, 4), (3, 4)],
         [2, 16, 19, 25, 36, 48, 50, 55, 59, 64], "stalled"),
    "tree-sweep/2": [
        ([(0, 0), (2, 2), (3, 2), (4, 3), (1, 4), (1, 5)],
         [16, 19, 25, 36, 37, 48, 59, 64, 70, 79], "stalled"),
        ([(5, 4), (6, 6), (4, 5), (10, 5), (10, 4), (74, 5), (59, 7), (50, 6), (64, 6), (76, 7), (47, 7), (54, 7), (56, 7), (40, 7), (45, 7)],
         [16, 19, 25, 36, 40, 50, 64, 70, 71, 79], "stalled"),
        ([(76, 7)],
         [16, 19, 25, 36, 40, 50, 64, 70, 71, 79], "stalled"),
        ([(86, 7)],
         [16, 19, 25, 36, 40, 50, 64, 70, 71, 79], "stalled"),
    ],
    "finite/3": ([(0, 0)], [1, 11, 24, 27, 40, 43, 46, 75, 76, 78], "constraint-satisfied"),
    "linear/3": ([(0, 0), (3, 2), (4, 3), (5, 4), (2, 5)],
         [2, 4, 11, 24, 27, 44, 46, 75, 76, 78], "stalled"),
    "tree-sweep/3": [
        ([(0, 0), (2, 2), (1, 3), (2, 4)],
         [1, 11, 24, 32, 34, 44, 57, 75, 76, 78], "stalled"),
        ([(4, 4), (4, 4), (1, 4)],
         [1, 11, 24, 27, 34, 40, 46, 75, 76, 78], "constraint-satisfied"),
        ([(5, 5), (6, 6)],
         [1, 11, 24, 27, 34, 40, 46, 75, 76, 78], "stalled"),
        ([(3, 7), (2, 7)],
         [1, 11, 24, 27, 34, 40, 46, 75, 76, 78], "stalled"),
    ],
}


def pinned_summary(trace):
    return ([(rec.lp_pivots, rec.n_fractional) for rec in trace.iterations],
            trace.selection.indices.tolist(), trace.halted_by)


class TestPinnedLoop:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("kind, rho", [("finite", 0.05), ("linear", 0.02)])
    def test_retrieval(self, seed, kind, rho):
        d_r, d_c, q = grid_instance(seed)
        _, trace = mopr_retrieve(d_r, d_c, q, 10, MoprConfig(rho=rho, T=30, oracle_kind=kind))
        assert pinned_summary(trace) == PINNED[f"{kind}/{seed}"]

    @pytest.mark.parametrize("seed", range(4))
    def test_tree_sweep(self, seed, monkeypatch):
        d_r, d_c, q = grid_instance(seed)
        traces = record_retrievals(monkeypatch)
        pareto_sweep(d_r, d_c, q, 10, MoprConfig(T=30, oracle_kind="tree"), PINNED_GRID)
        assert [pinned_summary(t) for t in traces] == PINNED[f"tree-sweep/{seed}"]


class TestMoprRetrieve:
    def test_loose_rho_returns_topk_no_cuts(self, rng):
        d_r, d_c, q = binary_instance(rng)
        sel0, _ = top_k(d_r, q, 5)
        cfg = MoprConfig(rho=2.0, T=50, oracle_kind="finite")
        sel, trace = mopr_retrieve(d_r, d_c, q, 5, cfg)
        assert np.array_equal(sel.indicator, sel0.indicator)
        assert len(trace.iterations) == 1
        assert not trace.iterations[0].cut_added
        assert trace.halted_by == "constraint-satisfied"

    def test_achieved_mpr_matches_recomputation(self, rng):
        d_r, d_c, q = binary_instance(rng)
        cfg = MoprConfig(rho=0.1, T=50, oracle_kind="finite")
        sel, trace = mopr_retrieve(d_r, d_c, q, 5, cfg)
        indicators = all_cell_indicators({"g": 2})
        fresh = mpr_exact_finite(sel, d_r, d_c, indicators).value
        assert trace.achieved_mpr == pytest.approx(fresh, abs=1e-12)

    @pytest.mark.parametrize("kind", ["finite", "linear", "tree"])
    def test_label_cardinalities_must_agree(self, rng, kind):
        # D_C has a third category that the pool's schema lacks: the finite
        # class built from D_R's cells alone would never measure it
        d_r = make_dataset(rng.standard_normal((12, 3)), [{"g": i % 2} for i in range(12)],
                           cards={"g": 2}, prefix="r")
        d_c = make_dataset(rng.standard_normal((9, 3)), [{"g": i % 3} for i in range(9)],
                           cards={"g": 3}, role="curated", prefix="c")
        cfg = MoprConfig(rho=0.1, T=20, oracle_kind=kind)
        with pytest.raises(ValueError, match="disagree on label cardinalities"):
            mopr_retrieve(d_r, d_c, Query("q", np.eye(3)[0]), 6, cfg)

    def test_halt_condition_consistent(self, rng):
        d_r, d_c, q = binary_instance(rng)
        cfg = MoprConfig(rho=0.1, T=50, oracle_kind="finite")
        _, trace = mopr_retrieve(d_r, d_c, q, 5, cfg)
        if trace.halted_by == "constraint-satisfied":
            assert trace.achieved_mpr <= trace.effective_rho + 1e-8
        assert len(trace.iterations) <= cfg.T

    def test_near_ip_objective(self, rng):
        # n=15, k=5, one binary group: the finite retrieval is the exact IP
        d_r, d_c, q = binary_instance(rng, n=15)
        k, rho = 5, 0.1
        cfg = MoprConfig(rho=rho, T=50, oracle_kind="finite")
        sel, trace = mopr_retrieve(d_r, d_c, q, k, cfg)
        s = similarity_vector(d_r, q)
        indicators = all_cell_indicators({"g": 2})
        cuts = [
            Cut(st.values(d_r) / k, float(np.mean(st.values(d_c))), trace.effective_rho)
            for st in indicators
        ]
        ip = solve_ip_exact(s, cuts, k)
        assert float(s @ sel.indicator) == pytest.approx(float(s @ ip.indicator), rel=1e-12)

    def test_trace_is_reproducible(self, rng):
        d_r, d_c, q = binary_instance(rng)
        cfg = MoprConfig(rho=0.05, T=50, oracle_kind="finite")
        _, t1 = mopr_retrieve(d_r, d_c, q, 5, cfg)
        _, t2 = mopr_retrieve(d_r, d_c, q, 5, cfg)
        assert t1.to_dict() == t2.to_dict()

    def test_trace_counts_lp_pivots(self):
        d_r, d_c, q = grid_instance()
        _, trace = mopr_retrieve(d_r, d_c, q, 10, MoprConfig(rho=0.05, oracle_kind="linear"))
        pivots = [rec["lp_pivots"] for rec in trace.to_dict()["iterations"]]
        assert pivots[0] == 0  # the first LP has no cuts: its start is optimal
        assert all(isinstance(p, int) and p >= 0 for p in pivots) and sum(pivots) > 0

    def test_linear_oracle_achieved_matches_closed_form(self, rng):
        d_r, d_c, q = binary_instance(rng, n=30)
        cfg = MoprConfig(rho=0.2, T=50, oracle_kind="linear", feature_view="labels")
        sel, trace = mopr_retrieve(d_r, d_c, q, 8, cfg)
        ref = mpr_closed_form_linear(sel, d_r, d_c, "labels").value
        assert trace.achieved_mpr == pytest.approx(ref, abs=1e-8)

    @pytest.mark.parametrize("seed", [0, 1, 3, 4])
    @pytest.mark.parametrize("rho", [0.0, 0.05, 0.2])
    def test_finite_achieved_mpr_is_exact_finite(self, seed, rho):
        d_r, d_c, q = grid_instance(seed)
        sel, trace = mopr_retrieve(d_r, d_c, q, 10, MoprConfig(rho=rho, oracle_kind="finite"))
        indicators = all_cell_indicators(d_r.schema.label_cards)
        assert trace.achieved_mpr == mpr_exact_finite(sel, d_r, d_c, indicators).value

    def test_finite_on_twenty_binary_axes(self):
        # 2^20 cells, of which at most n + m are present
        axes = tuple(GroupAxis(f"a{j:02d}", 2, (0.7, 0.3), (0.5, 0.5)) for j in range(20))
        spec = SyntheticSpec(n=300, m=100, d=4, group_axes=axes,
                             similarity_bias={"a00": (0.5, -0.5)}, seed=5)
        d_r, d_c, q = generate_synthetic(spec)
        sel, trace = mopr_retrieve(d_r, d_c, q, 10, MoprConfig(rho=0.1, T=5, oracle_kind="finite"))
        assert trace.halted_by == "constraint-satisfied" and len(trace.iterations) == 1
        assert trace.achieved_mpr <= trace.effective_rho + 1e-8
        assert trace.selection is sel
        assert trace.achieved_mpr == finite_scan(sel, d_r, d_c)

    @pytest.mark.parametrize("kind, view", [("linear", "labels"), ("linear", "embedding"),
                                            ("linear", "concat"), ("tree", "labels"),
                                            ("tree", "embedding"), ("tree", "concat"),
                                            ("mlp", "labels"), ("mlp", "embedding"),
                                            ("mlp", "concat")])
    def test_oracle_achieved_mpr_is_its_own_gap(self, kind, view):
        d_r, d_c, q = grid_instance()
        cfg = MoprConfig(rho=0.05, T=5, oracle_kind=kind, feature_view=view, mlp_hidden=4,
                         mlp_epochs=30)
        sel, trace = mopr_retrieve(d_r, d_c, q, 10, cfg)
        assert trace.selection is sel
        if kind == "linear":  # the loop separates the linear class in closed form
            report = mpr_closed_form_linear(sel, d_r, d_c, view)
        else:
            report = metric.mpr_via_oracle(sel, d_r, d_c, kind, view, cfg.tree_depth,
                                           cfg.mlp_hidden, cfg.mlp_epochs, cfg.seed)
        assert trace.achieved_mpr == report.value

    def test_k_too_large(self, rng):
        d_r, d_c, q = binary_instance(rng, n=15)
        with pytest.raises(ValueError, match="exceeds"):
            mopr_retrieve(d_r, d_c, q, 16, MoprConfig())

    @pytest.mark.parametrize("k", [0, -1])
    @pytest.mark.parametrize("kind", ["finite", "linear"])
    def test_k_below_one(self, rng, k, kind):
        d_r, d_c, q = binary_instance(rng, n=15)
        with pytest.raises(ValueError, match="k must be at least 1"):
            mopr_retrieve(d_r, d_c, q, k, MoprConfig(oracle_kind=kind))

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            MoprConfig(T=0)
        with pytest.raises(ValueError):
            MoprConfig(rho=-0.1)

    def test_unknown_oracle_or_view_fails_at_construction(self):
        # before any LP is solved, with the messages the oracle and the views give
        with pytest.raises(ValueError, match="unknown oracle 'bogus'"):
            MoprConfig(oracle_kind="bogus")
        with pytest.raises(ValueError, match="unknown feature view 'bogus'"):
            MoprConfig(oracle_kind="finite", feature_view="bogus")
        with pytest.raises(ValueError, match="unknown oracle 'svm'"):
            replace(MoprConfig(), oracle_kind="svm")
        # the finite class is the label cells, so another view is no run of it
        for view in ("embedding", "concat"):
            with pytest.raises(ValueError, match=f"needs the labels view, not '{view}'"):
                MoprConfig(oracle_kind="finite", feature_view=view)
            with pytest.raises(ValueError, match=f"needs the labels view, not '{view}'"):
                replace(MoprConfig(feature_view=view), oracle_kind="finite")

    @pytest.mark.parametrize("field, value, least", [
        ("tree_depth", 0, 1), ("mlp_hidden", 0, 1), ("mlp_epochs", -1, 0),
        ("curation_pool_size", 0, 1)])
    def test_oracle_field_out_of_range_fails_at_construction(self, field, value, least):
        # an MLP trained for -1 epochs would certify from its untrained net
        with pytest.raises(ValueError, match=rf"^{field} must be >= {least}, got {value}$"):
            MoprConfig(oracle_kind="mlp", **{field: value})
        with pytest.raises(ValueError, match=rf"^{field} must be >= {least}, got {value}$"):
            replace(MoprConfig(), **{field: value})
        MoprConfig(**{field: least})

    def test_nan_rho_rejected(self, rng):
        d_r, d_c, q = binary_instance(rng)
        with pytest.raises(ValueError, match="rho must be non-negative, got nan"):
            MoprConfig(rho=float("nan"))
        with pytest.raises(ValueError, match="rho must be non-negative, got nan"):
            replace(MoprConfig(), rho=float("nan"))
        with pytest.raises(ValueError, match="rho must be non-negative, got nan"):
            mopr_qp_linear(d_r, d_c, q, 5, rho=float("nan"))

    @pytest.mark.parametrize("kind", ["finite", "linear"])
    def test_infinite_rho_is_top_k(self, rng, kind):
        d_r, d_c, q = binary_instance(rng)
        sel, trace = mopr_retrieve(d_r, d_c, q, 5, MoprConfig(rho=float("inf"), oracle_kind=kind))
        assert np.array_equal(sel.indicator, top_k(d_r, q, 5)[0].indicator)
        assert trace.halted_by == "constraint-satisfied" and len(trace.iterations) == 1


@st.composite
def cell_instances(draw):
    """A labels-view pool of at most 20 items on a 2, 2 x 3 or 3 x 3 grid of
    cells, with k and rho.  One cell holds curated items and no retrieval
    item, so its count is 0 in every selection."""
    cards = draw(st.sampled_from([{"a": 2}, {"a": 2, "b": 3}, {"a": 3, "b": 3}]))
    n = draw(st.integers(1, 20))
    k = draw(st.integers(1, n))
    m = draw(st.integers(1, 30))
    rho = draw(st.sampled_from([0.0, 0.05, 0.2, 0.5]) | st.floats(0.0, 2.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cells = list(itertools.product(*(range(card) for card in cards.values())))
    curated_only = cells.pop(int(rng.integers(len(cells))))
    pool = [cells[i] for i in rng.integers(len(cells), size=n)]
    curated = [curated_only] + [(cells + [curated_only])[i]
                                for i in rng.integers(len(cells) + 1, size=m - 1)]
    d_r = make_dataset(rng.standard_normal((n, 3)), [dict(zip(cards, c)) for c in pool],
                       cards=cards, prefix="r")
    d_c = make_dataset(rng.standard_normal((m, 3)), [dict(zip(cards, c)) for c in curated],
                       cards=cards, role="curated", prefix="c")
    return d_r, d_c, Query("q", rng.standard_normal(3)), k, rho


class TestCellGreedy:
    """The finite class is retrieved exactly: the cell greedy's selection is
    an optimum of the integer program under every cell cut at its effective
    rho, which is rho itself unless no selection reaches rho."""

    @settings(max_examples=100, deadline=None)
    @given(cell_instances())
    def test_greedy_is_the_exact_optimum(self, instance):
        d_r, d_c, q, k, rho = instance
        sel, trace = mopr_retrieve(d_r, d_c, q, k, MoprConfig(rho=rho, oracle_kind="finite"))
        s = similarity_vector(d_r, q)
        rho_eff = trace.effective_rho
        assert rho_eff >= rho
        cuts = cell_cuts(d_r, d_c, k, rho_eff)
        assert check_cuts(sel.indicator, cuts, tol=1e-8) == []
        ip = solve_ip_exact(s, cuts, k)
        assert float(s @ sel.indicator) == pytest.approx(float(s @ ip.indicator), rel=1e-12)
        if rho_eff > rho:
            with pytest.raises(ValueError, match="infeasible"):
                solve_ip_exact(s, cell_cuts(d_r, d_c, k, rho_eff - 1e-6), k)
        assert trace.achieved_mpr == finite_scan(sel, d_r, d_c) <= rho_eff + 1e-8
        (record,) = trace.iterations
        assert (record.lp_pivots, record.n_fractional, record.cut_added) == (0, 0, False)
        assert record.lp_objective == pytest.approx(float(s @ sel.indicator), rel=1e-12)
        assert record.rho_eff == rho_eff and trace.halted_by == "constraint-satisfied"

    def test_finite_sweep_certifies_every_point(self, monkeypatch):
        # down a descending grid every point certifies at its own rho, or at
        # the smallest one a selection reaches, and the similarity never rises
        d_r, d_c, q = grid_instance(n=300, m=200)
        grid = [0.4, 0.2, 0.1, 0.05, 0.02, 0.0]
        traces = record_retrievals(monkeypatch)
        points = pareto_sweep(d_r, d_c, q, 20, MoprConfig(oracle_kind="finite"), grid)
        assert [t.effective_rho for t in traces[:4]] == grid[:4]
        for point, trace in zip(points, traces):
            assert point.halted_by == "constraint-satisfied" and point.iterations == 1
            assert point.mpr_achieved == finite_scan(trace.selection, d_r, d_c)
            assert point.mpr_achieved <= max(point.rho_target, trace.effective_rho) + 1e-8
        means = [p.mean_similarity for p in points]
        assert all(later <= earlier for earlier, later in zip(means, means[1:]))


class TestQpVariant:
    def test_loose_rho_keeps_topk(self, rng):
        d_r, d_c, q = binary_instance(rng)
        sel0, _ = top_k(d_r, q, 5)
        sel, trace = mopr_qp_linear(d_r, d_c, q, 5, rho=5.0)
        assert np.array_equal(sel.indicator, sel0.indicator)
        assert trace.halted_by == "constraint-satisfied"

    def test_achieved_is_closed_form_value(self, rng):
        d_r, d_c, q = binary_instance(rng, n=30)
        sel, trace = mopr_qp_linear(d_r, d_c, q, 8, rho=0.2, feature_view="labels")
        ref = mpr_closed_form_linear(sel, d_r, d_c, "labels").value
        assert trace.achieved_mpr == pytest.approx(ref, abs=1e-9)

    def test_tightening_rho_lowers_mpr(self, rng):
        d_r, d_c, q = binary_instance(rng, n=40)
        sel0, _ = top_k(d_r, q, 10)
        mpr0 = mpr_closed_form_linear(sel0, d_r, d_c, "labels").value
        _, loose = mopr_qp_linear(d_r, d_c, q, 10, rho=0.9 * mpr0, feature_view="labels")
        _, tight = mopr_qp_linear(d_r, d_c, q, 10, rho=0.3 * mpr0, feature_view="labels")
        assert tight.achieved_mpr <= loose.achieved_mpr + 1e-9


    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one(self, rng, k):
        d_r, d_c, q = binary_instance(rng)
        with pytest.raises(ValueError, match="k must be at least 1"):
            mopr_qp_linear(d_r, d_c, q, k, rho=0.1)

    @pytest.mark.parametrize("kwargs, message", [
        ({"rho": 0.1, "T": 0}, "T must be >= 1"),
        ({"rho": -0.1}, "rho must be non-negative"),
    ])
    def test_invalid_run_rejected(self, rng, kwargs, message):
        d_r, d_c, q = binary_instance(rng)
        with pytest.raises(ValueError, match=message):
            mopr_qp_linear(d_r, d_c, q, 5, **kwargs)


class TestMmr:
    def test_lambda_one_is_topk(self, rng):
        d_r, _, q = binary_instance(rng)
        sel0, _ = top_k(d_r, q, 5)
        sel = mmr_retrieve(d_r, q, 5, 1.0)
        assert np.array_equal(sel.indicator, sel0.indicator)

    def test_lambda_zero_avoids_duplicates(self):
        # two duplicates plus one distinct item: pure-diversity picks distinct
        d_r = make_dataset([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        q = Query("q", np.array([1.0, 0.0]))
        sel = mmr_retrieve(d_r, q, 2, 0.0)
        assert sel.indicator.tolist() == [1, 0, 1]

    def test_exactly_k_selected(self, rng):
        d_r, _, q = binary_instance(rng)
        for lam in (0.0, 0.3, 0.7, 1.0):
            assert int(mmr_retrieve(d_r, q, 6, lam).indicator.sum()) == 6

    def test_matches_reference_greedy(self, rng):
        # independent slow re-implementation of the greedy rule
        d_r, _, q = binary_instance(rng, n=12)
        lam, k = 0.6, 5
        sims = similarity_vector(d_r, q)
        unit = d_r.embeddings / np.linalg.norm(d_r.embeddings, axis=1, keepdims=True)
        chosen = []
        for _ in range(k):
            best, best_score = None, -np.inf
            for i in range(12):
                if i in chosen:
                    continue
                if chosen:
                    red = max(float(np.clip(unit[i] @ unit[j], -1, 1)) for j in chosen)
                    score = lam * sims[i] - (1 - lam) * red
                else:
                    score = sims[i]
                if score > best_score:
                    best, best_score = i, score
            chosen.append(best)
        sel = mmr_retrieve(d_r, q, k, lam)
        assert sorted(chosen) == sel.indices.tolist()

    def test_lambda_range_checked(self, rng):
        d_r, _, q = binary_instance(rng)
        with pytest.raises(ValueError, match="lambda"):
            mmr_retrieve(d_r, q, 3, 1.5)

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one(self, rng, k):
        d_r, _, q = binary_instance(rng)
        with pytest.raises(ValueError, match=f"k must be at least 1, got {k}"):
            mmr_retrieve(d_r, q, k, 0.5)


def smallest_feasible_rho(s, cuts, k):
    """HiGHS: min t over a in [0,1]^n, sum(a) = k, with every cut relaxed to
    gap t: |c.a - offset| <= t."""
    n = s.size
    A_ub, b_ub = [], []
    for cut in cuts:
        A_ub += [np.append(cut.coefficients, -1.0), np.append(-cut.coefficients, -1.0)]
        b_ub += [cut.offset, -cut.offset]
    res = linprog(np.append(np.zeros(n), 1.0), A_ub=np.array(A_ub), b_ub=b_ub,
                  A_eq=[np.append(np.ones(n), 0.0)], b_eq=[k],
                  bounds=[(0, 1)] * n + [(0, None)], method="highs")
    assert res.status == 0
    return res.fun


class TestRelaxation:
    def test_relaxes_from_rho_zero(self):
        # the six cuts found at rho = 0 leave the LP infeasible at the seventh solve
        d_r, d_c, q = grid_instance(seed=2)
        sel, trace = mopr_retrieve(d_r, d_c, q, 10, MoprConfig(rho=0.0, oracle_kind="finite"))
        assert trace.effective_rho > 0.0
        indicators = all_cell_indicators(d_r.schema.label_cards)
        assert trace.achieved_mpr == mpr_exact_finite(sel, d_r, d_c, indicators).value

    def test_records_carry_the_relaxed_rho(self):
        # rho stays 0 until an LP turns infeasible, and from that iteration on
        # each record holds the relaxed value it solved at
        d_r, d_c, q = grid_instance(seed=2, n=30)
        _, trace = mopr_retrieve(d_r, d_c, q, 10, MoprConfig(rho=0.0, oracle_kind="linear"))
        rhos = [rec["rho_eff"] for rec in trace.to_dict()["iterations"]]
        assert rhos[0] == 0.0 and rhos[-1] == trace.effective_rho > 0.0
        assert rhos == sorted(rhos)

    @pytest.mark.parametrize("seed", range(8))
    def test_relaxed_rho_is_the_smallest_feasible(self, seed):
        rng = np.random.default_rng(seed)
        n, k = 12, 4
        s = rng.uniform(0.1, 1.0, size=n)
        cuts = []
        for _ in range(5):
            coef = rng.choice([-1.0, 1.0], size=n) / k
            offset = float(rng.uniform(-0.8, 0.8))
            cuts.append(Cut(coef, offset, 0.0))
        lp, relaxed, rho, pivots = _solve_with_relaxation(s, cuts, k, 0.0, None)
        assert lp.status == "optimal"
        assert rho == pytest.approx(smallest_feasible_rho(s, cuts, k), rel=3e-6, abs=1e-8)
        assert not check_cuts(lp.a, relaxed, tol=1e-7)
        assert pivots >= lp.diagnostics["pivots"]

    def test_infeasible_at_rho_two_raises(self):
        cut = Cut(np.ones(3), 10.0, 0.0)  # any pair sums to 2, a gap of 8
        with pytest.raises(RuntimeError, match="rho=2.0"):
            _solve_with_relaxation(np.ones(3), [cut], 2, 0.0, None)


class TestOracleCut:
    """The oracle's cut is built from the witness's values that the search
    computed over the stacked D_R and D_C rows, bit for bit.  Tree leaves and
    cell indicators are copied, not computed, so those cuts also equal,
    bit for bit, the cut built by evaluating the witness on D_R and on D_C.
    Linear and MLP values are dot products, and BLAS may sum the last rows of
    a matrix in another order than the same rows inside a taller one, so
    there the two cuts agree to rounding."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from(["linear", "tree", "mlp"]),
           st.sampled_from(["labels", "embedding", "concat"]))
    def test_regression_cut_matches_witness_values(self, seed, kind, view):
        rng = np.random.default_rng(seed)
        n, m = int(rng.integers(2, 200)), int(rng.integers(2, 150))
        k = int(rng.integers(1, n + 1))
        d_r, d_c = random_pair(rng, n, m, int(rng.integers(1, 6)), int(rng.integers(2, 5)))
        a = np.zeros(n)
        a[rng.choice(n, size=k, replace=False)] = 1.0
        cfg = MoprConfig(rho=0.05, oracle_kind=kind, feature_view=view, tree_depth=3,
                         mlp_hidden=4, mlp_epochs=20, seed=seed % 7)
        oracle = OracleClass.build(d_r, d_c, k, kind, view, cfg.tree_depth, cfg.mlp_hidden,
                                   cfg.mlp_epochs, cfg.seed)
        groups = feature_groups(d_r, d_c, view)
        _, w, _, _ = oracle_gap(groups, signed_weights(a, k, m), m, k, kind, view,
                                cfg.tree_depth, cfg.mlp_hidden, cfg.mlp_epochs, cfg.seed)
        cut = oracle(a)[1].with_bound(cfg.rho)
        searched = w.values_from_features(groups.rows)[groups.inverse]
        assert np.array_equal(cut.coefficients, searched[:n] / k)
        assert cut.offset == float(np.mean(searched[n:]))
        assert cut.bound == cfg.rho
        coef, offset = w.values(d_r) / k, float(np.mean(w.values(d_c)))
        if kind == "tree":
            assert np.array_equal(cut.coefficients, coef) and cut.offset == offset
        else:
            assert np.allclose(cut.coefficients, coef, rtol=1e-12, atol=1e-12)
            assert cut.offset == pytest.approx(offset, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_finite_cut_is_table_cut(self, seed):
        d_r, d_c, q = grid_instance(seed)
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, len(d_r) + 1))
        a = np.zeros(len(d_r))
        a[rng.choice(len(d_r), size=k, replace=False)] = 1.0
        oracle = CellCounts.build(d_r, d_c, k)
        indicators = all_cell_indicators(d_r.schema.label_cards)
        witness = mpr_exact_finite(Selection(a.astype(int), k), d_r, d_c, indicators).witness
        cut = worst_cell_cut(oracle)(a)[1].with_bound(0.1)
        expected = cell_cuts(d_r, d_c, k, 0.1)[indicators.index(witness)]
        assert np.array_equal(cut.coefficients, expected.coefficients)
        assert (cut.offset, cut.bound) == (expected.offset, expected.bound)


SEPARATORS = [("finite", "labels")] + [
    (kind, view) for kind in ("hyperplane", "linear", "tree", "mlp")
    for view in ("labels", "embedding", "concat")
]


class TestCutIsTight:
    """A separator's cut at ``a`` spans all n retrieval items with bound 0,
    and its two sides are apart by the violation at ``a``, at a selection and
    at a fractional point of the LP's polytope (0 <= a <= 1, sum(a) = k)."""

    @settings(max_examples=120, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from(SEPARATORS), st.booleans())
    def test_cut_is_tight(self, seed, separator, fractional):
        kind, view = separator
        rng = np.random.default_rng(seed)
        n, m = int(rng.integers(2, 120)), int(rng.integers(2, 100))
        k = int(rng.integers(1, n + 1))
        d_r, d_c = random_pair(rng, n, m, int(rng.integers(1, 6)), int(rng.integers(2, 5)))
        a, b = np.zeros(n), np.zeros(n)
        a[rng.choice(n, size=k, replace=False)] = 1.0
        if fractional:  # a convex combination of two selections and the uniform point
            b[rng.choice(n, size=k, replace=False)] = 1.0
            w = rng.dirichlet(np.ones(3))
            a = w[0] * a + w[1] * b + w[2] * (k / n)
        if kind == "hyperplane":
            separate = LinearClass.build(d_r, d_c, k, view)
        elif kind == "finite":
            separate = worst_cell_cut(CellCounts.build(d_r, d_c, k))
        else:
            separate = OracleClass.build(d_r, d_c, k, kind, view, mlp_hidden=4, mlp_epochs=20,
                                         seed=seed % 7)
        violation, cut = separate(a)
        assert cut.coefficients.shape == (n,) and cut.bound == 0.0
        assert np.all(np.isfinite(cut.coefficients))
        assert abs(float(cut.coefficients @ a) - cut.offset) == pytest.approx(
            violation, rel=1e-9, abs=1e-12)


class TestCutRestriction:
    """The loop restricts and re-bounds a checked cut without checking its
    coefficients again; only the new bound is checked."""

    def test_restriction_is_the_constructed_cut(self):
        cut = Cut(np.array([0.1, -0.2, 0.3, 0.4]), 0.05, 0.0)
        keep = np.array([0, 2, 3])
        for restricted, columns in ((cut.with_bound(0.2, keep), keep),
                                    (cut.with_bound(0.2), slice(None))):
            built = Cut(cut.coefficients[columns], cut.offset, 0.2)
            assert np.array_equal(restricted.coefficients, built.coefficients)
            assert (restricted.offset, restricted.bound) == (built.offset, built.bound)
        assert cut.bound == 0.0

    @pytest.mark.parametrize("bound", [-0.1, float("nan")])
    def test_a_new_bound_is_checked(self, bound):
        cut = Cut(np.ones(3), 0.0, 0.0)
        for columns in (None, np.array([0, 2])):
            with pytest.raises(ValueError, match="non-negative"):
                cut.with_bound(bound, columns)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_a_non_finite_coefficient_raises_from_the_constructor(self, bad):
        with pytest.raises(ValueError, match="coefficients must be finite"):
            Cut(np.array([0.1, bad, 0.2]), 0.0, 0.1)


class TestLinearSeparator:
    """The linear class has one separator, the closed form's supporting
    hyperplane, whichever entry point runs it.  The least-squares witness is
    the projection of the signed weights, so the regression oracle's cut is
    that same hyperplane (Props. ``equiv`` and ``closed_form_MPR``)."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from(["labels", "embedding", "concat"]))
    def test_closed_form_cut_is_the_oracle_cut(self, seed, view):
        rng = np.random.default_rng(seed)
        n, m = int(rng.integers(2, 200)), int(rng.integers(2, 150))
        k = int(rng.integers(1, n + 1))
        d_r, d_c = random_pair(rng, n, m, int(rng.integers(1, 6)), int(rng.integers(2, 5)))
        a = np.zeros(n)
        a[rng.choice(n, size=k, replace=False)] = 1.0
        gap, _, _, values = oracle_gap(feature_groups(d_r, d_c, view), signed_weights(a, k, m),
                                       m, k, "linear", view)
        # a selection as representative as the curated set has gap 0, up to
        # rounding, and both witnesses are then rounding noise
        assume(gap > 1e-12)
        separate = LinearClass.build(d_r, d_c, k, view)
        value, cut = separate(a)
        cut = cut.with_bound(0.05)
        coefficients, offset = values[:n] / k, float(np.mean(values[n:]))
        assert value == pytest.approx(gap, rel=1e-9)
        scale = np.abs(values).max()
        assert np.allclose(cut.coefficients, coefficients, rtol=1e-9, atol=1e-9 * scale / k)
        assert cut.offset == pytest.approx(offset, rel=1e-9, abs=1e-9 * scale)
        assert cut.bound == 0.05

    def test_zero_gap_is_the_zero_row(self):
        # one selected and two curated items per cell: the selection's cell
        # counts over k are the curated ones over m, so no linear statistic
        # separates the sets
        cells = [{"g": g} for g in (0, 0, 1, 1)]
        rng = np.random.default_rng(0)
        d_r = make_dataset(rng.standard_normal((4, 3)), cells, cards={"g": 2}, prefix="r")
        d_c = make_dataset(rng.standard_normal((4, 3)), cells, cards={"g": 2},
                           role="curated", prefix="c")
        violation, cut = LinearClass.build(d_r, d_c, 2)(np.array([1.0, 0.0, 1.0, 0.0]))
        assert violation == 0.0
        assert np.array_equal(cut.coefficients, np.zeros(4))
        assert (cut.offset, cut.bound) == (0.0, 0.0)

    def test_linear_retrieval_and_sweep_fit_nothing(self, monkeypatch):
        d_r, d_c, q = grid_instance()
        calls = {"fit_linear_ls": 0, "svd_context": 0}

        def counting(module, name):
            inner = getattr(module, name)

            def spy(*args, **kwargs):
                calls[name] += 1
                return inner(*args, **kwargs)

            monkeypatch.setattr(module, name, spy)

        counting(metric, "fit_linear_ls")
        counting(statclasses, "fit_linear_ls")
        counting(metric, "svd_context")
        cfg = MoprConfig(rho=0.02, T=30, oracle_kind="linear")
        mopr_retrieve(d_r, d_c, q, 10, cfg)
        assert calls == {"fit_linear_ls": 0, "svd_context": 1}
        pareto_sweep(d_r, d_c, q, 10, cfg, [0.2, 0.1, 0.05, 0.02])
        assert calls == {"fit_linear_ls": 0, "svd_context": 2}
        metric.mpr_via_oracle(top_k(d_r, q, 10)[0], d_r, d_c, "linear")  # the spy sees fits
        assert calls["fit_linear_ls"] == 1

    @pytest.mark.parametrize("seed", [0, 4])
    @pytest.mark.parametrize("view", ["labels", "embedding", "concat"])
    @pytest.mark.parametrize("rho", [0.0, 0.02, 0.05, 0.1, 0.3])
    def test_qp_name_is_the_linear_retrieval(self, seed, view, rho):
        d_r, d_c, q = grid_instance(seed)

        def run(retrieve):
            sel, trace = retrieve()
            return sel.indicator.tolist(), trace.to_dict()

        cfg = MoprConfig(rho=rho, T=30, oracle_kind="linear", feature_view=view)
        qp = run(lambda: mopr_qp_linear(d_r, d_c, q, 10, rho, T=30, feature_view=view))
        assert qp == run(lambda: mopr_retrieve(d_r, d_c, q, 10, cfg))


def selectable_reference(s, classes, k):
    """The first k items of each class in (descending similarity, index) order."""
    keep = []
    for c in set(classes.tolist()):
        members = sorted(np.flatnonzero(classes == c), key=lambda i: (-s[i], i))
        keep += members[:k]
    return np.sort(np.array(keep, dtype=int))


def tied_label_instance(n, k, seed, rho):
    """A labels-view pool whose similarities tie often: every retrieval
    embedding is one of three vectors, so the items of a cell share few
    similarity values and ties fall at a cell's k-th place.  The 2 x 3 cells
    are drawn at random from ``seed``, so some hold fewer than k items or
    none.  Returns the pool, query, k, rho and the generator, drawn past it."""
    rng = np.random.default_rng(seed)
    base = rng.standard_normal((3, 3))
    base[:, 0] = np.abs(base[:, 0]) + 0.5
    cards = {"a": 2, "b": 3}

    def labels(count):
        return [{"a": int(rng.integers(2)), "b": int(rng.integers(3))} for _ in range(count)]

    d_r = make_dataset(base[rng.integers(0, 3, size=n)], labels(n), cards=cards, prefix="r")
    d_c = make_dataset(rng.standard_normal((12, 3)), labels(12), cards=cards,
                       role="curated", prefix="c")
    return d_r, d_c, Query("q", np.eye(3)[0]), k, rho, rng


@st.composite
def tied_label_instances(draw):
    """``tied_label_instance`` at a drawn n, k, seed and rho."""
    n = draw(st.integers(4, 16))
    k = draw(st.sampled_from([1, n - 1]) | st.integers(1, n - 1))
    seed = draw(st.integers(0, 2**32 - 1))
    rho = draw(st.sampled_from([0.0, 1e-9, 0.05, 0.3, 0.999, 1.0]))
    return tied_label_instance(n, k, seed, rho)


def tie_canonical(indicator, s, classes):
    """``indicator`` with the c selected items of each group of one class and
    one similarity moved to the group's c lowest-index members, the tie rule of
    ``_selectable``.  Such items are interchangeable: swapping them changes
    neither a cut row's value nor the similarity."""
    groups = {}
    for i, key in enumerate(zip(classes.tolist(), s.tolist())):
        groups.setdefault(key, []).append(i)
    canonical = np.zeros_like(indicator)
    for members in groups.values():
        canonical[members[: int(indicator[members].sum())]] = 1
    return canonical


class TestPrunedLp:
    """The loop's LP has a column only for the k most similar items of each
    class (``_selectable``): an optimum takes no other item."""

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_selectable_is_the_top_k_of_each_class(self, data):
        n = data.draw(st.integers(1, 30))
        k = data.draw(st.sampled_from([1, n]) | st.integers(1, n))
        s = np.array(data.draw(st.lists(st.sampled_from([-0.5, 0.0, 0.25, 0.5]),
                                        min_size=n, max_size=n)))
        classes = np.array(data.draw(st.lists(st.integers(0, 4), min_size=n, max_size=n)))
        assert np.array_equal(_selectable(s, classes, k), selectable_reference(s, classes, k))

    @settings(max_examples=150, deadline=None)
    @given(tied_label_instances(), st.sampled_from(["finite", "linear", "qp"]))
    def test_pruned_lp_matches_highs_over_every_column(self, instance, kind):
        d_r, d_c, q, k, rho, rng = instance
        s = similarity_vector(d_r, q)
        if kind == "qp":
            separate = LinearClass.build(d_r, d_c, k)
        elif kind == "finite":
            separate = CellCounts.build(d_r, d_c, k)
        else:
            separate = OracleClass.build(d_r, d_c, k, kind)
        keep = _selectable(s, separate.classes, k)
        assert np.array_equal(keep, selectable_reference(s, separate.classes, k))
        if kind == "finite":
            separate = worst_cell_cut(separate)
        full, pruned = [], []
        for _ in range(3):
            a = np.zeros(len(d_r))
            a[rng.choice(len(d_r), size=k, replace=False)] = 1.0
            value, cut = separate(a)
            if value > rho:
                full.append(cut.with_bound(rho))
                pruned.append(Cut(cut.coefficients[keep], cut.offset, rho))
        lp = solve_lp(s[keep], pruned, k)
        ref = scipy_reference(s, full, k)
        assert ref.status in (0, 2)
        assert lp.status == ("optimal" if ref.status == 0 else "infeasible")
        if ref.status == 0:
            assert lp.objective == pytest.approx(-ref.fun, rel=1e-9, abs=1e-7)
            on_all = np.zeros(len(d_r))
            on_all[keep] = lp.a
            assert check_cuts(on_all, full, tol=1e-7) == []

    @staticmethod
    def assert_selects_as_run_to_cap(d_r, d_c, q, k, rho, kind, T=15):
        """False, with nothing compared, if the retrieval relaxed rho, which
        run_to_cap leaves out."""
        if kind == "qp":
            sel, trace = mopr_qp_linear(d_r, d_c, q, k, rho=rho, T=T)
            separate = qp_separator(d_r, d_c, k, rho)
        else:
            cfg = MoprConfig(rho=rho, T=T, oracle_kind=kind)
            sel, trace = mopr_retrieve(d_r, d_c, q, k, cfg)
            separate = loop_separator(d_r, d_c, q, k, cfg)
        if trace.effective_rho != rho:
            return False
        s = similarity_vector(d_r, q)
        ref_sel, ref_achieved, _, _ = run_to_cap(s, k, rho, T, separate)
        # the LP over every column may end at another vertex, as good, that
        # swaps items of one class and one similarity
        classes = LinearClass.build(d_r, d_c, k).classes
        assert np.array_equal(tie_canonical(sel.indicator, s, classes),
                              tie_canonical(ref_sel.indicator, s, classes))
        assert trace.achieved_mpr == ref_achieved
        return True

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(30, 90), k=st.integers(2, 12),
           rho=st.sampled_from([0.02, 0.05, 0.1, 0.3]),
           kind=st.sampled_from(["linear", "qp"]))
    def test_loop_selects_as_run_to_cap_over_every_column(self, seed, n, k, rho, kind):
        d_r, d_c, q = grid_instance(seed, n=n, m=40)
        assume(self.assert_selects_as_run_to_cap(d_r, d_c, q, k, rho, kind))

    @settings(max_examples=80, deadline=None)
    @given(tied_label_instances(), st.sampled_from(["linear", "qp"]))
    def test_tied_loop_selects_as_run_to_cap_over_every_column(self, instance, kind):
        d_r, d_c, q, k, rho, _ = instance
        assume(self.assert_selects_as_run_to_cap(d_r, d_c, q, k, rho, kind))

    @pytest.mark.parametrize("n, k, seed, rho, kind", [
        (15, 2, 3484, 0.0, "linear"),  # items 0, 8 and 12 tie in class and similarity
        (14, 1, 257, 0.0, "linear"),  # items 6 and 13 tie
        (14, 1, 257, 0.0, "qp"),
    ])
    def test_tied_loop_regressions(self, n, k, seed, rho, kind):
        # the two loops end on different members of one tie group, [2, 8]
        # against [2, 12] and [6] against [13], at the same MPR
        d_r, d_c, q, k, rho, _ = tied_label_instance(n, k, seed, rho)
        assert self.assert_selects_as_run_to_cap(d_r, d_c, q, k, rho, kind)

    @pytest.mark.parametrize("view", ["embedding", "concat"])
    def test_other_views_keep_every_column(self, view):
        d_r, d_c, q = grid_instance(n=80)
        carry = _SweepCarry(d_r, d_c, q, 3, MoprConfig(oracle_kind="linear", feature_view=view))
        assert np.array_equal(carry.keep, np.arange(80))
        tree = OracleClass.build(d_r, d_c, 3, "tree", view)
        assert np.array_equal(_selectable(carry.s, tree.classes, 3), np.arange(80))

    @pytest.mark.parametrize("seed", range(10))
    def test_qp_cut_is_constant_on_each_class(self, seed):
        # the gradient is computed per label cell and gathered to the items
        d_r, d_c, _ = grid_instance(seed)
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, len(d_r)))
        a = np.zeros(len(d_r))
        a[rng.choice(len(d_r), size=k, replace=False)] = 1.0
        separate = LinearClass.build(d_r, d_c, k)
        value, cut = separate(a)
        assert value > 0.0
        coefficients = cut.coefficients
        for c in np.unique(separate.classes):
            on_class = coefficients[separate.classes == c]
            assert np.all(on_class == on_class[0])

    @pytest.mark.parametrize("kind", ["finite", "linear", "tree"])
    def test_labels_view_keeps_k_per_cell(self, kind):
        d_r, d_c, q = grid_instance(n=300, m=100)
        carry = _SweepCarry(d_r, d_c, q, 10, MoprConfig(oracle_kind=kind))
        assert carry.keep.size == 8 * 10  # every one of the 2 x 4 cells holds more than k
        classes = carry.separator.classes
        assert np.array_equal(carry.keep, selectable_reference(carry.s, classes, 10))

    @pytest.mark.parametrize("seed", range(5))
    def test_finite_classes_are_the_label_cells(self, seed, monkeypatch):
        # read from the cell counts, without grouping the feature rows
        d_r, d_c, q = grid_instance(seed)
        cells = feature_groups(d_r, d_c, "labels").inverse[: len(d_r)]
        monkeypatch.setattr(metric, "feature_groups", None)
        separator = _SweepCarry(d_r, d_c, q, 10, MoprConfig(oracle_kind="finite")).separator
        assert isinstance(separator, CellCounts)
        classes = separator.classes
        pairs = set(zip(classes.tolist(), cells.tolist()))
        assert len(pairs) == len(set(classes.tolist())) == len(set(cells.tolist()))


class TestOracleMemo:
    """The retrieval state remembers its separator's last answer, for every class."""

    @staticmethod
    def assert_repeats_the_last_answer_only(kind, evaluation, monkeypatch):
        d_r, d_c, q = grid_instance()
        carry = _SweepCarry(d_r, d_c, q, 10, MoprConfig(oracle_kind=kind))
        calls = []
        inner = getattr(metric, evaluation)

        def counting(*args, **kwargs):
            calls.append(1)
            return inner(*args, **kwargs)

        monkeypatch.setattr(metric, evaluation, counting)
        a, b = np.zeros(len(d_r)), np.zeros(len(d_r))
        a[:10], b[10:20] = 1.0, 1.0
        first = carry.separate(a)
        assert carry.separate(a.copy()) is first and len(calls) == 1
        carry.separate(b)
        assert len(calls) == 2
        a[:2], a[20:22] = 0.0, 1.0  # the carry kept a copy, not this array
        assert carry.separate(a)[0] != first[0] and len(calls) == 3

    def test_repeats_the_last_evaluation_only(self, monkeypatch):
        self.assert_repeats_the_last_answer_only("tree", "exact_tree_values", monkeypatch)

    def test_linear_class_repeats_the_last_evaluation_only(self, monkeypatch):
        self.assert_repeats_the_last_answer_only("linear", "closed_form_gap", monkeypatch)


class TestParetoSweep:
    def test_anchor_point(self, rng):
        d_r, d_c, q = binary_instance(rng)
        k = 5
        sel0, _ = top_k(d_r, q, k)
        mpr0 = mpr_exact_finite(sel0, d_r, d_c, all_cell_indicators({"g": 2})).value
        cfg = MoprConfig(oracle_kind="finite")
        points = pareto_sweep(d_r, d_c, q, k, cfg, [mpr0])
        assert len(points) == 1
        assert points[0].sim_frac_topk == pytest.approx(1.0, abs=1e-9)
        assert points[0].mpr_frac_topk == pytest.approx(1.0, abs=1e-9)

    def test_reference_is_plain_top_k_at_a_near_tie(self):
        # items 0 and 1, in different cells, are about 5e-13 apart in similarity:
        # plain top-k takes item 1, the more similar, and so does the retrieval at
        # rho = 2, while rounding's 1e-9 tie would take item 0
        emb = np.array([[1.0, 1e-6], [1.0, 0.0], [1.0, 1.0], [1.0, -1.0]])
        d_r = make_dataset(emb, [{"g": 0}, {"g": 1}, {"g": 0}, {"g": 1}], prefix="r")
        d_c = make_dataset(np.ones((4, 2)), [{"g": 0}] * 3 + [{"g": 1}], role="curated",
                           prefix="c")
        q = Query("q", np.array([1.0, 0.0]))
        s = similarity_vector(d_r, q)
        assert 0.0 < s[1] - s[0] < 1e-11
        assert top_k(d_r, q, 1)[0].indices.tolist() == [1]
        assert round_top_k(s, 1).indices.tolist() == [0]
        (point,) = pareto_sweep(d_r, d_c, q, 1, MoprConfig(oracle_kind="finite"), [2.0])
        assert point.halted_by == "constraint-satisfied" and point.iterations == 1
        assert point.sim_frac_topk == 1.0 and point.mpr_frac_topk == 1.0

    def test_nan_in_grid_rejected_before_any_retrieval(self, rng, monkeypatch):
        d_r, d_c, q = binary_instance(rng)
        traces = record_retrievals(monkeypatch)
        with pytest.raises(ValueError, match="rho must be non-negative, got nan"):
            pareto_sweep(d_r, d_c, q, 5, MoprConfig(), [0.2, float("nan")])
        assert traces == []

    @pytest.mark.parametrize("kind", ["finite", "linear"])
    def test_reference_uses_conditioned_curation(self, kind):
        # at rho = 1 the retrieval is plain top-k, so its MPR is the reference
        d_r, d_c, q = grid_instance(seed=1, n=300, m=200)
        cfg = MoprConfig(oracle_kind=kind, curation_pool_size=50)
        (point,) = pareto_sweep(d_r, d_c, q, 10, cfg, [1.0])
        assert point.halted_by == "constraint-satisfied" and point.iterations == 1
        assert point.sim_frac_topk == 1.0
        assert point.mpr_frac_topk == 1.0

    @pytest.mark.parametrize("k", [0, -1])
    @pytest.mark.parametrize("kind", ["finite", "linear"])
    def test_k_below_one(self, rng, k, kind):
        d_r, d_c, q = binary_instance(rng)
        with pytest.raises(ValueError, match=f"k must be at least 1, got {k}"):
            pareto_sweep(d_r, d_c, q, k, MoprConfig(oracle_kind=kind), [0.1])

    def test_grid_must_descend(self, rng):
        d_r, d_c, q = binary_instance(rng)
        cfg = MoprConfig(oracle_kind="finite")
        with pytest.raises(ValueError, match="descending"):
            pareto_sweep(d_r, d_c, q, 5, cfg, [0.1, 0.5])

    @pytest.mark.parametrize("kind, pool", [("finite", None), ("tree", None), ("tree", 30),
                                            ("linear", None)])
    def test_first_point_is_a_fresh_retrieval(self, kind, pool, monkeypatch):
        d_r, d_c, q = grid_instance()
        cfg = MoprConfig(T=30, oracle_kind=kind, curation_pool_size=pool)
        sel, trace = mopr_retrieve(d_r, d_c, q, 10, replace(cfg, rho=0.1))
        traces = record_retrievals(monkeypatch)
        first = pareto_sweep(d_r, d_c, q, 10, cfg, [0.1, 0.05])[0]
        assert np.array_equal(traces[0].selection.indicator, sel.indicator)
        assert first.mpr_achieved == trace.achieved_mpr
        assert first.iterations == len(trace.iterations)
        assert traces[0].to_dict() == trace.to_dict()

    def test_each_grid_value_is_one_call_through_the_module(self, monkeypatch):
        # a wrapper of algorithm.mopr_retrieve sees every grid value's
        # retrieval once, with the value's MoprConfig as its fifth argument
        d_r, d_c, q = grid_instance()
        cfg, grid = MoprConfig(T=10, oracle_kind="tree"), [0.2, 0.1, 0.05]
        calls, inner = [], algorithm.mopr_retrieve

        def recording(*args, **kwargs):
            calls.append(args)
            return inner(*args, **kwargs)

        monkeypatch.setattr(algorithm, "mopr_retrieve", recording)
        pareto_sweep(d_r, d_c, q, 10, cfg, grid)
        assert [args[4] for args in calls] == [replace(cfg, rho=rho) for rho in grid]
        assert all(args[:4] == (d_r, d_c, q, 10) for args in calls)

    def test_carry_takes_any_rho_and_T(self):
        d_r, d_c, q = grid_instance()
        cfg = MoprConfig(rho=0.1, T=5, oracle_kind="tree")
        carry = _SweepCarry(d_r, d_c, q, 10, cfg)
        _cutting_plane(carry, cfg.T, cfg.rho)
        first = [c.coefficients for c in carry.cuts]
        assert first
        _cutting_plane(carry, 7, 0.05)
        assert len(carry.cuts) >= len(first)
        assert all(np.array_equal(a, c.coefficients) for a, c in zip(first, carry.cuts))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(8, 16), k=st.integers(3, 8),
           grid=st.lists(st.floats(0.2, 0.8), min_size=2, max_size=4, unique=True))
    def test_carried_cuts_hold_at_the_ip_optimum(self, seed, n, k, grid):
        # a carried cut bounded by the new rho is a necessary condition of
        # MPR <= rho: the exact optimum under the linear class, the most
        # similar of all C(n, k) selections with MPR <= rho, satisfies it.
        # The LP's cuts span the carry's columns, which hold all of that
        # optimum's items: it takes the most similar items of each cell
        d_r, d_c, q = grid_instance(seed, n=n, m=30)
        grid = sorted(grid, reverse=True)
        cfg = MoprConfig(T=10, oracle_kind="linear")
        carry = _SweepCarry(d_r, d_c, q, k, cfg)
        subsets = np.zeros((math.comb(n, k), n))
        for row, items in enumerate(itertools.combinations(range(n), k)):
            subsets[row, list(items)] = 1.0
        mprs, sims = linear_mprs(subsets, d_r, d_c, k), subsets @ carry.s
        lp_cuts = []

        def spy(s, cuts, k, **kwargs):
            lp_cuts.append(list(cuts))
            return solve_lp(s, cuts, k, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(algorithm, "solve_lp", spy)
            for rho in grid:
                start = len(lp_cuts)
                _cutting_plane(carry, cfg.T, rho)
                carried = lp_cuts[start]  # the cuts of the first LP at this rho
                assert all(c.bound == rho for c in carried)
                feasible = np.flatnonzero(mprs <= rho)
                if feasible.size == 0:  # no selection reaches rho
                    continue
                opt = subsets[feasible[np.argmax(sims[feasible])]]
                assert np.isin(np.flatnonzero(opt), carry.keep).all()
                assert check_cuts(opt[carry.keep], carried, tol=1e-9) == []

    def test_row_order_and_csv(self, rng, tmp_path):
        d_r, d_c, q = binary_instance(rng)
        cfg = MoprConfig(oracle_kind="finite")
        grid = [0.5, 0.25, 0.1]
        points = pareto_sweep(d_r, d_c, q, 5, cfg, grid)
        assert [p.rho_target for p in points] == grid
        path = tmp_path / "sweep.csv"
        write_sweep_csv(points, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == SWEEP_CSV_HEADER
        assert len(rows) == 4


class TestBalancedFeasibility:
    def test_rho_zero_equalizes_cells(self, rng):
        # one binary axis, every group big enough: rho=0 forces exact balance
        groups = [0] * 10 + [1] * 10
        emb = rng.standard_normal((20, 3)) * 0.3
        emb[:, 0] = rng.uniform(1.0, 2.0, size=20) + np.where(
            np.array(groups) == 0, 0.5, -0.5
        )
        d_r = make_dataset(emb, [{"g": g} for g in groups], cards={"g": 2}, prefix="r")
        d_c = build_balanced_curation({"g": 2}, 10)
        q = Query("q", np.eye(3)[0])
        cfg = MoprConfig(rho=0.0, T=50, oracle_kind="finite")
        sel, trace = mopr_retrieve(d_r, d_c, q, 8, cfg)
        counts = np.bincount(d_r.labels[sel.indices, 0], minlength=2)
        assert counts.tolist() == [4, 4]
        assert trace.achieved_mpr <= 1e-9


class TestCacheIsolation:
    """The state a retrieval keeps between requests, each dataset's row norms
    and each pair's class partition, never changes what a retrieval returns,
    and it dies with the datasets."""

    @staticmethod
    def clear_caches(*datasets):
        metric._PAIR_MEMO.clear()
        for d in datasets:  # the norms Dataset keeps from their first use
            vars(d).pop("row_norms", None)
            vars(d).pop("has_zero_row", None)

    @staticmethod
    def summary(sel, trace):
        return sel.indices.tolist(), trace.to_dict()

    def test_interleaved_retrievals_equal_cold_ones(self):
        # pools of one size, so that state kept for the wrong pool would fit
        pools = [grid_instance(seed, n=120) for seed in (1, 2)]
        requests = [(pool, k, kind) for k in (3, 5, 10) for kind in ("finite", "linear", "tree")
                    for pool in pools]
        warm = []
        for (d_r, d_c, q), k, kind in requests:
            cfg = MoprConfig(rho=0.05, T=8, oracle_kind=kind)
            warm.append(self.summary(*mopr_retrieve(d_r, d_c, q, k, cfg)))
            carry = _SweepCarry(d_r, d_c, q, k, cfg)
            partition = class_partition(carry.separator.classes)
            assert all(np.array_equal(a, b) for a, b in zip(carry.separator.partition, partition))
        for ((d_r, d_c, q), k, kind), expected in zip(requests, warm):
            self.clear_caches(*(d for pool in pools for d in pool[:2]))
            cfg = MoprConfig(rho=0.05, T=8, oracle_kind=kind)
            assert self.summary(*mopr_retrieve(d_r, d_c, q, k, cfg)) == expected

    def test_cached_state_is_read_only_and_dies_with_the_pair(self):
        d_r, d_c, q = grid_instance(4)
        for kind in ("finite", "linear", "tree"):
            mopr_retrieve(d_r, d_c, q, 5, MoprConfig(rho=0.05, T=3, oracle_kind=kind))
        groups = weakref.ref(feature_groups(d_r, d_c, "labels"))
        cells = weakref.ref(CellCounts.build(d_r, d_c, 5).partition[1])
        norms = weakref.ref(d_r.row_norms)
        for a in (d_r.row_norms, *groups().cached(("partition", len(d_r)), None), cells()):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0
        assert d_r in metric._PAIR_MEMO
        del d_r, d_c, q, a
        gc.collect()
        assert groups() is None and cells() is None and norms() is None

    def test_zero_row_raises_on_every_call(self):
        emb = np.eye(3)
        emb[1] = 0.0
        d_r = make_dataset(emb, [{"g": i % 2} for i in range(3)], prefix="r")
        q = Query("q", np.ones(3))
        for _ in range(2):
            with pytest.raises(ValueError, match="zero-norm"):
                similarity_vector(d_r, q)
            with pytest.raises(ValueError, match="zero-norm"):
                top_k(d_r, q, 2)
            with pytest.raises(ValueError, match="zero-norm"):
                mmr_retrieve(d_r, q, 2, 0.5)
