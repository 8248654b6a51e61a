import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_dataset, random_pair
from mopr.algorithm import (
    MoprConfig,
    SWEEP_CSV_HEADER,
    _Oracle,
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
    FiniteTable,
    combined_features,
    mpr_closed_form_linear,
    mpr_exact_finite,
    oracle_gap,
    signed_weights,
    svd_context,
)
from mopr.similarity import similarity_vector, top_k
from mopr.solver import HalfSpaceCut, round_top_k, solve_ip_exact, solve_lp, Cut
from mopr.statclasses import DegenerateStatisticError, all_cell_indicators, target_norm


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


def oracle_separator(d_r, d_c, k, cfg):
    oracle = _Oracle(d_r, d_c, k, cfg)

    def separate(a):
        violation, witness = oracle(a)
        return violation, oracle.cut_for(witness, cfg.rho)

    return separate


def qp_separator(d_r, d_c, k, rho):
    # the supporting hyperplane of mopr_qp_linear, in the same arithmetic
    ctx = svd_context(combined_features(d_r, d_c, "labels"))
    n, m, tn = len(d_r), len(d_c), target_norm(len(d_c), k)

    def separate(a):
        z = ctx.U_l.T @ np.concatenate([a / k, np.full(m, -1.0 / m)])
        zn = float(np.linalg.norm(z))
        grad = (tn * (ctx.U_l @ z) / zn)[:n] / k
        return tn * zn, HalfSpaceCut(grad, rho - tn * zn + float(grad @ a))

    return separate


def run_to_cap(s, k, rho, T, separate):
    """The cutting-plane loop without the stall halt: a duplicate cut is
    skipped and the loop goes on until the constraint holds or T is reached."""
    cuts, basis = [], None
    for _ in range(T):
        lp = solve_lp(s, cuts, k, start=basis)
        basis = lp.basis
        sel = round_top_k(lp.a, k)
        violation, cut = separate(sel.indicator.astype(float))
        if violation <= rho + 1e-8:
            break
        if not any(np.max(np.abs(cut.coefficients - old.coefficients)) < 1e-9 for old in cuts):
            cuts.append(cut)
    return sel, separate(sel.indicator.astype(float))[0]


@pytest.mark.parametrize("kind, rho", [("finite", 0.05), ("linear", 0.02), ("qp", 0.02)])
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
        separate = oracle_separator(d_r, d_c, k, cfg)
    assert trace.effective_rho == rho  # no relaxation, which run_to_cap leaves out
    assert trace.halted_by == "stalled"
    assert len(trace.iterations) < T
    assert trace.iterations[-1].duplicate_cut and not trace.iterations[-1].cut_added
    ref_sel, ref_achieved = run_to_cap(s, k, rho, T, separate)
    assert np.array_equal(sel.indicator, ref_sel.indicator)
    assert trace.achieved_mpr == ref_achieved


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

    def test_halt_condition_consistent(self, rng):
        d_r, d_c, q = binary_instance(rng)
        cfg = MoprConfig(rho=0.1, T=50, oracle_kind="finite")
        _, trace = mopr_retrieve(d_r, d_c, q, 5, cfg)
        if trace.halted_by == "constraint-satisfied":
            assert trace.achieved_mpr <= trace.effective_rho + 1e-8
        assert len(trace.iterations) <= cfg.T

    def test_near_ip_objective(self, rng):
        # n=15, k=5, one binary group: final objective within 2% of exact IP
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
        assert float(s @ sel.indicator) >= 0.98 * float(s @ ip.indicator)

    def test_trace_is_reproducible(self, rng):
        d_r, d_c, q = binary_instance(rng)
        cfg = MoprConfig(rho=0.05, T=50, oracle_kind="finite")
        _, t1 = mopr_retrieve(d_r, d_c, q, 5, cfg)
        _, t2 = mopr_retrieve(d_r, d_c, q, 5, cfg)
        assert t1.to_dict() == t2.to_dict()

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
        oracle = _Oracle(d_r, d_c, k, cfg)
        X = combined_features(d_r, d_c, view)
        try:
            _, w, _, _ = oracle_gap(X, signed_weights(a, k, m), m, k, kind, view,
                                    cfg.tree_depth, cfg.mlp_hidden, cfg.mlp_epochs,
                                    cfg.mlp_step, cfg.seed)
        except DegenerateStatisticError:
            with pytest.raises(DegenerateStatisticError):
                oracle(a)
            return
        cut = oracle.cut_for(oracle(a)[1], cfg.rho)
        searched = w.values_from_features(X)
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
        oracle = _Oracle(d_r, d_c, k, MoprConfig(oracle_kind="finite"))
        table = FiniteTable.build(all_cell_indicators(d_r.schema.label_cards), d_r, d_c)
        _, i = table.worst(a, k)
        cut = oracle.cut_for(oracle(a)[1], 0.1)
        expected = table.cuts(k, 0.1)[i]
        assert np.array_equal(cut.coefficients, expected.coefficients)
        assert (cut.offset, cut.bound) == (expected.offset, expected.bound)


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
