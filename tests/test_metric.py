import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_dataset, random_pair
from mopr.metric import (
    combined_features,
    mpr_closed_form_linear,
    mpr_exact_finite,
    mpr_rkhs,
    mpr_via_oracle,
    oracle_gap,
    signed_weights,
    svd_context,
)
from mopr.similarity import Selection
from mopr.statclasses import (
    DegenerateStatisticError,
    all_cell_indicators,
    cell_indicator,
    feature_matrix,
    fit_linear_ls,
    fit_mlp,
    fit_tree,
    normalize_values,
)


def random_selection(rng, n, k):
    ind = np.zeros(n, dtype=int)
    ind[rng.choice(n, size=k, replace=False)] = 1
    return Selection(ind, k)


class TestTildeA:
    def test_direct_definition(self):
        assert signed_weights(np.array([1, 0]), 1, 2).tolist() == [1.0, 0.0, -0.5, -0.5]

    def test_all_selected_symmetric(self):
        assert signed_weights(np.ones(3, dtype=int), 3, 3) == pytest.approx(
            [1 / 3] * 3 + [-1 / 3] * 3)

    def test_mass_balance(self, rng):
        sel = random_selection(rng, 9, 4)
        assert float(signed_weights(sel.indicator, sel.k, 6).sum()) == pytest.approx(0.0, abs=1e-12)


class TestSvdContext:
    def test_orthonormal_columns(self, rng):
        ctx = svd_context(rng.standard_normal((8, 3)))
        gram = ctx.U_l.T @ ctx.U_l
        assert gram == pytest.approx(np.eye(ctx.l), abs=1e-8)
        assert np.all(np.diff(ctx.singular_values) <= 0)
        assert np.all(ctx.singular_values > 0)

    def test_rank_deficiency_truncated(self, rng):
        col = rng.standard_normal((6, 1))
        X = np.hstack([col, 2 * col])
        assert svd_context(X).l == 1

    def test_zero_matrix_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            svd_context(np.zeros((4, 2)))


class TestExactFinite:
    def test_matched_statistics_zero(self):
        d_r = make_dataset(np.zeros((4, 1)), [{"g": i % 2} for i in range(4)],
                           prefix="r")
        d_c = make_dataset(np.zeros((2, 1)), [{"g": i} for i in range(2)],
                           role="curated", prefix="c")
        sel = Selection(np.array([1, 1, 1, 1]), 4)
        rep = mpr_exact_finite(sel, d_r, d_c, all_cell_indicators({"g": 2}))
        assert rep.value == pytest.approx(0.0)

    def test_hand_enumerated_half(self):
        # retrieved (A,A,A,B) vs balanced A/B curation: gap = |0.5 - 0| = 0.5
        d_r = make_dataset(np.zeros((4, 1)), [{"g": 0}] * 3 + [{"g": 1}],
                           cards={"g": 2}, prefix="r")
        d_c = make_dataset(np.zeros((2, 1)), [{"g": 0}, {"g": 1}],
                           role="curated", prefix="c")
        sel = Selection(np.ones(4, dtype=int), 4)
        rep = mpr_exact_finite(sel, d_r, d_c, all_cell_indicators({"g": 2}))
        assert rep.value == pytest.approx(0.5)
        assert rep.witness.params["cell"] == {"g": 0}

    def test_negation_invariance_and_monotone_refinement(self, rng):
        d_r, d_c = random_pair(rng, 10, 6, 2)
        sel = random_selection(rng, 10, 4)
        small = [cell_indicator({"g": 0})]
        big = all_cell_indicators({"g": 2})
        v_small = mpr_exact_finite(sel, d_r, d_c, small).value
        v_big = mpr_exact_finite(sel, d_r, d_c, big).value
        assert v_big >= v_small - 1e-12
        # |gap| is symmetric under negating the indicator's sign convention
        assert mpr_exact_finite(sel, d_r, d_c, [cell_indicator({"g": 1})]).value == (
            pytest.approx(v_small)
        )

    def test_empty_class_rejected(self, rng):
        d_r, d_c = random_pair(rng, 4, 4, 2)
        with pytest.raises(ValueError, match="nonempty"):
            mpr_exact_finite(random_selection(rng, 4, 2), d_r, d_c, [])


class TestClosedFormLinear:
    def test_hand_svd_scalar_fixture(self):
        # retrieval rows {1, 2}, curated row {0}, k=1 selecting the first item:
        # tilde_a = [1, 0, -1], U = X/sqrt(5), value = sqrt(1/2)/sqrt(5)
        d_r = make_dataset([[1.0], [2.0]], prefix="r")
        d_c = make_dataset([[0.0]], role="curated", prefix="c")
        sel = Selection(np.array([1, 0]), 1)
        rep = mpr_closed_form_linear(sel, d_r, d_c, "embedding")
        assert rep.value == pytest.approx(np.sqrt(0.5) / np.sqrt(5.0))
        assert rep.value == pytest.approx(0.31622776601683794)

    def test_brute_force_unit_norm_scan(self):
        # same fixture: scan unit-norm linear statistics c(x) = w*x directly
        X = np.array([1.0, 2.0, 0.0])
        ta = np.array([1.0, 0.0, -1.0])
        target = np.sqrt(0.5)  # sqrt(mk/(m+k))
        best = 0.0
        for w in np.linspace(-5, 5, 20001):
            c = w * X
            norm = np.linalg.norm(c)
            if norm == 0:
                continue
            c = c * (target / norm)
            best = max(best, abs(float(c @ ta)))
        d_r = make_dataset([[1.0], [2.0]], prefix="r")
        d_c = make_dataset([[0.0]], role="curated", prefix="c")
        rep = mpr_closed_form_linear(Selection(np.array([1, 0]), 1), d_r, d_c,
                                     "embedding")
        assert rep.value == pytest.approx(best, abs=1e-9)

    def test_duplicated_rows_zero(self, rng):
        emb = rng.standard_normal((5, 3))
        d_r = make_dataset(emb, prefix="r")
        d_c = make_dataset(emb, role="curated", prefix="c")
        sel = Selection(np.ones(5, dtype=int), 5)
        assert mpr_closed_form_linear(sel, d_r, d_c, "embedding").value == (
            pytest.approx(0.0, abs=1e-12)
        )

    def test_upper_bound_one(self, rng):
        for _ in range(5):
            d_r, d_c = random_pair(rng, 12, 8, 4)
            sel = random_selection(rng, 12, 5)
            for view in ("labels", "embedding", "concat"):
                assert mpr_closed_form_linear(sel, d_r, d_c, view).value <= 1 + 1e-9

    def test_witness_attains_value(self, rng):
        d_r, d_c = random_pair(rng, 10, 7, 3)
        sel = random_selection(rng, 10, 4)
        rep = mpr_closed_form_linear(sel, d_r, d_c, "embedding")
        ta = signed_weights(sel.indicator, sel.k, 7)
        X = combined_features(d_r, d_c, "embedding")
        attained = abs(float(rep.witness.values_from_features(X) @ ta))
        assert attained == pytest.approx(rep.value, abs=1e-9)


def two_sign_fits(X, tilde, m, k, fit):
    """(value, normalized statistic, mse) of the fits of +tilde and -tilde,
    in that order, as the gap's definition states them."""
    out = []
    for sign in (1.0, -1.0):
        target = sign * tilde
        stat = fit(target)
        values = stat.values_from_features(X)
        norm = normalize_values(stat, values, m, k)
        fitted = norm.scale * values
        out.append((abs(float(fitted @ tilde)), norm, float(np.mean((fitted - target) ** 2))))
    return out


class TestOneSignFit:
    """The least-squares and tree fits are sign-equivariant, so fitting +tilde
    alone gives exactly what fitting both signs and keeping the better
    (ties to +tilde) gives."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from(["labels", "embedding", "concat"]),
           st.integers(1, 4))
    def test_linear_and_tree_equal_two_sign_fit(self, seed, view, depth):
        rng = np.random.default_rng(seed)
        n, m = int(rng.integers(4, 30)), int(rng.integers(3, 25))
        k = int(rng.integers(1, n))
        d_r, d_c = random_pair(rng, n, m, 3, n_groups=int(rng.integers(2, 4)))
        X = combined_features(d_r, d_c, view)
        if view != "labels":
            X = np.round(X, int(rng.integers(0, 3)))  # ties in the split search
        a = np.zeros(n)
        a[rng.choice(n, size=k, replace=False)] = 1.0
        tilde = signed_weights(a, k, m)
        for oracle, fit in (("linear", lambda y: fit_linear_ls(X, y, view)),
                            ("tree", lambda y: fit_tree(X, y, depth, view))):
            try:
                plus, minus = two_sign_fits(X, tilde, m, k, fit)
            except DegenerateStatisticError:
                with pytest.raises(DegenerateStatisticError):
                    oracle_gap(X, tilde, m, k, oracle, view, tree_depth=depth)
                continue
            expected = minus if minus[0] > plus[0] else plus
            value, witness, mse, _ = oracle_gap(X, tilde, m, k, oracle, view, tree_depth=depth)
            assert value == expected[0]
            assert witness.to_dict() == expected[1].to_dict()
            assert mse == expected[2]

    def test_mlp_keeps_the_negative_fit(self):
        # pinned case: the MLP's fit of -tilde correlates better than its fit
        # of +tilde, so the MLP must still fit both signs
        rng = np.random.default_rng(0)
        d_r, d_c = random_pair(rng, 8, 6, 2)
        a = np.zeros(8)
        a[rng.choice(8, 3, replace=False)] = 1.0
        X = combined_features(d_r, d_c, "concat")
        tilde = signed_weights(a, 3, 6)
        plus, minus = two_sign_fits(
            X, tilde, 6, 3, lambda y: fit_mlp(X, y, 4, epochs=30, seed=0, feature_view="concat"))
        assert minus[0] > plus[0] + 0.1
        value, witness, mse, _ = oracle_gap(X, tilde, 6, 3, "mlp", "concat", mlp_hidden=4,
                                            mlp_epochs=30, seed=0)
        assert (value, mse) == (minus[0], minus[2])
        assert witness.to_dict() == minus[1].to_dict()


class TestOracle:
    def test_linear_matches_closed_form(self, rng):
        for _ in range(10):
            n, m = int(rng.integers(6, 30)), int(rng.integers(5, 25))
            d_r, d_c = random_pair(rng, n, m, 3)
            sel = random_selection(rng, n, min(4, n))
            for view in ("labels", "embedding", "concat"):
                a = mpr_via_oracle(sel, d_r, d_c, "linear", view).value
                b = mpr_closed_form_linear(sel, d_r, d_c, view).value
                assert a == pytest.approx(b, abs=1e-9)

    def test_duplicated_rows_zero(self, rng):
        emb = rng.standard_normal((6, 2))
        labels = [{"g": i % 2} for i in range(6)]
        d_r = make_dataset(emb, labels, prefix="r")
        d_c = make_dataset(emb, labels, role="curated", prefix="c")
        sel = Selection(np.ones(6, dtype=int), 6)
        rep = mpr_via_oracle(sel, d_r, d_c, "linear", "embedding")
        assert rep.value == pytest.approx(0.0, abs=1e-9)

    def test_tree_dominates_single_cell_indicators(self, rng):
        # a depth >= #axes tree on labels can express any cell indicator
        d_r, d_c = random_pair(rng, 20, 15, 2)
        sel = random_selection(rng, 20, 8)
        finite = mpr_exact_finite(sel, d_r, d_c, all_cell_indicators({"g": 2}))
        norm = finite.witness
        # compare in the normalized class: indicator scaled to C'
        from mopr.statclasses import normalize_to_cprime

        normalized_ind = normalize_to_cprime(norm, d_r, d_c, sel.k)
        ta = signed_weights(sel.indicator, sel.k, 15)
        ind_val = abs(float(
            np.concatenate([normalized_ind.values(d_r), normalized_ind.values(d_c)])
            @ ta
        ))
        tree_val = mpr_via_oracle(sel, d_r, d_c, "tree", "labels", tree_depth=2).value
        assert tree_val >= ind_val - 1e-9

    def test_mlp_runs_and_reports(self, rng):
        d_r, d_c = random_pair(rng, 8, 6, 2)
        sel = random_selection(rng, 8, 3)
        rep = mpr_via_oracle(sel, d_r, d_c, "mlp", "concat", mlp_epochs=50)
        assert rep.value >= 0.0
        assert rep.diagnostics["oracle"] == "mlp"

    def test_unknown_oracle(self, rng):
        d_r, d_c = random_pair(rng, 5, 4, 2)
        with pytest.raises(ValueError, match="oracle"):
            mpr_via_oracle(random_selection(rng, 5, 2), d_r, d_c, "svm")


class TestRkhs:
    def test_single_identical_point(self):
        d_r = make_dataset([[1.0, 2.0]], prefix="r")
        d_c = make_dataset([[1.0, 2.0]], role="curated", prefix="c")
        sel = Selection(np.array([1]), 1)
        for kernel, sigma in (("linear", None), ("gaussian", 1.0)):
            assert mpr_rkhs(sel, d_r, d_c, kernel, sigma, "embedding").value == (
                pytest.approx(0.0, abs=1e-12)
            )

    def test_linear_kernel_is_mean_gap_norm(self):
        # 3-point fixture expanded by hand
        d_r = make_dataset([[1.0, 0.0], [0.0, 1.0]], prefix="r")
        d_c = make_dataset([[1.0, 1.0]], role="curated", prefix="c")
        sel = Selection(np.array([1, 1]), 2)
        rep = mpr_rkhs(sel, d_r, d_c, "linear", None, "embedding")
        mean_r = np.array([0.5, 0.5])
        mean_c = np.array([1.0, 1.0])
        assert rep.value == pytest.approx(float(np.linalg.norm(mean_r - mean_c)))

    def test_linear_identity_random(self, rng):
        for _ in range(5):
            d_r, d_c = random_pair(rng, 10, 7, 3)
            sel = random_selection(rng, 10, 4)
            rep = mpr_rkhs(sel, d_r, d_c, "linear", None, "embedding")
            ref = np.linalg.norm(
                d_r.embeddings[sel.indices].mean(axis=0) - d_c.embeddings.mean(axis=0)
            )
            assert rep.value == pytest.approx(float(ref), abs=1e-9)

    def test_gaussian_matched_multisets(self, rng):
        emb = rng.standard_normal((6, 3))
        perm = [3, 1, 5, 0, 4, 2]
        d_r = make_dataset(emb, prefix="r")
        d_c = make_dataset(emb[perm], role="curated", prefix="c")
        sel = Selection(np.ones(6, dtype=int), 6)
        assert mpr_rkhs(sel, d_r, d_c, "gaussian", 0.7, "embedding").value == (
            pytest.approx(0.0, abs=1e-9)
        )

    @pytest.mark.parametrize("view", ["labels", "concat"])
    def test_repeated_rows_match_all_pairs_sum(self, rng, view):
        # label rows repeat, so the kernel is summed over distinct rows with
        # multiplicities; it must agree with the plain sum over all pairs
        for kernel, sigma in (("linear", None), ("gaussian", 0.8)):
            d_r, d_c = random_pair(rng, 40, 30, 2, n_groups=3)
            sel = random_selection(rng, 40, 12)
            R = feature_matrix(d_r, view)[sel.indices]
            C = feature_matrix(d_c, view)

            def mean_kernel(A, B):
                if kernel == "linear":
                    return float((A @ B.T).mean())
                sq = ((A[:, None, :] - B[None, :, :]) ** 2).sum(axis=2)
                return float(np.exp(-sq / (2.0 * sigma**2)).mean())

            ref = np.sqrt(max(mean_kernel(R, R) - 2.0 * mean_kernel(R, C) + mean_kernel(C, C), 0.0))
            value = mpr_rkhs(sel, d_r, d_c, kernel, sigma, view).value
            assert value == pytest.approx(ref, abs=1e-12)

    def test_gaussian_requires_sigma(self, rng):
        d_r, d_c = random_pair(rng, 4, 3, 2)
        sel = Selection(np.array([1, 1, 0, 0]), 2)
        with pytest.raises(ValueError, match="sigma"):
            mpr_rkhs(sel, d_r, d_c, "gaussian", None, "embedding")


class TestReportSerialization:
    def test_report_json_fields(self, rng):
        d_r, d_c = random_pair(rng, 6, 4, 2)
        sel = random_selection(rng, 6, 2)
        rep = mpr_closed_form_linear(sel, d_r, d_c, "labels")
        doc = rep.to_dict()
        assert set(doc) == {"value", "method", "witness", "diagnostics"}
        assert doc["method"] == "closed-linear"
        assert isinstance(rep.to_json(), str)
