import functools
import gc
import itertools
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import make_dataset, random_pair, trees_agree
from mopr import metric
from mopr.algorithm import MoprConfig, mopr_retrieve
from mopr.datamodel import Query, load_dataset, reconcile, save_dataset
from mopr.metric import (
    CellCounts,
    FeatureGroups,
    OracleClass,
    combined_features,
    feature_groups,
    mpr_closed_form_linear,
    mpr_exact_finite,
    mpr_rkhs,
    mpr_via_oracle,
    oracle_gap,
    signed_weights,
    svd_context,
)
from mopr.similarity import Selection, condition_curation
from mopr.solver import Cut
from mopr.statclasses import (
    DegenerateStatisticError,
    all_cell_indicators,
    cell_indicator,
    feature_matrix,
    fit_linear_ls,
    fit_mlp,
    fit_tree,
    fit_tree_exact,
    normalize_values,
    target_norm,
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
        ctx = svd_context(FeatureGroups.identity(rng.standard_normal((8, 3))))
        gram = ctx.U_l.T @ ctx.U_l
        assert gram == pytest.approx(np.eye(ctx.U_l.shape[1]), abs=1e-8)
        assert np.all(np.diff(ctx.singular_values) <= 0)
        assert np.all(ctx.singular_values > 0)

    def test_rank_deficiency_truncated(self, rng):
        col = rng.standard_normal((6, 1))
        X = np.hstack([col, 2 * col])
        assert svd_context(FeatureGroups.identity(X)).U_l.shape[1] == 1

    def test_zero_matrix_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            svd_context(FeatureGroups.identity(np.zeros((4, 2))))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from(["labels", "embedding", "concat"]))
    def test_grouped_matches_expanded_rows(self, seed, view):
        rng = np.random.default_rng(seed)
        n, m = int(rng.integers(2, 120)), int(rng.integers(2, 100))
        k = int(rng.integers(1, n + 1))
        d_r, d_c = random_pair(rng, n, m, int(rng.integers(1, 5)), int(rng.integers(2, 5)))
        groups = feature_groups(d_r, d_c, view)
        X = combined_features(d_r, d_c, view)
        ctx = svd_context(groups)
        U, S, Vt = np.linalg.svd(X, full_matrices=False)
        rank, inverse = ctx.U_l.shape[1], ctx.groups.inverse
        assert np.allclose(ctx.singular_values, S[:rank], rtol=1e-12, atol=0.0)
        assert np.allclose(ctx.U_l[inverse].T @ ctx.U_l[inverse], np.eye(rank),
                           rtol=0.0, atol=1e-12)
        a = np.zeros(n)
        a[rng.choice(n, size=k, replace=False)] = 1.0
        tilde = signed_weights(a, k, m)
        value, z = metric.closed_form_gap(ctx, tilde, m, k)
        projection = X @ np.linalg.lstsq(X, tilde, rcond=None)[0]
        assert value == pytest.approx(target_norm(m, k) * np.linalg.norm(projection),
                                      rel=1e-9, abs=1e-12)
        if view != "labels":
            # no repeated rows: the factorization of the stack itself, bit for bit
            keep = S > metric.SV_CUTOFF_REL * S[0]
            assert np.array_equal(ctx.U_l, U[:, keep])
            assert np.array_equal(ctx.singular_values, S[keep])
            assert np.array_equal(ctx.V, Vt[keep].T)
            assert np.array_equal(z, U[:, keep].T @ tilde)


@st.composite
def cell_pairs(draw):
    """D_R, D_C and a selection on 0-3 label axes of 2-4 categories, small
    enough that cells are absent from D_R, from D_C and from both."""
    cards = {name: draw(st.integers(2, 4)) for name in "abc"[: draw(st.integers(0, 3))]}
    cell = st.fixed_dictionaries({name: st.integers(0, card - 1) for name, card in cards.items()})
    r_labels = draw(st.lists(cell, min_size=1, max_size=14))
    c_labels = draw(st.lists(cell, min_size=1, max_size=14))
    d_r = make_dataset(np.zeros((len(r_labels), 1)), r_labels, cards=cards, prefix="r")
    d_c = make_dataset(np.zeros((len(c_labels), 1)), c_labels, cards=cards, role="curated",
                       prefix="c")
    n = len(r_labels)
    chosen = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
    indicator = np.zeros(n, dtype=int)
    indicator[chosen] = 1
    return d_r, d_c, Selection(indicator, len(chosen))


class TestCellCounts:
    """The cell indicators held as counts are the explicit list of every
    cell's indicator (``mpr_exact_finite`` over ``all_cell_indicators``)."""

    @settings(max_examples=300, deadline=None)
    @given(cell_pairs(), st.sampled_from([0.0, 0.05, 0.5]))
    def test_worst_is_the_explicit_list(self, pair, rho):
        d_r, d_c, sel = pair
        report = mpr_exact_finite(sel, d_r, d_c, all_cell_indicators(d_r.schema.label_cards))
        counts = CellCounts.build(d_r, d_c, sel.k)
        value, cell = counts.worst(sel.indicator)
        assert value == report.value
        if value > 0.0:  # at gap 0 a tie may name another cell; the loop adds no such cut
            witness = report.witness
            expected = Cut(witness.values(d_r) / sel.k, float(np.mean(witness.values(d_c))), rho)
            cut = counts.cut(cell, rho)
            assert np.array_equal(cut.coefficients, expected.coefficients)
            assert (cut.offset, cut.bound) == (expected.offset, expected.bound)

    def test_cells_present_in_either_set_in_lexicographic_order(self):
        # of the 2 x 2 cells, (0, 0) is only in D_R, (0, 1) only in D_C,
        # (1, 0) in both and (1, 1) in neither
        cards = {"a": 2, "b": 2}
        r_labels = [{"a": 1, "b": 0}, {"a": 0, "b": 0}, {"a": 1, "b": 0}]
        d_r = make_dataset(np.zeros((3, 1)), r_labels, cards=cards, prefix="r")
        d_c = make_dataset(np.zeros((4, 1)), [{"a": 0, "b": 1}] * 3 + [{"a": 1, "b": 0}],
                           cards=cards, role="curated", prefix="c")
        counts = CellCounts.build(d_r, d_c, 1)
        assert counts.classes.tolist() == [2, 0, 2]
        assert counts.codes.tolist() == [[0, 0], [0, 1], [1, 0]]
        assert counts.curated.tolist() == [-1.0, 0.5, -0.5]
        # selecting item 1: cell (0, 0) has selection mean 1 and curated mean -1
        assert counts.worst(np.array([0.0, 1.0, 0.0])) == (2.0, 0)
        cut = counts.cut(1, 0.1)
        assert cut.coefficients.tolist() == [-1.0, -1.0, -1.0] and cut.offset == 0.5

    @settings(max_examples=300, deadline=None)
    @given(cell_pairs())
    def test_report_is_the_explicit_lists(self, pair):
        d_r, d_c, sel = pair
        report = CellCounts.build(d_r, d_c, sel.k).report(sel.indicator)
        explicit = mpr_exact_finite(sel, d_r, d_c, all_cell_indicators(d_r.schema.label_cards))
        assert report.to_json() == explicit.to_json()

    def test_zero_gap_names_the_first_cell_though_absent(self):
        # one axis of 3 categories, codes 1 and 2 on both sides, one item of
        # each selected: every gap is 0, and the list's first cell is x = 0
        d_r = make_dataset(np.zeros((4, 1)), [{"x": c} for c in (1, 2, 2, 1)],
                           cards={"x": 3}, prefix="r")
        d_c = make_dataset(np.zeros((2, 1)), [{"x": 1}, {"x": 2}], cards={"x": 3},
                           role="curated", prefix="c")
        sel = Selection(np.array([1, 1, 0, 0]), 2)
        report = CellCounts.build(d_r, d_c, 2).report(sel.indicator)
        assert report.value == 0.0 and report.witness.params["cell"] == {"x": 0}
        assert report.diagnostics == {"class_size": 3}
        explicit = mpr_exact_finite(sel, d_r, d_c, all_cell_indicators({"x": 3}))
        assert report.to_json() == explicit.to_json()


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
        ta = signed_weights(sel.indicator, sel.k, 7)
        for view in ("labels", "embedding", "concat"):
            rep = mpr_closed_form_linear(sel, d_r, d_c, view)
            X = combined_features(d_r, d_c, view)
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
        if np.linalg.norm(values) <= metric.ZERO_FIT_RTOL * np.linalg.norm(tilde):
            raise DegenerateStatisticError("a zero fit up to rounding")
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
        tree_fit = fit_tree_exact if view == "labels" else fit_tree  # the oracle's tree
        for oracle, fit in (("linear", lambda y: fit_linear_ls(X, y, view)),
                            ("tree", lambda y: tree_fit(X, y, depth, view))):
            groups = FeatureGroups.identity(X)
            try:
                plus, minus = two_sign_fits(X, tilde, m, k, fit)
            except DegenerateStatisticError:
                assert oracle_gap(groups, tilde, m, k, oracle, view, tree_depth=depth)[0] == 0.0
                continue
            expected = minus if minus[0] > plus[0] else plus
            value, witness, mse, _ = oracle_gap(groups, tilde, m, k, oracle, view, tree_depth=depth)
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
        value, witness, mse, _ = oracle_gap(FeatureGroups.identity(X), tilde, 6, 3, "mlp",
                                            "concat", mlp_hidden=4, mlp_epochs=30, seed=0)
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

    @pytest.mark.parametrize("oracle", ["linear", "tree"])
    def test_labels_view_without_label_axes_reads_zero(self, rng, oracle):
        # one cell holds every item, so every statistic of the cell is constant
        d_r = make_dataset(rng.standard_normal((6, 2)), prefix="r")
        d_c = make_dataset(rng.standard_normal((4, 2)), role="curated", prefix="c")
        sel = Selection(np.array([1, 1, 0, 0, 0, 0]), 2)
        assert mpr_via_oracle(sel, d_r, d_c, oracle, "labels").value == 0.0

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


class TestFeatureGroups:
    @pytest.mark.parametrize("view", ["labels", "embedding", "concat"])
    def test_rows_expand_to_the_stack(self, rng, view):
        d_r, d_c = random_pair(rng, 30, 20, 2, n_groups=3)
        groups = feature_groups(d_r, d_c, view)
        assert np.array_equal(groups.rows[groups.inverse], combined_features(d_r, d_c, view))
        if view == "labels":
            assert len(np.unique(groups.rows, axis=0)) == len(groups.rows) <= 3
        else:
            assert np.array_equal(groups.inverse, np.arange(50))

    def test_rows_in_order_of_first_appearance(self):
        d_r = make_dataset(np.zeros((3, 1)), [{"g": 2}, {"g": 0}, {"g": 2}], cards={"g": 3}, prefix="r")
        d_c = make_dataset(np.zeros((2, 1)), [{"g": 1}, {"g": 0}], cards={"g": 3},
                           role="curated", prefix="c")
        groups = feature_groups(d_r, d_c, "labels")
        assert groups.inverse.tolist() == [0, 1, 0, 2, 1]
        # all rows distinct: the grouping is the identity
        assert feature_groups(d_r.subset([0, 1]), d_c.subset([0]), "labels").inverse.tolist() == [0, 1, 2]

    def test_codes_renumbered_before_they_overflow(self):
        # 66 binary axes have 2**66 cells: a code wrapping in int64 would shift
        # the first axis out and merge rows that differ only there
        cards = {f"x{j:02d}": 2 for j in range(66)}
        labels = [{name: int(name == "x00" and i == 1) for name in cards} for i in range(3)]
        d_r = make_dataset(np.zeros((2, 1)), labels[:2], cards=cards, prefix="r")
        d_c = make_dataset(np.zeros((1, 1)), labels[2:], cards=cards, role="curated", prefix="c")
        groups = feature_groups(d_r, d_c, "labels")
        assert groups.inverse.tolist() == [0, 1, 0]
        assert np.array_equal(groups.rows[groups.inverse], combined_features(d_r, d_c, "labels"))


class TestGroupedOracle:
    """``oracle_gap`` on the distinct rows against the fit on every row."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from(["linear", "tree", "mlp"]),
           st.sampled_from(["labels", "embedding", "concat"]))
    def test_matches_full_row_fit(self, seed, oracle, view):
        rng = np.random.default_rng(seed)
        n, m = int(rng.integers(2, 120)), int(rng.integers(2, 100))
        k = int(rng.integers(1, n + 1))
        d_r, d_c = random_pair(rng, n, m, 2, int(rng.integers(2, 5)))
        a = np.zeros(n)
        a[rng.choice(n, size=k, replace=False)] = 1.0
        tilde = signed_weights(a, k, m)
        X = combined_features(d_r, d_c, view)
        kw = dict(tree_depth=int(rng.integers(1, 5)), mlp_hidden=int(rng.integers(1, 9)),
                  mlp_epochs=int(rng.integers(0, 200)), seed=seed % 7)
        value, witness, mse, values = oracle_gap(feature_groups(d_r, d_c, view), tilde, m, k,
                                                 oracle, view, **kw)
        ref_value, ref_witness, ref_mse, ref_values = oracle_gap(FeatureGroups.identity(X), tilde,
                                                                 m, k, oracle, view, **kw)
        if oracle == "tree" and not trees_agree(witness.base.params["root"],
                                                ref_witness.base.params["root"], X, tilde):
            return  # the fits parted at an exactly tied split
        # the gap lies in [0, 1]; over 1500 labels-view instances the MLP's
        # gap differed by at most 4e-14 and its mse by 8e-15 relative
        assert value == pytest.approx(ref_value, rel=1e-12, abs=1e-12)
        assert mse == pytest.approx(ref_mse, rel=1e-12)
        # a zero projection fits noise, and two MLP sign fits may tie in gap
        if oracle != "mlp" and ref_value > 1e-9:
            assert np.abs(values - ref_values).max() <= 1e-12 * np.abs(ref_values).max()

    @pytest.mark.parametrize("oracle", ["linear", "tree"])
    def test_labels_fit_sees_one_row_per_cell(self, monkeypatch, oracle):
        rng = np.random.default_rng(5)
        d_r, d_c = random_pair(rng, 300, 200, 3, n_groups=4)
        # the tree's report and loop both read the block table of the grouped rows
        owner, fit_name = {"linear": (metric, "fit_linear_ls"),
                           "tree": (metric.FeatureGroups, "tree_blocks")}[oracle]
        inner = getattr(owner, fit_name)
        seen = []

        def spy(X, *args, **kwargs):
            seen.append(len(X.rows))
            return inner(X, *args, **kwargs)

        monkeypatch.setattr(owner, fit_name, spy)
        mpr_via_oracle(random_selection(rng, 300, 10), d_r, d_c, oracle, "labels")
        assert len(seen) == 1
        q = Query("q", rng.standard_normal(3))
        mopr_retrieve(d_r, d_c, q, 10, MoprConfig(rho=0.05, T=5, oracle_kind=oracle))
        # the linear class is separated in closed form: only the tree retrieval fits
        assert (len(seen) > 1) == (oracle == "tree") and max(seen) <= 4


    @pytest.mark.parametrize("oracle", ["linear", "tree"])
    def test_signed_weights_that_cancel_on_every_cell_read_zero(self, oracle):
        # 13 of the 26 selected items and 2 of the 4 curated ones lie in each
        # of the two cells, so the signed weights sum to zero on both (up to
        # rounding: -1.1e-16); the count-weighted least-squares fit was noise
        # of norm 2.6e-17, which the normalization scaled up to a full witness
        rng = np.random.default_rng(14184)
        n, m = int(rng.integers(2, 120)), int(rng.integers(2, 100))
        k = int(rng.integers(1, n + 1))
        d_r, d_c = random_pair(rng, n, m, 2, int(rng.integers(2, 5)))
        a = np.zeros(n)
        a[rng.choice(n, size=k, replace=False)] = 1.0
        tilde = signed_weights(a, k, m)
        groups = feature_groups(d_r, d_c, "labels")
        assert (n, m, k, len(groups.rows)) == (67, 4, 26, 2)
        for rows in (groups, FeatureGroups.identity(combined_features(d_r, d_c, "labels"))):
            value, witness, mse, values = oracle_gap(rows, tilde, m, k, oracle, "labels")
            assert value == 0.0 and witness.scale == 0.0 and witness.context_norm == 0.0
            assert mse == float(np.mean(tilde**2))
            assert not values.any()


def labels_pair(seed, cards):
    """Random retrieval and curated datasets over label axes of these
    cardinalities, and a random selection's signed weights."""
    rng = np.random.default_rng(seed)
    n, m = int(rng.integers(2, 80)), int(rng.integers(2, 60))
    axes = {f"a{i}": c for i, c in enumerate(cards)}

    def pool(size, **kw):
        labels = [{name: int(rng.integers(c)) for name, c in axes.items()} for _ in range(size)]
        return make_dataset(rng.standard_normal((size, 1)), labels, cards=axes, **kw)

    d_r, d_c = pool(n, prefix="r"), pool(m, role="curated", prefix="c")
    k = int(rng.integers(1, n + 1))
    a = np.zeros(n)
    a[rng.choice(n, size=k, replace=False)] = 1.0
    return d_r, d_c, m, k, signed_weights(a, k, m)


def normalized_gap(values, tilde, m, k):
    """|<values, tilde>| of ``values`` rescaled to the normalized class, 0 for a zero fit."""
    norm = float(np.linalg.norm(values))
    if norm <= metric.ZERO_FIT_RTOL * float(np.linalg.norm(tilde)):
        return 0.0
    return target_norm(m, k) * abs(float(values @ tilde)) / norm


def tree_partitions(X, depth):
    """Every partition of X's rows into the leaves of a tree of depth <= depth
    on X's 0/1 columns, found by walking every such tree."""

    @functools.lru_cache(maxsize=None)
    def parts(rows, d):
        found = {frozenset([rows])}
        for j in range(X.shape[1]) if d else ():
            left = frozenset(i for i in rows if X[i, j] == 0)
            if left and left != rows:
                found |= {pl | pr for pl in parts(left, d - 1) for pr in parts(rows - left, d - 1)}
        return found

    return parts(frozenset(range(len(X))), depth)


schemas = st.lists(st.integers(1, 4), min_size=1, max_size=3)


class TestExactTreeOracle:
    """The tree oracle on the labels view against other routes to the
    best tree of depth <= d on the one-hot columns."""

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), schemas, st.integers(1, 4))
    def test_at_least_cart_on_every_row(self, seed, cards, depth):
        d_r, d_c, m, k, tilde = labels_pair(seed, cards)
        exact = oracle_gap(feature_groups(d_r, d_c, "labels"), tilde, m, k, "tree", "labels",
                           tree_depth=depth)[0]
        X = combined_features(d_r, d_c, "labels")
        cart = normalized_gap(fit_tree(X, tilde, depth).values_from_features(X), tilde, m, k)
        assert exact >= cart - 1e-12

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32 - 1),
           st.sampled_from([(2,), (3,), (6,), (2, 2), (2, 3), (3, 2), (1, 2, 3), (2, 1, 2)]),
           st.integers(1, 4))
    def test_equals_brute_force_over_trees_on_few_cells(self, seed, cards, depth):
        d_r, d_c, m, k, tilde = labels_pair(seed, cards)
        groups = feature_groups(d_r, d_c, "labels")
        assert len(groups.rows) <= 6
        best = 0.0
        for part in tree_partitions(groups.rows, depth):
            block = np.empty(len(groups.rows), dtype=int)
            for b, rows in enumerate(part):
                block[list(rows)] = b
            of_item = block[groups.inverse]
            means = np.bincount(of_item, tilde) / np.bincount(of_item)
            best = max(best, normalized_gap(means[of_item], tilde, m, k))
        value, witness, _, _ = oracle_gap(groups, tilde, m, k, "tree", "labels",
                                          tree_depth=depth)
        assert value == pytest.approx(best, rel=0.0, abs=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), schemas, st.integers(1, 4))
    def test_witness_is_a_normalized_tree_of_the_gap(self, seed, cards, depth):
        d_r, d_c, m, k, tilde = labels_pair(seed, cards)
        value, witness, _, _ = oracle_gap(feature_groups(d_r, d_c, "labels"), tilde, m, k,
                                          "tree", "labels", tree_depth=depth)
        assert witness.base.params["root"].depth() <= depth
        values = np.concatenate([witness.values(d_r), witness.values(d_c)])
        assert abs(float(values @ tilde)) == pytest.approx(value, rel=0.0, abs=1e-12)
        if value > 0.0:
            assert np.linalg.norm(values) == pytest.approx(target_norm(m, k), rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), schemas)
    def test_deep_enough_tree_is_every_function_of_the_cell(self, seed, cards):
        # a tree of depth sum(c - 1) separates every cell, so its gap is the
        # gap over every function of the cell.  On one axis the linear class
        # on the one-hot columns is every function of the cell too, so the two
        # gaps are equal; on more axes it is the additive functions, a subclass
        d_r, d_c, m, k, tilde = labels_pair(seed, cards)
        sel = Selection(np.rint(tilde[: len(d_r)] * k).astype(int), k)
        depth = max(1, sum(c - 1 for c in cards))
        tree = mpr_via_oracle(sel, d_r, d_c, "tree", "labels", tree_depth=depth).value
        linear = mpr_closed_form_linear(sel, d_r, d_c, "labels").value
        if len(cards) == 1:
            assert tree == pytest.approx(linear, rel=0.0, abs=1e-12)
        else:
            assert tree >= linear - 1e-12


@st.composite
def cell_count_instances(draw):
    """D_R, D_C and selection weights on 1-3 label axes of 2-4 categories,
    built from per-cell counts drawn from {0, 1, 2} so that many cells share
    their counts and splits tie; in the cancelling case each cell holds r
    curated items per selected one, so the signed weights cancel on every
    cell up to rounding and the fit is the zero fit.  Also a depth of 1-4."""
    cards = {f"a{i}": c for i, c in enumerate(draw(st.lists(st.integers(2, 4), min_size=1,
                                                            max_size=3)))}
    cells = [dict(zip(cards, codes)) for codes in itertools.product(*map(range, cards.values()))]
    counts = st.integers(0, 2)
    selected = draw(st.lists(counts, min_size=len(cells), max_size=len(cells)))
    unselected = draw(st.lists(counts, min_size=len(cells), max_size=len(cells)))
    r = draw(st.integers(1, 3))
    curated = ([r * c for c in selected] if draw(st.booleans())
               else draw(st.lists(counts, min_size=len(cells), max_size=len(cells))))
    assume(sum(selected) >= 1 and sum(curated) >= 1)
    r_labels = [c for c, s, u in zip(cells, selected, unselected) for _ in range(s + u)]
    chosen = [i for c, s, u in zip(cells, selected, unselected) for i in [1] * s + [0] * u]
    c_labels = [c for c, n in zip(cells, curated) for _ in range(n)]
    d_r = make_dataset(np.zeros((len(r_labels), 1)), r_labels, cards=cards, prefix="r")
    d_c = make_dataset(np.zeros((len(c_labels), 1)), c_labels, cards=cards, role="curated",
                       prefix="c")
    return d_r, d_c, np.array(chosen, dtype=float), draw(st.integers(1, 4))


class TestExactTreeCut:
    """The loop's exact tree cut, read from the dynamic program's block means
    per cell, is the report route's: the fitted tree's values, normalized."""

    @settings(max_examples=300, deadline=None)
    @given(cell_count_instances())
    def test_loop_cut_is_the_reports_to_the_bit(self, instance):
        d_r, d_c, a, depth = instance
        n, m, k = len(d_r), len(d_c), int(a.sum())
        separator = OracleClass.build(d_r, d_c, k, "tree", "labels", depth)
        violation, cut = separator(a)
        value, witness, _, _ = separator.fit(a)
        groups = separator.groups
        values = witness.base.values_from_features(groups.rows)[groups.inverse]
        if witness.scale == 0.0:  # the zero fit
            assert value == 0.0
            fitted = np.zeros(n + m)
        else:
            fitted = normalize_values(witness.base, values, m, k).scale * values
        assert violation == value
        assert np.array_equal(cut.coefficients, fitted[:n] / k)
        assert cut.offset == float(np.mean(fitted[n:])) and cut.bound == 0.0

    @settings(max_examples=100, deadline=None)
    @given(cell_count_instances())
    def test_block_row_lists_are_block_of_and_members(self, instance):
        d_r, d_c, _, depth = instance
        table = feature_groups(d_r, d_c, "labels").tree_blocks(depth)
        starts = table.starts
        assert starts.shape == (table.n_blocks + 1,) and starts[0] == 0
        assert starts[-1] == table.members.size
        for b in range(table.n_blocks):
            rows = table.members[starts[b]:starts[b + 1]]
            assert rows.size > 0 and np.array_equal(rows, table.members[table.block_of == b])


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

    @pytest.mark.parametrize("view", ["labels", "embedding", "concat"])
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

    def test_gaussian_nan_sigma_rejected(self, rng):
        d_r, d_c = random_pair(rng, 4, 3, 2)
        sel = Selection(np.array([1, 1, 0, 0]), 2)
        with pytest.raises(ValueError, match="sigma > 0"):
            mpr_rkhs(sel, d_r, d_c, "gaussian", float("nan"), "labels")

    @pytest.mark.parametrize("kernel, sigma", [("linear", None), ("gaussian", 0.3),
                                               ("gaussian", 1.0)])
    def test_matched_cell_proportions_read_zero(self, rng, kernel, sigma):
        # the curated set holds three times the selection's count of every
        # cell, so the signed weights cancel on each cell: the kernel norm is
        # 0 up to the rounding of those per-cell sums, not of the Gram sums
        cells = [{"a": a, "b": b} for a in range(2) for b in range(3)]
        chosen = [cell for cell, count in zip(cells, (1, 3, 4, 5, 1, 2)) for _ in range(count)]
        k = len(chosen)
        d_r = make_dataset(rng.standard_normal((k + 7, 2)), chosen + [cells[0]] * 7, prefix="r")
        d_c = make_dataset(rng.standard_normal((3 * k, 2)), chosen * 3, role="curated",
                           prefix="c")
        sel = Selection((np.arange(k + 7) < k).astype(int), k)
        assert mpr_rkhs(sel, d_r, d_c, kernel, sigma, "labels").value <= 1e-12


class TestReportSerialization:
    def test_report_json_fields(self, rng):
        d_r, d_c = random_pair(rng, 6, 4, 2)
        sel = random_selection(rng, 6, 2)
        rep = mpr_closed_form_linear(sel, d_r, d_c, "labels")
        doc = rep.to_dict()
        assert set(doc) == {"value", "method", "witness", "diagnostics"}
        assert doc["method"] == "closed-linear"
        assert isinstance(rep.to_json(), str)


VIEWS = ("labels", "embedding", "concat")
EVALUATORS = {
    "finite": lambda sel, d_r, d_c, view: CellCounts.build(d_r, d_c, sel.k).report(sel.indicator),
    "oracle-linear": lambda sel, d_r, d_c, view: mpr_via_oracle(sel, d_r, d_c, "linear", view),
    "oracle-tree": lambda sel, d_r, d_c, view: mpr_via_oracle(sel, d_r, d_c, "tree", view,
                                                              tree_depth=2),
    "oracle-mlp": lambda sel, d_r, d_c, view: mpr_via_oracle(sel, d_r, d_c, "mlp", view,
                                                             mlp_hidden=4, mlp_epochs=10),
    "closed-form": lambda sel, d_r, d_c, view: mpr_closed_form_linear(sel, d_r, d_c, view),
    "rkhs": lambda sel, d_r, d_c, view: mpr_rkhs(sel, d_r, d_c, "gaussian", 1.0, view),
}


class TestPairMemo:
    """What depends only on (D_R, D_C) is built once per pair of dataset
    objects and dies with them."""

    @pytest.mark.parametrize("evaluator, view", [
        (name, view) for name in EVALUATORS for view in VIEWS if name != "finite" or view == "labels"
    ])
    def test_repeat_calls_report_what_a_fresh_pair_reports(self, tmp_path, evaluator, view):
        rng = np.random.default_rng(3)
        for d, name in zip(random_pair(rng, 40, 30, 3, n_groups=3), ("retrieval", "curated")):
            save_dataset(d, tmp_path / f"{name}.csv")
        pairs = [(load_dataset(tmp_path / "retrieval.csv"),
                  load_dataset(tmp_path / "curated.csv", "curated")) for _ in range(2)]
        sel = random_selection(rng, 40, 7)
        evaluate = EVALUATORS[evaluator]
        first = [evaluate(sel, *pairs[0], view).to_json() for _ in range(2)]
        assert first == [evaluate(sel, *pairs[1], view).to_json()] * 2

    @pytest.mark.parametrize("view", VIEWS)
    def test_cached_arrays_are_read_only(self, rng, view):
        d_r, d_c = random_pair(rng, 30, 20, 3, n_groups=3)
        groups = feature_groups(d_r, d_c, view)
        cached = [groups.rows, groups.inverse, groups.counts, *groups.presort(),
                  svd_context(groups).U_l]
        if view == "labels":
            table = groups.tree_blocks(2)
            cached += [a for a in metric._label_cells(d_r, d_c) if isinstance(a, np.ndarray)]
            cached += [table.block_of, table.members, table.left, table.right, table.starts]
        for a in cached:
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0

    def test_incompatible_pair_raises_on_every_call(self, rng):
        d_r = make_dataset(rng.standard_normal((6, 2)), [{"g": i % 2} for i in range(6)],
                           cards={"g": 2}, prefix="r")
        d_c = make_dataset(rng.standard_normal((4, 3)), [{"g": i % 3} for i in range(4)],
                           cards={"g": 3}, role="curated", prefix="c")
        sel = random_selection(rng, 6, 2)
        for view, what in (("labels", "label cardinalities"), ("embedding", "embedding dimension"),
                           ("concat", "label cardinalities")):
            for _ in range(2):
                with pytest.raises(ValueError, match=what):
                    feature_groups(d_r, d_c, view)
                with pytest.raises(ValueError, match=what):
                    mpr_closed_form_linear(sel, d_r, d_c, view)
        for _ in range(2):
            with pytest.raises(ValueError, match="label cardinalities"):
                CellCounts.build(d_r, d_c, 2)
        # a pair whose labels agree keeps its labels view and still fails on the other two
        d_c = make_dataset(rng.standard_normal((4, 3)), [{"g": i % 2} for i in range(4)],
                           cards={"g": 2}, role="curated", prefix="c")
        assert feature_groups(d_r, d_c, "labels") is feature_groups(d_r, d_c, "labels")
        for _ in range(2):
            with pytest.raises(ValueError, match="embedding dimension"):
                feature_groups(d_r, d_c, "embedding")

    def test_entry_dies_with_the_datasets(self, rng):
        d_r, d_c = random_pair(rng, 30, 20, 3)
        sel = random_selection(rng, 30, 5)
        for evaluate in EVALUATORS.values():
            evaluate(sel, d_r, d_c, "concat")
        groups = weakref.ref(feature_groups(d_r, d_c, "concat"))
        assert groups() is not None and d_r in metric._PAIR_MEMO
        del d_r, d_c
        gc.collect()
        assert groups() is None

    def test_derived_datasets_get_their_own_entries(self, rng):
        d_r, d_c = random_pair(rng, 30, 20, 3, n_groups=3)
        near = condition_curation(d_c, Query("q", rng.standard_normal(3)), 10)
        assert near is not d_c
        groups = feature_groups(d_r, near, "embedding")
        assert groups is feature_groups(d_r, near, "embedding")
        assert groups is not feature_groups(d_r, d_c, "embedding")
        assert np.array_equal(groups.rows, combined_features(d_r, near, "embedding"))
        # a curated set that lacks a category takes the retrieval set's cards
        lacking = make_dataset(rng.standard_normal((5, 3)), [{"g": i % 2} for i in range(5)],
                               cards={"g": 2}, role="curated", prefix="c")
        same_r, wider = reconcile(d_r, lacking)
        assert same_r is d_r and wider is not lacking
        with pytest.raises(ValueError, match="label cardinalities"):
            feature_groups(d_r, lacking, "labels")
        assert feature_groups(d_r, wider, "labels").rows.shape[1] == 3
        assert all(d in metric._PAIR_MEMO[d_r] for d in (d_c, near, wider))
        assert lacking not in metric._PAIR_MEMO[d_r]
