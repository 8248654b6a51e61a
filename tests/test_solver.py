from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import scipy_reference
from mopr.similarity import top_k_indices
from mopr.solver import (
    TOL,
    Cut,
    _Lp,
    _ratio_test,
    check_cuts,
    round_top_k,
    solve_ip_exact,
    solve_lp,
)


def half_space(coefficients, rhs):
    """coefficients . a <= rhs as a two-sided cut whose lower side
    coefficients . a >= rhs - 2w cannot bind on [0,1]^n, for
    w = sum|coefficients| + |rhs| + 1."""
    coefficients = np.asarray(coefficients, dtype=float)
    width = float(np.abs(coefficients).sum()) + abs(rhs) + 1.0
    return Cut(coefficients, rhs - width, width)


def random_cut_instance(rng, n, n_cuts, rho):
    s = rng.uniform(0.1, 1.0, size=n)
    cuts = []
    for _ in range(n_cuts):
        values = rng.choice([-1.0, 1.0], size=n)
        offset = float(rng.uniform(-0.5, 0.5))
        cuts.append(Cut(values / 5, offset, rho))
    return s, cuts


class TestSolveLpAgainstScipy:
    def test_matches_scipy_on_random_instances(self, rng):
        for trial in range(40):
            n = int(rng.integers(5, 25))
            k = int(rng.integers(1, n))
            n_cuts = int(rng.integers(0, 4))
            s, cuts = random_cut_instance(rng, n, n_cuts, rho=float(rng.uniform(0.1, 1.0)))
            ours = solve_lp(s, cuts, k)
            ref = scipy_reference(s, cuts, k)
            if ref.status == 2:
                assert ours.status == "infeasible"
            else:
                assert ours.status == "optimal", f"trial {trial}"
                assert ours.objective == pytest.approx(-ref.fun, abs=1e-7)
                assert not check_cuts(ours.a, cuts)
                assert float(ours.a.sum()) == pytest.approx(k, abs=1e-8)

    def test_infeasible_detected(self):
        # cut demands mean +-1 gap <= 0 around an unreachable offset
        s = np.array([1.0, 0.9, 0.8])
        cuts = [Cut(np.array([1.0, 1.0, 1.0]), 10.0, 0.1)]
        assert solve_lp(s, cuts, 2).status == "infeasible"

    def test_halfspace_cuts(self, rng):
        s = rng.uniform(0.1, 1.0, size=8)
        cuts = [half_space(np.ones(8) / 8, 0.3)]
        ours = solve_lp(s, cuts, 3)
        ref = scipy_reference(s, cuts, 3)
        assert ours.status == "infeasible" if ref.status == 2 else (
            ours.objective == pytest.approx(-ref.fun, abs=1e-7)
        )


class TestSolveLpStructure:
    def test_no_cuts_is_topk(self):
        s = np.array([4.0, 3.0, 2.0, 1.0])
        lp = solve_lp(s, [], 2)
        assert lp.a == pytest.approx([1, 1, 0, 0])
        assert lp.objective == pytest.approx(7.0)
        assert lp.n_fractional == 0

    def test_inactive_cut_keeps_topk(self):
        s = np.array([4.0, 3.0, 2.0, 1.0])
        wide = Cut(np.ones(4) / 2, 0.0, 100.0)
        assert solve_lp(s, [wide], 2).a == pytest.approx([1, 1, 0, 0])

    def test_derived_two_subset_instance(self):
        # forbid taking items 0 and 1 together: indicator (+1,+1,-1,-1)/k with
        # k=2 and band excluding sum a0+a1 = 2 but allowing 1
        s = np.array([4.0, 3.0, 2.0, 1.0])
        cut = Cut(np.array([1.0, 1.0, -1.0, -1.0]) / 2, -0.5, 0.51)
        lp = solve_lp(s, [cut], 2)
        sel = round_top_k(lp.a, 2)
        assert float(s @ sel.indicator) == pytest.approx(6.0)
        assert sel.indicator.tolist() == [1, 0, 1, 0]

    def test_vertex_fractional_bound(self, rng):
        # vertex property: at most (active cut rows + 1) fractional entries
        for _ in range(20):
            n = int(rng.integers(6, 20))
            k = int(rng.integers(2, n))
            s, cuts = random_cut_instance(rng, n, 2, rho=0.4)
            lp = solve_lp(s, cuts, k)
            if lp.status == "optimal":
                assert lp.n_fractional <= 2 * len(cuts) + 1

    def test_determinism(self, rng):
        s, cuts = random_cut_instance(rng, 12, 2, rho=0.5)
        a1 = solve_lp(s, cuts, 4)
        a2 = solve_lp(s, cuts, 4)
        assert np.array_equal(a1.a, a2.a)

    def test_k_exceeds_n(self):
        with pytest.raises(ValueError, match="exceeds"):
            solve_lp(np.ones(3), [], 4)

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one_rejected(self, k):
        with pytest.raises(ValueError, match="at least 1"):
            solve_lp(np.ones(3), [], k)


class TestRoundTopK:
    def test_direct(self):
        assert round_top_k(np.array([0.9, 0.8, 0.1]), 2).indicator.tolist() == [1, 1, 0]

    def test_integral_fixed_point(self):
        a = np.array([1.0, 0.0, 1.0, 0.0])
        assert round_top_k(a, 2).indicator.tolist() == [1, 0, 1, 0]

    def test_tie_rule(self):
        assert round_top_k(np.array([0.5, 0.5, 0.5]), 1).indicator.tolist() == [1, 0, 0]

    def test_ties_within_tol_go_to_the_lower_index(self):
        # one LP point reached by two pivot sequences, 1 ulp apart at the k-th place
        a = np.array([1.0, 0.49999999999999967, 0.5000000000000004, 0.1])
        assert round_top_k(a, 2).indicator.tolist() == [1, 1, 0, 0]
        assert round_top_k(a[[0, 2, 1, 3]], 2).indicator.tolist() == [1, 1, 0, 0]
        assert round_top_k(np.array([0.5, 0.5 + 2e-9, 0.1]), 1).indicator.tolist() == [0, 1, 0]

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(min_value=0, max_value=1), min_size=3, max_size=10),
           st.integers(min_value=1, max_value=3))
    def test_always_k_ones(self, values, k):
        sel = round_top_k(np.array(values), k)
        assert int(sel.indicator.sum()) == k


class TestIpExact:
    def test_no_cuts_topk(self, rng):
        s = rng.uniform(0, 1, size=10)
        sel = solve_ip_exact(s, [], 4)
        assert np.array_equal(sel.indicator, round_top_k(s, 4).indicator)

    def test_matches_exhaustive_oracle(self, rng):
        # independent oracle: direct scan over all C(12, 4) subsets
        for _ in range(10):
            s, cuts = random_cut_instance(rng, 12, 1, rho=0.6)
            try:
                sel = solve_ip_exact(s, cuts, 4)
            except ValueError:
                # infeasible per the solver: the oracle must agree
                feas = [
                    c for c in combinations(range(12), 4)
                    if not check_cuts(np.bincount(list(c), minlength=12).astype(float), cuts)
                ]
                assert not feas
                continue
            best = max(
                (float(s[list(c)].sum()), c)
                for c in combinations(range(12), 4)
                if not check_cuts(np.bincount(list(c), minlength=12).astype(float), cuts)
            )
            assert float(s @ sel.indicator) == pytest.approx(best[0])

    def test_lp_dominates_ip(self, rng):
        for _ in range(10):
            s, cuts = random_cut_instance(rng, 14, 2, rho=0.5)
            lp = solve_lp(s, cuts, 5)
            if lp.status != "optimal":
                continue
            try:
                sel = solve_ip_exact(s, cuts, 5)
            except ValueError:
                continue
            assert float(s @ sel.indicator) <= lp.objective + 1e-6

    def test_size_limit(self):
        with pytest.raises(ValueError, match="limit"):
            solve_ip_exact(np.ones(30), [], 5)

    def test_lexicographic_tie(self):
        s = np.ones(6)
        sel = solve_ip_exact(s, [], 2)
        assert sel.indicator.tolist() == [1, 1, 0, 0, 0, 0]


class TestCuts:
    def test_violation_metric(self):
        cut = Cut(np.array([1.0, 0.0]), 0.5, 0.2)
        assert cut.violation(np.array([1.0, 0.0])) == pytest.approx(0.3)
        assert cut.violation(np.array([0.6, 0.0])) == 0.0

    def test_with_bound(self):
        cut = Cut(np.array([1.0]), 0.0, 0.1)
        assert cut.with_bound(0.5).bound == 0.5

    def test_non_finite_rejected(self):
        for coefficients in ([np.inf], [1.0, np.nan]):
            with pytest.raises(ValueError, match="finite"):
                Cut(np.array(coefficients), 0.0, 0.1)

    @pytest.mark.parametrize("offset", [np.nan, np.inf, -np.inf])
    def test_non_finite_offset_rejected(self, offset):
        with pytest.raises(ValueError, match="offset must be finite"):
            Cut(np.array([1.0]), offset, 0.1)

    @pytest.mark.parametrize("bound", [np.nan, -0.1, -np.inf])
    def test_bound_must_be_non_negative(self, bound):
        with pytest.raises(ValueError, match="bound must be non-negative"):
            Cut(np.array([1.0]), 0.0, bound)
        with pytest.raises(ValueError, match="bound must be non-negative"):
            Cut(np.array([1.0]), 0.0, 0.1).with_bound(bound)

    def test_infinite_bound_is_no_constraint(self):
        s = np.array([0.9, 0.5, 0.1])
        lp = solve_lp(s, [Cut(np.array([1.0, 0.0, 0.0]), 0.0, np.inf)], 1)
        assert lp.status == "optimal" and lp.a.tolist() == [1.0, 0.0, 0.0]

    def test_check_cuts_report(self):
        cuts = [Cut(np.array([1.0, 0.0]), 0.0, 0.1), Cut(np.array([0.0, 1.0]), 0.0, 5.0)]
        report = check_cuts(np.array([1.0, 1.0]), cuts)
        assert [idx for idx, _ in report] == [0]
        assert report[0][1] == pytest.approx(0.9)


# Constraint data on a grid of multiples of 1/8 keeps every instance either
# feasible or infeasible by a clear margin, so HiGHS's tolerances and ours agree.
GRID = st.integers(-8, 8).map(lambda v: v / 8)


@st.composite
def lp_instances(draw, min_cuts=0):
    n = draw(st.integers(3, 10))
    k = draw(st.sampled_from([1, n - 1]) | st.integers(1, n - 1))
    s = np.array(draw(st.lists(st.floats(0.1, 1.0), min_size=n, max_size=n)))
    cuts = []
    for _ in range(draw(st.integers(min_cuts, 3))):
        coef = np.array(draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))) / 4
        if draw(st.booleans()):
            cuts.append(Cut(coef, draw(GRID), abs(draw(GRID))))
        else:
            cuts.append(half_space(coef, draw(GRID)))
    return s, draw(fixing_rows(n)) + cuts, k


def fixing_rows(n):
    """Zero-width rows ``Cut(e_j, v, 0)`` that fix some items at 0 or 1;
    they may fix more than k items at 1."""
    values = st.lists(st.sampled_from([None] * 4 + [0.0, 1.0]), min_size=n, max_size=n)
    return st.just([]) | values.map(
        lambda vs: [Cut(np.eye(n)[j], v, 0.0) for j, v in enumerate(vs) if v is not None]
    )


@st.composite
def cell_lp_instances(draw):
    """LPs whose cuts give all items of a cell one coefficient, as a labels-view
    cut does.  Each cut is centred near its value on a random k-subset, so most
    instances are feasible yet cut off the top-k vertex, and re-optimizing
    swaps whole runs of a cell's items."""
    n = draw(st.integers(6, 14))
    k = draw(st.integers(2, n - 2))
    s = np.array(draw(st.lists(st.floats(0.1, 1.0), min_size=n, max_size=n)))
    cell = np.array(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
    anchor = np.zeros(n)
    anchor[draw(st.permutations(range(n)))[:k]] = 1.0
    cuts = []
    for _ in range(draw(st.integers(1, 3))):
        coef = np.array(draw(st.lists(st.integers(-2, 2), min_size=4, max_size=4)))[cell] / k
        centre = float(coef @ anchor) + draw(GRID) / 4
        if draw(st.booleans()):
            cuts.append(Cut(coef, centre, abs(draw(GRID)) / 4))
        else:
            cuts.append(half_space(coef, centre))
    return s, draw(fixing_rows(n)) + cuts, k


def assert_matches_highs(lp, s, cuts, k):
    ref = scipy_reference(s, cuts, k)
    if ref.status == 2:
        assert lp.status == "infeasible"
        return
    assert ref.status == 0
    assert lp.status == "optimal"
    assert lp.objective == pytest.approx(-ref.fun, abs=1e-7)
    assert not check_cuts(lp.a, cuts, tol=1e-7)
    assert float(lp.a.sum()) == pytest.approx(k, abs=1e-8)
    assert np.all((lp.a >= 0.0) & (lp.a <= 1.0))


@st.composite
def near_duplicate_instances(draw):
    """LPs in which every cut row comes with a near copy: the same range, and
    coefficients moved by at most 1e-12 (or not at all), well inside both
    solvers' tolerances.  Both rows of a pair can be active at once, which is
    where a basis could turn singular; the last cut is always a copy."""
    n = draw(st.integers(3, 10))
    k = draw(st.sampled_from([1, n - 1]) | st.integers(1, n - 1))
    s = np.array(draw(st.lists(st.floats(0.1, 1.0), min_size=n, max_size=n)))
    rho = draw(st.sampled_from([0.0, 1e-9, 0.5, 1.0]))
    cuts = []
    for _ in range(draw(st.integers(1, 3))):
        coef = np.array(draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))) / 4
        offset = draw(GRID)
        cut = Cut(coef, offset, rho) if draw(st.booleans()) else half_space(coef, offset + rho)
        nudge = np.array(draw(st.lists(st.integers(-1, 1), min_size=n, max_size=n)))
        scale = draw(st.sampled_from([0.0, 1e-15, 1e-12]))
        cuts += [cut, replace(cut, coefficients=coef + scale * nudge)]
    return s, cuts, k


def near_copy(cut, nudge):
    """``cut`` with its coefficients moved by 1e-9 times ``nudge``."""
    return replace(cut, coefficients=cut.coefficients + 1e-9 * np.asarray(nudge, dtype=float))


def _near_copy_regressions():
    band = Cut(np.array([2, -1, 2, 0, -2, -1, 0, -2, 1, 2]) / 4, -0.625, 0.0)
    singular = (np.array([0.8, 0.17, 0.62, 0.6, 0.13, 0.42, 0.9, 0.92, 0.66, 0.35]),
                [band, near_copy(band, [0, 1, 0, 1, 0, 0, 0, 1, 1, 1])], 3)
    band = Cut(np.array([0, 0, 2, -1, 2, -2, 0]) / 4, -0.625, 0.0)
    cycling = (np.array([0.7, 0.4, 0.9, 0.9, 0.1, 0.5, 0.2]),
               [band, near_copy(band, [0, 1, 1, -1, -1, 0, -1])], 2)
    half = half_space(np.array([-1, -1, 1, -1, 0, 2, 0, -2, 0, 2]) / 4, -0.25)
    band = Cut(np.array([2, 2, 0, -1, 0, 0, 2, 0, 2, -2]) / 4, 0.375, 0.0)
    other = half_space(np.array([2, 0, 0, -1, -1, -1, -2, -1, 1, -1]) / 4, -0.5)
    ill = (np.array([0.5, 0.5, 0.5, 0.5, 1.0, 0.0, 0.5, 0.5, 0.5, 0.5]),
           [half, half, band, near_copy(band, [-1, 0, 0, 0, 1, -1, 1, 1, -1, -1]),
            other, near_copy(other, [0, 1, 1, 0, -1, -1, -1, 1, 0, 1])], 3)
    return [singular, cycling, ill]


NEAR_COPY_REGRESSIONS = _near_copy_regressions()


def loosened(cut):
    return cut.with_bound(cut.bound + 0.25)


class TestSolveLpProperties:
    @settings(max_examples=150, deadline=None)
    @given(lp_instances())
    def test_cold_solve_matches_highs(self, instance):
        s, cuts, k = instance
        lp = solve_lp(s, cuts, k)
        assert_matches_highs(lp, s, cuts, k)
        assert lp.diagnostics["pivots"] >= 0

    @settings(max_examples=150, deadline=None)
    @given(lp_instances(min_cuts=1), st.sampled_from(["append", "loosen"]))
    def test_warm_equals_cold(self, instance, change):
        s, cuts, k = instance
        if change == "append":
            before, after = cuts[:-1], cuts
        else:
            before, after = cuts, [loosened(c) for c in cuts]
        first = solve_lp(s, before, k)
        warm = solve_lp(s, after, k, start=first.lp)
        cold = solve_lp(s, after, k)
        assert warm.status == cold.status
        if cold.status == "optimal":
            assert warm.objective == pytest.approx(cold.objective, abs=1e-7)
        assert_matches_highs(warm, s, after, k)

    @settings(max_examples=150, deadline=None)
    @given(cell_lp_instances(), st.sampled_from(["cold", "append", "loosen"]))
    def test_cell_structured_matches_highs(self, instance, change):
        # re-optimizing swaps whole runs of a cell's items, so many bounds flip
        # in one pivot
        s, cuts, k = instance
        if change == "cold":
            lp = solve_lp(s, cuts, k)
        else:
            before = cuts[:-1] if change == "append" else cuts
            after = cuts if change == "append" else [loosened(c) for c in cuts]
            first = solve_lp(s, before, k)
            lp, cuts = solve_lp(s, after, k, start=first.lp), after
        assert_matches_highs(lp, s, cuts, k)

    @settings(max_examples=200, deadline=None)
    @given(near_duplicate_instances(), st.sampled_from(["cold", "append"]))
    def test_near_duplicate_rows_match_highs(self, instance, change):
        # the warm start re-optimizes after the near copy of a row is added
        s, cuts, k = instance
        if change == "cold":
            lp = solve_lp(s, cuts, k)
        else:
            lp = solve_lp(s, cuts, k, start=solve_lp(s, cuts[:-1], k).lp)
        assert_matches_highs(lp, s, cuts, k)

    @pytest.mark.parametrize("instance", NEAR_COPY_REGRESSIONS,
                             ids=["singular", "cycling", "ill-conditioned"])
    def test_near_copies_beyond_tolerance_match_highs(self, instance):
        # each copy is out of range by rounding noise that only a pivot on an
        # element of about 1e-9 repairs; such pivots raised LinAlgError on a
        # singular basis, cycled to the pivot limit, or left a basis of
        # condition 5e9 whose vertex broke two rows by 1.2e-7 and fell 0.375
        # short of the optimum
        s, cuts, k = instance
        for start in (None, solve_lp(s, cuts[:-1], k).lp):
            assert_matches_highs(solve_lp(s, cuts, k, start=start), s, cuts, k)

    def test_group_cut_is_one_pivot_of_many_flips(self):
        # items 0-9 form group A and fill the top 5; the cut admits one of them,
        # so four A items swap out for four others: bound flips, not pivots
        s = np.linspace(1.0, 0.1, 20)
        group_a = np.zeros(20)
        group_a[:10] = 1.0
        cut = Cut(group_a / 5, 0.2, 0.0)
        first = solve_lp(s, [], 5)
        warm = solve_lp(s, [cut], 5, start=first.lp)
        cold = solve_lp(s, [cut], 5)
        assert warm.diagnostics["pivots"] <= 2
        assert cold.diagnostics["pivots"] <= 2
        assert warm.objective == pytest.approx(cold.objective, abs=1e-12)
        assert_matches_highs(cold, s, [cut], 5)

    def test_warm_start_after_new_cut_takes_one_pivot(self):
        # the cut removes the top-k vertex; re-optimizing from its basis is one pivot
        s = np.array([4.0, 3.0, 2.0, 1.0])
        first = solve_lp(s, [], 2)
        assert first.diagnostics["pivots"] == 0
        cut = Cut(np.array([1.0, 1.0, -1.0, -1.0]) / 2, -0.5, 0.51)
        warm = solve_lp(s, [cut], 2, start=first.lp)
        assert warm.a == pytest.approx(solve_lp(s, [cut], 2).a)
        assert warm.diagnostics == {"rows": 1, "pivots": 1}

    def test_warm_start_after_a_fixed_row_is_loosened(self):
        # the cut's slack is fixed (bound 0) in the infeasible first solve and
        # nonbasic at a bound its reduced cost points away from once loosened
        s = np.array([1.0, 1.0, 0.5, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0])
        e2, e8 = np.eye(9)[2], np.eye(9)[8]
        cuts = [Cut(0.5 * (e8 - e2), 0.5, 0.0), half_space(np.zeros(9), 0.0),
                half_space(-0.5 * e8, -0.53125)]
        first = solve_lp(s, cuts, 2)
        assert first.status == "infeasible"
        after = [loosened(c) for c in cuts]
        warm = solve_lp(s, after, 2, start=first.lp)
        assert warm.objective == pytest.approx(solve_lp(s, after, 2).objective, abs=1e-12)
        assert_matches_highs(warm, s, after, 2)

    def test_start_that_does_not_fit_rejected(self):
        # the start's rows must be a prefix of the new cuts, over the same s
        s = np.array([4.0, 3.0, 2.0, 1.0])
        cut = Cut(np.array([1.0, 1.0, -1.0, -1.0]) / 2, -0.5, 0.51)
        other = Cut(np.array([1.0, -1.0, 1.0, -1.0]) / 2, 0.0, 0.51)
        for cuts, s_new in (([other], s), ([], s), ([cut], s[::-1].copy()), ([cut], np.ones(5))):
            first = solve_lp(s, [cut], 2)
            with pytest.raises(ValueError, match="start"):
                solve_lp(s_new, cuts, 2, start=first.lp)
        # a copy of the same rows fits, whatever their bounds
        first = solve_lp(s, [cut], 2)
        same = Cut(cut.coefficients.copy(), 0.25, 2.0)
        assert solve_lp(s, [same], 2, start=first.lp).objective == solve_lp(s, [], 2).objective

    @settings(max_examples=150, deadline=None)
    @given(lp_instances(min_cuts=1), st.data())
    def test_one_lp_carried_through_appends_and_rebounds(self, instance, data):
        # one LP object, taken over by every solve, against a cold solve and HiGHS
        s, pool, k = instance
        cuts, lp = [], None
        for _ in range(data.draw(st.integers(1, 6))):
            step = data.draw(st.sampled_from(["append", "rebound", "solve"]))
            if step == "append" and len(cuts) < len(pool):
                cuts = cuts + [pool[len(cuts)]]
            elif step == "rebound" and cuts:
                # new ranges on the same rows: the offset and bound may both move
                cuts = [Cut(c.coefficients, c.offset + data.draw(GRID),
                            abs(data.draw(GRID)) if c.bound < 1 else c.bound) for c in cuts]
            warm = solve_lp(s, cuts, k, start=lp)
            cold = solve_lp(s, cuts, k)
            lp = warm.lp
            assert warm.status == cold.status
            if cold.status == "optimal":
                assert warm.objective == pytest.approx(cold.objective, abs=1e-9)
            assert_matches_highs(warm, s, cuts, k)


LP_STATE = ("rows", "since_refactor", "A", "B_inv", "basis", "c", "d", "lower", "upper", "status")


def assert_same_solution(one, other):
    """Two solves that return the same point, figures and LP state, bit for bit."""
    assert one.status == other.status and one.n_fractional == other.n_fractional
    assert one.diagnostics == other.diagnostics
    assert np.array_equal(one.a, other.a)
    assert np.array_equal([one.objective], [other.objective], equal_nan=True)
    for name in LP_STATE:
        assert np.array_equal(getattr(one.lp, name), getattr(other.lp, name)), name


class TestStartVertex:
    """A cold solve with no cuts returns the top-k start vertex without
    solving; it is what a refactorization of that basis gives."""

    @settings(max_examples=200, deadline=None)
    @given(lp_instances(min_cuts=1), st.sampled_from([None, 0.25, 0.5]))
    def test_cut_free_cold_solve_is_the_refactored_vertex(self, instance, tie):
        s, cuts, k = instance
        if tie is not None:  # ties around the k-th place
            s = np.where(s < 0.5, tie, s)
        vertex = solve_lp(s, [], k)
        # a fresh LP handed over as a start goes through the refactorization
        refactored = solve_lp(s, [], k, start=_Lp(s, k, 16))
        assert vertex.diagnostics == {"rows": 0, "pivots": 0}
        assert_same_solution(vertex, refactored)
        assert np.flatnonzero(vertex.a).tolist() == top_k_indices(s, k).tolist()
        # and a warm solve with cuts from each is the same solve
        assert_same_solution(solve_lp(s, cuts, k, start=vertex.lp),
                             solve_lp(s, cuts, k, start=refactored.lp))


def sorted_walk(candidates, ratios, row, width, infeasibility):
    """The long-step ratio test as one stable sort of every breakpoint, the
    reference ``_ratio_test`` is held to."""
    order = ratios.argsort(kind="stable")
    walk = candidates[order]
    slope = infeasibility - (np.abs(row[walk]) * width[walk]).cumsum()
    turn = (slope <= TOL).nonzero()[0]
    if turn.size == 0:
        return None
    first, ratios = turn[0], ratios[order]
    last = ratios.searchsorted(ratios[first] + TOL, side="right")
    return walk[:first].tolist(), int(walk[first:last].min())


@st.composite
def ratio_tests(draw):
    """Inputs of the ratio test over up to 12 variables, at least one a
    candidate (the empty walk is a case of its own).  The breakpoints take
    three values, each exact or moved by half, one or two TOL, so they tie
    exactly and within TOL at the smallest; widths may be zero.  The
    infeasibility is drawn so that the slope turns at a drawn breakpoint, the
    first, a later one, or none."""
    n = draw(st.integers(1, 12))
    row = np.array(draw(st.lists(st.sampled_from([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0]),
                                 min_size=n, max_size=n)))
    width = np.array(draw(st.lists(st.sampled_from([0.0, 0.25, 1.0, 2.0]), min_size=n, max_size=n)))
    candidates = np.array(sorted(draw(st.sets(st.integers(0, n - 1), min_size=1))), dtype=int)
    breakpoint = st.tuples(st.sampled_from([0.0, 0.25, 1.0]),
                           st.sampled_from([0.0, 0.0, 0.5 * TOL, TOL, 2 * TOL])).map(sum)
    ratios = np.array(draw(st.lists(breakpoint, min_size=candidates.size,
                                    max_size=candidates.size)), dtype=float)
    walk = candidates[ratios.argsort(kind="stable")]
    passed = np.concatenate(([0.0], (np.abs(row[walk]) * width[walk]).cumsum()))
    at = draw(st.integers(0, candidates.size))  # candidates.size: the slope never turns
    share = draw(st.sampled_from([0.0, 0.5, 1.0] if at < candidates.size else [0.5, 1.0]))
    gap = passed[at + 1] - passed[at] if at < candidates.size else 1.0
    return candidates, ratios, row, width, passed[at] + TOL + share * gap


class TestRatioTest:
    """``_ratio_test`` finds the first breakpoint without a sort; it returns
    what the walk over every breakpoint in stable-sorted order returns."""

    @settings(max_examples=2000, deadline=None)
    @given(ratio_tests())
    def test_is_the_sorted_walk(self, instance):
        test = _ratio_test(*instance)
        expected = sorted_walk(*instance)
        assert (None if test is None else (test[0].tolist(), test[1])) == expected

    @pytest.mark.parametrize("candidates, ratios, width, infeasibility, expected", [
        # an exact tie at the smallest ratio: the lower index enters, nothing flips
        ([1, 3, 4], [0.5, 0.25, 0.25], [1.0, 1.0, 1.0], 0.5, ([], 3)),
        # a ratio within TOL of the smallest ties with it
        ([1, 3, 4], [0.25 + 0.5 * TOL, 0.5, 0.25], [1.0, 1.0, 1.0], 0.5, ([], 1)),
        # the slope turns at the second breakpoint: the first flips
        ([1, 3, 4], [0.5, 0.25, 0.75], [1.0, 1.0, 1.0], 1.5, ([3], 1)),
        # a zero width passes its breakpoint without turning the slope
        ([1, 3, 4], [0.5, 0.25, 0.75], [1.0, 0.0, 1.0], 0.5, ([3], 1)),
        # the slope never turns, or there is no breakpoint: the LP is infeasible
        ([1, 3, 4], [0.5, 0.25, 0.75], [1.0, 1.0, 1.0], 3.5, None),
        ([], [], [], 0.5, None),
    ])
    def test_cases(self, candidates, ratios, width, infeasibility, expected):
        candidates, ratios = np.array(candidates, dtype=int), np.array(ratios, dtype=float)
        full = np.ones(5)
        full[candidates] = width
        instance = candidates, ratios, np.ones(5), full, infeasibility
        test = _ratio_test(*instance)
        assert (None if test is None else (test[0].tolist(), test[1])) == expected
        assert sorted_walk(*instance) == expected
