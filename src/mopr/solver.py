"""Linear and integer programs for constrained top-k selection.

The relaxed retrieval problem is ``max s.a`` over ``a in [0,1]^n`` with
``sum(a) = k`` plus accumulated representation cuts.  There is one row type,
the two-sided ``Cut``: ``offset - bound <= coefficients.a <= offset + bound``.
It is solved by a self-contained bounded dual simplex (no external solver).
Each row gets a slack, ``row.a - slack = 0``, whose bounds carry the row's
range, so cuts and bound changes only move bounds.  A cold solve starts at the
top-k vertex: the k most similar items at their upper bound, the k-th of them
basic in the cardinality row and every cut slack basic.  That basis is dual
feasible, so no phase 1 is needed.  The final basis is returned, and a later
solve whose rows extend the earlier ones (and whose row bounds may differ)
re-optimizes from it, which in a cutting-plane loop takes a few pivots per new
cut.  The ratio test is the long-step (bound-flipping) one of Maros 2003 and
Koberstein 2005: a boxed variable whose breakpoint the dual step passes flips
to its other bound instead of entering, so a cut that moves many items of one
cell costs one pivot, not one per item.  The leaving row and ties among
breakpoints go to the lowest index, which keeps runs deterministic.  Small
integer programs are solved exactly, by enumeration or by branch and bound
that fixes an item with the zero-width row ``Cut(e_j, v, 0)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from mopr.similarity import Selection

TOL = 1e-9
FRACTIONAL_TOL = 1e-8
MAX_PIVOTS = 200000
# a pivot element below this gives a near-singular basis; a basic variable
# that only such a pivot would repair, and that lies within this of its
# bounds, stays where it is, its bound shifted
PIVOT_TOL = 1e-7
IP_EXACT_MAX_N = 25  # the largest pool solve_ip_exact takes

# status of a variable in a basis
AT_LOWER, AT_UPPER, BASIC = 0, 1, 2


@dataclass(frozen=True)
class Cut:
    """Two-sided linear constraint |coefficients . a - offset| <= bound.

    ``coefficients`` are the witness statistic's values on the retrieval items
    divided by k; ``offset`` is its curated mean; ``bound`` is the target gap.
    """

    coefficients: np.ndarray
    offset: float
    bound: float

    def __post_init__(self):
        coef = np.asarray(self.coefficients, dtype=float)
        if not np.all(np.isfinite(coef)):
            raise ValueError("cut coefficients must be finite")
        if not math.isfinite(self.offset):
            raise ValueError(f"cut offset must be finite, got {self.offset}")
        if not self.bound >= 0.0:  # also NaN; +inf is no constraint
            raise ValueError(f"cut bound must be non-negative, got {self.bound}")
        object.__setattr__(self, "coefficients", coef)

    def violation(self, a: np.ndarray) -> float:
        """How far ``a`` sits outside the cut (0 when satisfied)."""
        return max(abs(float(self.coefficients @ a) - self.offset) - self.bound, 0.0)

    def with_bound(self, bound: float) -> "Cut":
        return Cut(self.coefficients, self.offset, bound)


@dataclass
class LpSolution:
    a: np.ndarray
    objective: float
    status: str  # optimal | infeasible
    n_fractional: int = 0
    diagnostics: dict = field(default_factory=dict)  # "pivots"; "rows" if optimal
    # (status per variable, basic variable per row) where the solve ended;
    # ``solve_lp(..., start=basis)`` re-optimizes from it
    basis: tuple[np.ndarray, np.ndarray] | None = None


def _dual_simplex(A, c, lower, upper, status, basis) -> tuple[np.ndarray, int, bool]:
    """Bounded dual simplex for max c.x, Ax = 0, lower <= x <= upper.

    Each row of A past the first is one two-sided cut row, whose slack is
    boxed by the cut's range, so every variable has two finite bounds.

    Starts from a dual feasible basis and updates ``status`` and ``basis`` in
    place.  The leaving variable is the lowest-index basic variable outside
    its bounds.  The ratio test walks the breakpoints |reduced cost| / |alpha|
    in ascending order, ties to the lowest index, with the dual slope starting
    at the leaving variable's infeasibility and falling by |alpha| times the
    width at each one.  Breakpoints passed while the slope stays above TOL
    flip to their other bound; of the rest, the one with the smallest ratio
    enters, ties within TOL to the lowest index, so a pivot without flips is
    the textbook one.  If the slope is still positive after the last
    breakpoint the LP is infeasible, and the basis is returned unflipped.  If
    the entering pivot element is below PIVOT_TOL and the leaving variable
    lies within PIVOT_TOL of its given bounds, its bound is shifted to its
    value instead: near-duplicate rows would otherwise pivot on rounding
    noise into a near-singular basis.  ``x`` is rebuilt from ``status`` on
    every pass.  Returns (x, pivots, feasible).
    """
    movable = lower < upper
    given = lower, upper
    lower, upper = lower.copy(), upper.copy()  # the shifted bounds stay local
    for pivots in range(MAX_PIVOTS):
        x = np.where(status == AT_UPPER, upper, lower)
        x[basis] = 0.0
        B_inv = np.linalg.inv(A[:, basis])
        x[basis] = -B_inv @ (A @ x)
        below = x[basis] < lower[basis] - TOL
        above = x[basis] > upper[basis] + TOL
        infeasible = np.flatnonzero(below | above)
        if infeasible.size == 0:
            return x, pivots, True
        p = int(infeasible[np.argmin(basis[infeasible])])
        reduced = c - (c[basis] @ B_inv) @ A
        # x[basis[p]] falls by alpha[j] per unit rise of x[j]; the sign flip for
        # a variable above its bound makes one test pick the moves that fix it
        alpha = B_inv[p] @ A if below[p] else -(B_inv[p] @ A)
        candidates = np.flatnonzero(movable & (
            ((status == AT_LOWER) & (alpha < -TOL)) | ((status == AT_UPPER) & (alpha > TOL))
        ))
        ratios = np.abs(reduced[candidates] / alpha[candidates])
        order = np.argsort(ratios, kind="stable")
        walk = candidates[order]
        # the dual slope after each breakpoint: how far x[basis[p]] would still
        # be outside its bound with every variable up to that one flipped
        leaving = basis[p]
        infeasibility = lower[leaving] - x[leaving] if below[p] else x[leaving] - upper[leaving]
        slope = infeasibility - np.cumsum(np.abs(alpha[walk]) * (upper - lower)[walk])
        turn = np.flatnonzero(slope <= TOL)
        if turn.size == 0:
            return x, pivots, False
        flip, rest = walk[: turn[0]], order[turn[0]:]
        entering = int(candidates[rest][ratios[rest] <= ratios[rest[0]] + TOL].min())
        off = max(given[0][leaving] - x[leaving], x[leaving] - given[1][leaving])
        if abs(alpha[entering]) < PIVOT_TOL and off <= PIVOT_TOL:
            lower[leaving] = min(lower[leaving], x[leaving])
            upper[leaving] = max(upper[leaving], x[leaving])
            continue
        status[flip] = np.where(status[flip] == AT_LOWER, AT_UPPER, AT_LOWER)
        status[leaving] = AT_LOWER if below[p] else AT_UPPER
        status[entering] = BASIC
        basis[p] = entering
    raise RuntimeError("simplex iteration limit exceeded")


def _top_k_start(s, k, n_rows):
    """Dual feasible basis at the top-k vertex of the [0, 1] box.

    In stable descending-``s`` order the first k - 1 items sit at their upper
    bound, the k-th is basic in the cardinality row (row 0) and the rest sit at
    their lower bound.  Every cut slack is basic.
    """
    n = s.size
    order = np.argsort(-s, kind="stable")
    status = np.full(n + n_rows, BASIC)
    status[order[: k - 1]] = AT_UPPER
    status[order[k:]] = AT_LOWER
    status[n] = AT_LOWER
    basis = n + np.arange(n_rows)
    basis[0] = order[k - 1]
    return status, basis


def solve_lp(s: np.ndarray, cuts, k: int,
             start: tuple[np.ndarray, np.ndarray] | None = None) -> LpSolution:
    """Maximize s.a over the box [0,1]^n with sum(a)=k and all cut rows.

    ``start`` is the ``basis`` of an earlier solution whose cuts are a prefix
    of ``cuts``; their bounds may differ.  The returned point is a vertex, so
    the number of fractional coordinates is at most the number of active cut
    rows + 1.
    """
    s = np.asarray(s, dtype=float)
    n = s.size
    if k < 1:
        raise ValueError(f"k={k} must be at least 1")
    if k > n:
        raise ValueError(f"k={k} exceeds pool size {n}")
    if any(cut.coefficients.shape != (n,) for cut in cuts):
        raise ValueError("cut coefficient length does not match pool size")
    # one slack per row with row.a - slack = 0; row 0 is sum(a), slack fixed at k
    n_rows = 1 + len(cuts)
    if start is None:
        status, basis = _top_k_start(s, k, n_rows)
    else:
        status, basis = start
        if status.shape != (n + basis.size,) or basis.size > n_rows:
            raise ValueError("start basis does not fit this LP")
        # rows added since the start enter with their slack basic
        status = np.concatenate([status, np.full(n_rows - basis.size, BASIC)])
        basis = np.concatenate([basis, n + np.arange(basis.size, n_rows)])
    A = np.hstack([
        np.vstack([np.ones(n)] + [cut.coefficients for cut in cuts]),
        -np.eye(n_rows),
    ])
    c = np.concatenate([s, np.zeros(n_rows)])
    lower = np.concatenate([np.zeros(n), [k], [cut.offset - cut.bound for cut in cuts]])
    upper = np.concatenate([np.ones(n), [k], [cut.offset + cut.bound for cut in cuts]])
    x, pivots, feasible = _dual_simplex(A, c, lower, upper, status, basis)
    fixed = 1 + np.flatnonzero(lower[n + 1:] == upper[n + 1:])
    if fixed.size:
        # a fixed slack is dual feasible at either bound; put each nonbasic one
        # at the bound its reduced cost (the row's dual) favours, so that a
        # later solve from this basis that gives the row room starts dual feasible
        y = np.linalg.solve(A[:, basis].T, c[basis])
        fixed = fixed[status[n + fixed] != BASIC]
        status[n + fixed] = np.where(y[fixed] > 0, AT_UPPER, AT_LOWER)
    a = np.clip(x[:n], 0.0, 1.0)
    if not feasible or abs(float(a.sum()) - k) > 1e-6:
        return LpSolution(a=a, objective=float("nan"), status="infeasible",
                          diagnostics={"pivots": pivots}, basis=(status, basis))
    n_frac = int(np.sum((a > FRACTIONAL_TOL) & (a < 1.0 - FRACTIONAL_TOL)))
    return LpSolution(
        a=a,
        objective=float(s @ a),
        status="optimal",
        n_fractional=n_frac,
        diagnostics={"rows": len(cuts), "pivots": pivots},
        basis=(status, basis),
    )


def round_top_k(a: np.ndarray, k: int) -> Selection:
    """Indicator of the k largest entries of ``a``; ties to the lower index."""
    a = np.asarray(a, dtype=float)
    if a.size < k:
        raise ValueError("fewer entries than k")
    order = np.argsort(-a, kind="stable")
    indicator = np.zeros(a.size, dtype=int)
    indicator[order[:k]] = 1
    return Selection(indicator, k)


def check_cuts(a: np.ndarray, cuts, tol: float = 1e-8) -> list[tuple[int, float]]:
    """(index, violation) for every cut the point violates beyond tolerance."""
    report = []
    for idx, cut in enumerate(cuts):
        v = cut.violation(np.asarray(a, dtype=float))
        if v > tol:
            report.append((idx, v))
    return report


def _enumerate_ip(s: np.ndarray, cuts, k: int) -> Selection:
    n = s.size
    combos = np.array(list(combinations(range(n), k)), dtype=int)
    objectives = s[combos].sum(axis=1)
    feasible = np.ones(combos.shape[0], dtype=bool)
    for cut in cuts:
        vals = cut.coefficients[combos].sum(axis=1)
        feasible &= vals >= cut.offset - cut.bound - 1e-9
        feasible &= vals <= cut.offset + cut.bound + 1e-9
    if not np.any(feasible):
        raise ValueError("integer program infeasible")
    objectives = np.where(feasible, objectives, -np.inf)
    best = int(np.argmax(objectives))  # first max = lexicographically smallest combo
    indicator = np.zeros(n, dtype=int)
    indicator[combos[best]] = 1
    return Selection(indicator, k)


def solve_ip_exact(s: np.ndarray, cuts, k: int) -> Selection:
    """Optimal binary selection on a small instance.

    Exhaustive enumeration for n <= 20, branch-and-bound with the LP bound
    above that.  Also asserts LP-relaxation dominance over the IP optimum.
    """
    s = np.asarray(s, dtype=float)
    n = s.size
    if n > IP_EXACT_MAX_N:
        raise ValueError(f"pool size {n} exceeds exact-solver limit {IP_EXACT_MAX_N}")
    lp = solve_lp(s, cuts, k)
    if n <= 20:
        sel = _enumerate_ip(s, cuts, k)
    else:
        sel = _branch_and_bound(s, cuts, k)
    ip_obj = float(s @ sel.indicator)
    if lp.status == "optimal" and ip_obj > lp.objective + 1e-6:
        raise AssertionError("IP objective exceeded the LP relaxation bound")
    return sel


def _branch_and_bound(s: np.ndarray, cuts, k: int) -> Selection:
    """Best selection under ``cuts`` by LP-based branch and bound (Land & Doig 1960).

    A node's rows are the caller's cuts followed by one zero-width row
    ``Cut(e_j, v, 0)`` per item its path fixes.  A node branches on its lowest
    fractional item, v = 1 before v = 0: each child appends its row to the
    parent's rows and re-optimizes from the parent's basis.  A node whose LP
    bound does not beat the incumbent by 1e-9 is pruned, and an integral vertex
    becomes the incumbent if it satisfies the caller's cuts.
    """
    unit = np.eye(s.size)
    best_obj = -np.inf
    best_ind: np.ndarray | None = None

    def recurse(rows: list[Cut], start):
        nonlocal best_obj, best_ind
        lp = solve_lp(s, rows, k, start=start)
        if lp.status != "optimal" or lp.objective <= best_obj + 1e-9:
            return
        frac = np.flatnonzero((lp.a > FRACTIONAL_TOL) & (lp.a < 1.0 - FRACTIONAL_TOL))
        if frac.size == 0:
            ind = (lp.a > 0.5).astype(int)
            if not check_cuts(ind.astype(float), cuts):
                best_obj, best_ind = lp.objective, ind
            return
        j = int(frac[0])
        for fix in (1.0, 0.0):
            recurse(rows + [Cut(unit[j], fix, 0.0)], lp.basis)

    recurse(list(cuts), None)
    if best_ind is None:
        raise ValueError("integer program infeasible")
    return Selection(best_ind, k)
