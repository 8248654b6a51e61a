"""Linear and integer programs for constrained top-k selection.

The relaxed retrieval problem is ``max s.a`` over ``a in [0,1]^n`` with
``sum(a) = k`` plus accumulated two-sided cuts ``offset - bound <=
coefficients.a <= offset + bound``, solved by a self-contained bounded dual
simplex.  A row's slack carries its range, so a cut appends a row and a new
bound moves bounds only.  A cold solve starts at the dual feasible top-k
vertex.  With no cuts that vertex is its own optimum: the solve returns it
with no refactorization, its reduced costs set to what one computes.  A
solve returns the LP itself, which a later solve whose cuts extend its rows
re-optimizes in place, a few pivots per new cut, each updating the basis
inverse in product form (Forrest & Tomlin 1972).  The ratio test is the
long-step one of Maros 2003 and Koberstein 2005, so a cut that moves many
items of one cell costs one pivot; the leaving row and ties go to the lowest
index.  It finds the first breakpoint without a sort, and sorts only when the
dual slope does not turn there.  ``solve_ip_exact`` solves a small integer
program by enumeration, the reference the tests hold the finite class's exact
retrieval (``algorithm._cell_greedy``) to.
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
REFACTOR_EVERY = 32  # pivots between refactorizations of the basis inverse
IP_EXACT_MAX_N = 20  # the largest pool solve_ip_exact enumerates

# status of a variable in a basis, and the way each status lets it move
AT_LOWER, AT_UPPER, BASIC = 0, 1, 2
_DIRECTION = np.array([1.0, -1.0, 0.0])


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
        if not np.isfinite(coef).all():
            raise ValueError("cut coefficients must be finite")
        if not math.isfinite(self.offset):
            raise ValueError(f"cut offset must be finite, got {self.offset}")
        self._check_bound()
        object.__setattr__(self, "coefficients", coef)

    def _check_bound(self) -> None:
        if not self.bound >= 0.0:  # also NaN; +inf is no constraint
            raise ValueError(f"cut bound must be non-negative, got {self.bound}")

    def violation(self, a: np.ndarray) -> float:
        """How far ``a`` sits outside the cut (0 when satisfied)."""
        return max(abs(float(self.coefficients @ a) - self.offset) - self.bound, 0.0)

    def with_bound(self, bound: float, columns=None) -> "Cut":
        """This cut on ``columns`` (default: every item) bounded by ``bound``;
        the coefficients were checked when this cut was built, so only the bound is."""
        cut = object.__new__(Cut)
        coef = self.coefficients if columns is None else self.coefficients[columns]
        cut.__dict__.update(coefficients=coef, offset=self.offset, bound=bound)
        cut._check_bound()
        return cut


def _ratio_test(candidates, ratios, row, width, infeasibility):
    """The long-step ratio test: (the variables that flip bound, the one that
    enters), or None if the dual slope never turns (the LP is infeasible).
    ``candidates`` ascend and ``ratios`` are their breakpoints |d_j / row_j|.  The
    walk passes them up, ties to the lowest index, the slope falling from
    ``infeasibility`` by |row_j| width_j at each: those passed while it stays
    above TOL flip, and of the rest the smallest ratio enters, ties within TOL to
    the lowest index.  The first breakpoint is the argmin, found without a sort;
    the ratios are sorted only when the slope does not turn there."""
    if candidates.size == 0:
        return None
    j = candidates[i := ratios.argmin()]
    if infeasibility - abs(row.item(j)) * width.item(j) <= TOL:
        return candidates[:0], int(candidates[(ratios <= ratios[i] + TOL).argmax()])
    order = ratios.argsort(kind="stable")
    walk, ratios = candidates[order], ratios[order]
    turn = (infeasibility - (np.abs(row[walk]) * width[walk]).cumsum() <= TOL).nonzero()[0]
    if turn.size == 0:
        return None
    first = turn[0]
    last = ratios.searchsorted(ratios[first] + TOL, side="right")
    return walk[:first], int(walk[first:last].min())


class _Lp:
    """max c.x, Ax = 0, lower <= x <= upper, with the basis a solve left it at.

    The variables are the n items and one slack per row, row.a - slack = 0:
    row 0 is sum(a), its slack fixed at k; each later row is a cut, its slack
    boxed by the cut's range.  The first ``rows`` rows and n + ``rows``
    variables are in use, with room for more (the slack block of ``A`` is -I).
    The inverse ``B_inv`` and reduced costs ``d`` persist across solves.
    """

    def __init__(self, s: np.ndarray, k: int, capacity: int):
        n = self.n = s.size
        self.s, self.rows, self.coefficients = s, 1, []  # each cut row's coefficients
        size, slack = n + capacity, np.arange(capacity)
        self.A, self.B_inv = np.zeros((capacity, size)), np.zeros((capacity, capacity))
        self.A[slack, n + slack] = -1.0
        self.basis, self.status = np.zeros(capacity, dtype=int), np.zeros(size, dtype=int)
        self.c, self.d, self.lower, self.upper = (np.zeros(size) for _ in range(4))
        self.c[:n], self.upper[:n] = s, 1.0
        # the top-k vertex: in stable descending-s order the first k - 1 items at
        # their upper bound, the k-th basic in row 0, the rest and row 0's slack at lower
        order = np.argsort(-s, kind="stable")
        self.status[order[: k - 1]], self.status[order[k - 1]] = AT_UPPER, BASIC
        self.A[0, :n], self.basis[0], self.B_inv[0, 0] = 1.0, order[k - 1], 1.0
        self.since_refactor = REFACTOR_EVERY  # the first solve computes d

    def _reserve(self, extra: int) -> None:
        """Room for ``extra`` more rows and their slacks."""
        n, old = self.n, self.basis.size
        for name in ("A", "B_inv", "basis", "c", "d", "lower", "upper", "status"):
            value = getattr(self, name)
            setattr(self, name, np.zeros(tuple(size + extra for size in value.shape), value.dtype))
            getattr(self, name)[tuple(map(slice, value.shape))] = value
        self.A[old:, n + old :] = -np.eye(extra)

    @property
    def cut_rows(self) -> np.ndarray:
        """The cut rows' coefficients, one row per cut (a view)."""
        return self.A[1 : self.rows, : self.n]

    def append(self, cuts) -> None:
        """Add cut rows, their slacks basic.  The rows are zero on the old
        slacks, so they border B^-1 exactly, with (rows on the old basis) B^-1
        and -I, and leave every reduced cost as it was."""
        if not cuts:
            return
        old, n = self.rows, self.n
        new = self.rows = old + len(cuts)
        if new > self.basis.size:
            self._reserve(max(new, 2 * self.basis.size) - self.basis.size)
        for i, cut in enumerate(cuts, old):
            self.A[i, :n], self.B_inv[i, i], self.basis[i] = cut.coefficients, -1.0, n + i
            self.coefficients.append(cut.coefficients)
        self.B_inv[old:new, :old] = self.A[old:new, self.basis[:old]] @ self.B_inv[:old, :old]
        self.status[n + old : n + new] = BASIC

    def optimize(self) -> tuple[np.ndarray, int, bool]:
        """Bounded dual simplex from the current, dual feasible basis.

        The lowest-index infeasible basic variable leaves.  ``_ratio_test``
        picks the variables that flip bound and the one that enters: it finds
        the walk's first breakpoint without a sort, and sorts only when the
        dual slope does not turn there.  A leaving variable within PIVOT_TOL
        of its bounds that only a pivot element below PIVOT_TOL would repair
        has its bound shifted instead (near-duplicate rows).  Flips and pivots
        move the basic values; the point comes from the final basis, so a
        basis gives one point however it was reached.  Returns (x, pivots, feasible).
        """
        rows, n_var = self.rows, self.n + self.rows
        A, B_inv, basis = self.A[:rows, :n_var], self.B_inv[:rows, :rows], self.basis[:rows]
        c, d, status = self.c[:n_var], self.d[:n_var], self.status[:n_var]
        given = lower, upper = self.lower[:n_var], self.upper[:n_var]
        width = upper - lower
        movable = width > 0.0
        direction = _DIRECTION[status] * movable
        # the basic bounds widened by TOL, as lists: a pivot reads and writes single entries
        lb, ub, xb = (lower[basis] - TOL).tolist(), (upper[basis] + TOL).tolist(), np.empty(rows)

        def primal():
            x = np.where(status == AT_UPPER, upper, lower)
            x[basis] = 0.0
            x[basis] = xb[:] = -B_inv @ (A @ x)
            return x

        def refactor():
            B_inv[:] = np.linalg.inv(A[:, basis])
            d[:] = c - (c[basis] @ B_inv) @ A
            self.since_refactor = 0
            return primal()

        x = refactor() if self.since_refactor >= REFACTOR_EVERY else primal()
        for pivots in range(MAX_PIVOTS):
            infeasible = [i for i, v in enumerate(xb.tolist()) if v < lb[i] or v > ub[i]]
            if not infeasible:
                break
            p = min(infeasible, key=basis.item)
            leaving, xp = basis.item(p), xb.item(p)
            below = xp < lb[p]
            # x[leaving] falls by row[j] per unit rise of x[j]; the candidates
            # are the moves that bring it back inside its bounds
            row = B_inv[p] @ A
            moves = direction * row
            candidates = (moves < -TOL if below else moves > TOL).nonzero()[0]
            target = lower.item(leaving) if below else upper.item(leaving)
            choice = _ratio_test(candidates, np.abs(d[candidates] / row[candidates]), row, width,
                                 target - xp if below else xp - target)
            if choice is None:  # the dual slope never turns: the LP is infeasible
                return (primal() if pivots else x), pivots, False
            flip, entering = choice
            alpha = row.item(entering)
            off = max(given[0].item(leaving) - xp, xp - given[1].item(leaving))
            if abs(alpha) < PIVOT_TOL and off <= PIVOT_TOL:
                if lower is given[0]:  # the shifted bounds stay local
                    lower, upper = lower.copy(), upper.copy()
                low = lower[leaving] = min(lower.item(leaving), xp)
                high = upper[leaving] = max(upper.item(leaving), xp)
                width[leaving] = high - low
                lb[p], ub[p] = low - TOL, high + TOL
                continue
            if flip.size:
                xb -= B_inv @ (A[:, flip] @ (direction[flip] * width[flip]))
                status[flip] ^= 1  # AT_LOWER <-> AT_UPPER
                direction[flip] = -direction[flip]
                xp = xb.item(p)
            column = B_inv @ A[:, entering]
            pivot = column.item(p)
            step = (xp - target) / pivot
            xb -= step * column
            low, high = lower.item(entering), upper.item(entering)
            xb[p] = (low if direction.item(entering) > 0 else high) + step
            d -= (d.item(entering) / alpha) * row
            d[entering] = 0.0
            status[leaving], status[entering] = (AT_LOWER if below else AT_UPPER), BASIC
            direction[leaving] = (1.0 if below else -1.0) * movable.item(leaving)
            direction[entering] = 0.0
            lb[p], ub[p], basis[p] = low - TOL, high + TOL, entering
            self.since_refactor += 1
            if abs(pivot) < PIVOT_TOL or self.since_refactor >= REFACTOR_EVERY:
                refactor()
            else:  # the product-form update B^-1 <- E B^-1, E the eta matrix of column
                pivot_row = B_inv[p] / pivot
                B_inv -= column[:, None] * pivot_row
                B_inv[p] = pivot_row
        else:
            raise RuntimeError("simplex iteration limit exceeded")
        return (primal() if pivots else x), pivots, True


@dataclass
class LpSolution:
    """The LP point ``a``, its objective (NaN if infeasible) and ``lp``, the LP
    as the solve left it, which ``solve_lp(..., start=lp)`` takes over."""

    a: np.ndarray
    objective: float
    status: str  # optimal | infeasible
    n_fractional: int = 0
    diagnostics: dict = field(default_factory=dict)  # "pivots"; "rows" if optimal
    lp: _Lp | None = None


def solve_lp(s: np.ndarray, cuts, k: int, start: _Lp | None = None) -> LpSolution:
    """Maximize s.a over the box [0,1]^n with sum(a)=k and all cut rows.

    ``start`` is the ``lp`` of an earlier solution over the same ``s`` whose
    rows are a prefix of ``cuts``; their bounds may differ.  The solve takes
    ``start`` over: it appends the cuts past its rows, rewrites every row
    bound, re-optimizes and returns it as its ``lp``; the LP as ``start``
    held it is not kept.  The returned point is a vertex, so the number of
    fractional coordinates is at most the number of active cut rows + 1.
    """
    s = np.asarray(s, dtype=float)
    n = s.size
    if k < 1:
        raise ValueError(f"k={k} must be at least 1")
    if k > n:
        raise ValueError(f"k={k} exceeds pool size {n}")
    lp = _Lp(s, k, 2 * len(cuts) + 16) if start is None else start
    if start is None and not cuts:
        # the top-k start vertex is optimal: its reduced costs are those a
        # refactorization of the one-row basis computes, exactly, since that
        # inverse is [[1.0]]
        basic = s[lp.basis[0]]
        lp.d[:n], lp.d[n] = s - basic, basic
        lp.lower[n] = lp.upper[n] = k
        lp.since_refactor = 0
        a = (lp.status[:n] != AT_LOWER).astype(float)
        return LpSolution(a, float(s @ a), "optimal", 0, {"rows": 0, "pivots": 0}, lp)
    if start is not None and (
        start.n != n or len(cuts) < start.rows - 1
        or (start.s is not s and not np.array_equal(start.c[:n], s))
        or any(cut.coefficients is not row and not np.array_equal(cut.coefficients, row)
               for cut, row in zip(cuts, start.coefficients))
    ):
        raise ValueError("start does not fit: another s, or rows that are not a prefix of cuts")
    if any(cut.coefficients.shape != (n,) for cut in cuts[lp.rows - 1 :]):
        raise ValueError("cut coefficient length does not match pool size")
    lp.append(cuts[lp.rows - 1 :])
    rows = lp.rows
    low, high = [cut.offset - cut.bound for cut in cuts], [cut.offset + cut.bound for cut in cuts]
    lp.lower[n + 1 : n + rows], lp.upper[n + 1 : n + rows] = low, high
    lp.lower[n] = lp.upper[n] = k
    x, pivots, feasible = lp.optimize()
    fixed = np.array([i for i, (a, b) in enumerate(zip(low, high), 1) if a == b])
    if fixed.size:
        # a nonbasic fixed slack goes to the bound its dual (c_B B^-1) favours,
        # so that a later solve that gives the row room starts dual feasible
        y = lp.c[lp.basis[:rows]] @ lp.B_inv[:rows, :rows]
        fixed = fixed[lp.status[n + fixed] != BASIC]
        lp.status[n + fixed] = np.where(y[fixed] > 0, AT_UPPER, AT_LOWER)
    a = np.minimum(np.maximum(x[:n], 0.0), 1.0)
    if not feasible or abs(float(a.sum()) - k) > 1e-6:
        return LpSolution(a, float("nan"), "infeasible", diagnostics={"pivots": pivots}, lp=lp)
    n_frac = int(np.count_nonzero((a > FRACTIONAL_TOL) & (a < 1.0 - FRACTIONAL_TOL)))
    return LpSolution(a, float(s @ a), "optimal", n_frac, {"rows": len(cuts), "pivots": pivots}, lp)


def round_top_k(a: np.ndarray, k: int) -> Selection:
    """Indicator of the k largest entries of ``a``; an entry within TOL of the
    next larger one ties with it, and ties go to the lower index, so rounding
    noise between two solves of one LP point moves no selection."""
    a = np.asarray(a, dtype=float)
    if a.size < k:
        raise ValueError("fewer entries than k")
    indicator = np.zeros(a.size, dtype=int)
    indicator[_top_k(a, k)] = 1
    return Selection(indicator, k)


def _top_k(a: np.ndarray, k: int) -> np.ndarray:
    """The indices ``round_top_k`` selects from the float vector ``a``, in no set order."""
    order = np.argsort(-a, kind="stable")
    if 0 < k < a.size and a[order[k - 1]] - a[order[k]] <= TOL:  # a tie at the k-th place
        tie_group = np.concatenate(([0], np.cumsum(np.diff(a[order]) < -TOL)))
        at_k = tie_group == tie_group[k - 1]
        order[at_k] = np.sort(order[at_k])
    return order[:k]


def check_cuts(a: np.ndarray, cuts, tol: float = 1e-8) -> list[tuple[int, float]]:
    """(index, violation) for every cut the point violates beyond tolerance."""
    a = np.asarray(a, dtype=float)
    return [(idx, v) for idx, cut in enumerate(cuts) if (v := cut.violation(a)) > tol]


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
    """Optimal binary selection on a pool of at most IP_EXACT_MAX_N items, by
    exhaustive enumeration.  Also asserts LP-relaxation dominance over the IP
    optimum.
    """
    s = np.asarray(s, dtype=float)
    n = s.size
    if n > IP_EXACT_MAX_N:
        raise ValueError(f"pool size {n} exceeds exact-solver limit {IP_EXACT_MAX_N}")
    lp = solve_lp(s, cuts, k)
    sel = _enumerate_ip(s, cuts, k)
    ip_obj = float(s @ sel.indicator)
    if lp.status == "optimal" and ip_obj > lp.objective + 1e-6:
        raise AssertionError("IP objective exceeded the LP relaxation bound")
    return sel
