"""Retrieval under a representation constraint, plus baselines.

The finite class of intersectional cell indicators is retrieved exactly, by
``_cell_greedy``, with no LP.  Cell j's gap at a selection is
|(2 c_j - k)/k - curated_j|, c_j the selected items in it, so MPR <= rho is
one interval [L_j, U_j] of counts per cell, read from ``CellCounts``' own
gap arithmetic.  The most similar k items under those bounds are each
cell's L_j most similar items, filled up to k with the most similar of the
others that keep every cell at most U_j (the count bounds of Celis,
Straszak & Vishnoi 2018, "Ranking with fairness constraints", and Zehlike
et al. 2017, "FA*IR").  That solves the integer program of Eq.
``mip_supremum`` for this class: its cell-and-sum constraint matrix is
totally unimodular, so the LP over the count intervals has the same
optimum.  When no selection reaches rho, the retrieval takes the smallest
cell gap at which one does, so a finite retrieval always certifies.

One loop, ``_cutting_plane``, does every other retrieval.  Each iteration
re-solves the similarity LP under the cuts found so far (one LP object,
carried from solve to solve, with the target gap relaxed to the smallest
feasible one if it is infeasible), rounds the LP point to its k largest
coordinates, and hands the rounded selection to a separator: one call
``sep(a) -> (violation, cut)`` at any point of [0,1]^n, the cut over all n
items with bound 0 and tight at ``a``.  The loop restricts the cut to its
LP columns, bounds it by its rho, and stops when the selection is
certified, when the new cut duplicates an old one (the LP would not
change), or after T iterations.

Both consider only the items an optimum can choose.  Each statistic class
names the class of every retrieval item, the distinct feature row its
statistics are constant on: the label cell on the labels view and the item
itself elsewhere.  Moving weight within a class to a more similar item
keeps every constraint and raises the objective, so an optimum takes at
most k items of a class, and the most similar ones (the cell-count argument
of Celis, Straszak & Vishnoi 2018).  ``_selectable`` keeps those, at most k
per class; at n = 3000 over 8 cells that is 160 items, while singleton
classes keep every item.

The loop's separator is the statistic class itself, a ``metric`` object that
also reports its MPR: ``LinearClass`` for the linear class, cut by the
closed-form norm's supporting hyperplane without a fit, and ``OracleClass``
for the tree and MLP classes, cut on the regression oracle's witness.  The
tree oracle is exact only on the labels view, so only there does a
``constraint-satisfied`` halt certify the gap over every tree of the depth
limit.  ``mopr_qp_linear`` is the linear retrieval under its older name; a
greedy maximal-marginal-relevance baseline and a Pareto sweep harness round
out the module.
"""

from __future__ import annotations

import bisect
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from mopr.datamodel import FLOAT_FMT, Dataset, Query, write_csv
from mopr.metric import CellCounts, LinearClass, OracleClass, class_partition
from mopr.similarity import Selection, condition_curation, similarity_vector, top_k_indices
from mopr.solver import Cut, _top_k, solve_lp
from mopr.statclasses import FEATURE_VIEWS, MLP_EPOCHS, MLP_HIDDEN, TREE_DEPTH

HALT_TOL = 1e-8
DUPLICATE_CUT_TOL = 1e-9
RELAX_FLOOR = 1e-6  # the first target gap tried when relaxing from rho = 0
RELAX_RTOL = 1e-6  # relative tolerance of the smallest feasible target gap
# a guard that no retrieval reaches: the loop's cuts are normalized statistics,
# whose gap is at most 1 over the whole LP polytope, so the relaxation is
# feasible by rho = 1; doubling a gap below 1 stays below 2, so no probe is cut short
MAX_RHO = 2.0
ORACLE_KINDS = ("linear", "tree", "mlp", "finite")


def _check_k(k: int) -> None:
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")


def _check_run(T: int, rho: float) -> None:
    if T < 1:
        raise ValueError("T must be >= 1")
    if not rho >= 0.0:  # also NaN; +inf is no constraint
        raise ValueError(f"rho must be non-negative, got {rho}")


@dataclass(frozen=True)
class MoprConfig:
    rho: float = 0.0
    T: int = 50
    oracle_kind: str = "linear"  # one of ORACLE_KINDS
    feature_view: str = "labels"
    curation_pool_size: int | None = None
    tree_depth: int = TREE_DEPTH
    mlp_hidden: int = MLP_HIDDEN
    mlp_epochs: int = MLP_EPOCHS
    seed: int = 0

    def __post_init__(self):
        _check_run(self.T, self.rho)
        if self.oracle_kind not in ORACLE_KINDS:
            raise ValueError(f"unknown oracle {self.oracle_kind!r}")
        if self.feature_view not in FEATURE_VIEWS:
            raise ValueError(f"unknown feature view {self.feature_view!r}")
        if self.oracle_kind == "finite" and self.feature_view != "labels":
            raise ValueError(f"the finite class needs the labels view, not {self.feature_view!r}")
        for name, least in (("tree_depth", 1), ("mlp_hidden", 1), ("mlp_epochs", 0)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be >= {least}, got {getattr(self, name)}")
        if self.curation_pool_size is not None and self.curation_pool_size < 1:
            raise ValueError(f"curation_pool_size must be >= 1, got {self.curation_pool_size}")


@dataclass
class IterationRecord:
    iteration: int
    violation: float
    lp_objective: float
    n_fractional: int
    lp_pivots: int  # dual simplex pivots, summed over any relaxation probes
    rho_eff: float  # the target gap this iteration's LP was solved at
    cut_added: bool
    duplicate_cut: bool = False


@dataclass
class MoprTrace:
    iterations: list[IterationRecord] = field(default_factory=list)
    selection: Selection | None = None
    achieved_mpr: float = float("nan")
    mean_similarity: float = float("nan")
    effective_rho: float = float("nan")
    halted_by: str = ""

    def to_dict(self) -> dict:
        return {key: value for key, value in asdict(self).items() if key != "selection"}


def _solve_with_relaxation(s, cuts: list, k: int, rho_eff: float, start):
    """Solve the LP ``start`` takes over, relaxing the target gap to the smallest feasible one.

    An infeasible LP has its gap doubled, from RELAX_FLOOR when it is 0, until
    the LP is feasible; bisection then narrows the gap to the smallest feasible
    one, to RELAX_RTOL relative.  Every probe re-bounds that one LP and
    re-optimizes it.  An LP still infeasible at MAX_RHO would break the
    normalization bound, and raises RuntimeError.  Returns (lp, cuts,
    rho_eff, pivots summed over the probes).
    """
    lp = solve_lp(s, cuts, k, start=start)
    pivots = lp.diagnostics["pivots"]
    if lp.status == "optimal":
        return lp, cuts, rho_eff, pivots

    def probe(rho):
        nonlocal pivots
        relaxed = [c.with_bound(rho) for c in cuts]
        found = solve_lp(s, relaxed, k, start=lp.lp)
        pivots += found.diagnostics["pivots"]
        return (found, relaxed) if found.status == "optimal" else None

    lo = hi = rho_eff
    best = None
    while best is None:
        if hi >= MAX_RHO:
            raise RuntimeError(f"LP infeasible even at rho={hi}")
        lo, hi = hi, min(max(2.0 * hi, RELAX_FLOOR), MAX_RHO)
        best = probe(hi)
    while hi - lo > RELAX_RTOL * hi:
        mid = 0.5 * (lo + hi)
        found = probe(mid)
        if found is None:
            lo = mid
        else:
            hi, best = mid, found
    return *best, hi, pivots


def _selectable(s: np.ndarray, classes: np.ndarray, k: int, partition=None) -> np.ndarray:
    """The k most similar items of each class, in ascending index.

    ``classes`` numbers the classes with small non-negative integers, and
    ``partition`` is their ``metric.class_partition``, computed here if not
    given.  A class of at most k items keeps them all.  In a larger one,
    similarity ties at its k-th place go to the lower index, as in the LP's
    top-k start.
    """
    counts, by_class, starts = class_partition(classes) if partition is None else partition
    keep = counts[classes] <= k
    for c in np.flatnonzero(counts > k):
        members = by_class[starts[c] : starts[c + 1]]
        values = s[members]
        kth = np.partition(values, values.size - k)[values.size - k]
        above = members[values > kth]
        keep[above] = True
        keep[members[values == kth][: k - above.size]] = True
    return np.flatnonzero(keep)


def _count_bounds(gaps: np.ndarray, t: float, k: int) -> tuple[np.ndarray, np.ndarray] | None:
    """Each cell's fewest and most selected items whose gap in ``gaps``
    (``CellCounts.count_gaps``) is at most t + HALT_TOL, or None if a cell
    has no such count or the bounds admit no k items.  A cell's gap falls
    and then rises with its count, so the counts admitted are one interval."""
    admitted = gaps <= t + HALT_TOL
    if not admitted.any(axis=1).all():
        return None
    low, high = admitted.argmax(axis=1), k - admitted[:, ::-1].argmax(axis=1)
    return (low, high) if low.sum() <= k <= high.sum() else None


def _cell_greedy(carry: _SweepCarry, rho: float) -> tuple[Selection, MoprTrace]:
    """The exact finite-class retrieval; see the module docstring.

    The candidates are ``carry.keep``, ranked once by similarity, ties to
    the lower index.  An item ranked below its cell's lower bound among the
    cell's candidates is taken; one below the upper bound competes for the
    places left.  A rho that admits no selection becomes the smallest gap in
    the count table that does; the largest admits every count.  The trace's
    one record is what the integral LP over the count intervals reports.
    """
    counts, s, k = carry.separator, carry.s, carry.k
    gaps = counts.count_gaps()
    rho_eff, bounds = rho, _count_bounds(gaps, rho, k)
    if bounds is None:
        candidates = np.unique(gaps[gaps > rho])  # NaN compares False and drops out
        reached = bisect.bisect_left(
            candidates, True, key=lambda t: _count_bounds(gaps, t, k) is not None)
        rho_eff = float(candidates[reached])
        bounds = _count_bounds(gaps, rho_eff, k)
    low, high = bounds
    order = carry.keep[np.argsort(-s[carry.keep], kind="stable")]
    cells = counts.classes[order]
    by_cell = np.argsort(cells, kind="stable")
    rank = np.empty(order.size, dtype=np.int64)
    rank[by_cell] = np.arange(order.size) - np.searchsorted(cells[by_cell], cells[by_cell])
    taken = rank < low[cells]
    taken[np.flatnonzero(~taken & (rank < high[cells]))[: k - int(low.sum())]] = True
    indicator = np.zeros(s.size, dtype=int)
    indicator[order[taken]] = 1
    sel = Selection(indicator, k)
    violation = counts.worst(indicator)[0]
    record = IterationRecord(iteration=1, violation=violation,
                             lp_objective=float(np.sum(s[sel.indices])), n_fractional=0,
                             lp_pivots=0, rho_eff=rho_eff, cut_added=False)
    return sel, MoprTrace([record], sel, violation, float(np.mean(s[sel.indices])), rho_eff,
                          "constraint-satisfied")


def _cutting_plane(carry: _SweepCarry, T: int, rho: float) -> tuple[Selection, MoprTrace]:
    """The cutting-plane loop of every retrieval but the finite class's; see
    the module docstring.

    Its whole state is the ``carry``.  The LP is solved over the items
    ``keep`` (``_selectable`` of the separator's classes), and its top k are
    the selection.  ``carry.separate`` sees the selection over all n items,
    and its cut, restricted to ``keep`` and bounded by the effective rho, is
    the LP's new row.  A new cut whose coefficients lie within
    DUPLICATE_CUT_TOL of a row of the LP leaves the LP unchanged, and
    re-solving it from its own optimal basis returns the same point, so every
    later iteration would return the same selection: the loop halts there.
    The loop starts from the carry's cuts, each bounded by rho, and its LP,
    and keeps its own cuts and LP there, so they stay the LP's rows even when
    the relaxation raises.
    """
    s, keep, k = carry.s, carry.keep, carry.k
    trace = MoprTrace(effective_rho=rho)
    carry.cuts = cuts = [c.with_bound(rho) for c in carry.cuts]
    rho_eff = rho
    s_keep = s[keep]
    stalled = False
    for it in range(1, T + 1):
        lp, cuts, rho_eff, pivots = _solve_with_relaxation(s_keep, cuts, k, rho_eff, carry.lp)
        carry.lp, carry.cuts = lp.lp, cuts
        trace.effective_rho = rho_eff
        chosen = np.zeros(s.size)
        chosen[keep[_top_k(lp.a, k)]] = 1.0
        violation, row = carry.separate(chosen)
        record = IterationRecord(iteration=it, violation=violation, lp_objective=lp.objective,
                                 n_fractional=lp.n_fractional, lp_pivots=pivots,
                                 rho_eff=rho_eff, cut_added=False)
        trace.iterations.append(record)
        if violation <= rho_eff + HALT_TOL or it == T:
            break
        cut = row.with_bound(rho_eff, keep)
        if (np.abs(lp.lp.cut_rows - cut.coefficients).max(axis=1) < DUPLICATE_CUT_TOL).any():
            record.duplicate_cut = stalled = True
            break
        cuts.append(cut)
        record.cut_added = True
    sel = Selection(chosen.astype(int), k)
    trace.selection = sel
    trace.achieved_mpr = violation
    trace.mean_similarity = float(np.mean(s[sel.indices]))
    if violation <= rho_eff + HALT_TOL:
        trace.halted_by = "constraint-satisfied"
    else:
        trace.halted_by = "stalled" if stalled else "iteration-cap"
    return sel, trace


class _SweepCarry:
    """What a sweep passes from one grid value's retrieval to the next.

    Built for one instance, ``d_r``, ``d_c``, ``q``, k and every
    ``MoprConfig`` field but rho and T, which each retrieval from it sets.
    Only ``pareto_sweep`` and the CLI's ``compare-ip`` hand one to
    ``mopr_retrieve``, always for their own instance, so nothing checks it.
    It holds that instance's similarity vector, k, statistic class
    (``separator``, of ``oracle_kind``) and ``keep`` (the items an optimum
    can choose), which is all that ``_cell_greedy`` reads.  For the other classes it is the whole state of
    ``_cutting_plane``, which adds the cut pool (restricted to ``keep``) and
    the LP (``solve_lp``'s ``lp``, its rows those cuts) where the last
    retrieval from it ended.  A cut is a necessary condition of MPR <= rho at
    any rho once its bound is set to that rho, because its statistic is a
    member of the class, so the pool stays valid down the grid; only row
    bounds change, which ``solve_lp(start=)`` writes into the carried LP.
    ``separate`` calls the separator and remembers its last answer, which a
    loop whose new cut leaves the selection as it was asks for again, as does
    a sweep's first retrieval after its top-k reference.
    """

    def __init__(self, d_r: Dataset, d_c: Dataset, q: Query, k: int, cfg: MoprConfig):
        _check_k(k)
        if k > len(d_r):
            raise ValueError(f"k={k} exceeds retrieval pool size {len(d_r)}")
        self.k = k
        if cfg.curation_pool_size is not None:
            d_c = condition_curation(d_c, q, cfg.curation_pool_size)
        self.s = similarity_vector(d_r, q)
        kind, view = cfg.oracle_kind, cfg.feature_view
        if kind == "finite":
            self.separator = CellCounts.build(d_r, d_c, k)
        elif kind == "linear":
            self.separator = LinearClass.build(d_r, d_c, k, view)
        else:
            self.separator = OracleClass.build(d_r, d_c, k, kind, view, cfg.tree_depth,
                                               cfg.mlp_hidden, cfg.mlp_epochs, cfg.seed)
        self.keep = _selectable(self.s, self.separator.classes, k, self.separator.partition)
        if kind != "finite":
            self.cuts, self.lp = [], None
            self._last: tuple[np.ndarray, tuple[float, Cut]] | None = None

    def separate(self, a: np.ndarray) -> tuple[float, Cut]:
        if self._last is None or not np.array_equal(self._last[0], a):
            self._last = (a.copy(), self.separator(a))
        return self._last[1]


def mopr_retrieve(
    d_r: Dataset, d_c: Dataset, q: Query, k: int, cfg: MoprConfig,
    *, _carry: _SweepCarry | None = None,
) -> tuple[Selection, MoprTrace]:
    """Retrieval of the k most similar items under a representation bound.

    The finite class is solved exactly by ``_cell_greedy``: it ignores T,
    always halts ``constraint-satisfied`` after one trace record, and raises
    the target gap, when rho is out of reach, to the smallest one a selection
    reaches.  Every other class runs the cutting-plane loop for at most T
    iterations.  ``_carry`` is private to ``pareto_sweep`` and ``compare-ip``,
    which build it for this same instance: the retrieval reuses its statistic
    class and similarity vector, and a loop starts from its cuts and LP and
    leaves its own there.
    """
    if _carry is None:
        _carry = _SweepCarry(d_r, d_c, q, k, cfg)
    if cfg.oracle_kind == "finite":
        return _cell_greedy(_carry, cfg.rho)
    return _cutting_plane(_carry, cfg.T, cfg.rho)


def mopr_qp_linear(
    d_r: Dataset, d_c: Dataset, q: Query, k: int, rho: float, T: int = 50,
    feature_view: str = "labels",
) -> tuple[Selection, MoprTrace]:
    """The linear-class retrieval under its older name.

    It returns what ``mopr_retrieve`` returns with ``oracle_kind="linear"``,
    the linear class separated in closed form whichever name is called.  The
    CLI has only ``--algo mopr``; this name stays for the benchmark, which times it.
    """
    cfg = MoprConfig(rho=rho, T=T, oracle_kind="linear", feature_view=feature_view)
    return _cutting_plane(_SweepCarry(d_r, d_c, q, k, cfg), T, rho)


def mmr_retrieve(d_r: Dataset, q: Query, k: int, lam: float) -> Selection:
    """Greedy maximal-marginal-relevance selection of k items."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError("lambda must be in [0, 1]")
    _check_k(k)
    n = len(d_r)
    if k > n:
        raise ValueError(f"k={k} exceeds pool size {n}")
    sims = similarity_vector(d_r, q)
    unit = d_r.embeddings / d_r.row_norms[:, None]
    selected: list[int] = []
    available = np.ones(n, dtype=bool)
    max_sim_to_selected = np.full(n, -np.inf)
    for step in range(k):
        scores = lam * sims - (1.0 - lam) * max_sim_to_selected if selected else sims
        scores = np.where(available, scores, -np.inf)
        pick = int(np.argmax(scores))  # first max = lowest index on ties
        selected.append(pick)
        available[pick] = False
        pair = np.clip(unit @ unit[pick], -1.0, 1.0)
        max_sim_to_selected = np.maximum(max_sim_to_selected, pair)
    indicator = np.zeros(n, dtype=int)
    indicator[selected] = 1
    return Selection(indicator, k)


@dataclass
class ParetoPoint:
    """One grid value of a sweep.  ``iterations`` counts only this value's
    own cutting-plane iterations, not those of the values before it."""

    rho_target: float
    mpr_achieved: float
    mean_similarity: float
    sim_frac_topk: float
    mpr_frac_topk: float
    halted_by: str
    iterations: int


def _fraction(value: float, reference: float) -> float:
    if reference > 0.0:
        return value / reference
    return 1.0 if value == 0.0 else float("inf")


def pareto_sweep(
    d_r: Dataset,
    d_c: Dataset,
    q: Query,
    k: int,
    cfg_template: MoprConfig,
    rho_grid: list[float],
) -> list[ParetoPoint]:
    """One constrained retrieval per grid value, normalized against ``similarity.top_k``.

    The sweep is one warm-started computation.  It builds one similarity
    vector and one statistic class, which also measure the top-k reference.
    For a loop class each grid value's retrieval starts from the cuts and the
    one LP the previous value ended with, the cuts bounded by the new rho and
    the LP re-bounded to match; the first value starts from nothing, as a
    plain ``mopr_retrieve`` does.  The finite class's exact retrieval needs
    no such state.
    """
    if not rho_grid:
        raise ValueError("rho grid must be nonempty")
    cfgs = [replace(cfg_template, rho=rho) for rho in rho_grid]  # checks every rho
    if list(rho_grid) != sorted(rho_grid, reverse=True):
        raise ValueError("rho grid must be descending")
    carry = _SweepCarry(d_r, d_c, q, k, cfg_template)
    top, chosen = top_k_indices(carry.s, k), np.zeros(carry.s.size)
    chosen[top] = 1.0
    if cfg_template.oracle_kind == "finite":
        mpr0, _ = carry.separator.worst(chosen)
    else:
        mpr0, _ = carry.separate(chosen)
    sim0 = float(np.mean(carry.s[top]))
    points: list[ParetoPoint] = []
    for rho, cfg in zip(rho_grid, cfgs):
        # through the module attribute, cfg fifth, so a wrapper sees every
        # retrieval and its rho
        _, trace = mopr_retrieve(d_r, d_c, q, k, cfg, _carry=carry)
        points.append(
            ParetoPoint(
                rho_target=rho,
                mpr_achieved=trace.achieved_mpr,
                mean_similarity=trace.mean_similarity,
                sim_frac_topk=_fraction(trace.mean_similarity, sim0),
                mpr_frac_topk=_fraction(trace.achieved_mpr, mpr0),
                halted_by=trace.halted_by,
                iterations=len(trace.iterations),
            )
        )
    return points


SWEEP_CSV_HEADER = [
    "rho_target", "mpr_achieved", "mean_similarity",
    "sim_frac_topk", "mpr_frac_topk", "halted_by", "iterations",
]


def write_sweep_csv(points: list[ParetoPoint], path) -> None:
    """Emit sweep points in grid order."""
    write_csv(path, SWEEP_CSV_HEADER, (
        [FLOAT_FMT % v for v in (p.rho_target, p.mpr_achieved, p.mean_similarity,
                                 p.sim_frac_topk, p.mpr_frac_topk)]
        + [p.halted_by, str(p.iterations)] for p in points))
