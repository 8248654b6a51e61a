"""Cutting-plane retrieval under a representation constraint, plus baselines.

One loop, ``_cutting_plane``, does the retrieval.  Each iteration re-solves
the similarity LP under the cuts found so far (one LP object, carried from
solve to solve, with the target gap relaxed to the smallest feasible one if
it is infeasible), rounds the LP point to its k largest coordinates, and
hands the rounded selection to a separator: one call ``sep(a) -> (violation,
cut)`` at any point of [0,1]^n, the cut over all n items with bound 0 and
tight at ``a``.  The loop restricts the cut to its LP columns, bounds it by
its rho, and stops when the selection is certified, when the new cut
duplicates an old one (the LP would not change), or after T iterations.

The LP has a column only for the items an optimum can choose.  Each
separator names the class of every retrieval item, the distinct feature row
its cuts are constant on: the label cell for the finite class, from its
``CellCounts``, and otherwise its ``feature_groups`` inverse over D_R, the
label cell on the labels view and the item itself elsewhere.  Moving LP
weight within a class to a more similar item keeps every cut row and raises
the objective, so an optimum takes at most k items of a class, and the most
similar ones (the cell-count argument of Celis, Straszak & Vishnoi 2018).
``_selectable`` keeps those, at most k per class; at n = 3000 over 8 cells
that is 160 columns, while singleton classes keep every column.

The linear class is separated in closed form.  Its least-squares witness is
the projection of the signed weights onto the feature columns, so its cut is
the supporting hyperplane of the closed-form norm, and
``_SupportingHyperplane`` builds that cut from the norm's gradient without a
fit (Prop. ``closed_form_MPR``).  The finite class separates itself:
``CellCounts`` cuts on the cell of the most disproportionate representation.
The tree and MLP classes use ``_Oracle``, the regression oracle, which finds
the statistic of the most disproportionate representation and cuts on its mean.
On the labels view the tree oracle is exact, from a block table built once
per oracle, so a ``constraint-satisfied`` halt certifies the gap over every
tree of the depth limit; on the other views it is greedy CART, and the
halt certifies only the tree it found.
All three emit the same two-sided ``Cut``.  ``mopr_qp_linear`` is the linear
retrieval under its older name.  A greedy maximal-marginal-relevance baseline
and a Pareto sweep harness round out the module.
"""

from __future__ import annotations

import csv
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from mopr.datamodel import Dataset, Query
from mopr.metric import (
    CellCounts,
    closed_form_gap,
    feature_groups,
    oracle_gap,
    signed_weights,
    svd_context,
)
from mopr.similarity import Selection, condition_curation, similarity_vector, top_k_indices
from mopr.solver import Cut, round_top_k, solve_lp
from mopr.statclasses import FEATURE_VIEWS, target_norm

HALT_TOL = 1e-8
DUPLICATE_CUT_TOL = 1e-9
RELAX_FLOOR = 1e-6  # the first target gap tried when relaxing from rho = 0
RELAX_RTOL = 1e-6  # relative tolerance of the smallest feasible target gap
MAX_RHO = 2.0  # the largest gap of a +-1 cell indicator; a normalized statistic's is at most 1
# "finite" is separated by its cell counts, "linear" in closed form, the others by _Oracle
ORACLE_KINDS = ("linear", "tree", "mlp", "finite")


class InfeasibleRetrievalError(RuntimeError):
    """LP stayed infeasible with the target gap relaxed to MAX_RHO."""

    def __init__(self, message: str, trace: "MoprTrace"):
        super().__init__(message)
        self.trace = trace


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
    tree_depth: int = 3
    mlp_hidden: int = 64
    mlp_epochs: int = 500
    mlp_step: float = 0.05
    seed: int = 0

    def __post_init__(self):
        _check_run(self.T, self.rho)
        if self.oracle_kind not in ORACLE_KINDS:
            raise ValueError(f"unknown oracle {self.oracle_kind!r}")
        if self.feature_view not in FEATURE_VIEWS:
            raise ValueError(f"unknown feature view {self.feature_view!r}")
        if self.oracle_kind == "finite" and self.feature_view != "labels":
            raise ValueError(f"the finite class needs the labels view, not {self.feature_view!r}")


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


class _Oracle:
    """Separator by the regression oracle of the configured class.

    ``oracle(a)`` returns (violation, cut): the cut bounds by 0 the gap between
    the worst statistic's mean over the selection and its mean over D_C, its
    coefficients the statistic's values on the D_R items over k, as the search
    computed them.  ``classes[i]`` is the distinct feature row of retrieval
    item i, on which every cut is constant.  The oracle is deterministic; its
    ``groups`` keep the exact tree fit's block table from the first evaluation
    on, so a sweep builds it once.
    """

    def __init__(self, d_r: Dataset, d_c: Dataset, k: int, cfg: MoprConfig):
        self.n, self.m, self.k = len(d_r), len(d_c), k
        self.cfg = cfg
        self.groups = feature_groups(d_r, d_c, cfg.feature_view)
        self.classes = self.groups.inverse[: self.n]

    def __call__(self, a: np.ndarray) -> tuple[float, Cut]:
        cfg = self.cfg
        value, _, _, values = oracle_gap(
            self.groups, signed_weights(a, self.k, self.m), self.m, self.k, cfg.oracle_kind,
            cfg.feature_view, cfg.tree_depth, cfg.mlp_hidden, cfg.mlp_epochs, cfg.mlp_step,
            cfg.seed,
        )
        return value, Cut(values[: self.n] / self.k, float(np.mean(values[self.n :])), 0.0)


class _SupportingHyperplane:
    """Separator of the linear class by its closed-form norm.

    ``sep(a)`` returns (MPR, cut): the MPR is tn * ||z||, z the signed weights
    in the stack's left singular vectors U.  The worst statistic is
    tn * U z / ||z||, the normalized least-squares fit of the signed weights;
    its values on the D_R items over k are the norm's gradient at ``a``, the
    cut's coefficients, and its curated mean is gradient . a - MPR, the cut's
    offset.  The cut's upper side is the norm's supporting hyperplane, and the
    class is closed under negation, so both sides are necessary conditions.
    At z = 0 no linear statistic separates the sets: the MPR is 0 and the cut
    the zero row.  The gradient is computed once per distinct feature row and
    gathered to the items, so it is exactly constant on each of the ``classes``.
    """

    def __init__(self, d_r: Dataset, d_c: Dataset, k: int, cfg: MoprConfig):
        self.ctx = svd_context(feature_groups(d_r, d_c, cfg.feature_view))
        self.n, self.m, self.k = len(d_r), len(d_c), k
        self.classes = self.ctx.groups.inverse[: self.n]

    def __call__(self, a: np.ndarray) -> tuple[float, Cut]:
        value, z = closed_form_gap(self.ctx, signed_weights(a, self.k, self.m), self.m, self.k)
        zn = float(np.linalg.norm(z))
        if zn == 0.0:
            return value, Cut(np.zeros(self.n), 0.0, 0.0)
        tn = target_norm(self.m, self.k)
        grad = (tn * (self.ctx.U_l @ z) / zn)[self.classes] / self.k
        return value, Cut(grad, float(grad @ a) - value, 0.0)


def _solve_with_relaxation(s, cuts: list, k: int, rho_eff: float, trace: MoprTrace, start):
    """Solve the LP ``start`` takes over, relaxing the target gap to the smallest feasible one.

    An infeasible LP has its gap doubled, from RELAX_FLOOR when it is 0, until
    the LP is feasible; bisection then narrows the gap to the smallest feasible
    one, to RELAX_RTOL relative.  Every probe re-bounds that one LP and
    re-optimizes it.  Returns (lp, cuts, rho_eff, pivots summed over the probes).
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
            raise InfeasibleRetrievalError(f"LP infeasible even at rho={hi}", trace)
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


def _selectable(s: np.ndarray, classes: np.ndarray, k: int) -> np.ndarray:
    """The k most similar items of each class, in ascending index.

    ``classes`` numbers the classes with small non-negative integers.  A
    class of at most k items keeps them all.  In a larger one, similarity
    ties at its k-th place go to the lower index, as in the LP's top-k start.
    """
    counts = np.bincount(classes)
    keep = counts[classes] <= k
    for c in np.flatnonzero(counts > k):
        members = np.flatnonzero(classes == c)
        values = s[members]
        kth = np.partition(values, values.size - k)[values.size - k]
        above = members[values > kth]
        keep[above] = True
        keep[members[values == kth][: k - above.size]] = True
    return np.flatnonzero(keep)


def _cutting_plane(carry: _SweepCarry, T: int, rho: float) -> tuple[Selection, MoprTrace]:
    """The cutting-plane loop of every retrieval; see the module docstring.

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
        lp, cuts, rho_eff, pivots = _solve_with_relaxation(s_keep, cuts, k, rho_eff, trace, carry.lp)
        carry.lp, carry.cuts = lp.lp, cuts
        trace.effective_rho = rho_eff
        chosen = np.zeros(s.size)
        chosen[keep[round_top_k(lp.a, k).indices]] = 1.0
        violation, row = carry.separate(chosen)
        record = IterationRecord(iteration=it, violation=violation, lp_objective=lp.objective,
                                 n_fractional=lp.n_fractional, lp_pivots=pivots,
                                 rho_eff=rho_eff, cut_added=False)
        trace.iterations.append(record)
        if violation <= rho_eff + HALT_TOL or it == T:
            break
        cut = Cut(row.coefficients[keep], row.offset, rho_eff)
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

    Built for one instance: the ``d_r``, ``d_c`` and ``q`` objects, k, and
    every ``MoprConfig`` field but rho and T.  It is the whole state of
    ``_cutting_plane``: that instance's similarity vector, k, separator
    (``CellCounts`` for the finite class, ``_SupportingHyperplane`` for the
    linear one, ``_Oracle`` otherwise) and LP columns ``keep`` (the items an
    optimum can choose), and the cut pool (restricted to ``keep``) and the LP
    (``solve_lp``'s ``lp``, its rows those cuts) where the last retrieval from
    it ended.  A cut is a necessary condition of MPR <= rho at any rho once its
    bound is set to that rho, because its statistic is a member of the class,
    so the pool stays valid down the grid; only row bounds change, which
    ``solve_lp(start=)`` writes into the carried LP.  ``separate`` calls the
    separator and remembers its last answer, which a loop whose new cut leaves
    the selection as it was asks for again, as does a sweep's first retrieval
    after its top-k reference.
    """

    def __init__(self, d_r: Dataset, d_c: Dataset, q: Query, k: int, cfg: MoprConfig):
        _check_k(k)
        if k > len(d_r):
            raise ValueError(f"k={k} exceeds retrieval pool size {len(d_r)}")
        self.instance = (d_r, d_c, q, k, self._fixed(cfg))
        self.k = k
        if cfg.curation_pool_size is not None:
            d_c = condition_curation(d_c, q, cfg.curation_pool_size)
        self.s = similarity_vector(d_r, q)
        kind = cfg.oracle_kind
        self.separator = CellCounts.build(d_r, d_c, k) if kind == "finite" else (
            _SupportingHyperplane if kind == "linear" else _Oracle)(d_r, d_c, k, cfg)
        self.keep = _selectable(self.s, self.separator.classes, k)
        self.cuts, self.lp = [], None
        self._last: tuple[np.ndarray, tuple[float, Cut]] | None = None

    def separate(self, a: np.ndarray) -> tuple[float, Cut]:
        if self._last is None or not np.array_equal(self._last[0], a):
            self._last = (a.copy(), self.separator(a))
        return self._last[1]

    @staticmethod
    def _fixed(cfg: MoprConfig) -> MoprConfig:
        return replace(cfg, rho=0.0, T=1)

    def check(self, d_r: Dataset, d_c: Dataset, q: Query, k: int, cfg: MoprConfig) -> None:
        d_r0, d_c0, q0, k0, cfg0 = self.instance
        if not (d_r is d_r0 and d_c is d_c0 and q is q0 and k == k0
                and self._fixed(cfg) == cfg0):
            raise ValueError(
                "carry was built for a different instance: d_r, d_c and q must be the "
                "same objects, and k and every MoprConfig field but rho and T equal"
            )


def mopr_retrieve(
    d_r: Dataset, d_c: Dataset, q: Query, k: int, cfg: MoprConfig,
    *, carry: _SweepCarry | None = None,
) -> tuple[Selection, MoprTrace]:
    """Cutting-plane retrieval of k items under a representation bound.

    ``carry`` is a sweep's state for this instance: the retrieval reuses its
    separator and similarity vector, starts from its cuts and LP, and leaves
    its own there.  ``ValueError`` if it was built for another instance.
    Without one the retrieval builds a fresh carry of its own.
    """
    if carry is None:
        carry = _SweepCarry(d_r, d_c, q, k, cfg)
    else:
        carry.check(d_r, d_c, q, k, cfg)
    return _cutting_plane(carry, cfg.T, cfg.rho)


def mopr_qp_linear(
    d_r: Dataset,
    d_c: Dataset,
    q: Query,
    k: int,
    rho: float,
    T: int = 50,
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
    emb = d_r.embeddings
    norms = np.linalg.norm(emb, axis=1, keepdims=True)
    unit = emb / norms
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
    vector and one separator, which also measure the top-k reference, and
    each grid value's retrieval starts from the cuts and the one LP the
    previous value ended with, the cuts bounded by the new rho and the LP
    re-bounded to match.  The first value starts from nothing, as a plain
    ``mopr_retrieve`` does.
    """
    if not rho_grid:
        raise ValueError("rho grid must be nonempty")
    cfgs = [replace(cfg_template, rho=rho) for rho in rho_grid]  # checks every rho
    if list(rho_grid) != sorted(rho_grid, reverse=True):
        raise ValueError("rho grid must be descending")
    carry = _SweepCarry(d_r, d_c, q, k, cfg_template)
    top, chosen = top_k_indices(carry.s, k), np.zeros(carry.s.size)
    chosen[top] = 1.0
    mpr0, _ = carry.separate(chosen)
    sim0 = float(np.mean(carry.s[top]))
    points: list[ParetoPoint] = []
    for rho, cfg in zip(rho_grid, cfgs):
        try:
            # through the module attribute, so a wrapper sees every retrieval
            _, trace = mopr_retrieve(d_r, d_c, q, k, cfg, carry=carry)
        except InfeasibleRetrievalError:
            points.append(ParetoPoint(rho, *[float("nan")] * 4, "infeasible", 0))
            continue
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
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(SWEEP_CSV_HEADER)
        for p in points:
            figures = (p.rho_target, p.mpr_achieved, p.mean_similarity, p.sim_frac_topk,
                       p.mpr_frac_topk)
            writer.writerow(["%.17g" % v for v in figures] + [p.halted_by, str(p.iterations)])
