"""Cutting-plane retrieval under a representation constraint, plus baselines.

One loop, ``_cutting_plane``, does the retrieval.  Each iteration re-solves
the similarity LP under the cuts found so far, warm-started from the previous
basis and with the target gap relaxed geometrically if the LP is infeasible,
rounds the LP point to its k largest coordinates, and hands the rounded
selection to a separator.  The separator returns the selection's violation
and, only when asked, a cut that the selection violates.  The loop stops when
the selection is certified, when the new cut duplicates an old one (the LP
would not change), or after T iterations.

Two separators plug into it.  ``mopr_retrieve`` uses ``_Oracle``, which finds
the statistic with the most disproportionate representation (exactly over
the cell indicators, or by a regression oracle) and cuts on its mean.
``mopr_qp_linear`` uses ``_SupportingHyperplane``, which evaluates the
closed-form norm constraint of the linear class and cuts on its supporting
hyperplane.  A greedy maximal-marginal-relevance baseline and a Pareto sweep
harness round out the module.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, replace

import numpy as np

from mopr.datamodel import Dataset, Query
from mopr.metric import (
    FiniteTable,
    closed_form_gap,
    combined_features,
    oracle_gap,
    signed_weights,
    svd_context,
)
from mopr.similarity import Selection, condition_curation, similarity_vector
from mopr.solver import Cut, HalfSpaceCut, round_top_k, solve_lp
from mopr.statclasses import all_cell_indicators, target_norm

HALT_TOL = 1e-8
DUPLICATE_CUT_TOL = 1e-9
RELAX_FACTOR = 1.05
MAX_RELAX = 5


class InfeasibleRetrievalError(RuntimeError):
    """LP stayed infeasible after the constraint-relaxation policy."""

    def __init__(self, message: str, trace: "MoprTrace"):
        super().__init__(message)
        self.trace = trace


def _check_k(k: int) -> None:
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")


def _check_run(T: int, rho: float) -> None:
    if T < 1:
        raise ValueError("T must be >= 1")
    if rho < 0.0:
        raise ValueError("rho must be non-negative")


@dataclass(frozen=True)
class MoprConfig:
    rho: float = 0.0
    T: int = 50
    oracle_kind: str = "linear"  # linear | tree | mlp | finite
    feature_view: str = "labels"
    curation_pool_size: int | None = None
    tree_depth: int = 3
    mlp_hidden: int = 64
    mlp_epochs: int = 500
    mlp_step: float = 0.05
    seed: int = 0

    def __post_init__(self):
        _check_run(self.T, self.rho)


@dataclass
class IterationRecord:
    iteration: int
    violation: float
    lp_objective: float
    n_fractional: int
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
        return {
            "iterations": [vars(rec) for rec in self.iterations],
            "achieved_mpr": self.achieved_mpr,
            "mean_similarity": self.mean_similarity,
            "effective_rho": self.effective_rho,
            "halted_by": self.halted_by,
        }


class _Oracle:
    """Separator by the most disproportionate statistic of the configured class.

    ``oracle(a)`` returns (violation, witness) for a binary selection.  The
    witness is the worst statistic's values on the D_R items and its mean over
    D_C, as the search computed them; ``cut_for(witness, rho)`` bounds the gap
    between its selection mean and that curated mean by rho.
    """

    def __init__(self, d_r: Dataset, d_c: Dataset, k: int, cfg: MoprConfig):
        self.n, self.m, self.k = len(d_r), len(d_c), k
        self.cfg = cfg
        if cfg.oracle_kind == "finite":
            self.table = FiniteTable.build(all_cell_indicators(d_r.schema.label_cards), d_r, d_c)
        else:
            self.X = combined_features(d_r, d_c, cfg.feature_view)

    def __call__(self, a: np.ndarray):
        cfg = self.cfg
        if cfg.oracle_kind == "finite":
            value, i = self.table.worst(a, self.k)
            return value, (self.table.on_retrieval[i], float(self.table.curated_means[i]))
        value, _, _, values = oracle_gap(
            self.X, signed_weights(a, self.k, self.m), self.m, self.k, cfg.oracle_kind,
            cfg.feature_view, cfg.tree_depth, cfg.mlp_hidden, cfg.mlp_epochs, cfg.mlp_step,
            cfg.seed,
        )
        return value, (values[: self.n], float(np.mean(values[self.n :])))

    def cut_for(self, witness, rho: float) -> Cut:
        on_retrieval, curated_mean = witness
        return Cut(on_retrieval / self.k, curated_mean, rho)


class _SupportingHyperplane:
    """Separator by the closed-form norm constraint of the linear class.

    ``sep(a)`` returns (constraint value, witness) for a binary selection;
    ``cut_for(witness, rho)`` is the supporting hyperplane of the convex
    constraint at that selection, built from its analytic gradient.
    """

    def __init__(self, d_r: Dataset, d_c: Dataset, k: int, feature_view: str):
        self.ctx = svd_context(combined_features(d_r, d_c, feature_view))
        self.n, self.m, self.k = len(d_r), len(d_c), k

    def __call__(self, a: np.ndarray):
        value, z = closed_form_gap(self.ctx, signed_weights(a, self.k, self.m), self.m, self.k)
        return value, (a, value, z)

    def cut_for(self, witness, rho: float) -> HalfSpaceCut:
        # only asked for when the value exceeds rho >= 0, so z is nonzero
        a, value, z = witness
        tn = target_norm(self.m, self.k)
        grad = (tn * (self.ctx.U_l @ z) / float(np.linalg.norm(z)))[: self.n] / self.k
        return HalfSpaceCut(grad, rho - value + float(grad @ a))


def _solve_with_relaxation(s, cuts: list, k: int, rho_eff: float, trace: MoprTrace, start):
    """Solve the LP from ``start``, relaxing the target gap geometrically if infeasible."""
    for attempt in range(MAX_RELAX + 1):
        lp = solve_lp(s, cuts, k, start=start)
        if lp.status == "optimal":
            return lp, cuts, rho_eff
        start = lp.basis
        new_rho = rho_eff * RELAX_FACTOR if rho_eff > 0 else 1e-6
        cuts = [c.relaxed(rho_eff, new_rho) for c in cuts]
        rho_eff = new_rho
    raise InfeasibleRetrievalError(
        f"LP infeasible after {MAX_RELAX} relaxations (rho={rho_eff})", trace
    )


def _cutting_plane(s: np.ndarray, k: int, separate, T: int, rho: float
                   ) -> tuple[Selection, MoprTrace]:
    """The cutting-plane loop shared by both retrievals; see the module docstring.

    A duplicate cut leaves the LP unchanged, and re-solving it from its own
    optimal basis returns the same point, so every later iteration would
    return the same selection: the loop halts there.
    """
    _check_k(k)
    if k > s.size:
        raise ValueError(f"k={k} exceeds retrieval pool size {s.size}")
    _check_run(T, rho)
    trace = MoprTrace(effective_rho=rho)
    cuts: list = []
    rho_eff = rho
    basis = None
    stalled = False
    for it in range(1, T + 1):
        lp, cuts, rho_eff = _solve_with_relaxation(s, cuts, k, rho_eff, trace, basis)
        basis = lp.basis
        trace.effective_rho = rho_eff
        sel = round_top_k(lp.a, k)
        violation, witness = separate(sel.indicator.astype(float))
        record = IterationRecord(
            iteration=it,
            violation=violation,
            lp_objective=lp.objective,
            n_fractional=lp.n_fractional,
            cut_added=False,
        )
        trace.iterations.append(record)
        if violation <= rho_eff + HALT_TOL or it == T:
            break
        cut = separate.cut_for(witness, rho_eff)
        if any(np.max(np.abs(cut.coefficients - old.coefficients)) < DUPLICATE_CUT_TOL
               for old in cuts):
            record.duplicate_cut = stalled = True
            break
        cuts.append(cut)
        record.cut_added = True
    trace.selection = sel
    trace.achieved_mpr = violation
    trace.mean_similarity = float(np.mean(s[sel.indices]))
    if violation <= rho_eff + HALT_TOL:
        trace.halted_by = "constraint-satisfied"
    else:
        trace.halted_by = "stalled" if stalled else "iteration-cap"
    return sel, trace


def mopr_retrieve(
    d_r: Dataset, d_c: Dataset, q: Query, k: int, cfg: MoprConfig
) -> tuple[Selection, MoprTrace]:
    """Cutting-plane retrieval of k items under a representation bound."""
    if cfg.curation_pool_size is not None:
        d_c = condition_curation(d_c, q, cfg.curation_pool_size)
    s = similarity_vector(d_r, q)
    return _cutting_plane(s, k, _Oracle(d_r, d_c, k, cfg), cfg.T, cfg.rho)


def mopr_qp_linear(
    d_r: Dataset,
    d_c: Dataset,
    q: Query,
    k: int,
    rho: float,
    T: int = 50,
    feature_view: str = "labels",
) -> tuple[Selection, MoprTrace]:
    """Cutting-plane on the closed-form norm constraint for linear statistics."""
    s = similarity_vector(d_r, q)
    return _cutting_plane(s, k, _SupportingHyperplane(d_r, d_c, k, feature_view), T, rho)


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
        if not selected:
            scores = sims.copy()
        else:
            scores = lam * sims - (1.0 - lam) * max_sim_to_selected
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
    """One constrained retrieval per grid value, normalized against plain top-k."""
    _check_k(k)
    if not rho_grid:
        raise ValueError("rho grid must be nonempty")
    if list(rho_grid) != sorted(rho_grid, reverse=True):
        raise ValueError("rho grid must be descending")
    if cfg_template.curation_pool_size is not None:
        # the reference is measured against the curated set every retrieval
        # uses; conditioning is idempotent, so mopr_retrieve may repeat it
        d_c = condition_curation(d_c, q, cfg_template.curation_pool_size)
    s = similarity_vector(d_r, q)
    sel0 = round_top_k(s, k)
    mpr0, _ = _Oracle(d_r, d_c, k, cfg_template)(sel0.indicator.astype(float))
    sim0 = float(np.mean(s[sel0.indices]))
    points: list[ParetoPoint] = []
    for rho in rho_grid:
        cfg = replace(cfg_template, rho=rho)
        try:
            _, trace = mopr_retrieve(d_r, d_c, q, k, cfg)
        except InfeasibleRetrievalError:
            points.append(
                ParetoPoint(rho, float("nan"), float("nan"), float("nan"),
                            float("nan"), "infeasible", 0)
            )
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
            writer.writerow([
                "%.17g" % p.rho_target,
                "%.17g" % p.mpr_achieved,
                "%.17g" % p.mean_similarity,
                "%.17g" % p.sim_frac_topk,
                "%.17g" % p.mpr_frac_topk,
                p.halted_by,
                str(p.iterations),
            ])
