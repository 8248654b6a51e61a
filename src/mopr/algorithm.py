"""Cutting-plane retrieval under a representation constraint, plus baselines.

The main loop alternates between solving the relaxed similarity LP under the
accumulated cuts, rounding to the k largest coordinates, and asking an oracle
for the statistic with the most disproportionate representation on the
rounded set.  Violated statistics become new linear cuts.  A quadratic
variant handles the linear class through subgradients of the closed-form
norm constraint, and a greedy maximal-marginal-relevance baseline and a
Pareto sweep harness round out the module.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, replace

import numpy as np

from mopr.datamodel import Dataset, Query
from mopr.metric import (
    build_tilde_a,
    combined_features,
    mpr_closed_form_linear,
    svd_context,
)
from mopr.similarity import Selection, condition_curation, similarity_vector
from mopr.solver import Cut, HalfSpaceCut, LpSolution, round_top_k, solve_lp
from mopr.statclasses import (
    DegenerateStatisticError,
    all_cell_indicators,
    fit_linear_ls,
    fit_mlp,
    fit_tree,
    normalize_to_cprime,
    target_norm,
)

HALT_TOL = 1e-8
DUPLICATE_CUT_TOL = 1e-9
RELAX_FACTOR = 1.05
MAX_RELAX = 5


class InfeasibleRetrievalError(RuntimeError):
    """LP stayed infeasible after the constraint-relaxation policy."""

    def __init__(self, message: str, trace: "MoprTrace"):
        super().__init__(message)
        self.trace = trace


@dataclass(frozen=True)
class MoprConfig:
    rho: float = 0.0
    T: int = 50
    oracle_kind: str = "linear"  # linear | tree | mlp | finite
    feature_view: str = "labels"
    curation_pool_size: int | None = None
    oracle_on_fractional: bool = False
    tree_depth: int = 3
    mlp_hidden: int = 64
    mlp_epochs: int = 500
    mlp_step: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if self.T < 1:
            raise ValueError("T must be >= 1")
        if self.rho < 0.0:
            raise ValueError("rho must be non-negative")


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
    """Returns (violation, witness) for a fractional or binary selection."""

    def __init__(self, d_r: Dataset, d_c: Dataset, k: int, cfg: MoprConfig):
        self.d_r = d_r
        self.d_c = d_c
        self.k = k
        self.cfg = cfg
        self.m = len(d_c)
        if cfg.oracle_kind == "finite":
            self.indicators = all_cell_indicators(d_r.schema.label_cards)
            self._coef = np.stack([st.values(d_r) for st in self.indicators]) / k
            self._offsets = np.array([float(np.mean(st.values(d_c))) for st in self.indicators])
        else:
            self.X = combined_features(d_r, d_c, cfg.feature_view)

    def __call__(self, a: np.ndarray):
        a = np.asarray(a, dtype=float)
        if self.cfg.oracle_kind == "finite":
            gaps = np.abs(self._coef @ a - self._offsets)
            best = int(np.argmax(gaps))
            return float(gaps[best]), self.indicators[best]
        tilde = np.concatenate([a / self.k, np.full(self.m, -1.0 / self.m)])
        best_val, best_witness = None, None
        for sign in (1.0, -1.0):
            target = sign * tilde
            if self.cfg.oracle_kind == "linear":
                stat = fit_linear_ls(self.X, target, self.cfg.feature_view)
            elif self.cfg.oracle_kind == "tree":
                stat = fit_tree(self.X, target, self.cfg.tree_depth, self.cfg.feature_view)
            elif self.cfg.oracle_kind == "mlp":
                stat = fit_mlp(
                    self.X, target, self.cfg.mlp_hidden,
                    epochs=self.cfg.mlp_epochs, step_size=self.cfg.mlp_step,
                    seed=self.cfg.seed, feature_view=self.cfg.feature_view,
                )
            else:
                raise ValueError(f"unknown oracle kind {self.cfg.oracle_kind!r}")
            try:
                norm_stat = normalize_to_cprime(stat, self.d_r, self.d_c, self.k)
            except DegenerateStatisticError:
                continue
            value = abs(float(norm_stat.values_from_features(self.X) @ tilde))
            if best_val is None or value > best_val:
                best_val, best_witness = value, norm_stat
        if best_val is None:
            raise DegenerateStatisticError("no identifiable statistic")
        return best_val, best_witness

    def cut_for(self, witness, rho: float) -> Cut:
        coef = witness.values(self.d_r) / self.k
        offset = float(np.mean(witness.values(self.d_c)))
        return Cut(coef, offset, rho)


def _is_duplicate(cut, cuts) -> bool:
    return any(
        np.max(np.abs(cut.coefficients - old.coefficients)) < DUPLICATE_CUT_TOL
        for old in cuts
    )


def _check_k(k: int, d_r: Dataset) -> None:
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    if k > len(d_r):
        raise ValueError(f"k={k} exceeds retrieval pool size {len(d_r)}")


def _halt_reason(achieved: float, rho_eff: float, stalled: bool) -> str:
    if achieved <= rho_eff + HALT_TOL:
        return "constraint-satisfied"
    return "stalled" if stalled else "iteration-cap"


def _solve_with_relaxation(s, cuts: list[Cut], k: int, rho_eff: float, trace: MoprTrace,
                           start):
    """Solve the LP from ``start``, relaxing the cut bound geometrically if infeasible."""
    for attempt in range(MAX_RELAX + 1):
        lp = solve_lp(s, cuts, k, start=start)
        if lp.status == "optimal":
            return lp, cuts, rho_eff
        start = lp.basis
        rho_eff = rho_eff * RELAX_FACTOR if rho_eff > 0 else 1e-6
        cuts = [c.with_bound(rho_eff) for c in cuts]
    raise InfeasibleRetrievalError(
        f"LP infeasible after {MAX_RELAX} relaxations (rho={rho_eff})", trace
    )


def mopr_retrieve(
    d_r: Dataset, d_c: Dataset, q: Query, k: int, cfg: MoprConfig
) -> tuple[Selection, MoprTrace]:
    """Cutting-plane retrieval of k items under a representation bound.

    The loop halts at the first duplicate cut: the LP is then unchanged and
    re-solving it from its own optimal basis returns the same point, so every
    later iteration would return the same selection.
    """
    _check_k(k, d_r)
    if cfg.curation_pool_size is not None:
        d_c = condition_curation(d_c, q, cfg.curation_pool_size)
    s = similarity_vector(d_r, q)
    oracle = _Oracle(d_r, d_c, k, cfg)
    trace = MoprTrace(effective_rho=cfg.rho)
    cuts: list[Cut] = []
    rho_eff = cfg.rho
    sel = None
    basis = None
    stalled = False
    for it in range(1, cfg.T + 1):
        lp, cuts, rho_eff = _solve_with_relaxation(s, cuts, k, rho_eff, trace, basis)
        basis = lp.basis
        trace.effective_rho = rho_eff
        sel = round_top_k(lp.a, k)
        probe = lp.a if cfg.oracle_on_fractional else sel.indicator.astype(float)
        violation, witness = oracle(probe)
        record = IterationRecord(
            iteration=it,
            violation=violation,
            lp_objective=lp.objective,
            n_fractional=lp.n_fractional,
            cut_added=False,
        )
        trace.iterations.append(record)
        if violation <= rho_eff + HALT_TOL or it == cfg.T:
            break
        cut = oracle.cut_for(witness, rho_eff)
        if _is_duplicate(cut, cuts):
            record.duplicate_cut = stalled = True
            break
        cuts.append(cut)
        record.cut_added = True
    achieved, _ = oracle(sel.indicator.astype(float))
    trace.selection = sel
    trace.achieved_mpr = achieved
    trace.mean_similarity = float(np.mean(s[sel.indices]))
    trace.halted_by = _halt_reason(achieved, rho_eff, stalled)
    return sel, trace


def mopr_qp_linear(
    d_r: Dataset,
    d_c: Dataset,
    q: Query,
    k: int,
    rho: float,
    T: int = 50,
    feature_view: str = "labels",
) -> tuple[Selection, MoprTrace]:
    """Cutting-plane on the closed-form norm constraint for linear statistics.

    Each violated iterate contributes the supporting hyperplane of the convex
    constraint at that point, built from the analytic subgradient.  Like
    ``mopr_retrieve`` it halts at the first duplicate cut.
    """
    _check_k(k, d_r)
    s = similarity_vector(d_r, q)
    X = combined_features(d_r, d_c, feature_view)
    ctx = svd_context(X)
    n, m = len(d_r), len(d_c)
    tn = target_norm(m, k)

    def constraint_and_subgrad(a: np.ndarray):
        tilde = np.concatenate([a / k, np.full(m, -1.0 / m)])
        z = ctx.U_l.T @ tilde
        zn = float(np.linalg.norm(z))
        g_val = tn * zn
        if zn == 0.0:
            return g_val, None
        grad_full = tn * (ctx.U_l @ z) / zn
        return g_val, grad_full[:n] / k

    trace = MoprTrace(effective_rho=rho)
    cuts: list[HalfSpaceCut] = []
    rho_eff = rho
    sel = None
    basis = None
    stalled = False
    for it in range(1, T + 1):
        lp, cuts, rho_eff = _qp_solve_with_relaxation(s, cuts, k, rho_eff, trace, basis)
        basis = lp.basis
        trace.effective_rho = rho_eff
        sel = round_top_k(lp.a, k)
        a_star = sel.indicator.astype(float)
        g_val, grad = constraint_and_subgrad(a_star)
        record = IterationRecord(
            iteration=it,
            violation=g_val,
            lp_objective=lp.objective,
            n_fractional=lp.n_fractional,
            cut_added=False,
        )
        trace.iterations.append(record)
        if g_val <= rho_eff + HALT_TOL or grad is None or it == T:
            break
        rhs = rho_eff - g_val + float(grad @ a_star)
        cut = HalfSpaceCut(grad, rhs)
        if _is_duplicate(cut, cuts):
            record.duplicate_cut = stalled = True
            break
        cuts.append(cut)
        record.cut_added = True
    achieved, _ = constraint_and_subgrad(sel.indicator.astype(float))
    trace.selection = sel
    trace.achieved_mpr = achieved
    trace.mean_similarity = float(np.mean(s[sel.indices]))
    trace.halted_by = _halt_reason(achieved, rho_eff, stalled)
    return sel, trace


def _qp_solve_with_relaxation(s, cuts: list[HalfSpaceCut], k, rho_eff, trace, start):
    # subgradient cuts carry rho in their rhs, so relaxation shifts the rhs
    for attempt in range(MAX_RELAX + 1):
        lp = solve_lp(s, cuts, k, start=start)
        if lp.status == "optimal":
            return lp, cuts, rho_eff
        start = lp.basis
        new_rho = rho_eff * RELAX_FACTOR if rho_eff > 0 else 1e-6
        cuts = [HalfSpaceCut(c.coefficients, c.rhs + (new_rho - rho_eff)) for c in cuts]
        rho_eff = new_rho
    raise InfeasibleRetrievalError(
        f"LP infeasible after {MAX_RELAX} relaxations (rho={rho_eff})", trace
    )


def mmr_retrieve(d_r: Dataset, q: Query, k: int, lam: float) -> Selection:
    """Greedy maximal-marginal-relevance selection of k items."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError("lambda must be in [0, 1]")
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
    if not rho_grid:
        raise ValueError("rho grid must be nonempty")
    if list(rho_grid) != sorted(rho_grid, reverse=True):
        raise ValueError("rho grid must be descending")
    s = similarity_vector(d_r, q)
    sel0 = round_top_k(s, k)
    oracle = _Oracle(d_r, d_c, k, cfg_template)
    mpr0, _ = oracle(sel0.indicator.astype(float))
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
