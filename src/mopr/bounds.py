"""Sample-complexity machinery for the representation gap.

Monte Carlo Rademacher complexity estimates, the VC-based upper bound, the
finite-sample bound on the deviation between the empirical gap (measured on a
sampled curation set) and the population gap, the curation-budget sample size
for a batch of queries, and a coverage experiment that validates the bound
against a population with known statistics.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from mopr.datamodel import Dataset
from mopr.statclasses import RepStatistic


@dataclass(frozen=True)
class KnownPopulation:
    """Finite-support population with explicit probabilities.

    Statistic means are exact weighted sums, so experiments against this
    population isolate curation-sampling error.
    """

    support: Dataset
    probabilities: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probabilities, dtype=float)
        if p.size != len(self.support):
            raise ValueError("one probability per support item required")
        if abs(float(p.sum()) - 1.0) > 1e-12:
            raise ValueError("probabilities must sum to 1")
        if np.any(p < 0):
            raise ValueError("probabilities must be non-negative")
        object.__setattr__(self, "probabilities", p)

    def expectation(self, stat: RepStatistic) -> float:
        return float(self.probabilities @ stat.values(self.support))

    def sample(self, m: int, rng: np.random.Generator) -> Dataset:
        idx = rng.choice(len(self.support), size=m, p=self.probabilities)
        support = self.support
        return Dataset([f"s{j}" for j in range(m)], support.embeddings[idx], support.labels[idx],
                       support.schema, "curated")


@dataclass
class BoundReport:
    rademacher: float
    bound_value: float
    parameters: dict
    coverage: float | None = None
    diagnostics: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)


def rademacher_mc(
    stat_class: list[RepStatistic], sample: Dataset, trials: int, seed: int = 0
) -> float:
    """Monte Carlo estimate of the empirical Rademacher complexity.

    Averages sup over the class of (1/m) sum_i sigma_i c(x_i) across uniform
    random sign vectors.
    """
    if not stat_class:
        raise ValueError("statistic class must be nonempty")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    m = len(sample)
    values = np.stack([stat.values(sample) for stat in stat_class])  # (C, m)
    rng = np.random.default_rng(seed)
    signs = rng.choice([-1.0, 1.0], size=(trials, m))
    sups = np.max(signs @ values.T / m, axis=1)
    return float(np.mean(sups))


def vc_rademacher_bound(vc: int, m: int) -> float:
    """sqrt(2 * vc * log(e*m/vc) / m); defined only when e*m/vc > 1."""
    if vc < 1 or m < 1:
        raise ValueError("vc and m must be positive")
    ratio = math.e * m / vc
    if ratio <= 1.0:
        raise ValueError(f"m={m} too small for vc={vc}: e*m/vc must exceed 1")
    return math.sqrt(2.0 * vc * math.log(ratio) / m)


def generalization_bound(rademacher: float, m: int, delta: float) -> float:
    """High-probability deviation bound: rademacher + sqrt(log(2/delta)/(8m))."""
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must be in (0, 1)")
    if m < 1:
        raise ValueError("m must be positive")
    return rademacher + math.sqrt(math.log(2.0 / delta) / (8.0 * m))


def query_budget(
    vc: int, epsilon: float, delta: float, M: int, conservative: bool = True
) -> int:
    """Curation size guaranteeing an epsilon-accurate gap for M queries.

    The default keeps the extra factor of two on the logarithmic term; the
    tighter variant drops it.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must be in (0, 1)")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must be in (0, 1)")
    if M < 1 or vc < 1:
        raise ValueError("M and vc must be positive")
    log_term = math.log(2.0 * M / delta) / (2.0 * epsilon**2)
    if conservative:
        log_term *= 2.0
    return math.ceil(32.0 * vc / epsilon**2 + log_term)


def _finite_mpr(ret_means: np.ndarray, ref_means: np.ndarray) -> float:
    return float(np.max(np.abs(ret_means - ref_means)))


def gap_experiment(
    pop: KnownPopulation,
    stat_class: list[RepStatistic],
    retrieved: Dataset,
    m: int,
    trials: int,
    delta: float,
    seed: int = 0,
    rademacher_trials: int = 100,
) -> BoundReport:
    """Empirical coverage of the deviation bound for a fixed retrieved set.

    Each trial draws a curation sample of size m from the known population,
    compares the sampled gap against the exact population gap, and checks the
    deviation against the bound evaluated with that trial's Rademacher
    estimate.
    """
    if trials < 50:
        raise ValueError("at least 50 trials required for a coverage estimate")
    ret_means = np.array([float(np.mean(st.values(retrieved))) for st in stat_class])
    pop_means = np.array([pop.expectation(st) for st in stat_class])
    mpr_pop = _finite_mpr(ret_means, pop_means)
    gaps, bounds, rads = np.empty((3, trials))
    for t in range(trials):
        rng = np.random.default_rng(seed + t)
        d_c = pop.sample(m, rng)
        emp_means = np.array([float(np.mean(st.values(d_c))) for st in stat_class])
        mpr_emp = _finite_mpr(ret_means, emp_means)
        gaps[t] = abs(mpr_emp - mpr_pop)
        rads[t] = rademacher_mc(stat_class, d_c, rademacher_trials, seed=seed + t)
        bounds[t] = generalization_bound(rads[t], m, delta)
    coverage = float(np.mean(gaps <= bounds))
    return BoundReport(
        rademacher=float(np.mean(rads)),
        bound_value=float(np.mean(bounds)),
        parameters={"m": m, "delta": delta, "trials": trials, "seed": seed},
        coverage=coverage,
        diagnostics={
            "gap_p95": float(np.quantile(gaps, 0.95)),
            "gap_max": float(np.max(gaps)),
            "population_mpr": mpr_pop,
        },
    )
