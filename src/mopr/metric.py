"""The multi-group proportional representation metric, computed four ways.

The representation gap of a selection is the largest difference, over a class
of statistics, between the statistic's mean on the retrieved items and its
mean on the curated dataset.  It can be evaluated exactly for finite indicator
lists, estimated through a regression oracle, computed in closed form for
linear statistics via the SVD, or computed for kernel classes as a maximum
mean discrepancy.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from mopr.datamodel import Dataset
from mopr.similarity import Selection
from mopr.solver import Cut
from mopr.statclasses import (
    DegenerateStatisticError,
    NormalizedStatistic,
    RepStatistic,
    feature_matrix,
    fit_linear_ls,
    fit_mlp,
    fit_tree,
    normalize_values,
    target_norm,
)

SV_CUTOFF_REL = 1e-10


def signed_weights(a: np.ndarray, k: int, m: int) -> np.ndarray:
    """The signed weight vector ã: a/k on the retrieval entries followed by
    -1/m on the curated ones."""
    return np.concatenate([a / k, np.full(m, -1.0 / m)])


@dataclass
class MprReport:
    value: float
    method: str
    witness: NormalizedStatistic | RepStatistic | None = None
    diagnostics: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "method": self.method,
            "witness": self.witness.to_dict() if self.witness is not None else None,
            "diagnostics": self.diagnostics,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


@dataclass(frozen=True)
class SvdContext:
    """Thin SVD of the concatenated feature rows, truncated to effective rank."""

    U_l: np.ndarray
    singular_values: np.ndarray
    V: np.ndarray
    l: int


def _check_compatible(d_r: Dataset, d_c: Dataset, view: str) -> None:
    if view in ("labels", "concat") and d_r.schema.label_cards != d_c.schema.label_cards:
        raise ValueError("retrieval and curated datasets disagree on label cardinalities")
    if view in ("embedding", "concat") and d_r.schema.d != d_c.schema.d:
        raise ValueError("retrieval and curated datasets disagree on embedding dimension")


def combined_features(d_r: Dataset, d_c: Dataset, view: str) -> np.ndarray:
    """Feature rows of D_R stacked over D_C."""
    _check_compatible(d_r, d_c, view)
    return np.vstack([feature_matrix(d_r, view), feature_matrix(d_c, view)])


def svd_context(X: np.ndarray) -> SvdContext:
    U, S, Vt = np.linalg.svd(X, full_matrices=False)
    if S.size == 0 or S[0] <= 0.0:
        raise ValueError("all-zero feature matrix")
    keep = S > SV_CUTOFF_REL * S[0]
    l = int(np.count_nonzero(keep))
    return SvdContext(U_l=U[:, keep], singular_values=S[keep], V=Vt[keep].T, l=l)


@dataclass(frozen=True)
class FiniteTable:
    """A finite statistic list: its values on the retrieval items, one row per
    statistic, and each statistic's mean over the curated items."""

    on_retrieval: np.ndarray
    curated_means: np.ndarray

    @classmethod
    def build(cls, stats: list, d_r: Dataset, d_c: Dataset) -> "FiniteTable":
        if not stats:
            raise ValueError("indicator list must be nonempty")
        return cls(
            np.stack([st.values(d_r) for st in stats]),
            np.array([float(np.mean(st.values(d_c))) for st in stats]),
        )

    def worst(self, a: np.ndarray, k: int) -> tuple[float, int]:
        """Largest |selection mean - curated mean| for selection weights ``a``
        summing to k, and the index of its statistic in the list the table was
        built from; ties to the first.  The selection mean is (values @ a) / k,
        which for ±1 values and a binary ``a`` is exact."""
        gaps = np.abs(self.on_retrieval @ a / k - self.curated_means)
        best = int(np.argmax(gaps))
        return float(gaps[best]), best

    def cuts(self, k: int, rho: float) -> list[Cut]:
        """One cut |mean over the selection - curated mean| <= rho per statistic."""
        return [
            Cut(row / k, float(mean), rho)
            for row, mean in zip(self.on_retrieval, self.curated_means)
        ]


def mpr_exact_finite(
    sel: Selection, d_r: Dataset, d_c: Dataset, indicators: list[RepStatistic]
) -> MprReport:
    """Exact supremum over an explicit finite statistic list; ties to the first."""
    value, best = FiniteTable.build(indicators, d_r, d_c).worst(sel.indicator, sel.k)
    return MprReport(
        value=value,
        method="exact-finite",
        witness=indicators[best],
        diagnostics={"class_size": len(indicators)},
    )


def oracle_gap(
    X: np.ndarray,
    tilde: np.ndarray,
    m: int,
    k: int,
    oracle: str = "linear",
    feature_view: str = "labels",
    tree_depth: int = 3,
    mlp_hidden: int = 64,
    mlp_epochs: int = 500,
    mlp_step: float = 0.05,
    seed: int = 0,
) -> tuple[float, NormalizedStatistic, float, np.ndarray]:
    """(gap, witness, mse, values) of the best regression fit of the signed
    weights.

    ``X`` holds the feature rows of D_R over D_C and ``tilde`` the signed
    weights; ``values`` are the witness's values over the rows of ``X``.  The
    gap is an absolute value, so the fit of ``-tilde`` counts too; the larger
    normalized correlation wins, ties to ``+tilde``.  The least-squares and
    tree fits of ``-tilde`` are exactly the negated fits of ``tilde``, so those
    two oracles fit ``tilde`` alone.  The MLP's random start breaks that
    symmetry, so it fits both signs.
    """
    fits = {
        "linear": lambda y: fit_linear_ls(X, y, feature_view),
        "tree": lambda y: fit_tree(X, y, tree_depth, feature_view),
        "mlp": lambda y: fit_mlp(X, y, mlp_hidden, epochs=mlp_epochs, step_size=mlp_step,
                                 seed=seed, feature_view=feature_view),
    }
    if oracle not in fits:
        raise ValueError(f"unknown oracle {oracle!r}")
    best: tuple[float, NormalizedStatistic, float, np.ndarray] | None = None
    for sign in (1.0, -1.0) if oracle == "mlp" else (1.0,):
        target = sign * tilde
        stat = fits[oracle](target)
        values = stat.values_from_features(X)
        try:
            norm_stat = normalize_values(stat, values, m, k)
        except DegenerateStatisticError:
            continue
        fitted = norm_stat.scale * values
        value = abs(float(fitted @ tilde))
        if best is None or value > best[0]:
            best = (value, norm_stat, float(np.mean((fitted - target) ** 2)), fitted)
    if best is None:
        raise DegenerateStatisticError("no identifiable statistic: every fit is degenerate")
    return best


def mpr_via_oracle(
    sel: Selection,
    d_r: Dataset,
    d_c: Dataset,
    oracle: str = "linear",
    feature_view: str = "labels",
    tree_depth: int = 3,
    mlp_hidden: int = 64,
    mlp_epochs: int = 500,
    mlp_step: float = 0.05,
    seed: int = 0,
) -> MprReport:
    """Estimate the gap by regressing the signed weight vector over the class."""
    X = combined_features(d_r, d_c, feature_view)
    m = len(d_c)
    value, witness, mse, _ = oracle_gap(
        X, signed_weights(sel.indicator, sel.k, m), m, sel.k, oracle, feature_view,
        tree_depth, mlp_hidden, mlp_epochs, mlp_step, seed,
    )
    return MprReport(
        value=value,
        method="oracle",
        witness=witness,
        diagnostics={"oracle": oracle, "oracle_mse": mse, "context_norm": witness.context_norm},
    )


def closed_form_gap(ctx: SvdContext, tilde: np.ndarray, m: int, k: int) -> tuple[float, np.ndarray]:
    """Gap over normalized linear statistics for signed weights ``tilde``, and
    the coordinates ``z = U_l' tilde`` the gap is the scaled norm of."""
    z = ctx.U_l.T @ tilde
    return target_norm(m, k) * float(np.linalg.norm(z)), z


def mpr_closed_form_linear(
    sel: Selection, d_r: Dataset, d_c: Dataset, feature_view: str = "labels"
) -> MprReport:
    """Exact gap for normalized linear statistics via the truncated SVD."""
    X = combined_features(d_r, d_c, feature_view)
    ctx = svd_context(X)
    m = len(d_c)
    value, z = closed_form_gap(ctx, signed_weights(sel.indicator, sel.k, m), m, sel.k)
    scale = target_norm(m, sel.k)
    zn = float(np.linalg.norm(z))
    if zn > 0.0:
        w_opt = ctx.V @ (z / ctx.singular_values) * (scale / zn)
    else:
        w_opt = np.zeros(ctx.V.shape[0])
    witness = NormalizedStatistic(
        base=RepStatistic("linear", {"w": w_opt}, feature_view),
        scale=1.0,
        context_norm=scale if zn > 0.0 else 0.0,
    )
    return MprReport(
        value=value,
        method="closed-linear",
        witness=witness,
        diagnostics={"svd_rank": ctx.l, "feature_view": feature_view},
    )


def _kernel_gram(A: np.ndarray, B: np.ndarray, kernel: str, sigma: float | None) -> np.ndarray:
    if kernel == "linear":
        return A @ B.T
    if kernel == "gaussian":
        if sigma is None or sigma <= 0.0:
            raise ValueError("gaussian kernel requires sigma > 0")
        sq = (
            np.sum(A**2, axis=1)[:, None]
            + np.sum(B**2, axis=1)[None, :]
            - 2.0 * (A @ B.T)
        )
        return np.exp(-np.maximum(sq, 0.0) / (2.0 * sigma**2))
    raise ValueError(f"unknown kernel {kernel!r}")


def mpr_rkhs(
    sel: Selection,
    d_r: Dataset,
    d_c: Dataset,
    kernel: str = "linear",
    sigma: float | None = None,
    feature_view: str = "labels",
) -> MprReport:
    """Kernel mean-embedding distance between retrieved and curated samples."""
    _check_compatible(d_r, d_c, feature_view)
    # the kernel is evaluated once per pair of distinct rows, weighted by their
    # multiplicities: a label view has a few distinct rows, while full Gram
    # matrices over hundreds of rows are megabytes page-faulted in on every call
    R, r_counts = np.unique(feature_matrix(d_r, feature_view)[sel.indices], axis=0, return_counts=True)
    C, c_counts = np.unique(feature_matrix(d_c, feature_view), axis=0, return_counts=True)
    k, m = int(r_counts.sum()), int(c_counts.sum())

    def gram_sum(A, a_counts, B, b_counts):
        # extended precision: the three sums cancel almost exactly when the
        # two samples are near-identical multisets
        gram = _kernel_gram(A, B, kernel, sigma)
        return np.sum(np.outer(a_counts, b_counts) * gram, dtype=np.longdouble)

    rr = gram_sum(R, r_counts, R, r_counts)
    rc = gram_sum(R, r_counts, C, c_counts)
    cc = gram_sum(C, c_counts, C, c_counts)
    radicand = float(rr / k**2 - 2.0 * rc / (m * k) + cc / m**2)
    if radicand < -1e-10:
        raise ValueError(f"negative squared distance {radicand}: kernel is not PSD")
    value = math.sqrt(max(radicand, 0.0))
    name = kernel if sigma is None else f"{kernel}(sigma={sigma})"
    return MprReport(value=value, method="rkhs", witness=None, diagnostics={"kernel": name})
