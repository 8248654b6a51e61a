"""Representation statistics and the regression oracles that fit them.

A representation statistic is a real-valued function over items whose mean
quantifies how strongly a group is present in a set.  Four kinds are
supported: cell indicators over label codes, linear functions, CART regression
trees, and one-hidden-layer MLPs.  Statistics can be rescaled so that their
squared values over the concatenated retrieval+curation rows sum to
mk/(m+k), which bounds the representation gap in [0, 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from mopr.datamodel import Dataset

FEATURE_VIEWS = ("labels", "embedding", "concat")


class DegenerateStatisticError(ValueError):
    """The statistic is identically zero over the evaluation context."""


def one_hot_labels(dataset: Dataset) -> np.ndarray:
    """One-hot encode all label axes (all categories kept, none dropped)."""
    cards = dataset.schema.label_cards
    names = dataset.schema.label_names
    total = sum(cards[n] for n in names)
    out = np.zeros((len(dataset), total))
    offset = 0
    for j, name in enumerate(names):
        codes = dataset.labels[:, j]
        out[np.arange(len(dataset)), offset + codes] = 1.0
        offset += cards[name]
    return out


def feature_matrix(dataset: Dataset, view: str) -> np.ndarray:
    """Feature rows for a dataset under a feature view."""
    if view == "labels":
        return one_hot_labels(dataset)
    if view == "embedding":
        return np.array(dataset.embeddings, copy=True)
    if view == "concat":
        return np.hstack([dataset.embeddings, one_hot_labels(dataset)])
    raise ValueError(f"unknown feature view {view!r}")


@dataclass(frozen=True)
class TreeNode:
    """Axis-aligned split node; leaves carry the mean target of their region."""

    value: float | None = None
    feature: int | None = None
    threshold: float | None = None
    left: Optional["TreeNode"] = None
    right: Optional["TreeNode"] = None

    @property
    def is_leaf(self) -> bool:
        return self.value is not None

    def predict(self, features: np.ndarray) -> np.ndarray:
        if self.is_leaf:
            return np.full(features.shape[0], self.value)
        go_left = features[:, self.feature] <= self.threshold
        out = np.empty(features.shape[0])
        out[go_left] = self.left.predict(features[go_left])
        out[~go_left] = self.right.predict(features[~go_left])
        return out

    def depth(self) -> int:
        if self.is_leaf:
            return 0
        return 1 + max(self.left.depth(), self.right.depth())

    def to_dict(self) -> dict:
        if self.is_leaf:
            return {"value": self.value}
        return {
            "feature": self.feature,
            "threshold": self.threshold,
            "left": self.left.to_dict(),
            "right": self.right.to_dict(),
        }


@dataclass(frozen=True)
class RepStatistic:
    """A representation statistic: indicator, linear, tree, or mlp.

    ``params`` holds the kind-specific parameters:
      indicator -- ``{"cell": {axis: code, ...}}``, +1 when all codes match
      linear    -- ``{"w": weight vector over feature columns}``
      tree      -- ``{"root": TreeNode}``
      mlp       -- ``{"W1", "b1", "W2", "b2"}``
    """

    kind: str
    params: dict
    feature_view: str = "labels"

    def __post_init__(self):
        if self.kind not in ("indicator", "linear", "tree", "mlp"):
            raise ValueError(f"unknown statistic kind {self.kind!r}")
        if self.feature_view not in FEATURE_VIEWS:
            raise ValueError(f"unknown feature view {self.feature_view!r}")

    def values_from_features(self, features: np.ndarray) -> np.ndarray:
        """Evaluate on pre-built feature rows (not valid for indicators)."""
        if self.kind == "linear":
            return features @ self.params["w"]
        if self.kind == "tree":
            return self.params["root"].predict(features)
        if self.kind == "mlp":
            h = np.maximum(features @ self.params["W1"] + self.params["b1"], 0.0)
            return h @ self.params["W2"] + self.params["b2"]
        raise ValueError("indicator statistics evaluate on labels, not features")

    def values(self, dataset: Dataset) -> np.ndarray:
        """Per-item values over a dataset, in item order."""
        if self.kind == "indicator":
            cell = self.params["cell"]
            names = dataset.schema.label_names
            match = np.ones(len(dataset), dtype=bool)
            for axis, code in cell.items():
                match &= dataset.labels[:, names.index(axis)] == code
            return np.where(match, 1.0, -1.0)
        return self.values_from_features(feature_matrix(dataset, self.feature_view))

    def to_dict(self) -> dict:
        if self.kind == "indicator":
            params = {"cell": dict(self.params["cell"])}
        elif self.kind == "linear":
            params = {"w": np.asarray(self.params["w"]).tolist()}
        elif self.kind == "tree":
            params = {"root": self.params["root"].to_dict()}
        else:
            params = {k: np.asarray(v).tolist() for k, v in self.params.items()}
        return {"kind": self.kind, "params": params, "feature_view": self.feature_view}


def cell_indicator(cell: dict[str, int]) -> RepStatistic:
    """+1 on items matching every (axis, code) in the cell, -1 elsewhere."""
    return RepStatistic("indicator", {"cell": dict(cell)}, "labels")


def all_cell_indicators(schema_cards: dict[str, int]) -> list[RepStatistic]:
    """One indicator per intersectional cell, in lexicographic cell order."""
    names = sorted(schema_cards)
    cells: list[dict[str, int]] = [{}]
    for name in names:
        cells = [dict(c, **{name: code}) for c in cells for code in range(schema_cards[name])]
    return [cell_indicator(c) for c in cells]


def fit_linear_ls(X: np.ndarray, targets: np.ndarray, feature_view: str = "labels") -> RepStatistic:
    """Minimum-norm least-squares linear fit of targets on feature rows X."""
    w, *_ = np.linalg.lstsq(X, targets, rcond=None)
    return RepStatistic("linear", {"w": w}, feature_view)


def _best_split(X: np.ndarray, y: np.ndarray) -> tuple[int, float, float] | None:
    """Lowest-SSE (feature, midpoint-threshold) split; ties to lower feature
    index then lower threshold. Returns None when no feature admits a split."""
    best: tuple[int, float, float] | None = None
    n = y.size
    for j in range(X.shape[1]):
        order = np.argsort(X[:, j], kind="stable")
        xs = X[order, j]
        ys = y[order]
        # candidate split after position i requires xs[i] < xs[i+1]
        boundaries = np.flatnonzero(np.diff(xs) > 0)
        if boundaries.size == 0:
            continue
        csum = np.cumsum(ys)
        csq = np.cumsum(ys * ys)
        nl = boundaries + 1
        nr = n - nl
        sum_l = csum[boundaries]
        sq_l = csq[boundaries]
        sse = (sq_l - sum_l**2 / nl) + ((csq[-1] - sq_l) - (csum[-1] - sum_l) ** 2 / nr)
        pick = int(np.argmin(sse))  # first minimum = lowest threshold
        score = float(sse[pick])
        if best is None or score < best[2]:
            pos = boundaries[pick]
            best = (j, 0.5 * (xs[pos] + xs[pos + 1]), score)
    return best


def _grow_tree(X: np.ndarray, y: np.ndarray, depth_left: int) -> TreeNode:
    if depth_left == 0 or y.size < 2 or np.ptp(y) == 0.0:
        return TreeNode(value=float(np.mean(y)))
    split = _best_split(X, y)
    if split is None:
        return TreeNode(value=float(np.mean(y)))
    j, thr, _ = split
    go_left = X[:, j] <= thr
    return TreeNode(
        feature=j,
        threshold=thr,
        left=_grow_tree(X[go_left], y[go_left], depth_left - 1),
        right=_grow_tree(X[~go_left], y[~go_left], depth_left - 1),
    )


def fit_tree(
    X: np.ndarray, targets: np.ndarray, depth_limit: int, feature_view: str = "labels"
) -> RepStatistic:
    """Greedy CART regression tree with midpoint thresholds."""
    if depth_limit < 1:
        raise ValueError("depth_limit must be >= 1")
    root = _grow_tree(np.asarray(X, dtype=float), np.asarray(targets, dtype=float), depth_limit)
    return RepStatistic("tree", {"root": root}, feature_view)


def fit_mlp(
    X: np.ndarray,
    targets: np.ndarray,
    hidden: int,
    epochs: int = 500,
    step_size: float = 0.05,
    seed: int = 0,
    feature_view: str = "labels",
    zero_output_init: bool = False,
) -> RepStatistic:
    """One-hidden-layer ReLU network trained by full-batch gradient descent.

    Deterministic given the seed; returns whatever the run produces, with no
    optimality claim.
    """
    if hidden < 1:
        raise ValueError("hidden must be >= 1")
    X = np.asarray(X, dtype=float)
    y = np.asarray(targets, dtype=float)
    n, p = X.shape
    rng = np.random.default_rng(seed)
    lim1 = 1.0 / math.sqrt(p)
    lim2 = 1.0 / math.sqrt(hidden)
    W1 = rng.uniform(-lim1, lim1, size=(p, hidden))
    b1 = rng.uniform(-lim1, lim1, size=hidden)
    if zero_output_init:
        W2 = np.zeros(hidden)
        b2 = 0.0
    else:
        W2 = rng.uniform(-lim2, lim2, size=hidden)
        b2 = float(rng.uniform(-lim2, lim2))
    for epoch in range(epochs):
        z = X @ W1 + b1
        h = np.maximum(z, 0.0)
        pred = h @ W2 + b2
        err = pred - y
        with np.errstate(over="ignore"):
            loss = float(np.mean(err**2))
        if not np.isfinite(loss):
            raise FloatingPointError(
                f"non-finite training loss at epoch {epoch}; reduce step_size ({step_size})"
            )
        g_pred = 2.0 * err / n
        gW2 = h.T @ g_pred
        gb2 = float(np.sum(g_pred))
        g_h = np.outer(g_pred, W2) * (z > 0)
        gW1 = X.T @ g_h
        gb1 = g_h.sum(axis=0)
        W1 -= step_size * gW1
        b1 -= step_size * gb1
        W2 -= step_size * gW2
        b2 -= step_size * gb2
    return RepStatistic("mlp", {"W1": W1, "b1": b1, "W2": W2, "b2": b2}, feature_view)


@dataclass(frozen=True)
class NormalizedStatistic:
    """A statistic rescaled so its squared values over the retrieval+curation
    context sum to mk/(m+k)."""

    base: RepStatistic
    scale: float
    context_norm: float

    def values(self, dataset: Dataset) -> np.ndarray:
        return self.scale * self.base.values(dataset)

    def values_from_features(self, features: np.ndarray) -> np.ndarray:
        return self.scale * self.base.values_from_features(features)

    def to_dict(self) -> dict:
        return {
            "base": self.base.to_dict(),
            "scale": self.scale,
            "context_norm": self.context_norm,
        }


def target_norm(m: int, k: int) -> float:
    return math.sqrt(m * k / (m + k))


def normalize_values(stat, context: np.ndarray, m: int, k: int) -> NormalizedStatistic:
    """Rescale ``stat``, whose values over the D_R then D_C rows are ``context``."""
    norm = float(np.linalg.norm(context))
    if norm <= 0.0:
        raise DegenerateStatisticError("degenerate statistic: zero norm over context")
    return NormalizedStatistic(stat, target_norm(m, k) / norm, norm)


def normalize_to_cprime(
    stat: RepStatistic, d_r: Dataset, d_c: Dataset, k: int
) -> NormalizedStatistic:
    """Rescale ``stat`` into the normalized class over D_R then D_C rows."""
    return normalize_values(
        stat, np.concatenate([stat.values(d_r), stat.values(d_c)]), len(d_c), k
    )
