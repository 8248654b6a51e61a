"""Representation statistics and the regression oracles that fit them.

A representation statistic is a real-valued function over items whose mean
quantifies how strongly a group is present in a set.  Four kinds are
supported: cell indicators over label codes, linear functions, CART regression
trees, and one-hidden-layer MLPs.  Statistics can be rescaled so that their
squared values over the concatenated retrieval+curation rows sum to
mk/(m+k), which bounds the representation gap in [0, 1].

The tree fit sorts each feature column once and filters the sort orders down
the tree (SLIQ), scoring the columns of a node in small blocks; splits tie to
the lower feature, then the lower threshold.
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
        out = np.empty(features.shape[0])
        pending = [(self, np.ones(features.shape[0], dtype=bool))]
        while pending:
            node, reach = pending.pop()
            if node.is_leaf:
                out[reach] = node.value
                continue
            go_left = features[:, node.feature] <= node.threshold
            pending.append((node.left, reach & go_left))
            pending.append((node.right, reach & ~go_left))
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


# Elements per block of columns scored together.  Small blocks keep the
# split search's temporaries within the heap that malloc retains between
# calls; whole-node (p, n) temporaries at n = 1500 outgrow it and are
# page-faulted in afresh on every fit, in amounts that vary with heap layout.
_BLOCK_ELEMS = 4096


def _grow_tree(
    X: np.ndarray, y: np.ndarray, in_node: np.ndarray, order: np.ndarray, depth_left: int
) -> TreeNode:
    """Subtree over the rows flagged by ``in_node``.  ``order[j]`` lists all
    rows sorted stably by column j, and filtering it by ``in_node`` keeps it
    sorted.  The columns are scored a block at a time."""
    rows = np.flatnonzero(in_node)
    ys = y[rows]
    n = rows.size
    if depth_left == 0 or n < 2 or ys.min() == ys.max():
        return TreeNode(value=float(np.mean(ys)))
    n_all, p = X.shape
    width = max(1, _BLOCK_ELEMS // n)
    best = None  # (sse, column, threshold)
    for j0 in range(0, p, width):
        blk = order[j0:j0 + width]
        if n != n_all:
            blk = blk[in_node[blk]].reshape(blk.shape[0], n)
        xs = X.ravel().take(blk * p + np.arange(j0, j0 + blk.shape[0])[:, None])  # X[blk, column]
        at = np.flatnonzero(xs[:, 1:] > xs[:, :-1])  # candidates, in (column, position) order
        if at.size == 0:
            continue
        yo = y.take(blk)
        csum = np.cumsum(yo, axis=1).ravel()
        csq = np.cumsum(yo * yo, axis=1).ravel()
        cols = at // (n - 1)
        nl = at - cols * (n - 1) + 1
        at += cols  # the same (column, position) in the flattened (width, n) sums
        end = (cols + 1) * n - 1
        nr = n - nl
        sum_l = csum[at]
        sq_l = csq[at]
        sse = (sq_l - sum_l**2 / nl) + ((csq[end] - sq_l) - (csum[end] - sum_l) ** 2 / nr)
        k = int(np.argmin(sse))  # the first minimum: lowest feature, then lowest threshold
        if best is None or sse[k] < best[0]:  # strict: an earlier block wins a tie
            c, i = int(cols[k]), int(nl[k]) - 1
            lo, hi = xs[c, i], xs[c, i + 1]
            mid = 0.5 * (lo + hi)  # rounds up to hi between adjacent floats
            best = (sse[k], j0 + c, mid if mid < hi else lo)
    if best is None:
        return TreeNode(value=float(np.mean(ys)))
    _, j, thr = best
    go_left = X[:, j] <= thr
    return TreeNode(
        feature=j,
        threshold=float(thr),
        left=_grow_tree(X, y, in_node & go_left, order, depth_left - 1),
        right=_grow_tree(X, y, in_node & ~go_left, order, depth_left - 1),
    )


def fit_tree(
    X: np.ndarray, targets: np.ndarray, depth_limit: int, feature_view: str = "labels"
) -> RepStatistic:
    """Greedy CART regression tree with midpoint thresholds (the lower value
    where the midpoint of two adjacent floats rounds up to the upper one).

    Each node takes the lowest-SSE split between two distinct values of one
    column; ties go to the lower feature index, then to the lower threshold.
    Leaves hold the mean target of their rows.  The columns are sorted once,
    stably, at the root, and each node filters those sort orders to its rows.
    """
    if depth_limit < 1:
        raise ValueError("depth_limit must be >= 1")
    X = np.ascontiguousarray(X, dtype=float)
    y = np.asarray(targets, dtype=float)
    if X.ndim != 2 or y.shape != X.shape[:1]:
        raise ValueError(f"fit_tree needs X of shape (N, p), targets (N,); got {X.shape}, {y.shape}")
    order = np.argsort(X.T, axis=1, kind="stable")
    root = _grow_tree(X, y, np.ones(y.size, dtype=bool), order, depth_limit)
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
