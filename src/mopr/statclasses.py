"""Representation statistics and the regression oracles that fit them.

A representation statistic is a real-valued function over items whose mean
quantifies how strongly a group is present in a set.  Four kinds are
supported: cell indicators over label codes, linear functions, regression
trees, and one-hidden-layer MLPs.  Statistics can be rescaled so that their
squared values over the concatenated retrieval+curation rows sum to
mk/(m+k), which bounds the representation gap in [0, 1].

Two tree fits are offered.  ``fit_tree`` is greedy CART on any feature
columns: it sorts each column once and filters the sort orders down the tree
(SLIQ), and scores every split of a small block of a node's columns in one
array, +inf between equal values; splits tie to the lower feature, then the
lower threshold.  ``fit_tree_exact`` is the best least-squares tree of a
depth on 0/1 columns, the one-hot labels: a dynamic program over the blocks
of rows that such trees reach (``TreeBlocks``).
``exact_tree_values`` reads that tree's values per distinct row from the
program's block means, for the retrieval loop, without building the tree.

A ``FeatureGroups`` holds the rows of a stack as its distinct rows with an
``inverse`` index, and is the one place that knows rows repeat.  Every fit
takes a ``FeatureGroups`` or an array of rows (the identity grouping).  The
least-squares, exact tree and MLP fits run on the distinct rows with their
counts: least squares on repeated rows is weighted least squares on the
distinct ones, the MLP's count-weighted loss has the full loss's gradient,
and the exact tree's block sums add the distinct rows' counts and target
sums.  The fitted values equal the fit on the expanded rows up to rounding.
CART fits the stacked rows.

A ``FeatureGroups`` is immutable: its arrays are not written after it is
built.  So it keeps, in a private dict keyed by what was built, everything
derived from it alone, built on first use and held for as long as the groups
live: the exact tree's ``tree_blocks`` per depth, CART's ``presort`` (the
contiguous stack and its columns' stable sort orders, which every
``fit_tree`` on the groups reads) and whatever ``cached`` is asked for, as
``metric.svd_context`` asks for the SVD.  A build that raises keeps nothing.
The cached arrays are read-only.  A fit on a plain array of rows groups it
afresh, so it builds what it needs each time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from mopr.datamodel import Dataset, one_hot

FEATURE_VIEWS = ("labels", "embedding", "concat")
# the oracle defaults: tree depth, hidden units, training epochs and step size
TREE_DEPTH, MLP_HIDDEN, MLP_EPOCHS, MLP_STEP = 3, 64, 500, 0.05


class DegenerateStatisticError(ValueError):
    """The statistic is identically zero over the evaluation context."""


def one_hot_labels(dataset: Dataset) -> np.ndarray:
    """One-hot encode all label axes of a dataset."""
    cards = dataset.schema.label_cards
    return one_hot(dataset.labels, [cards[n] for n in dataset.schema.label_names])


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
        return {"feature": self.feature, "threshold": self.threshold,
                "left": self.left.to_dict(), "right": self.right.to_dict()}


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


def read_only(a) -> np.ndarray:
    """A read-only view of ``a``; ``a`` itself keeps its flags."""
    view = np.asarray(a).view()
    view.setflags(write=False)
    return view


@dataclass(frozen=True)
class FeatureGroups:
    """The rows of a stack as distinct rows: row i of the stack is
    ``rows[inverse[i]]``, and ``counts[r]`` stack rows are row r.  ``inverse``
    must index every row and no row past the end.  The groups are immutable:
    ``cached`` keeps what is derived from them."""

    rows: np.ndarray
    inverse: np.ndarray
    counts: np.ndarray = field(init=False, repr=False, compare=False)
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        inverse = np.asarray(self.inverse)
        counts = np.bincount(inverse, minlength=len(self.rows))
        if counts.size != len(self.rows) or counts.min(initial=1) < 1:
            raise ValueError(f"inverse must index each of the {len(self.rows)} rows")
        counts.setflags(write=False)
        object.__setattr__(self, "inverse", inverse)
        object.__setattr__(self, "counts", counts)

    @classmethod
    def identity(cls, X: np.ndarray) -> "FeatureGroups":
        return cls(X, np.arange(len(X)))

    @classmethod
    def of(cls, X) -> "FeatureGroups":
        """``X`` if it is a FeatureGroups, else the identity grouping of rows ``X``."""
        return X if isinstance(X, cls) else cls.identity(X)

    def cached(self, key, build):
        """``build()``, kept under ``key`` from its first return for as long as
        the groups live.  A build that raises keeps nothing."""
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    def sums(self, values) -> np.ndarray:
        """Per-row sums of ``values``, one value per stack row."""
        values = np.asarray(values, dtype=float)
        if values.shape != self.inverse.shape:
            raise ValueError(f"inverse needs one entry per target; got {self.inverse.shape} "
                             f"and targets {values.shape}")
        return np.bincount(self.inverse, values, len(self.rows))

    def weighted_rows(self) -> np.ndarray:
        """sqrt(counts) * rows, whose Gram matrix is the stack's; ``rows``
        itself when no row repeats, so the rows are not copied."""
        if len(self.rows) == len(self.inverse):
            return self.rows
        return np.sqrt(self.counts)[:, None] * self.rows

    def stack(self) -> np.ndarray:
        """``rows[inverse]``, or ``rows`` itself when ``inverse`` is the identity."""
        identity = np.array_equal(self.inverse, np.arange(len(self.inverse)))
        return self.rows if identity else self.rows[self.inverse]

    def tree_blocks(self, depth: int) -> TreeBlocks:
        """The exact tree fit's table of ``rows`` at ``depth``, built on first use."""
        return self.cached(("tree_blocks", depth), lambda: TreeBlocks.build(self.rows, depth))

    def presort(self) -> tuple[np.ndarray, np.ndarray]:
        """CART's presort, built on first use: the stack as one contiguous float
        array X, and ``order``, whose row j lists the stack's rows sorted
        stably by column j of X."""
        def build():
            X = np.ascontiguousarray(self.stack(), dtype=float)
            return read_only(X), read_only(np.argsort(X.T, axis=-1, kind="stable"))

        return self.cached("presort", build)


def fit_linear_ls(X, targets, feature_view: str = "labels") -> RepStatistic:
    """Minimum-norm least-squares linear fit of targets on the stack's rows,
    ``X`` a FeatureGroups or an array of rows.  With counts c and target sums
    s per distinct row, it solves lstsq(sqrt(c) rows, s / sqrt(c)), whose
    normal equations are those of the stack, and so has the same minimum-norm
    solution."""
    groups = FeatureGroups.of(X)
    w, *_ = np.linalg.lstsq(groups.weighted_rows(), groups.sums(targets) / np.sqrt(groups.counts),
                            rcond=None)
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
    sorted.  The columns are scored a block at a time, every split position
    of a block in one (columns, n - 1) array, +inf between equal values."""
    rows = np.flatnonzero(in_node)
    n = rows.size
    ys = y[rows]
    if depth_left == 0 or n < 2 or ys.min() == ys.max():
        return TreeNode(value=float(np.mean(ys)))
    n_all, p = X.shape
    width = max(1, _BLOCK_ELEMS // n)
    nl = np.arange(1, n)  # rows left of each split position
    nr = n - nl
    best = (np.inf, -1, 0.0)  # (sse, column, threshold); no split yet
    for j0 in range(0, p, width):
        blk = order[j0:j0 + width]
        if n != n_all:
            blk = blk[in_node[blk]].reshape(blk.shape[0], n)
        xs = X.ravel().take(blk * p + np.arange(j0, j0 + blk.shape[0])[:, None])  # X[blk, column]
        yo = y.take(blk)
        csum = np.cumsum(yo, axis=1)
        csq = np.cumsum(yo * yo, axis=1)
        sum_l, sq_l = csum[:, :-1], csq[:, :-1]
        sse = (sq_l - sum_l**2 / nl) + ((csq[:, -1:] - sq_l) - (csum[:, -1:] - sum_l) ** 2 / nr)
        sse[~(xs[:, 1:] > xs[:, :-1])] = np.inf
        c, i = divmod(int(np.argmin(sse)), n - 1)  # the first minimum: lowest column, then position
        if sse[c, i] < best[0]:  # strict: an earlier block wins a tie, and +inf never wins
            lo_x, hi_x = xs[c, i], xs[c, i + 1]
            mid = 0.5 * (lo_x + hi_x)  # rounds up to hi_x between adjacent floats
            best = (sse[c, i], j0 + c, mid if mid < hi_x else lo_x)
    if best[1] < 0:
        return TreeNode(value=float(np.mean(ys)))
    _, j, thr = best
    go_left = X[:, j] <= thr
    return TreeNode(
        feature=j,
        threshold=float(thr),
        left=_grow_tree(X, y, in_node & go_left, order, depth_left - 1),
        right=_grow_tree(X, y, in_node & ~go_left, order, depth_left - 1),
    )


def fit_tree(X, targets, depth_limit: int, feature_view: str = "labels") -> RepStatistic:
    """Greedy CART regression tree with midpoint thresholds (the lower value
    where the midpoint of two adjacent floats rounds up to the upper one),
    fit on the stacked rows of ``X``, a FeatureGroups or an array of rows.

    Each node takes the lowest-SSE split between two distinct values of one
    column; ties go to the lower feature index, then to the lower threshold.
    Leaves hold the mean target of their rows.  The columns are sorted once
    per FeatureGroups, stably (``FeatureGroups.presort``), and each node
    filters those sort orders to its rows.
    """
    if depth_limit < 1:
        raise ValueError("depth_limit must be >= 1")
    X, order = FeatureGroups.of(X).presort()
    y = np.asarray(targets, dtype=float)
    if X.ndim != 2 or y.shape != X.shape[:1]:
        raise ValueError(f"fit_tree needs X of shape (N, p), targets (N,); got {X.shape}, {y.shape}")
    root = _grow_tree(X, y, np.ones(len(X), dtype=bool), order, depth_limit)
    return RepStatistic("tree", {"root": root}, feature_view)


# A split of the exact tree must raise sum W^2/C by more than this fraction of
# the targets' sum of squares, which bounds sum W^2/C over every partition.
EXACT_TREE_RTOL = 1e-12


@dataclass(frozen=True)
class TreeBlocks:
    """The blocks of rows that trees of depth <= ``depth`` on the 0/1 columns
    of X reach, each a node's rows, numbered in the order ``build`` first
    reaches them.  Block 0 holds every row.

    Block b's rows are ``members[block_of == b]``, in increasing order, which
    is ``members[starts[b]:starts[b + 1]]``.  Splitting block b on column j
    sends the rows with x_j = 0 to block ``left[b, j]`` and the rest to
    ``right[b, j]``; both are -1 where a side would be empty or where b is
    reached only at the depth limit, which indexes the -inf that ``solve``
    appends to its table of values.
    """

    depth: int
    block_of: np.ndarray
    members: np.ndarray
    left: np.ndarray
    right: np.ndarray
    starts: np.ndarray

    @property
    def n_blocks(self) -> int:
        return len(self.left)

    @classmethod
    def build(cls, X: np.ndarray, depth: int) -> "TreeBlocks":
        """The table of X's blocks, found a tree level at a time.  A block,
        like a column, is held as a Python int whose bit i is row i, in a
        dict from block to number.  Each level walks the blocks first reached
        at the level before, in order, and splits each on every column, zero
        side first; a side not seen before takes the next number.  At the
        end the blocks become lists of rows."""
        if depth < 1:
            raise ValueError("depth_limit must be >= 1")
        X = np.asarray(X)
        if X.ndim != 2 or len(X) == 0 or not np.isin(X, (0.0, 1.0)).all():
            raise ValueError("the exact tree fit needs rows of 0/1 feature columns")
        if X.shape[1] == 0:  # a constant column, which never splits, stands in for none
            X = np.zeros((len(X), 1))
        n_rows, p = X.shape
        cols = [int.from_bytes(np.packbits(x, bitorder="little").tobytes(), "little")
                for x in X.T.astype(bool)]
        number = {(1 << n_rows) - 1: 0}  # block 0: every row
        left, right = [], []  # block b's children on column j at b * p + j
        for _ in range(depth):
            for block in list(number)[len(left) // p:]:
                for col in cols:
                    zero, one = block & ~col, block & col
                    if zero and one:
                        left.append(number.setdefault(zero, len(number)))
                        right.append(number.setdefault(one, len(number)))
                    else:
                        left.append(-1)
                        right.append(-1)
        unsplit = [-1] * (len(number) * p - len(left))  # blocks reached only at the depth limit
        left = np.array(left + unsplit).reshape(-1, p)
        right = np.array(right + unsplit).reshape(-1, p)
        n_bytes = (n_rows + 7) // 8
        bits = np.frombuffer(b"".join(b.to_bytes(n_bytes, "little") for b in number), np.uint8)
        block_of, members = np.nonzero(np.unpackbits(
            bits.reshape(len(number), n_bytes), axis=1, count=n_rows, bitorder="little"))
        starts = np.searchsorted(block_of, np.arange(len(number) + 1))  # block_of ascends
        return cls(depth, *map(read_only, (block_of, members, left, right, starts)))

    def solve(self, sums: np.ndarray, counts: np.ndarray, scale: float) -> tuple[list, list]:
        """The depth-<=d tree whose leaf blocks B maximize sum W_B^2 / C_B,
        W_B the summed target ``sums`` and C_B the summed ``counts`` of B's
        rows: each block's chosen column at each remaining depth r,
        ``choices[r - 1][b]`` (-1 for a leaf), and each block's mean W_B / C_B.

        best(B, r) = max(W_B^2 / C_B, max_j best(L_j, r-1) + best(R_j, r-1)),
        a level of gathers per r.  A split replaces the leaf only when it
        raises the sum by more than EXACT_TREE_RTOL * ``scale``, and among the
        splits within that of the largest the lowest column wins, so rounding
        cannot decide between tied trees.
        """
        W = np.bincount(self.block_of, sums[self.members], self.n_blocks)
        C = np.bincount(self.block_of, counts[self.members], self.n_blocks)
        leaf = W * W / C
        tol = EXACT_TREE_RTOL * scale
        floor = leaf + tol
        rows = np.arange(self.n_blocks)
        ext = np.append(leaf, -np.inf)  # best at the remaining depth, and the sentinel
        choices = []
        for _ in range(self.depth):
            cand = ext[self.left]
            cand += ext[self.right]
            top = cand.max(axis=1)
            top -= tol
            j = (cand >= top[:, None]).argmax(axis=1)
            value = cand[rows, j]
            take = value > floor
            ext[:-1] = np.where(take, value, leaf)
            choices.append(np.where(take, j, -1).tolist())
        return choices, (W / C).tolist()

    def fit(self, sums: np.ndarray, counts: np.ndarray, scale: float) -> TreeNode:
        """``solve``'s tree: nodes split at 0.5, leaves hold their block's mean."""
        choices, means = self.solve(sums, counts, scale)

        def node(b: int, r: int) -> TreeNode:
            j = choices[r - 1][b] if r else -1
            if j < 0:
                return TreeNode(value=means[b])
            return TreeNode(feature=j, threshold=0.5, left=node(int(self.left[b, j]), r - 1),
                            right=node(int(self.right[b, j]), r - 1))

        return node(0, self.depth)

    def values(self, sums: np.ndarray, counts: np.ndarray, scale: float) -> np.ndarray:
        """``fit``'s tree at every row, the mean of the leaf block it falls in:
        one walk of ``solve``'s choices, which builds no tree."""
        choices, means = self.solve(sums, counts, scale)
        out, pending = np.empty(len(counts)), [(0, self.depth)]
        for b, r in pending:  # the walk appends each split's children
            if r and (j := choices[r - 1][b]) >= 0:
                pending += [(self.left[b, j], r - 1), (self.right[b, j], r - 1)]
            else:
                out[self.members[self.starts[b]:self.starts[b + 1]]] = means[b]
        return out


def fit_tree_exact(X, targets, depth_limit: int, feature_view: str = "labels") -> RepStatistic:
    """The least-squares regression tree of depth <= ``depth_limit`` on 0/1
    feature columns, over every such tree (the DL8.5 dynamic program of
    Aglin, Nijssen & Schaus 2020, over the blocks of ``TreeBlocks``).

    A fit constant on the blocks of a partition takes each block's mean, and
    its squared correlation with the targets is sum W_B^2 / C_B; the tree
    maximizing that sum is the least-squares tree.  Nodes split at 0.5 and
    leaves hold their block's mean target.  ``X`` is a FeatureGroups, which
    keeps the block table per depth, or an array of rows.
    """
    groups = FeatureGroups.of(X)
    blocks = groups.tree_blocks(depth_limit)
    y = np.asarray(targets, dtype=float)
    root = blocks.fit(groups.sums(y), groups.counts, float(y @ y))
    return RepStatistic("tree", {"root": root}, feature_view)


def exact_tree_values(X, targets, depth_limit: int) -> np.ndarray:
    """``fit_tree_exact``'s values on the distinct rows of ``X``, read from
    the dynamic program's block means without building the tree."""
    groups = FeatureGroups.of(X)
    blocks = groups.tree_blocks(depth_limit)
    y = np.asarray(targets, dtype=float)
    return blocks.values(groups.sums(y), groups.counts, float(y @ y))


def fit_mlp(
    X,
    targets: np.ndarray,
    hidden: int,
    epochs: int = MLP_EPOCHS,
    step_size: float = MLP_STEP,
    seed: int = 0,
    feature_view: str = "labels",
) -> RepStatistic:
    """One-hidden-layer ReLU network trained by full-batch gradient descent on
    the mean squared error over the stacked rows of ``X``, a FeatureGroups or
    an array of rows.  It weights each distinct row's error from its mean
    target by its count, which has the full loss's gradient.

    Deterministic given the seed; returns whatever the run produces, with no
    optimality claim.
    """
    if hidden < 1:
        raise ValueError("hidden must be >= 1")
    if epochs < 0:
        raise ValueError("epochs must be >= 0")
    groups = FeatureGroups.of(X)
    counts = groups.counts
    y = groups.sums(targets) / counts
    X = np.asarray(groups.rows, dtype=float)
    n = len(groups.inverse)
    p = X.shape[1]
    rng = np.random.default_rng(seed)
    lim1 = 1.0 / math.sqrt(p)
    lim2 = 1.0 / math.sqrt(hidden)
    W1 = rng.uniform(-lim1, lim1, size=(p, hidden))
    b1 = rng.uniform(-lim1, lim1, size=hidden)
    W2 = rng.uniform(-lim2, lim2, size=hidden)
    b2 = float(rng.uniform(-lim2, lim2))
    for epoch in range(epochs):
        z = X @ W1 + b1
        h = np.maximum(z, 0.0)
        pred = h @ W2 + b2
        err = pred - y
        with np.errstate(over="ignore"):
            loss = float(counts @ err**2)
        if not np.isfinite(loss):
            raise FloatingPointError(
                f"non-finite training loss at epoch {epoch}; reduce step_size ({step_size})"
            )
        g_pred = 2.0 * (counts * err) / n
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
        return {"base": self.base.to_dict(), "scale": self.scale, "context_norm": self.context_norm}


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
