import itertools
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import make_dataset, random_pair
from mopr import statclasses
from mopr.statclasses import (
    DegenerateStatisticError,
    FeatureGroups,
    RepStatistic,
    TreeBlocks,
    TreeNode,
    all_cell_indicators,
    cell_indicator,
    feature_matrix,
    fit_linear_ls,
    fit_mlp,
    fit_tree,
    fit_tree_exact,
    normalize_to_cprime,
    one_hot,
    one_hot_labels,
    target_norm,
)


def label_ds(codes, cards, prefix="x"):
    return make_dataset(
        np.zeros((len(codes), 1)),
        [{"g": c} for c in codes],
        cards={"g": cards},
        prefix=prefix,
    )


class TestFeatureViews:
    def test_one_hot_keeps_all_categories(self):
        ds = label_ds([0, 1, 2], 3)
        hot = one_hot_labels(ds)
        assert hot.shape == (3, 3)
        assert np.array_equal(hot, np.eye(3))

    def test_concat_order(self, rng):
        ds = make_dataset(rng.standard_normal((4, 2)),
                          [{"g": i % 2} for i in range(4)], cards={"g": 2})
        X = feature_matrix(ds, "concat")
        assert X.shape == (4, 4)
        assert np.array_equal(X[:, :2], ds.embeddings)

    def test_unknown_view(self, rng):
        ds = make_dataset(rng.standard_normal((2, 2)))
        with pytest.raises(ValueError, match="feature view"):
            feature_matrix(ds, "nope")


class TestIndicators:
    def test_membership_sign(self):
        ds = label_ds([0, 1, 1], 2)
        stat = cell_indicator({"g": 1})
        assert stat.values(ds).tolist() == [-1.0, 1.0, 1.0]
        assert stat.values(ds)[1] == 1.0

    def test_all_cells_lexicographic(self):
        stats = all_cell_indicators({"b": 2, "a": 2})
        cells = [s.params["cell"] for s in stats]
        assert cells == [
            {"a": 0, "b": 0},
            {"a": 0, "b": 1},
            {"a": 1, "b": 0},
            {"a": 1, "b": 1},
        ]

    def test_intersectional_match(self):
        ds = make_dataset(
            np.zeros((2, 1)),
            [{"a": 0, "b": 1}, {"a": 0, "b": 0}],
            cards={"a": 2, "b": 2},
        )
        stat = cell_indicator({"a": 0, "b": 1})
        assert stat.values(ds).tolist() == [1.0, -1.0]


class TestLinearFit:
    def test_exact_fit(self):
        stat = fit_linear_ls(np.array([[1.0], [2.0]]), np.array([1.0, 2.0]))
        assert stat.params["w"] == pytest.approx([1.0])

    def test_zero_targets(self):
        stat = fit_linear_ls(np.array([[1.0], [2.0]]), np.zeros(2))
        assert stat.params["w"] == pytest.approx([0.0])

    def test_matches_normal_equations(self, rng):
        # independent oracle: solve X'Xw = X'y directly
        X = rng.standard_normal((6, 2))
        y = rng.standard_normal(6)
        w_ref = np.linalg.solve(X.T @ X, X.T @ y)
        stat = fit_linear_ls(X, y)
        assert stat.params["w"] == pytest.approx(w_ref, abs=1e-9)

    def test_residual_orthogonal_to_columns(self, rng):
        X = rng.standard_normal((10, 3))
        y = rng.standard_normal(10)
        w = fit_linear_ls(X, y).params["w"]
        assert np.max(np.abs(X.T @ (X @ w - y))) < 1e-8

    def test_evaluate_linear(self):
        ds = make_dataset([[3.0, 5.0]])
        stat = RepStatistic("linear", {"w": np.array([2.0, 0.0])}, "embedding")
        assert stat.values(ds)[0] == 6.0


class TestTreeFit:
    def test_constant_targets_single_leaf(self, rng):
        X = rng.standard_normal((5, 2))
        stat = fit_tree(X, np.full(5, 0.7), 3, "embedding")
        root = stat.params["root"]
        assert root.is_leaf
        assert root.value == pytest.approx(0.7)
        assert stat.values_from_features(X) == pytest.approx(np.full(5, 0.7))

    def test_perfect_threshold_split(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([-1.0, -1.0, 1.0, 1.0])
        stat = fit_tree(X, y, 1, "embedding")
        pred = stat.values_from_features(X)
        assert float(np.mean((pred - y) ** 2)) == 0.0
        assert stat.params["root"].threshold == pytest.approx(1.5)

    def test_depth_limit_respected(self, rng):
        X = rng.standard_normal((40, 3))
        y = rng.standard_normal(40)
        stat = fit_tree(X, y, 2, "embedding")
        assert stat.params["root"].depth() <= 2

    def test_mse_non_increasing_in_depth(self, rng):
        X = rng.standard_normal((60, 2))
        y = rng.standard_normal(60)
        prev = np.inf
        for depth in (1, 2, 3, 4):
            pred = fit_tree(X, y, depth, "embedding").values_from_features(X)
            mse = float(np.mean((pred - y) ** 2))
            assert mse <= prev + 1e-12
            prev = mse

    def test_matches_exhaustive_best_split(self, rng):
        # oracle: try every (feature, midpoint) split at depth 1 by brute force
        X = rng.standard_normal((12, 2))
        y = rng.standard_normal(12)
        best_sse = np.inf
        for j in range(2):
            vals = np.unique(X[:, j])
            for lo, hi in zip(vals[:-1], vals[1:]):
                thr = 0.5 * (lo + hi)
                left, right = y[X[:, j] <= thr], y[X[:, j] > thr]
                sse = np.sum((left - left.mean()) ** 2) + np.sum(
                    (right - right.mean()) ** 2
                )
                best_sse = min(best_sse, sse)
        pred = fit_tree(X, y, 1, "embedding").values_from_features(X)
        assert float(np.sum((pred - y) ** 2)) == pytest.approx(best_sse)

    def test_adjacent_floats_split_apart(self):
        # the midpoint of two adjacent floats rounds up to the upper one, which
        # as a threshold would send both rows left and leave a NaN right leaf
        u = np.spacing(1.0)
        X = np.array([[1.0 + u], [1.0 + 2.0 * u]])
        stat = fit_tree(X, np.array([0.0, 1.0]), 1, "embedding")
        root = stat.params["root"]
        assert not np.isnan([root.left.value, root.right.value]).any()
        assert stat.values_from_features(X).tolist() == [0.0, 1.0]

    def test_depth_zero_node_predicts_value(self):
        node = TreeNode(value=0.25)
        assert node.predict(np.zeros((3, 2))).tolist() == [0.25] * 3


# The per-column CART that fit_tree replaced: it argsorts every column at
# every node.  fit_tree presorts once and must build the same trees bit for bit.
def reference_best_split(X, y):
    best = None
    n = y.size
    for j in range(X.shape[1]):
        order = np.argsort(X[:, j], kind="stable")
        xs = X[order, j]
        ys = y[order]
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
        pick = int(np.argmin(sse))
        score = float(sse[pick])
        if best is None or score < best[2]:
            pos = boundaries[pick]
            best = (j, 0.5 * (xs[pos] + xs[pos + 1]), score)
    return best


def reference_tree(X, y, depth_left):
    if depth_left == 0 or y.size < 2 or np.ptp(y) == 0.0:
        return TreeNode(value=float(np.mean(y)))
    split = reference_best_split(X, y)
    if split is None:
        return TreeNode(value=float(np.mean(y)))
    j, thr, _ = split
    go_left = X[:, j] <= thr
    return TreeNode(
        feature=j,
        threshold=thr,
        left=reference_tree(X[go_left], y[go_left], depth_left - 1),
        right=reference_tree(X[~go_left], y[~go_left], depth_left - 1),
    )


def reference_predict(node, X):
    if node.is_leaf:
        return np.full(X.shape[0], node.value)
    go_left = X[:, node.feature] <= node.threshold
    out = np.empty(X.shape[0])
    out[go_left] = reference_predict(node.left, X[go_left])
    out[~go_left] = reference_predict(node.right, X[~go_left])
    return out


@st.composite
def tree_problems(draw):
    """Feature columns of several kinds, targets and a depth limit."""
    n = draw(st.integers(2, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = []
    for kind in draw(st.lists(st.sampled_from(["one-hot", "continuous", "small-int",
                                               "constant"]), min_size=1, max_size=4)):
        if kind == "one-hot":
            columns.append(np.eye(3)[rng.integers(0, 3, n)])
        elif kind == "continuous":
            columns.append(rng.standard_normal((n, 1)) * 10.0 ** int(rng.integers(-3, 4)))
        elif kind == "small-int":
            columns.append(rng.integers(-2, 3, (n, 1)).astype(float))
        else:
            columns.append(np.full((n, 1), float(rng.integers(-2, 3))))
    target = draw(st.sampled_from(["continuous", "small-int", "signed-weights", "constant"]))
    if target == "continuous":
        y = rng.standard_normal(n)
    elif target == "small-int":
        y = rng.integers(-3, 4, n) / 7.0
    elif target == "signed-weights":
        y = np.where(rng.random(n) < 0.3, 1.0 / 20, 0.0) - np.where(rng.random(n) < 0.5, 1 / 500, 0)
    else:
        y = np.full(n, 0.3)
    return np.hstack(columns), y, draw(st.integers(1, 5))


class TestTreeFitMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(tree_problems(), st.one_of(st.just(statclasses._BLOCK_ELEMS), st.integers(1, 60)))
    def test_same_tree_and_values_bit_for_bit(self, problem, block_elems):
        # a small block size scores the columns over several blocks
        X, y, depth = problem
        with mock.patch.object(statclasses, "_BLOCK_ELEMS", block_elems):
            stat = fit_tree(X, y, depth, "embedding")
        ref = reference_tree(X, y, depth)
        assert stat.to_dict()["params"]["root"] == ref.to_dict()
        assert np.array_equal(stat.values_from_features(X), reference_predict(ref, X))

    def test_tie_goes_to_lower_feature_then_lower_threshold(self):
        # columns 0 and 1 are identical, and splitting at 0.5 or 1.5 gives the same SSE
        X = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
        root = fit_tree(X, np.array([0.0, 1.0, 0.0]), 1, "embedding").params["root"]
        assert (root.feature, root.threshold) == (0, 0.5)

    @pytest.mark.parametrize("X, y, shapes", [
        (np.zeros((3, 2)), np.zeros(4), "(3, 2), (4,)"),
        (np.zeros(3), np.zeros(3), "(3,), (3,)"),
        (np.zeros((3, 2)), np.zeros((3, 1)), "(3, 2), (3, 1)"),
    ])
    def test_shape_errors_name_both_sizes(self, X, y, shapes):
        with pytest.raises(ValueError, match=re.escape(shapes)):
            fit_tree(X, y, 2)


def distinct_rows(X):
    """Distinct rows of X and the index mapping each row of X to its copy."""
    U, inverse = np.unique(X, axis=0, return_inverse=True)
    return U, inverse.reshape(-1)


@st.composite
def grouped_problems(draw):
    """Distinct rows U, an inverse index over them, targets and a depth limit."""
    X, y, depth = draw(tree_problems())
    U, inverse = distinct_rows(X)
    return U, inverse, y, depth


class TestGroupedFits:
    """A fit on distinct rows with an inverse index against the plain fit on
    the expanded rows ``U[inverse]``."""

    @settings(max_examples=100, deadline=None)
    @given(grouped_problems())
    # exact fits of zero, each w rounding noise: +-8.6e-18 against 0, and
    # +8.6e-18 against -8.6e-18
    @example((np.array([[1.0]]), np.array([0, 0]), np.array([-1.0, 1.0]) / 7.0, 1))
    @example((np.array([[-2.0], [2.0]]), np.array([1, 0]), np.array([0.3, 0.3]), 1))
    def test_linear_matches_expanded_rows(self, problem):
        U, inverse, y, _ = problem
        U = np.hstack([U, U[:, :1]])  # a repeated column: the minimum-norm w is the one wanted
        X = U[inverse]
        grouped = fit_linear_ls(FeatureGroups(U, inverse), y, "embedding").params["w"]
        full = fit_linear_ls(X, y, "embedding").params["w"]
        scale = np.abs(y).max()
        assert np.allclose(X @ grouped, X @ full, rtol=1e-9, atol=1e-9 * scale)
        if np.abs(X @ full).max() <= 1e-12 * scale:
            # the exact fit is zero (y constant against columns that cancel, or
            # summing to zero in every group), so each w is rounding noise with
            # no scale of its own: compare it at y's
            assert np.allclose(grouped, full, rtol=0.0, atol=1e-12 * scale)
        else:
            assert np.allclose(grouped, full, rtol=1e-8, atol=1e-8 * np.abs(full).max())

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 16), st.integers(0, 500))
    def test_mlp_matches_expanded_rows(self, seed, hidden, epochs):
        # the gradients sum the same terms in another order; over 1500 random
        # labels-view instances, predictions differed by at most 1e-11 of the
        # larger of the target and prediction scales
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 200))
        d_r, _ = random_pair(rng, n, 2, 1, n_groups=int(rng.integers(2, 5)))
        X = feature_matrix(d_r, "labels")
        y = rng.standard_normal(n) * 0.1
        U, inverse = distinct_rows(X)
        grouped = fit_mlp(FeatureGroups(U, inverse), y, hidden, epochs=epochs, seed=seed % 7)
        full = fit_mlp(X, y, hidden, epochs=epochs, seed=seed % 7)
        p_grouped, p_full = grouped.values_from_features(X), full.values_from_features(X)
        scale = max(np.abs(y).max(), np.abs(p_full).max())
        assert np.abs(p_grouped - p_full).max() <= 1e-10 * scale

    @settings(max_examples=50, deadline=None)
    @given(grouped_problems())
    def test_tree_sorts_once_per_groups(self, problem):
        U, inverse, y, depth = problem
        groups, X = FeatureGroups(U, inverse), U[inverse]
        targets = (y, 1.0 - 2.0 * y[::-1])
        sorts = []
        argsort = np.argsort

        def counting(*args, **kwargs):
            sorts.append(args)
            return argsort(*args, **kwargs)

        with mock.patch.object(np, "argsort", counting):
            fits = [fit_tree(groups, t, depth, "embedding") for t in targets]
        assert len(sorts) == 1
        stacked, order = groups.presort()
        assert np.array_equal(stacked, X)
        assert np.array_equal(order, argsort(X.T, axis=1, kind="stable"))
        for fit, t in zip(fits, targets):
            assert fit.to_dict() == fit_tree(X, t, depth, "embedding").to_dict()


class TestFeatureGroups:
    U = np.array([[0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])

    def test_inverse_must_cover_the_rows(self):
        with pytest.raises(ValueError, match="each of the 3 rows"):
            FeatureGroups(self.U, np.array([0, 1, 1]))  # skips row 2
        with pytest.raises(ValueError, match="each of the 3 rows"):
            FeatureGroups(self.U, np.array([0, 1, 3]))  # points past the rows

    @pytest.mark.parametrize("fit", [
        lambda groups, y: groups.sums(y),
        lambda groups, y: fit_linear_ls(groups, y, "embedding"),
        lambda groups, y: fit_tree_exact(groups, y, 2, "labels"),
        lambda groups, y: fit_mlp(groups, y, 2, epochs=1, feature_view="embedding"),
    ], ids=["sums", "linear", "tree", "mlp"])
    def test_sums_need_one_value_per_stack_row(self, fit):
        groups = FeatureGroups(self.U, np.array([0, 1, 2, 2]))
        with pytest.raises(ValueError, match="one entry per target"):
            fit(groups, np.zeros(3))
        assert groups.counts.tolist() == [1, 1, 2]
        assert groups.sums([1.0, 2.0, 3.0, 4.0]).tolist() == [1.0, 2.0, 7.0]

    @pytest.mark.parametrize("inverse", [[0, 1, 2], [2, 0, 1]])
    def test_rows_are_not_copied_when_none_repeats(self, inverse):
        groups = FeatureGroups(self.U, np.array(inverse))
        assert groups.weighted_rows() is self.U
        assert (groups.stack() is self.U) == (inverse == [0, 1, 2])
        assert np.array_equal(groups.stack(), self.U[inverse])
        assert FeatureGroups.of(groups) is groups and FeatureGroups.of(self.U).rows is self.U

    def test_weighted_rows_have_the_stacks_gram_matrix(self):
        groups = FeatureGroups(np.array([[1.0, 2.0], [0.0, 3.0]]), np.array([0, 1, 0, 0]))
        W, X = groups.weighted_rows(), groups.stack()
        assert np.allclose(W.T @ W, X.T @ X, rtol=1e-15, atol=0.0)


def cell_rows(cards):
    """One-hot rows of every cell of a label schema with these cardinalities."""
    return one_hot(np.array(list(itertools.product(*map(range, cards)))), list(cards))


def reachable_row_sets(X, depth):
    """Every set of rows that a node of a depth-<=depth tree on X's 0/1 columns
    holds, found by walking every such tree."""
    found = set()

    def walk(rows, d):
        found.add(rows)
        for j in range(X.shape[1]) if d else ():
            left = frozenset(i for i in rows if X[i, j] == 0)
            if left and left != rows:
                walk(left, d - 1)
                walk(rows - left, d - 1)

    walk(frozenset(range(len(X))), depth)
    return found


def first_reached(X, depth):
    """The shallowest tree level at which a node holds each row set that
    trees of depth <= depth on X's 0/1 columns reach."""
    level = {frozenset(range(len(X))): 0}
    frontier = list(level)
    for d in range(1, depth + 1):
        reached = []
        for rows in frontier:
            for j in range(X.shape[1]):
                zero = frozenset(i for i in rows if X[i, j] == 0)
                for side in (zero, rows - zero) if zero and zero != rows else ():
                    if side not in level:
                        level[side] = d
                        reached.append(side)
        frontier = reached
    return level


@st.composite
def zero_one_rows(draw):
    """A 0/1 matrix of 1-10 rows, which may repeat, whose columns may be
    constant, all zero or copies of one another, and a depth limit."""
    n = draw(st.integers(1, 10))
    columns = []
    for kind in draw(st.lists(st.sampled_from(["bits", "zeros", "ones", "copy"]), max_size=6)):
        if kind == "copy" and columns:
            columns.append(columns[draw(st.integers(0, len(columns) - 1))])
        elif kind in ("zeros", "ones"):
            columns.append([float(kind == "ones")] * n)
        else:
            columns.append([float(v) for v in draw(st.lists(st.booleans(), min_size=n, max_size=n))])
    X = np.array(columns).reshape(len(columns), n).T
    repeat = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=10))
    return X[repeat], draw(st.integers(1, 4))


@st.composite
def label_rows(draw):
    """One-hot rows of random cells of a random schema (rows may repeat),
    targets and a depth limit."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cards = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    n = draw(st.integers(1, 60))
    X = one_hot(np.stack([rng.integers(0, c, n) for c in cards], axis=1), cards)
    k, m = int(rng.integers(1, 20)), int(rng.integers(1, 40))
    y = np.where(rng.random(n) < 0.4, 1.0 / k, 0.0) - np.where(rng.random(n) < 0.6, 1.0 / m, 0.0)
    return X, y, draw(st.integers(1, 4))


class TestExactTreeFit:
    @pytest.mark.parametrize("cards, depth, blocks", [
        ((2, 4), 3, 45), ((2, 3, 4), 3, 243), ((2, 2), 1, 5), ((3,), 4, 7), ((2, 3), 2, None),
        ((1, 3, 2), 3, None), ((4, 4), 2, None),
    ])
    def test_blocks_are_the_reachable_row_sets_once_each(self, cards, depth, blocks):
        X = cell_rows(cards)
        table = TreeBlocks.build(X, depth)
        sets = [frozenset(table.members[table.block_of == b].tolist())
                for b in range(table.n_blocks)]
        assert sets[0] == frozenset(range(len(X)))
        assert len(set(sets)) == len(sets) == (blocks or len(sets))
        assert set(sets) == reachable_row_sets(X, depth)
        for b, j in zip(*np.nonzero(table.left >= 0)):
            zero = frozenset(i for i in sets[b] if X[i, j] == 0)
            assert (sets[table.left[b, j]], sets[table.right[b, j]]) == (zero, sets[b] - zero)

    @settings(max_examples=300, deadline=None)
    @given(zero_one_rows())
    def test_any_zero_one_rows_give_the_reachable_row_sets(self, problem):
        X, depth = problem
        table = TreeBlocks.build(X, depth)
        sets = [frozenset(table.members[table.block_of == b].tolist())
                for b in range(table.n_blocks)]
        assert sets[0] == frozenset(range(len(X)))
        assert len(set(sets)) == len(sets)
        assert set(sets) == reachable_row_sets(X, depth)
        if X.shape[1] == 0:  # the constant column that stands in for none
            X = np.zeros((len(X), 1))
        level = first_reached(X, depth)
        assert table.left.shape == table.right.shape == (len(sets), X.shape[1])
        for b, j in itertools.product(range(len(sets)), range(X.shape[1])):
            zero = frozenset(i for i in sets[b] if X[i, j] == 0)
            if zero and zero != sets[b] and level[sets[b]] < depth:
                assert (sets[table.left[b, j]], sets[table.right[b, j]]) == (zero, sets[b] - zero)
            else:
                assert table.left[b, j] == table.right[b, j] == -1

    @settings(max_examples=200, deadline=None)
    @given(label_rows())
    def test_grouped_rows_and_every_row_pick_the_same_tree(self, problem):
        X, y, depth = problem
        U, inverse = distinct_rows(X)
        grouped = fit_tree_exact(FeatureGroups(U, inverse), y, depth)
        full = fit_tree_exact(X, y, depth)
        assert grouped.params["root"].depth() <= depth
        scale = np.abs(y).max()
        assert np.allclose(grouped.values_from_features(X), full.values_from_features(X),
                           rtol=0.0, atol=1e-12 * scale)

        def shape(node):
            return None if node.is_leaf else (node.feature, shape(node.left), shape(node.right))

        assert shape(grouped.params["root"]) == shape(full.params["root"])

    @settings(max_examples=100, deadline=None)
    @given(label_rows())
    def test_negated_targets_give_the_negated_tree(self, problem):
        X, y, depth = problem
        plus = fit_tree_exact(X, y, depth).values_from_features(X)
        assert np.array_equal(fit_tree_exact(X, -y, depth).values_from_features(X), -plus)

    def test_leaves_hold_block_means_and_split_at_one_half(self):
        # cells (g, h) of a 2 x 2 schema; the targets depend on g alone
        X = cell_rows((2, 2))[[0, 0, 1, 2, 3, 3]]
        y = np.array([1.0, 1.0, 1.0, -2.0, -2.0, -2.0])
        root = fit_tree_exact(X, y, 3).params["root"]
        assert (root.feature, root.threshold) == (0, 0.5)
        assert (root.left.value, root.right.value) == (-2.0, 1.0)

    def test_tied_splits_go_to_the_lowest_column(self):
        # g's two columns make the same split, mirrored; a tree of depth 1
        # can split off either h cell, which ties too
        X = cell_rows((2,))
        assert fit_tree_exact(X, np.array([1.0, -1.0]), 1).params["root"].feature == 0
        X = cell_rows((1, 2))
        assert fit_tree_exact(X, np.array([1.0, -1.0]), 1).params["root"].feature == 1

    def test_rows_without_columns_are_one_leaf(self):
        # a labels view without label axes: every row is the one empty cell
        root = fit_tree_exact(np.zeros((3, 0)), np.array([1.0, 2.0, 6.0]), 2).params["root"]
        assert root.is_leaf and root.value == 3.0

    def test_rejects_what_it_cannot_fit(self):
        X = cell_rows((2, 2))
        with pytest.raises(ValueError, match="0/1 feature columns"):
            fit_tree_exact(X * 0.5, np.zeros(4), 2)
        with pytest.raises(ValueError, match="depth_limit"):
            fit_tree_exact(X, np.zeros(4), 0)
        with pytest.raises(ValueError, match="targets"):
            fit_tree_exact(X, np.zeros(5), 2)


class TestMlpFit:
    def test_deterministic(self, rng):
        X = rng.standard_normal((10, 3))
        y = rng.standard_normal(10)
        s1 = fit_mlp(X, y, 4, epochs=50, seed=7, feature_view="embedding")
        s2 = fit_mlp(X, y, 4, epochs=50, seed=7, feature_view="embedding")
        assert np.array_equal(s1.params["W1"], s2.params["W1"])
        assert np.array_equal(s1.params["W2"], s2.params["W2"])

    def test_learns_linear_targets(self, rng):
        X = rng.standard_normal((20, 2))
        y = X @ np.array([1.0, -0.5])
        init = fit_mlp(X, y, 8, epochs=0, seed=3, feature_view="embedding")
        final = fit_mlp(X, y, 8, epochs=2000, seed=3, feature_view="embedding")
        mse0 = float(np.mean((init.values_from_features(X) - y) ** 2))
        mse1 = float(np.mean((final.values_from_features(X) - y) ** 2))
        assert mse1 <= 0.1 * mse0

    def test_divergence_reported(self, rng):
        X = rng.standard_normal((10, 3)) * 10
        y = rng.standard_normal(10)
        with pytest.raises(FloatingPointError, match="non-finite"):
            fit_mlp(X, y, 8, epochs=500, step_size=50.0, seed=0,
                    feature_view="embedding")

    @pytest.mark.parametrize("hidden, epochs, message", [
        (0, 10, "hidden must be >= 1"), (8, -1, "epochs must be >= 0")])
    def test_out_of_range_sizes_rejected(self, hidden, epochs, message):
        with pytest.raises(ValueError, match=message):
            fit_mlp(np.ones((3, 2)), np.zeros(3), hidden, epochs=epochs)


class TestNormalization:
    def test_scale_formula(self):
        # context norm 2 with m = k = 2 gives scale 1/2
        d_r = label_ds([0, 1], 2, prefix="r")
        d_c = label_ds([0, 1], 2, prefix="c")
        stat = cell_indicator({"g": 0})  # values are +-1, norm = 2
        norm = normalize_to_cprime(stat, d_r, d_c, k=2)
        assert norm.scale == pytest.approx(0.5)
        assert norm.context_norm == pytest.approx(2.0)

    def test_normalized_context_sum(self, rng):
        d_r, d_c = random_pair(rng, 8, 5, 3)
        stat = fit_linear_ls(rng.standard_normal((4, 3)), rng.standard_normal(4),
                             "embedding")
        k = 4
        norm = normalize_to_cprime(stat, d_r, d_c, k)
        ctx = np.concatenate([norm.values(d_r), norm.values(d_c)])
        assert float(np.sum(ctx**2)) == pytest.approx(target_norm(5, k) ** 2)

    def test_idempotent_scale(self, rng):
        d_r, d_c = random_pair(rng, 6, 4, 2)
        stat = RepStatistic("linear", {"w": rng.standard_normal(2)}, "embedding")
        once = normalize_to_cprime(stat, d_r, d_c, 3)
        scaled = RepStatistic("linear", {"w": once.scale * stat.params["w"]},
                              "embedding")
        again = normalize_to_cprime(scaled, d_r, d_c, 3)
        assert again.scale == pytest.approx(1.0, abs=1e-12)

    def test_zero_statistic_rejected(self, rng):
        d_r, d_c = random_pair(rng, 4, 4, 2)
        stat = RepStatistic("linear", {"w": np.zeros(2)}, "embedding")
        with pytest.raises(DegenerateStatisticError):
            normalize_to_cprime(stat, d_r, d_c, 2)

    @settings(max_examples=25, deadline=None)
    @given(st.floats(min_value=0.01, max_value=50))
    def test_quotients_out_scalar_multiplication(self, alpha):
        rng = np.random.default_rng(11)
        d_r, d_c = random_pair(rng, 6, 4, 2)
        w = rng.standard_normal(2)
        base = RepStatistic("linear", {"w": w}, "embedding")
        scaled = RepStatistic("linear", {"w": alpha * w}, "embedding")
        n1 = normalize_to_cprime(base, d_r, d_c, 3)
        n2 = normalize_to_cprime(scaled, d_r, d_c, 3)
        assert n1.values(d_r) == pytest.approx(n2.values(d_r), abs=1e-10)


class TestSerialization:
    def test_indicator_to_dict(self):
        stat = cell_indicator({"g": 1})
        assert stat.to_dict() == {
            "kind": "indicator",
            "params": {"cell": {"g": 1}},
            "feature_view": "labels",
        }

    def test_tree_to_dict_round_structure(self):
        X = np.array([[0.0], [1.0]])
        stat = fit_tree(X, np.array([-1.0, 1.0]), 1, "embedding")
        doc = stat.to_dict()
        assert doc["kind"] == "tree"
        assert "threshold" in doc["params"]["root"]

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            RepStatistic("fourier", {}, "labels")
