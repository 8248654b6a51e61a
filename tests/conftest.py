"""Shared fixtures and small dataset builders for the test suite."""

import numpy as np
import pytest
from scipy.optimize import linprog

from mopr.datamodel import Dataset, DatasetSchema, Query


def make_dataset(embeddings, labels=None, cards=None, role="retrieval", prefix="x"):
    """Dataset from a (n, d) array and optional per-item label dicts."""
    embeddings = np.asarray(embeddings, dtype=float)
    n, d = embeddings.shape
    if labels is None:
        labels = [{} for _ in range(n)]
        cards = cards or {}
    elif cards is None:
        cards = {}
        for lab in labels:
            for name, code in lab.items():
                cards[name] = max(cards.get(name, 0), code + 1)
    names = sorted(cards)
    label_matrix = np.array([[lab[name] for name in names] for lab in labels], dtype=np.int64)
    return Dataset([f"{prefix}{i}" for i in range(n)], embeddings, label_matrix,
                   DatasetSchema(d=d, label_cards=cards), role)


def random_pair(rng, n, m, d, n_groups=2):
    """Random retrieval/curated datasets sharing one label axis."""
    d_r = make_dataset(
        rng.standard_normal((n, d)),
        [{"g": int(rng.integers(n_groups))} for _ in range(n)],
        cards={"g": n_groups},
        prefix="r",
    )
    d_c = make_dataset(
        rng.standard_normal((m, d)),
        [{"g": int(rng.integers(n_groups))} for _ in range(m)],
        cards={"g": n_groups},
        role="curated",
        prefix="c",
    )
    return d_r, d_c


def scipy_reference(s, cuts, k):
    """Independent LP oracle via scipy (HiGHS): max s.a over [0, 1]^n, with
    sum(a) = k and every cut row."""
    n = s.size
    A_ub, b_ub = [], []
    for cut in cuts:
        A_ub += [cut.coefficients, -cut.coefficients]
        b_ub += [cut.offset + cut.bound, -(cut.offset - cut.bound)]
    res = linprog(
        -s,
        A_ub=np.array(A_ub) if A_ub else None,
        b_ub=np.array(b_ub) if b_ub else None,
        A_eq=np.ones((1, n)),
        b_eq=[k],
        bounds=[(0, 1)] * n,
        method="highs",
    )
    return res


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def unit_query():
    return Query("q", np.array([1.0, 0.0, 0.0]))


def trees_agree(a, b, X, y, rows=None, rel=1e-12):
    """Whether trees ``a`` and ``b``, fitted to rows of X with targets y, make
    the same splits (children may be mirrored) with leaf values equal to
    ``rel``.  Returns False if they first part at a node where both splits
    have the same SSE to ``rel``, a tie that rounding decides; any other
    difference fails an assertion."""
    rows = np.ones(len(y), dtype=bool) if rows is None else rows
    if a.is_leaf or b.is_leaf:
        assert a.is_leaf and b.is_leaf, "one tree splits where the other stops"
        assert a.value == pytest.approx(b.value, rel=rel, abs=rel * np.abs(y).max())
        return True
    left_a = rows & (X[:, a.feature] <= a.threshold)
    left_b = rows & (X[:, b.feature] <= b.threshold)
    if np.array_equal(left_a, left_b):
        pairs = ((a.left, b.left, left_a), (a.right, b.right, rows & ~left_a))
    elif np.array_equal(left_a, rows & ~left_b):
        pairs = ((a.left, b.right, left_a), (a.right, b.left, rows & ~left_a))
    else:
        def sse(left):
            return sum(float(np.sum((y[part] - y[part].mean()) ** 2))
                       for part in (left, rows & ~left))
        assert sse(left_a) == pytest.approx(sse(left_b), rel=rel, abs=rel * float(np.sum(y**2)))
        return False
    # both halves are compared even when the first already parted at a tie
    return all([trees_agree(p, q, X, y, part, rel) for p, q, part in pairs])
