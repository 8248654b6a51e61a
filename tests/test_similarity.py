from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_dataset
from mopr.datamodel import Query
from mopr.similarity import (
    Selection,
    condition_curation,
    cosine_similarity,
    similarity_vector,
    top_k,
)

finite_vec = st.lists(
    st.floats(min_value=-100, max_value=100), min_size=3, max_size=3
).filter(lambda v: np.linalg.norm(v) > 1e-6)


class TestCosine:
    def test_identical(self):
        assert cosine_similarity([1.0, 0.0], [1.0, 0.0]) == 1.0

    def test_orthogonal(self):
        assert cosine_similarity([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_45_degrees(self):
        assert cosine_similarity([1.0, 1.0], [1.0, 0.0]) == pytest.approx(
            1 / np.sqrt(2)
        )

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError, match="zero-norm"):
            cosine_similarity([0.0, 0.0], [1.0, 0.0])

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_rejected(self, value):
        with pytest.raises(ValueError, match=rf"^u\[0\]={value} is not finite$"):
            cosine_similarity([value, 1.0], [1.0, 0.0])
        with pytest.raises(ValueError, match=rf"^v\[1\]={value} is not finite$"):
            cosine_similarity([1.0, 0.0], [1.0, value])

    @settings(max_examples=50, deadline=None)
    @given(finite_vec, finite_vec,
           st.floats(min_value=0.01, max_value=100),
           st.floats(min_value=0.01, max_value=100))
    def test_scale_invariance_and_symmetry(self, u, v, alpha, beta):
        u, v = np.array(u), np.array(v)
        base = cosine_similarity(u, v)
        assert cosine_similarity(alpha * u, beta * v) == pytest.approx(base, abs=1e-9)
        assert cosine_similarity(v, u) == pytest.approx(base, abs=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(finite_vec, finite_vec)
    def test_range(self, u, v):
        assert -1.0 <= cosine_similarity(np.array(u), np.array(v)) <= 1.0


class TestSelection:
    def test_indices(self):
        sel = Selection(np.array([0, 1, 1, 0]), 2)
        assert sel.indices.tolist() == [1, 2]

    def test_wrong_count_rejected(self):
        with pytest.raises(ValueError, match="expected k"):
            Selection(np.array([1, 1, 0]), 1)

    def test_non_binary_rejected(self):
        with pytest.raises(ValueError, match="binary"):
            Selection(np.array([0.5, 0.5]), 1)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one item"):
            Selection(np.zeros(3, dtype=int), 0)


class TestTopK:
    def test_direct_sort(self):
        ds = make_dataset([[0.9, 0.1], [0.1, 0.9], [0.5, 0.5]])
        sel, scores = top_k(ds, Query("q", np.array([1.0, 0.0])), 2)
        assert sel.indicator.tolist() == [1, 0, 1]

    def test_tie_to_lower_index(self):
        ds = make_dataset([[1.0, 0.0], [2.0, 0.0], [0.0, 1.0]])
        sel, _ = top_k(ds, Query("q", np.array([1.0, 0.0])), 1)
        assert sel.indicator.tolist() == [1, 0, 0]

    def test_k_equals_n(self):
        ds = make_dataset(np.eye(3))
        sel, _ = top_k(ds, Query("q", np.array([1.0, 1.0, 1.0])), 3)
        assert sel.indicator.tolist() == [1, 1, 1]

    def test_k_out_of_range(self):
        ds = make_dataset(np.eye(2))
        with pytest.raises(ValueError, match="out of range"):
            top_k(ds, Query("q", np.array([1.0, 0.0])), 3)

    def test_maximizes_over_all_subsets(self, rng):
        # brute-force oracle on a small pool
        n, k = 10, 4
        ds = make_dataset(rng.standard_normal((n, 3)))
        q = Query("q", rng.standard_normal(3))
        sel, scores = top_k(ds, q, k)
        best = max(sum(scores[list(c)]) for c in combinations(range(n), k))
        assert float(scores[sel.indices].sum()) == pytest.approx(best)

    def test_similarity_vector_matches_scalar(self, rng):
        ds = make_dataset(rng.standard_normal((6, 3)))
        q = Query("q", rng.standard_normal(3))
        vec = similarity_vector(ds, q)
        for i in range(6):
            assert vec[i] == pytest.approx(
                cosine_similarity(ds.embeddings[i], q.embedding)
            )

    def test_query_dimension_mismatch_names_both(self, rng):
        ds = make_dataset(rng.standard_normal((6, 3)))
        with pytest.raises(ValueError, match="query has dimension 4.*dimension 3"):
            similarity_vector(ds, Query("q", rng.standard_normal(4)))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_query_rejected(self, rng, value):
        ds = make_dataset(rng.standard_normal((6, 3)))
        with pytest.raises(ValueError, match=rf"^query 'q': embedding e1={value} is not finite$"):
            similarity_vector(ds, Query("q", np.array([1.0, value, 0.0])))


class TestConditionCuration:
    def test_noop_when_pool_large(self, rng):
        ds = make_dataset(rng.standard_normal((5, 3)), role="curated")
        q = Query("q", np.array([1.0, 0.0, 0.0]))
        assert condition_curation(ds, q, 10) is ds

    def test_singleton_argmax(self):
        ds = make_dataset([[0.1, 1.0], [5.0, 0.0], [1.0, 1.0]], role="curated")
        q = Query("q", np.array([1.0, 0.0]))
        out = condition_curation(ds, q, 1)
        assert out.ids == ["x1"]

    def test_order_preserved(self):
        ds = make_dataset([[0.2, 1.0], [0.9, 0.1], [0.8, 0.0], [0.1, 1.0]],
                          role="curated")
        q = Query("q", np.array([1.0, 0.0]))
        out = condition_curation(ds, q, 2)
        assert out.ids == ["x1", "x2"]  # original relative order among survivors
