"""Cosine similarity, exact top-k retrieval, and query-conditioned curation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from mopr.datamodel import Dataset, Query


@dataclass(frozen=True)
class Selection:
    """Binary selection of exactly k items from a retrieval pool of size n."""

    indicator: np.ndarray
    k: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"a selection holds at least one item, got k={self.k}")
        raw = np.asarray(self.indicator)
        if not np.all((raw == 0) | (raw == 1)):
            raise ValueError("indicator must be binary")
        ind = raw.astype(int)
        if int(ind.sum()) != self.k:
            raise ValueError(f"indicator has {int(ind.sum())} ones, expected k={self.k}")
        object.__setattr__(self, "indicator", ind)

    @property
    def indices(self) -> np.ndarray:
        return np.flatnonzero(self.indicator)


def cosine_similarity(u: np.ndarray, v: np.ndarray) -> float:
    """Cosine of the angle between u and v, clamped to [-1, 1]."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    for name, x in (("u", u), ("v", v)):
        if not np.isfinite(x).all():
            j = int(np.flatnonzero(~np.isfinite(x))[0])
            raise ValueError(f"{name}[{j}]={x.flat[j]} is not finite")
    nu = np.linalg.norm(u)
    nv = np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        raise ValueError("cosine similarity undefined for zero-norm vector")
    return float(np.clip(np.dot(u, v) / (nu * nv), -1.0, 1.0))


def similarity_vector(dataset: Dataset, q: Query) -> np.ndarray:
    """Cosine similarity of every item to the query, in item order.  The
    dataset's row norms are computed once per dataset (``Dataset.row_norms``)."""
    emb = dataset.embeddings
    if np.shape(q.embedding) != emb.shape[1:]:
        raise ValueError(
            f"query has dimension {np.size(q.embedding)}, "
            f"but the dataset's embeddings have dimension {emb.shape[1]}"
        )
    if not np.isfinite(q.embedding).all():
        j = int(np.flatnonzero(~np.isfinite(q.embedding))[0])
        raise ValueError(f"query {q.id!r}: embedding e{j}={q.embedding[j]} is not finite")
    qn = np.linalg.norm(q.embedding)
    if qn == 0.0 or dataset.has_zero_row:
        raise ValueError("cosine similarity undefined for zero-norm vector")
    return np.clip(emb @ q.embedding / (dataset.row_norms * qn), -1.0, 1.0)


def top_k_indices(scores: np.ndarray, k: int) -> np.ndarray:
    """The k largest scores' indices, ascending; ties go to the lower index."""
    order = np.argsort(-scores, kind="stable")
    return np.sort(order[:k])


def top_k(dataset: Dataset, q: Query, k: int) -> tuple[Selection, np.ndarray]:
    """Select the k most query-similar items; ties go to the lower index."""
    n = len(dataset)
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range [1, {n}]")
    scores = similarity_vector(dataset, q)
    indicator = np.zeros(n, dtype=int)
    indicator[top_k_indices(scores, k)] = 1
    return Selection(indicator, k), scores


def condition_curation(curated: Dataset, q: Query, pool_size: int) -> Dataset:
    """Keep the ``pool_size`` curated items most similar to the query.

    Survivors keep their original relative order.
    """
    if pool_size < 1:
        raise ValueError("pool_size must be >= 1")
    if pool_size >= len(curated):
        return curated
    scores = similarity_vector(curated, q)
    keep = top_k_indices(scores, pool_size)
    return curated.subset(keep)
