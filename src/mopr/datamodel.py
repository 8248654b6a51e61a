"""Datasets, queries, synthetic generation, and balanced curation.

A dataset is three row-aligned arrays: n item ids, an (n, d) float64
embedding matrix and an (n, axes) int64 matrix of categorical group labels
(dense integer codes), one column per label axis.  Label names are ordered
lexicographically everywhere, the label columns included, so that serialized
outputs are reproducible.
"""

from __future__ import annotations

import csv
import json
import math
from array import array
from dataclasses import asdict, dataclass, field, replace
from itertools import product
from typing import Sequence

import numpy as np

PROB_SUM_TOL = 1e-9
FLOAT_FMT = "%.17g"


class DataFormatError(ValueError):
    """Raised when an input file violates the dataset CSV schema."""


@dataclass(frozen=True)
class Query:
    id: str
    embedding: np.ndarray


@dataclass(frozen=True)
class DatasetSchema:
    d: int
    label_cards: dict[str, int]

    @property
    def label_names(self) -> list[str]:
        return sorted(self.label_cards)


class Dataset:
    """Ordered, immutable dataset with a consistent schema.

    ``embeddings`` is (n, d) and ``labels`` is (n, axes) with columns in
    ``schema.label_names`` order; the dataset keeps read-only copies of both.
    """

    def __init__(self, ids: Sequence[str], embeddings, labels, schema: DatasetSchema,
                 role: str = "retrieval"):
        if role not in ("retrieval", "curated"):
            raise ValueError(f"unknown role {role!r}")
        ids = tuple(ids)
        n = len(ids)
        if n == 0:
            raise DataFormatError("empty dataset")
        names = schema.label_names
        embeddings = np.array(embeddings, dtype=np.float64)
        labels = np.array(labels, dtype=np.int64)
        if embeddings.shape != (n, schema.d):
            raise DataFormatError(
                f"embeddings have shape {embeddings.shape}, expected {(n, schema.d)}"
            )
        if labels.shape != (n, len(names)):
            raise DataFormatError(f"labels have shape {labels.shape}, expected {(n, len(names))}")
        _, first = np.unique(np.asarray(ids), return_index=True)
        if first.size < n:
            row = int(np.setdiff1d(np.arange(n), first)[0])
            raise DataFormatError(f"duplicate id {ids[row]!r} at row {row + 1}")
        cards = np.array([schema.label_cards[name] for name in names], dtype=np.int64)
        bad = (labels < 0) | (labels >= cards)
        if bad.any():
            row, axis = np.argwhere(bad)[0]
            raise DataFormatError(
                f"row {row + 1}: label {names[axis]}={labels[row, axis]} "
                f"outside cardinality {cards[axis]}"
            )
        embeddings.setflags(write=False)
        labels.setflags(write=False)
        self._ids, self._embeddings, self._labels = ids, embeddings, labels
        self.schema, self.role = schema, role

    def __len__(self) -> int:
        return len(self._ids)

    @property
    def embeddings(self) -> np.ndarray:
        """(n, d) float matrix, rows in item order."""
        return self._embeddings

    @property
    def labels(self) -> np.ndarray:
        """(n, num_axes) int matrix; columns follow lexicographic label-name order."""
        return self._labels

    @property
    def ids(self) -> list[str]:
        return list(self._ids)

    def subset(self, indices: Sequence[int], role: str | None = None) -> "Dataset":
        """New dataset keeping the rows at ``indices``, in that order."""
        indices = np.asarray(indices, dtype=np.intp)
        return Dataset([self._ids[i] for i in indices], self._embeddings[indices],
                       self._labels[indices], self.schema, role or self.role)


def reconcile(d_r: Dataset, d_c: Dataset) -> tuple[Dataset, Dataset]:
    """A retrieval and a curated dataset with the same label cardinalities.

    A CSV implies each axis's cardinality from its largest code, so a category
    that one file lacks is still a category of the other: each axis takes the
    larger of its two cardinalities.  The axis names must match.  A dataset
    whose cardinalities already agree is returned as it is.
    """
    names, other = d_r.schema.label_names, d_c.schema.label_names
    if names != other:
        raise ValueError(f"retrieval labels {names} and curated labels {other} differ")
    cards = {n: max(d_r.schema.label_cards[n], d_c.schema.label_cards[n]) for n in names}
    return tuple(d if d.schema.label_cards == cards else
                 Dataset(d.ids, d.embeddings, d.labels, replace(d.schema, label_cards=cards), d.role)
                 for d in (d_r, d_c))


def _parse_header(header: list[str]) -> tuple[int, list[str]]:
    if not header or header[0] != "id":
        raise DataFormatError("malformed header: first column must be 'id'")
    d = 0
    while 1 + d < len(header) and header[1 + d] == f"e{d}":
        d += 1
    if d == 0:
        raise DataFormatError("malformed header: no embedding columns e0..e{d-1}")
    label_names = []
    for col in header[1 + d:]:
        if not col.startswith("g_") or len(col) <= 2:
            raise DataFormatError(f"malformed header: unexpected column {col!r}")
        label_names.append(col[2:])
    if label_names != sorted(label_names):
        raise DataFormatError("malformed header: label columns must be in sorted order")
    return d, label_names


def load_dataset(path, role: str = "retrieval") -> Dataset:
    """Load a dataset from the CSV format (see :func:`save_dataset`)."""
    ids = []
    # flat buffers of C doubles and int64s: a row costs its numbers and no object
    embeddings, labels = array("d"), array("q")
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataFormatError("empty dataset") from None
        d, label_names = _parse_header(header)
        for row_no, row in enumerate(reader, start=1):
            if len(row) != 1 + d + len(label_names):
                raise DataFormatError(
                    f"row {row_no}: expected {1 + d + len(label_names)} cells, got {len(row)}"
                )
            try:
                embeddings.extend(map(float, row[1:1 + d]))
            except ValueError:
                raise DataFormatError(f"row {row_no}: non-numeric embedding cell") from None
            try:
                labels.extend(map(int, row[1 + d:]))
            except ValueError:
                raise DataFormatError(f"row {row_no}: non-integer label cell") from None
            ids.append(row[0])
    if not ids:
        raise DataFormatError("empty dataset")
    label_matrix = np.frombuffer(labels, dtype=np.int64).reshape(len(ids), len(label_names))
    cards = dict(zip(label_names, (label_matrix.max(axis=0) + 1).tolist()))
    return Dataset(ids, np.frombuffer(embeddings).reshape(len(ids), d), label_matrix,
                   DatasetSchema(d=d, label_cards=cards), role)


def save_dataset(dataset: Dataset, path) -> None:
    """Write a dataset as CSV with 17-significant-digit floats and LF endings."""
    names = dataset.schema.label_names
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["id"] + [f"e{j}" for j in range(dataset.schema.d)] + [f"g_{n}" for n in names])
        for item_id, embedding, labels in zip(dataset.ids, dataset.embeddings, dataset.labels):
            writer.writerow(
                [item_id]
                + [FLOAT_FMT % v for v in embedding.tolist()]
                + [str(code) for code in labels.tolist()]
            )


def load_query(path) -> Query:
    """Load a query from a one-row CSV ``id,e0,...,e{d-1}``."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        row = next(reader, None)
        if header is None or row is None:
            raise DataFormatError("query file must have a header and one data row")
        try:
            emb = np.array([float(v) for v in row[1:]], dtype=float)
        except ValueError:
            raise DataFormatError("non-numeric embedding cell in query file") from None
        return Query(row[0], emb)


def save_query(query: Query, path) -> None:
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["id"] + [f"e{j}" for j in range(query.embedding.size)])
        writer.writerow([query.id] + [FLOAT_FMT % v for v in query.embedding])


@dataclass(frozen=True)
class GroupAxis:
    name: str
    cardinality: int
    retrieval_probs: tuple[float, ...]
    curated_probs: tuple[float, ...]

    def __post_init__(self):
        if self.cardinality < 2:
            raise ValueError(f"axis {self.name!r}: cardinality must be >= 2")
        for probs in (self.retrieval_probs, self.curated_probs):
            if len(probs) != self.cardinality:
                raise ValueError(f"axis {self.name!r}: probability list length mismatch")
            if abs(sum(probs) - 1.0) > PROB_SUM_TOL:
                raise ValueError(f"axis {self.name!r}: probabilities must sum to 1")


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for a reproducible synthetic retrieval/curation pair.

    ``similarity_bias`` maps an axis name to per-category offsets added along
    the query direction, making query similarity correlate with group labels.
    """

    n: int
    m: int
    d: int
    group_axes: tuple[GroupAxis, ...]
    similarity_bias: dict[str, tuple[float, ...]] = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self):
        if self.n < 1 or self.m < 1 or self.d < 1:
            raise ValueError("n, m, d must be positive")
        axis_names = {ax.name for ax in self.group_axes}
        for name, offsets in self.similarity_bias.items():
            if name not in axis_names:
                raise ValueError(f"similarity_bias names unknown axis {name!r}")
            ax = next(a for a in self.group_axes if a.name == name)
            if len(offsets) != ax.cardinality:
                raise ValueError(f"similarity_bias for {name!r} has wrong length")

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "SyntheticSpec":
        payload = json.loads(text)
        axes = tuple(
            GroupAxis(**{**ax, "retrieval_probs": tuple(ax["retrieval_probs"]),
                         "curated_probs": tuple(ax["curated_probs"])})
            for ax in payload["group_axes"]
        )
        bias = {name: tuple(v) for name, v in payload.get("similarity_bias", {}).items()}
        return cls(**{**payload, "group_axes": axes, "similarity_bias": bias})


def generate_synthetic(spec: SyntheticSpec) -> tuple[Dataset, Dataset, Query]:
    """Generate (retrieval pool, curated pool, query), a pure function of the spec.

    Embeddings are base Gaussians plus a per-item bias along the fixed unit
    query direction, so cosine similarity to the emitted query correlates with
    the similarity bias of the item's categories.
    """
    rng = np.random.default_rng(spec.seed)
    qhat = np.zeros(spec.d)
    qhat[0] = 1.0  # the unit query direction
    cards = {ax.name: ax.cardinality for ax in spec.group_axes}
    schema = DatasetSchema(d=spec.d, label_cards=cards)
    axes = sorted(spec.group_axes, key=lambda ax: ax.name)

    def draw(count: int, which: str, prefix: str, role: str) -> Dataset:
        labels = np.empty((count, len(axes)), dtype=np.int64)
        for j, ax in enumerate(axes):
            probs = ax.retrieval_probs if which == "retrieval" else ax.curated_probs
            labels[:, j] = rng.choice(ax.cardinality, size=count, p=np.asarray(probs))
        emb = rng.standard_normal((count, spec.d))
        bias = np.zeros(count)
        for name, offsets in sorted(spec.similarity_bias.items()):
            bias += np.asarray(offsets)[labels[:, schema.label_names.index(name)]]
        emb += bias[:, None] * qhat
        return Dataset([f"{prefix}{i}" for i in range(count)], emb, labels, schema, role)

    retrieval = draw(spec.n, "retrieval", "r", "retrieval")
    curated = draw(spec.m, "curated", "c", "curated")
    return retrieval, curated, Query("q0", qhat)


def build_balanced_curation(group_axes: dict[str, int], size: int) -> Dataset:
    """Curation dataset with every intersectional cell equally represented.

    Embeddings are one-hot label encodings, so label statistics and embedding
    statistics coincide.
    """
    cards = [group_axes[n] for n in sorted(group_axes)]
    n_cells = math.prod(cards)
    if size % n_cells != 0:
        raise ValueError(f"size {size} not divisible by number of cells {n_cells}")
    per_cell = size // n_cells
    cells = np.array(list(product(*map(range, cards))), dtype=np.int64)
    labels = np.repeat(cells, per_cell, axis=0)
    # one-hot block of each axis, the blocks side by side in label-name order
    offsets = np.cumsum([0] + cards[:-1], dtype=np.int64)
    embeddings = np.zeros((size, sum(cards)))
    embeddings[np.arange(size)[:, None], labels + offsets] = 1.0
    ids = [f"bal-{'-'.join(map(str, cell))}-{rep}" for cell in cells.tolist()
           for rep in range(per_cell)]
    schema = DatasetSchema(d=sum(cards), label_cards=dict(group_axes))
    return Dataset(ids, embeddings, labels, schema, "curated")
