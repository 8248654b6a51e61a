"""Datasets, queries, the CSV files of both, synthetic generation, and balanced curation.

A dataset is three row-aligned arrays: n item ids, an (n, d) float64
embedding matrix and an (n, axes) int64 matrix of categorical group labels
(dense integer codes), one column per label axis.  Label names are ordered
lexicographically everywhere, the label columns included, so that serialized
outputs are reproducible.
"""

from __future__ import annotations

import csv
import functools
import json
import math
from array import array
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, replace
from itertools import chain, product
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

import numpy as np

PROB_SUM_TOL = 1e-9
FLOAT_FMT = "%.17g"  # the float format of every file mopr writes: it round-trips a double


class DataFormatError(ValueError):
    """Raised when an input file violates the dataset CSV schema."""


@dataclass(frozen=True)
class Query:
    id: str
    embedding: np.ndarray


@dataclass(frozen=True)
class DatasetSchema:
    d: int
    label_cards: Mapping[str, int]

    def __post_init__(self):  # a read-only copy: no caller can change a built dataset's cards
        object.__setattr__(self, "label_cards", MappingProxyType(dict(self.label_cards)))

    @property
    def label_names(self) -> list[str]:
        return sorted(self.label_cards)


class Dataset:
    """Ordered, immutable dataset with a consistent schema.

    ``embeddings`` is (n, d) and ``labels`` is (n, axes) with columns in
    ``schema.label_names`` order; the dataset keeps read-only copies of both,
    and the embedding rows' norms from their first use on.
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
        if not np.isfinite(embeddings).all():
            row, col = np.argwhere(~np.isfinite(embeddings))[0]
            raise DataFormatError(
                f"row {row + 1}: embedding e{col}={embeddings[row, col]} is not finite"
            )
        if len(set(ids)) < n:  # ids compare as Python strings, not as numpy's NUL-padded ones
            seen = {}
            row = next(i for i, item_id in enumerate(ids) if seen.setdefault(item_id, i) != i)
            raise DataFormatError(f"duplicate id {ids[row]!r} at row {row + 1}")
        cards = np.array([schema.label_cards[name] for name in names], dtype=np.int64)
        bad = (labels < 0) | (labels >= cards)
        if bad.any():
            row, axis = np.argwhere(bad)[0]
            raise DataFormatError(f"row {row + 1}: label {names[axis]}={labels[row, axis]} "
                                  f"outside cardinality {cards[axis]}")
        embeddings.setflags(write=False)
        labels.setflags(write=False)
        self._ids, self._embeddings, self._labels = ids, embeddings, labels
        self._schema, self._role = schema, role

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

    @functools.cached_property
    def row_norms(self) -> np.ndarray:
        """The Euclidean norm of each embedding row, read-only, computed on first use."""
        norms = np.linalg.norm(self._embeddings, axis=1)
        norms.setflags(write=False)
        return norms

    @functools.cached_property
    def has_zero_row(self) -> bool:
        """Whether some embedding row is all zeros, computed on first use."""
        return bool((self.row_norms == 0.0).any())

    schema = property(lambda self: self._schema)
    role = property(lambda self: self._role)  # 'retrieval' or 'curated'

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


def write_csv(path, header: Sequence, rows: Iterable[Sequence]) -> None:
    """Write ``header`` and ``rows`` as UTF-8 CSV with LF endings; mopr writes every CSV here."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        # QUOTE_MINIMAL leaves a CR bare when the line ending is LF, and a reader ends a row there
        minimal, quoted = (csv.writer(fh, lineterminator="\n", quoting=quoting)
                           for quoting in (csv.QUOTE_MINIMAL, csv.QUOTE_ALL))
        for row in chain([header], rows):
            (quoted if any("\r" in c for c in row if isinstance(c, str)) else minimal).writerow(row)


@contextmanager
def _csv_rows(path):
    """The rows of the CSV file at ``path``; a format error in them names the file."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            yield csv.reader(fh)
    except (DataFormatError, csv.Error, UnicodeDecodeError) as exc:
        raise DataFormatError(f"{path}: {exc}") from None


def _parse_table(rows) -> tuple[list[str], list[str], np.ndarray, np.ndarray]:
    """Ids, label names, (n, d) embeddings and (n, axes) labels of a dataset or query file."""
    if (header := next(rows, None)) is None:
        raise DataFormatError("empty dataset")
    if not header or header[0] != "id":
        raise DataFormatError("malformed header: first column must be 'id'")
    d = 0
    while 1 + d < len(header) and header[1 + d] == f"e{d}":
        d += 1
    if d == 0:
        raise DataFormatError("malformed header: no embedding columns e0..e{d-1}")
    for col in header[1 + d:]:
        if not col.startswith("g_") or len(col) <= 2:
            raise DataFormatError(f"malformed header: unexpected column {col!r}")
    label_names = [col[2:] for col in header[1 + d:]]
    if label_names != sorted(label_names):
        raise DataFormatError("malformed header: label columns must be in sorted order")
    ids, width = [], 1 + d + len(label_names)
    # flat buffers of C doubles and int64s: a row costs its numbers and no object
    embeddings, labels = array("d"), array("q")
    for row_no, row in enumerate(rows, start=1):
        if len(row) != width:
            raise DataFormatError(f"row {row_no}: expected {width} cells, got {len(row)}")
        try:  # float() and int() name the value they refuse
            embeddings.extend(map(float, row[1:1 + d]))
            labels.extend(map(int, row[1 + d:]))
        except ValueError as exc:
            raise DataFormatError(f"row {row_no}: {exc}") from None
        ids.append(row[0])
    if not ids:
        raise DataFormatError("empty dataset")
    return (ids, label_names, np.frombuffer(embeddings).reshape(len(ids), d),
            np.frombuffer(labels, dtype=np.int64).reshape(len(ids), len(label_names)))


def load_dataset(path, role: str = "retrieval") -> Dataset:
    """Load a dataset from the CSV format (see :func:`save_dataset`)."""
    with _csv_rows(path) as rows:
        ids, label_names, embeddings, labels = _parse_table(rows)
        cards = dict(zip(label_names, (labels.max(axis=0) + 1).tolist()))
        return Dataset(ids, embeddings, labels, DatasetSchema(embeddings.shape[1], cards), role)


def save_dataset(dataset: Dataset, path) -> None:
    """Write a dataset as CSV ``id,e0..e{d-1},g_<name>..``, one row per item."""
    d, names = dataset.schema.d, dataset.schema.label_names
    write_csv(path, ["id"] + [f"e{j}" for j in range(d)] + [f"g_{n}" for n in names],
              ([item_id] + [FLOAT_FMT % v for v in emb.tolist()] + [str(c) for c in codes.tolist()]
               for item_id, emb, codes in zip(dataset.ids, dataset.embeddings, dataset.labels)))


def load_query(path) -> Query:
    """Load a query from a CSV ``id,e0,...,e{d-1}`` of one data row."""
    with _csv_rows(path) as rows:
        ids, names, embeddings, _ = _parse_table(rows)
        if names or len(ids) != 1:
            raise DataFormatError(f"expected 1 row, 0 label columns; got {len(ids)}, {len(names)}")
    return Query(ids[0], embeddings[0])


def save_query(query: Query, path) -> None:
    write_csv(path, ["id"] + [f"e{j}" for j in range(query.embedding.size)],
              [[query.id] + [FLOAT_FMT % v for v in query.embedding.tolist()]])


def load_ids(path) -> list[str]:
    """The item ids of an ids file (see :func:`save_ids`), verbatim; the
    first row is a header, and skipped, only if it is exactly ``id``."""
    with _csv_rows(path) as rows:
        ids = []
        for row_no, row in enumerate(rows, start=1):
            if len(row) > 1:
                raise DataFormatError(f"row {row_no}: expected 1 cell, got {len(row)}")
            ids.extend(row if row_no > 1 or row != ["id"] else [])  # a blank line adds none
    return ids


def save_ids(ids: Iterable[str], path) -> None:
    """Write item ids as CSV: a header ``id``, then one id per row."""
    write_csv(path, ["id"], ([item_id] for item_id in ids))


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


def one_hot(labels: np.ndarray, cards: list[int]) -> np.ndarray:
    """One-hot encode label code rows whose column j has cardinality cards[j]
    (all categories kept, none dropped), the axes' blocks side by side."""
    out = np.zeros((len(labels), sum(cards)))
    offset = 0
    for j, card in enumerate(cards):
        out[np.arange(len(labels)), offset + labels[:, j]] = 1.0
        offset += card
    return out


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
    embeddings = one_hot(labels, cards)
    ids = [f"bal-{'-'.join(map(str, cell))}-{rep}" for cell in cells.tolist()
           for rep in range(per_cell)]
    schema = DatasetSchema(d=sum(cards), label_cards=dict(group_axes))
    return Dataset(ids, embeddings, labels, schema, "curated")
