"""The multi-group proportional representation metric, computed four ways.

The representation gap of a selection is the largest difference, over a class
of statistics, between the statistic's mean on the retrieved items and its
mean on the curated dataset.  It can be evaluated exactly for finite indicator
lists, reached through a regression oracle, computed in closed form for
linear statistics via the SVD, or computed for kernel classes as a maximum
mean discrepancy.  The tree oracle is exact on the labels view, where every
statistic is a function of the cell: it maximizes over every tree of the
depth limit.  On the other views it is greedy CART, and the MLP oracle is a
trained net; both are lower bounds on their class's gap.

Each class a retrieval constrains is one object, built once per instance
with its k, that reports its MPR: ``classes`` numbers each retrieval item's
distinct feature row, on which the class's statistics are constant, and
``report(a)`` gives its ``MprReport``.  ``CellCounts`` holds the cell
indicators as counts, since a cell's gap depends only on how many selected
and curated items fall in it; its ``count_gaps`` table is what the exact
finite retrieval reads.  The classes the cutting-plane loop constrains also
separate: their call ``sep(a) -> (violation, Cut)`` cuts at any point of
[0,1]^n.  ``LinearClass`` is the closed form and ``OracleClass`` a
regression class; on the labels view the exact tree's cut reads the dynamic
program's block means per cell, and only ``report`` builds the ``TreeNode``
witness.  Whether a certificate holds for the whole class or only for what
an oracle found is a property of these objects, and a kernel class to
retrieve under would join them, cut like ``LinearClass`` by the supporting
hyperplane of its norm.

The other evaluators work on the distinct feature rows of D_R over D_C
(``feature_groups``, a ``statclasses.FeatureGroups``): the intersectional
cells present on the labels view, found as ``CellCounts`` finds them
(``_label_cells``), and every row elsewhere.  The oracle fits take the
groups and map their values back to every row, the closed form factors the
groups' weighted rows, and the kernel distance takes the groups' sums of the
signed weights and drops the rows of zero weight.

What depends only on a pair (D_R, D_C) is built once per pair: the feature
groups of each view and the label cells are kept in a module-level
``weakref.WeakKeyDictionary`` keyed by the two ``Dataset`` objects, by
identity (``_per_pair``).  A ``Dataset`` is immutable, so an entry stays
true for as long as both datasets live, and it goes when either is
collected; the entry holds no reference to them.  The groups in turn keep
their SVD (``svd_context``), CART presort and exact tree tables, so these
too are built once per pair.  A new dataset is a new key, even with the same
rows, as are those that ``condition_curation`` and ``reconcile`` build.
Errors are not kept: an incompatible pair raises on every call.
"""

from __future__ import annotations

import functools
import json
import math
import weakref
from dataclasses import dataclass, field

import numpy as np

from mopr.datamodel import Dataset, DatasetSchema, one_hot
from mopr.similarity import Selection
from mopr.solver import Cut
from mopr.statclasses import (
    MLP_EPOCHS,
    MLP_HIDDEN,
    TREE_DEPTH,
    FeatureGroups,
    NormalizedStatistic,
    RepStatistic,
    cell_indicator,
    exact_tree_values,
    feature_matrix,
    fit_linear_ls,
    fit_mlp,
    fit_tree,
    fit_tree_exact,
    normalize_values,
    read_only,
    target_norm,
)

SV_CUTOFF_REL = 1e-10
# An oracle fit whose norm over the stack is at most this fraction of the
# signed weights' norm is rounding noise of the zero fit.
ZERO_FIT_RTOL = 1e-12


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
        witness = self.witness.to_dict() if self.witness is not None else None
        return {"value": self.value, "method": self.method, "witness": witness,
                "diagnostics": self.diagnostics}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


@dataclass(frozen=True)
class SvdContext:
    """Thin SVD of the stacked feature rows of ``groups``, truncated to
    effective rank ``U_l.shape[1]``.  It factors the groups' weighted rows,
    which have the stack's singular values and right vectors; ``U_l`` is
    their left vectors divided by sqrt(c), c each distinct row's count, one
    row per distinct row, so the stack's orthonormal left vectors are
    ``U_l[groups.inverse]``."""

    U_l: np.ndarray
    singular_values: np.ndarray
    V: np.ndarray
    groups: FeatureGroups


# D_R -> D_C -> {(build, args): value}; see the module docstring
_PAIR_MEMO: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _per_pair(build):
    """``build(d_r, d_c, *args)``, kept per pair of datasets and ``args`` from
    its first return for as long as both datasets live.  A build that raises
    keeps nothing."""

    @functools.wraps(build)
    def memoized(d_r: Dataset, d_c: Dataset, *args):
        key = (build, *args)
        memo = _PAIR_MEMO.get(d_r, {}).get(d_c, {})
        if key not in memo:
            value = build(d_r, d_c, *args)  # a pair that raises gets no entry
            memo = _PAIR_MEMO.setdefault(d_r, weakref.WeakKeyDictionary()).setdefault(d_c, {})
            memo[key] = value
        return memo[key]

    return memoized


def _check_compatible(d_r: Dataset, d_c: Dataset, view: str) -> None:
    if view in ("labels", "concat") and d_r.schema.label_cards != d_c.schema.label_cards:
        raise ValueError("retrieval and curated datasets disagree on label cardinalities")
    if view in ("embedding", "concat") and d_r.schema.d != d_c.schema.d:
        raise ValueError("retrieval and curated datasets disagree on embedding dimension")


def combined_features(d_r: Dataset, d_c: Dataset, view: str) -> np.ndarray:
    """Feature rows of D_R stacked over D_C."""
    _check_compatible(d_r, d_c, view)
    return np.vstack([feature_matrix(d_r, view), feature_matrix(d_c, view)])


@_per_pair
def _label_cells(d_r: Dataset, d_c: Dataset):
    """The label rows of D_R over D_C, their cards, and each present cell's
    first row and each row's cell, the cells in lexicographic order; built
    once per pair, the arrays read-only."""
    _check_compatible(d_r, d_c, "labels")
    labels = np.vstack([d_r.labels, d_c.labels])
    cards = tuple(d_r.schema.label_cards[name] for name in d_r.schema.label_names)
    code, span = np.zeros(len(labels), dtype=np.int64), 1  # a mixed-radix code of each row
    for j, card in enumerate(cards):
        if span * card >= 2**62:  # renumber the codes so far before they overflow
            code = np.unique(code, return_inverse=True)[1]
            span = len(labels)
        code, span = code * card + labels[:, j], span * card
    _, first, inverse = np.unique(code, return_index=True, return_inverse=True)
    return read_only(labels), cards, read_only(first), read_only(inverse)


@_per_pair
def feature_groups(d_r: Dataset, d_c: Dataset, view: str) -> FeatureGroups:
    """Distinct feature rows of D_R stacked over D_C, built once per pair and
    view.

    On the labels view a row is a function of the item's intersectional cell,
    so the rows are grouped by cell, in order of first appearance.  The
    embedding and concat views take the stacked rows as they are.  The rows
    and ``inverse`` are read-only."""
    if view != "labels":
        X = combined_features(d_r, d_c, view)
        return FeatureGroups(read_only(X), read_only(np.arange(len(X))))
    labels, cards, first, inverse = _label_cells(d_r, d_c)
    by_first = np.argsort(first)
    renumber = np.argsort(by_first)  # the inverse permutation
    return FeatureGroups(read_only(one_hot(labels[first[by_first]], cards)),
                         read_only(renumber[inverse]))


def svd_context(groups: FeatureGroups) -> SvdContext:
    """``groups``' SVD context.  The factors are computed once per groups and
    kept read-only by ``groups.cached``.  It keeps the factors, not the
    context, which refers back to ``groups``: with no reference cycle the
    groups are freed as soon as their last user lets go."""
    return SvdContext(*groups.cached("svd", lambda: _svd_factors(groups)), groups)


def _svd_factors(groups: FeatureGroups) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    U, S, Vt = np.linalg.svd(groups.weighted_rows(), full_matrices=False)
    if S.size == 0 or S[0] <= 0.0:
        raise ValueError("all-zero feature matrix")
    keep = S > SV_CUTOFF_REL * S[0]
    U_l = U[:, keep]
    U_l /= np.sqrt(groups.counts)[:, None]
    return read_only(U_l), read_only(S[keep]), read_only(Vt[keep].T)


@dataclass(frozen=True)
class CellCounts:
    """The finite class for k items, count table and report: the cell
    indicators as counts.  Retrieval item i is in cell ``classes[i]``, the
    cells present in D_R or D_C numbered in lexicographic order; cell j has
    label ``codes[j]`` and curated mean ``curated[j]`` = (2C - m)/m, C of the
    m curated items in it.  A cell absent from both has gap 0 at a selection
    and is left out.  ``schema`` is D_R's, whose label names and cards the
    report reads."""

    classes: np.ndarray
    codes: np.ndarray
    curated: np.ndarray
    k: int
    schema: DatasetSchema

    @classmethod
    def build(cls, d_r: Dataset, d_c: Dataset, k: int) -> "CellCounts":
        n, m = len(d_r), len(d_c)
        labels, _, first, inverse = _label_cells(d_r, d_c)
        counts = np.bincount(inverse[n:], minlength=first.size)
        return cls(inverse[:n], labels[first], (2 * counts - m) / m, k, d_r.schema)

    def count_gaps(self) -> np.ndarray:
        """Each present cell's gap at c = 0..k selected items in it, one row a
        cell, as ``worst`` computes it at a selection; NaN where the cell holds
        fewer than c retrieval items, so no comparison admits that count."""
        c = np.arange(self.k + 1)
        gaps = np.abs((2 * c - self.k) / self.k - self.curated[:, None])
        sizes = np.bincount(self.classes, minlength=self.curated.size)
        gaps[c > sizes[:, None]] = np.nan
        return gaps

    def worst(self, a: np.ndarray) -> tuple[float, int]:
        """Largest |selection mean - curated mean| for selection weights
        ``a`` summing to k, and its cell; ties to the lowest.  A cell of
        weight c has selection mean (2c - sum(a))/k, exact for a binary ``a``."""
        c = np.bincount(self.classes, a, self.curated.size)
        gaps = np.abs((2 * c - np.sum(a)) / self.k - self.curated)
        best = int(np.argmax(gaps))
        return float(gaps[best]), best

    def cut(self, cell: int, rho: float) -> Cut:
        """The cut |``cell``'s selection mean - its curated mean| <= rho."""
        return Cut(np.where(self.classes == cell, 1.0, -1.0) / self.k,
                   float(self.curated[cell]), rho)

    def report(self, a: np.ndarray) -> MprReport:
        """``mpr_exact_finite`` over every cell indicator of ``schema``.  A cell
        absent from both sets has gap 0, so at gap 0 the first cell, (0, ..., 0),
        is the witness, present or not, as the explicit list's ties to the first."""
        value, cell = self.worst(a)
        codes = self.codes[cell] if value > 0.0 else np.zeros_like(self.codes[cell])
        witness = cell_indicator(dict(zip(self.schema.label_names, codes.tolist())))
        return MprReport(value, "exact-finite", witness,
                         {"class_size": math.prod(self.schema.label_cards.values())})


def mpr_exact_finite(
    sel: Selection, d_r: Dataset, d_c: Dataset, indicators: list[RepStatistic]
) -> MprReport:
    """Exact supremum over an explicit finite statistic list; ties to the first."""
    if not indicators:
        raise ValueError("indicator list must be nonempty")
    on_retrieval = np.stack([st.values(d_r) for st in indicators])
    curated_means = np.array([float(np.mean(st.values(d_c))) for st in indicators])
    gaps = np.abs(on_retrieval @ sel.indicator / sel.k - curated_means)
    best = int(np.argmax(gaps))
    return MprReport(value=float(gaps[best]), method="exact-finite", witness=indicators[best],
                     diagnostics={"class_size": len(indicators)})


def oracle_gap(
    groups: FeatureGroups, tilde: np.ndarray, m: int, k: int, oracle: str = "linear",
    feature_view: str = "labels", tree_depth: int = TREE_DEPTH, mlp_hidden: int = MLP_HIDDEN,
    mlp_epochs: int = MLP_EPOCHS, seed: int = 0,
) -> tuple[float, NormalizedStatistic, float, np.ndarray]:
    """(gap, witness, mse, values) of the best regression fit of the signed
    weights.

    ``groups`` holds the feature rows of D_R over D_C and ``tilde`` the signed
    weights; ``values`` are the witness's values over every row of the stack.
    The fit runs on the distinct rows with their counts; the gap, the
    normalization and the mse are taken over every row.  The tree oracle is
    ``fit_tree_exact`` on the labels view and greedy CART on the others.
    The gap is an absolute value, so the fit of ``-tilde`` counts too; the
    larger normalized correlation wins, ties to ``+tilde``.  The
    least-squares and tree fits of ``-tilde`` are exactly the negated fits of
    ``tilde``, so those two oracles fit ``tilde`` alone.  The MLP's random
    start breaks that symmetry, so it fits both signs.  A fit whose norm over
    the stack is at most ZERO_FIT_RTOL times the target's is the zero fit up
    to rounding.  If every fit is zero, no statistic the oracle finds
    separates the two sets: the gap is 0, and the witness is the zero fit
    with scale and context norm 0, as in the closed form.
    """
    tree = fit_tree_exact if feature_view == "labels" else fit_tree
    fits = {
        "linear": lambda y: fit_linear_ls(groups, y, feature_view),
        "tree": lambda y: tree(groups, y, tree_depth, feature_view),
        "mlp": lambda y: fit_mlp(groups, y, mlp_hidden, epochs=mlp_epochs, seed=seed,
                                 feature_view=feature_view),
    }
    if oracle not in fits:
        raise ValueError(f"unknown oracle {oracle!r}")
    best: tuple[float, NormalizedStatistic, float, np.ndarray] | None = None
    for sign in (1.0, -1.0) if oracle == "mlp" else (1.0,):
        target = sign * tilde
        stat = fits[oracle](target)
        values = stat.values_from_features(groups.rows)[groups.inverse]
        if (found := _normalized_fit(values, tilde, m, k)) is None:
            continue
        value, fitted = found
        if best is None or value > best[0]:
            best = (value, normalize_values(stat, values, m, k),
                    float(np.mean((fitted - target) ** 2)), fitted)
    if best is None:
        zero_fit = NormalizedStatistic(stat, 0.0, 0.0)
        return 0.0, zero_fit, float(np.mean(tilde**2)), np.zeros(len(tilde))
    return best


def _normalized_fit(values: np.ndarray, tilde: np.ndarray, m: int, k: int):
    """(gap, values scaled into the normalized class) of a fit whose values
    over the stack are ``values``, or None for the zero fit."""
    norm = float(np.linalg.norm(values))
    if norm <= ZERO_FIT_RTOL * float(np.linalg.norm(tilde)):
        return None
    fitted = target_norm(m, k) / norm * values
    return abs(float(fitted @ tilde)), fitted


@dataclass(frozen=True)
class OracleClass:
    """A regression class for k items, reached through its oracle, ``oracle_gap``.

    Retrieval item i has the distinct feature row ``classes[i]`` of ``groups``,
    on which every cut is constant.  The cut at ``a`` bounds by 0 the gap
    between the witness's mean over the selection and over D_C, its
    coefficients the witness's values on the D_R items over k, as the search
    computed them.  The oracle is deterministic; ``groups``, built once per
    pair, keeps the exact tree fit's block table and CART's presort from the
    first evaluation on, so every class on the pair builds them once.
    """

    groups: FeatureGroups
    classes: np.ndarray
    m: int
    k: int
    oracle: str
    options: tuple  # oracle_gap's arguments after the oracle: view, depth, hidden, epochs, seed

    @classmethod
    def build(
        cls, d_r: Dataset, d_c: Dataset, k: int, oracle: str = "linear",
        feature_view: str = "labels", tree_depth: int = TREE_DEPTH,
        mlp_hidden: int = MLP_HIDDEN, mlp_epochs: int = MLP_EPOCHS, seed: int = 0,
    ) -> "OracleClass":
        groups = feature_groups(d_r, d_c, feature_view)
        return cls(groups, groups.inverse[: len(d_r)], len(d_c), k, oracle,
                   (feature_view, tree_depth, mlp_hidden, mlp_epochs, seed))

    def fit(self, a: np.ndarray) -> tuple[float, NormalizedStatistic, float, np.ndarray]:
        """``oracle_gap`` at selection weights ``a``."""
        return oracle_gap(self.groups, signed_weights(a, self.k, self.m), self.m, self.k,
                          self.oracle, *self.options)

    def __call__(self, a: np.ndarray) -> tuple[float, Cut]:
        """(violation, cut) at ``a``: the witness's gap and its cut, bound 0.
        The exact tree's values are the dynamic program's block means per
        distinct row, scaled as ``oracle_gap`` scales them; no tree is built."""
        if self.oracle != "tree" or self.options[0] != "labels":
            value, _, _, values = self.fit(a)
        else:
            tilde = signed_weights(a, self.k, self.m)
            values = exact_tree_values(self.groups, tilde, self.options[1])[self.groups.inverse]
            value, values = (_normalized_fit(values, tilde, self.m, self.k)
                             or (0.0, np.zeros(len(tilde))))
        n = self.classes.size
        return value, Cut(values[:n] / self.k, float(np.mean(values[n:])), 0.0)

    def report(self, a: np.ndarray) -> MprReport:
        value, witness, mse, _ = self.fit(a)
        return MprReport(value, "oracle", witness, {"oracle": self.oracle, "oracle_mse": mse,
                                                    "context_norm": witness.context_norm})


def mpr_via_oracle(
    sel: Selection, d_r: Dataset, d_c: Dataset, oracle: str = "linear",
    feature_view: str = "labels", tree_depth: int = TREE_DEPTH, mlp_hidden: int = MLP_HIDDEN,
    mlp_epochs: int = MLP_EPOCHS, seed: int = 0,
) -> MprReport:
    """Estimate the gap by regressing the signed weight vector over the class."""
    return OracleClass.build(d_r, d_c, sel.k, oracle, feature_view, tree_depth, mlp_hidden,
                             mlp_epochs, seed).report(sel.indicator)


def closed_form_gap(ctx: SvdContext, tilde: np.ndarray, m: int, k: int) -> tuple[float, np.ndarray]:
    """Gap over normalized linear statistics for signed weights ``tilde``, and
    the coordinates ``z = U_l[groups.inverse]' tilde`` the gap is the scaled norm of."""
    z = ctx.U_l.T @ ctx.groups.sums(tilde)
    return target_norm(m, k) * float(np.linalg.norm(z)), z


@dataclass(frozen=True)
class LinearClass:
    """The normalized linear statistics for k items, in closed form from one SVD.

    At ``a`` the MPR is tn * ||z||, z the signed weights in the stack's left
    singular vectors U (``closed_form_gap``); the worst statistic, tn * U z /
    ||z||, is the normalized least-squares fit of the signed weights (Prop.
    ``closed_form_MPR``).  Its values on the D_R items over k are the norm's
    gradient at ``a``, computed per distinct feature row and gathered to the
    ``classes``: the cut is the norm's supporting hyperplane, and the class is
    closed under negation, so both sides are necessary conditions.  At z = 0
    no linear statistic separates the sets: the cut is the zero row and the
    witness the zero statistic.
    """

    ctx: SvdContext
    classes: np.ndarray
    m: int
    k: int
    feature_view: str

    @classmethod
    def build(cls, d_r: Dataset, d_c: Dataset, k: int,
              feature_view: str = "labels") -> "LinearClass":
        ctx = svd_context(feature_groups(d_r, d_c, feature_view))
        return cls(ctx, ctx.groups.inverse[: len(d_r)], len(d_c), k, feature_view)

    def gap(self, a: np.ndarray) -> tuple[float, np.ndarray, float, float]:
        """The MPR at selection weights ``a``, z, ||z|| and tn."""
        value, z = closed_form_gap(self.ctx, signed_weights(a, self.k, self.m), self.m, self.k)
        return value, z, float(np.linalg.norm(z)), target_norm(self.m, self.k)

    def __call__(self, a: np.ndarray) -> tuple[float, Cut]:
        """(violation, cut) at ``a``: the MPR and its supporting hyperplane, bound 0."""
        value, z, zn, tn = self.gap(a)
        if zn == 0.0:
            return value, Cut(np.zeros(self.classes.size), 0.0, 0.0)
        grad = (tn * (self.ctx.U_l @ z) / zn)[self.classes] / self.k
        return value, Cut(grad, float(grad @ a) - value, 0.0)

    def report(self, a: np.ndarray) -> MprReport:
        value, z, zn, tn = self.gap(a)
        ctx = self.ctx
        if zn > 0.0:
            w_opt, context_norm = ctx.V @ (z / ctx.singular_values) * (tn / zn), tn
        else:
            w_opt, context_norm = np.zeros(ctx.V.shape[0]), 0.0
        witness = NormalizedStatistic(RepStatistic("linear", {"w": w_opt}, self.feature_view),
                                      1.0, context_norm)
        return MprReport(value, "closed-linear", witness,
                         {"svd_rank": ctx.U_l.shape[1], "feature_view": self.feature_view})


def mpr_closed_form_linear(
    sel: Selection, d_r: Dataset, d_c: Dataset, feature_view: str = "labels"
) -> MprReport:
    """Exact gap for normalized linear statistics via the truncated SVD."""
    return LinearClass.build(d_r, d_c, sel.k, feature_view).report(sel.indicator)


def _kernel_gram(X: np.ndarray, kernel: str, sigma: float | None) -> np.ndarray:
    """The kernel between every pair of rows of X."""
    # the product with a copy is a general one, whose entries depend only on
    # the two rows: X @ X.T is the symmetric product, which sums its blocks in
    # different orders, so equal rows in other places could disagree
    inner = X @ X.copy().T
    if kernel == "linear":
        return inner
    if kernel == "gaussian":
        if sigma is None or not sigma > 0.0:
            raise ValueError("gaussian kernel requires sigma > 0")
        sq = np.sum(X**2, axis=1)
        return np.exp(-np.maximum(sq[:, None] + sq[None, :] - 2.0 * inner, 0.0) / (2 * sigma**2))
    raise ValueError(f"unknown kernel {kernel!r}")


def mpr_rkhs(
    sel: Selection,
    d_r: Dataset,
    d_c: Dataset,
    kernel: str = "linear",
    sigma: float | None = None,
    feature_view: str = "labels",
) -> MprReport:
    """Kernel mean-embedding distance between retrieved and curated samples.

    The distance is the kernel norm sqrt(w' K w) of the signed weights, the
    maximum mean discrepancy of Gretton et al. (2012).  ``w`` sums the signed
    weights per distinct feature row and drops the rows of zero weight, so the
    kernel is evaluated once per pair of rows that carry weight: the cells
    present on the labels view, the selected and curated rows elsewhere.
    """
    groups = feature_groups(d_r, d_c, feature_view)
    w = groups.sums(signed_weights(sel.indicator, sel.k, len(d_c)))
    present = np.flatnonzero(w)
    X, w = groups.rows[present], w[present]
    # extended precision: the terms cancel almost exactly when the samples nearly match
    radicand = float(np.sum(np.outer(w, w) * _kernel_gram(X, kernel, sigma), dtype=np.longdouble))
    if radicand < -1e-10:
        raise ValueError(f"negative squared distance {radicand}: kernel is not PSD")
    value = math.sqrt(max(radicand, 0.0))
    name = kernel if sigma is None else f"{kernel}(sigma={sigma})"
    return MprReport(value=value, method="rkhs", witness=None, diagnostics={"kernel": name})
