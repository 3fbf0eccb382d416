"""Supervised co-location classifiers built from scratch.

Provides a stratified train/test split, a CART-style decision tree on Gini
impurity, a bagged random forest, confusion-matrix evaluation, and the five
derived metrics (accuracy, sensitivity, specificity, precision, F1).

Conventions
-----------
* Samples are numeric feature matrices ``X`` of shape (n, k) with integer
  labels ``y`` (1 = Authentic, the positive class; 0 = Unauthorized). The
  trainers take k from ``X``; :func:`proxauth.beacon_model.encode_dataset`
  gives the encoder's ``width`` columns, and the model reader bounds split
  features by that width.
* A decision tree is the one tree of an unbagged forest that considers every
  feature at every node: one trainer grows both.
* A tree is its preorder node table (:class:`DecisionTree`), four read-only
  numpy columns, routing ``feature <= threshold`` to the left child. The
  trainer and the one column check of a model file's trees feed one writer,
  which checks the shape and derives the right pointers; a model is compiled
  once, when it is first used or when it is loaded, into flat node arrays
  that one vectorized descent reads for every prediction.
* All tie-breaks fail toward Unauthorized: leaf majorities and forest votes
  that end even predict Unauthorized.
* Randomness comes from numpy's PCG64 generator seeded through
  ``SeedSequence``; per-tree streams derive only from (seed, tree_index),
  so tree i depends only on the seed, i and the training data: the n trees
  of a forest are the first n trees of any larger forest with that seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, compress
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from .beacon_model import BeaconObservation, Dataset, DeviceRole, FeatureEncoder, Label, encode_observations
from .errors import (
    DegenerateSplit,
    EmptyMatrix,
    EmptyNode,
    EmptyTestSet,
    EmptyTrainingSet,
)
from .jsondoc import decode, dump, encode, parse

__all__ = [
    "TreeParams",
    "ForestParams",
    "DecisionTree",
    "RandomForest",
    "Classifier",
    "SplitCandidate",
    "ConfusionMatrix",
    "MetricsReport",
    "stratified_split",
    "gini_impurity",
    "best_split",
    "train_decision_tree",
    "train_random_forest",
    "predict_batch",
    "evaluate",
    "compute_metrics",
    "model_to_document",
    "document_to_model",
    "save_model",
    "read_model_document",
    "load_model",
    "derived_rng",
]

_SEED_MASK = (1 << 64) - 1
_FLOAT_MAX = float(np.finfo(np.float64).max)

MODEL_FORMAT = "proxauth-colocation-model"
MODEL_FORMAT_VERSION = 2


def derived_rng(seed: int, *path: int) -> np.random.Generator:
    """A PCG64 generator derived deterministically from a seed and a key path."""
    return np.random.default_rng(np.random.SeedSequence(seed & _SEED_MASK, spawn_key=tuple(path)))


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


@dataclass(frozen=True)
class TreeParams:
    """Decision-tree hyperparameters; the defaults are the canonical configuration."""

    max_depth: int | None = 16  # None = unbounded
    min_samples_split: int = 2
    min_samples_leaf: int = 1

    def __post_init__(self):
        if self.max_depth is not None and self.max_depth < 1:
            raise ValueError("max_depth must be >= 1 or None")
        if self.min_samples_split < 2:
            raise ValueError("min_samples_split must be >= 2")
        if self.min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")


@dataclass(frozen=True)
class ForestParams:
    """Random-forest hyperparameters; defaults are the canonical configuration."""

    n_trees: int = 100
    bootstrap: bool = True
    features_per_split: int = 2  # floor(sqrt(4))
    seed: int = 0
    tree_params: TreeParams = field(default_factory=TreeParams)

    def __post_init__(self):
        if self.n_trees < 1:
            raise ValueError("n_trees must be >= 1")
        if self.features_per_split < 1:  # its upper bound is the width of X, known at training
            raise ValueError("features_per_split must be >= 1")


class _Layout(NamedTuple):
    """Preorder parallel node arrays of one or more trees, the layout of
    scikit-learn's ``Tree``; tree t starts at node ``roots[t]``. ``feature``
    is -1 at a leaf, whose ``left`` and ``right`` point back at itself."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    authentic: np.ndarray
    roots: np.ndarray
    depth: int  # the longest root-to-leaf path
    width: int  # the fewest columns a row needs: one past the highest split feature


_COLUMNS = ("feature", "threshold", "counts")  # a tree's stored columns; ``right`` follows from them


@dataclass(frozen=True, eq=False)
class DecisionTree:
    """A tree as its preorder node table, read-only columns that :func:`_nodes`
    writes. Node i is a split on ``feature[i]`` at ``threshold[i]`` with its
    left child at i + 1 and its right child at ``right[i]``, or a leaf
    (feature and right -1) whose ``counts[i]`` are its (unauthorized,
    authentic) samples and which predicts their majority, a tie Unauthorized.
    A split's counts are (0, 0): as in a model file it has none."""

    feature: np.ndarray  # int32
    threshold: np.ndarray  # float64
    right: np.ndarray  # int32
    counts: np.ndarray  # int64, one (unauthorized, authentic) row per node
    params: TreeParams

    def __eq__(self, other) -> bool:  # the params and the stored columns
        return type(other) is DecisionTree and self.params == other.params and all(
            np.array_equal(getattr(self, c), getattr(other, c)) for c in _COLUMNS)

    def __hash__(self) -> int:
        return hash((self.params, self.feature.tobytes(), self.counts.tobytes()))

    @cached_property
    def _layout(self) -> _Layout:  # compiled on first use; not a dataclass field
        return _compile((self,))

    def depth(self) -> int:
        return self._layout.depth

    def node_count(self) -> int:
        return len(self.feature)


@dataclass(frozen=True)
class RandomForest:
    trees: tuple[DecisionTree, ...]
    params: ForestParams

    @cached_property
    def _layout(self) -> _Layout:
        return _compile(self.trees)


def _compile(trees: Sequence[DecisionTree]) -> _Layout:
    """The trees' columns end to end; the depth is found a level at a time."""
    sizes = np.array([len(t.feature) for t in trees], np.int32)
    starts = np.cumsum(sizes, dtype=np.int32) - sizes

    def joined(column: str, empty: np.ndarray) -> np.ndarray:
        return np.concatenate([empty, *(getattr(t, column) for t in trees)])

    feature, counts = joined("feature", np.empty(0, np.int32)), joined("counts", np.empty((0, 2), np.int64))
    index = np.arange(len(feature), dtype=np.int32)
    is_leaf = feature < 0
    left = index + ~is_leaf
    right = np.where(is_leaf, index, joined("right", np.empty(0, np.int32)) + np.repeat(starts, sizes))
    depth, level = 0, starts
    while (splits := level[~is_leaf[level]]).size:
        depth, level = depth + 1, np.concatenate((splits + 1, right[splits]))
    width = int(feature.max(initial=-1)) + 1
    authentic = counts[:, 1] > counts[:, 0]
    return _Layout(feature, joined("threshold", np.empty(0)), left, right, authentic, starts, depth, width)


@dataclass(frozen=True)
class SplitCandidate:
    feature_index: int
    threshold: float
    weighted_impurity: float


@dataclass(frozen=True)
class ConfusionMatrix:
    """Counts with Authentic as the positive class."""

    tp: int
    tn: int
    fp: int
    fn: int

    def __post_init__(self):
        if min(self.tp, self.tn, self.fp, self.fn) < 0:
            raise ValueError("confusion matrix counts must be non-negative")

    @property
    def total(self) -> int:
        return self.tp + self.tn + self.fp + self.fn


@dataclass(frozen=True)
class MetricsReport:
    """The five derived metrics as fractions in [0, 1]; None marks an
    undefined value (zero denominator)."""

    accuracy: float | None
    sensitivity: float | None
    specificity: float | None
    precision: float | None
    f1: float | None

    def as_dict(self) -> dict[str, float | None]:
        return encode(self)


def stratified_split(
    dataset: Dataset, test_fraction: float, seed: int
) -> tuple[Dataset, Dataset]:
    """Split per class, Authentic first: a seeded shuffle of each class's rows
    marks round-half-up(fraction * count) of them in one boolean test mask, and
    both sides keep the samples' order, so a seed fixes the split. Raises
    :class:`DegenerateSplit` when a class (an empty one too) would leave one partition empty."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test_fraction must be in (0, 1), got {test_fraction}")
    samples, rng = dataset.samples, derived_rng(seed)
    authentic = np.fromiter((s.label is Label.AUTHENTIC for s in samples), bool, len(samples))
    test = np.zeros(len(samples), bool)
    for label, members in ((Label.AUTHENTIC, authentic), (Label.UNAUTHORIZED, ~authentic)):
        idxs = np.flatnonzero(members)
        if (k := _round_half_up(test_fraction * len(idxs))) in (0, len(idxs)):
            raise DegenerateSplit(f"class {label.value!r} would contribute 0 samples to one partition")
        test[rng.permutation(idxs)[:k]] = True
    return Dataset(tuple(compress(samples, ~test))), Dataset(tuple(compress(samples, test)))


def gini_impurity(class_counts: Sequence) -> float | np.ndarray:
    """Gini impurity 1 - sum(p_c^2) of two-class (unauthorized, authentic)
    counts: a pair of ints gives one node's float, a pair of equal-length
    arrays one impurity per element. An empty node raises :class:`EmptyNode`."""
    neg, pos = np.asarray(class_counts[0], np.float64), np.asarray(class_counts[1], np.float64)
    total = neg + pos
    if not total.all():
        raise EmptyNode("gini impurity is undefined for an empty node")
    gini = 1.0 - ((neg / total) ** 2 + (pos / total) ** 2)
    return float(gini) if gini.ndim == 0 else gini


def best_split(
    X: np.ndarray,
    y: np.ndarray,
    candidate_features: Sequence[int],
    min_child: int = 1,
    require_improvement: bool = True,
) -> SplitCandidate | None:
    """The split minimizing child-size-weighted Gini impurity over every
    midpoint threshold of every candidate feature, found in one pass: one
    sort of the candidate columns, one mask of the legal cuts (between
    distinct values, leaving each child at least ``min_child`` rows), and the
    impurity at those cuts only. One tie rule: the lowest impurity wins, then
    the lowest feature index, then the lowest threshold. A feature listed
    twice counts once.

    Returns None when no legal cut exists or (with ``require_improvement``)
    no split strictly reduces the parent impurity.
    ``require_improvement=False`` serves the tree builder's deadlock-breaker:
    exactly balanced mixed-label nodes (XOR-like) can have every candidate
    split tie the parent impurity, yet still separate perfectly one level
    deeper.
    """
    n = len(y)
    if n < 2:
        return None
    features = np.unique(np.asarray(candidate_features, np.intp))
    columns = X.T[features]  # one row per candidate feature
    # no stable sort is needed: a legal cut never falls between equal values
    sx, sy = np.sort(columns, axis=1), y[np.argsort(columns, axis=1)]
    left_sizes = np.arange(1, n)  # a cut after sorted row i leaves i + 1 rows on the left
    legal = (sx[:, 1:] != sx[:, :-1]) & (left_sizes >= min_child) & (n - left_sizes >= min_child)
    column, row = np.nonzero(legal)  # in (feature, threshold) order, so argmin breaks ties as documented
    if not row.size:
        return None
    total_pos = int(y.sum())
    left_pos = np.cumsum(sy, axis=1)[column, row].astype(np.float64)
    left_n = row + 1.0
    right_pos = total_pos - left_pos
    right_n = n - left_n
    weighted = (left_n * gini_impurity((left_n - left_pos, left_pos))
                + right_n * gini_impurity((right_n - right_pos, right_pos))) / n
    i = int(np.argmin(weighted))
    if require_improvement and weighted[i] >= gini_impurity((n - total_pos, total_pos)):
        return None
    c, r = column[i], row[i]
    return SplitCandidate(int(features[c]), float((sx[c, r] + sx[c, r + 1]) / 2.0), float(weighted[i]))


def _nodes(feature, threshold, counts) -> tuple[np.ndarray, ...]:
    """The one writer of a node table, fed by the trainer and by
    :func:`_columns_to_nodes`, the column check of a model file's trees:
    preorder columns in, :class:`DecisionTree`'s typed columns out.
    A split adds 1 to a running sum and a leaf takes 1 away, so the rows make
    one full binary tree exactly when the sum stays >= 0 before the last row
    and ends at -1. A split's right child is then the next row with the same
    sum before it, which a stable sort by that sum puts right after it."""
    feature, threshold = np.asarray(feature, np.int32), np.asarray(threshold, np.float64)
    counts = np.asarray(counts, np.int64).reshape(-1, 2)
    leaf = feature < 0
    step = np.where(leaf, -1, 1)
    total = np.cumsum(step)
    if not (total.size and total[-1] == -1 and total[:-1].min(initial=0) >= 0):
        raise ValueError(f"a tree's {len(feature)} rows do not make one full binary tree in preorder")
    order = np.argsort(total - step, kind="stable")
    right = np.full(len(feature), -1, np.int32)
    right[order[:-1]] = order[1:]
    right[leaf] = -1
    for column in (feature, threshold, right, counts):
        column.flags.writeable = False
    return feature, threshold, right, counts


def _labels(X, y) -> np.ndarray:
    """The one label rule of training and scoring: one label, 0 or 1, per row of X, or a ValueError."""
    y = np.asarray(y)
    if y.shape != (len(X),):
        raise ValueError(f"y must hold one label per row of X: X has {len(X)} rows, y the shape {y.shape}")
    if not np.isin(y, (0, 1)).all():
        raise ValueError("y holds a label other than 0 or 1")
    return y


def train_decision_tree(
    X: np.ndarray,
    y: np.ndarray,
    params: TreeParams = TreeParams(),
) -> DecisionTree:
    """Greedy CART over every feature: the one tree of an unbagged forest
    that draws all of X's columns at every node, so it takes no seed."""
    every_feature = ForestParams(n_trees=1, bootstrap=False, features_per_split=np.shape(X)[1], tree_params=params)
    return train_random_forest(X, y, every_feature).trees[0]


def train_random_forest(
    X: np.ndarray,
    y: np.ndarray,
    params: ForestParams = ForestParams(),
) -> RandomForest:
    """Bagged forest: tree i trains on a bootstrap resample (drawn from an RNG
    derived from (seed, i)) and considers ``features_per_split`` features,
    drawn without replacement, at each node. Nodes grow in preorder on an
    explicit stack, so a tree of any depth trains, and its rows go to
    :func:`_nodes`. A NaN or infinite value in X is a ValueError, and so is a
    y that is not one label, 0 or 1, per row of X."""
    X, y = np.asarray(X, dtype=np.float64), _labels(X, y)
    if (n := len(y)) == 0:
        raise EmptyTrainingSet("cannot train on zero samples")
    if not np.isfinite(X).all():
        raise ValueError("X holds a NaN or an infinite value")
    n_features, k, tree_params = X.shape[1], params.features_per_split, params.tree_params
    if k > n_features:
        raise ValueError(f"features_per_split {k} exceeds the {n_features} columns of X")

    trees = []
    for i in range(params.n_trees):
        rng = derived_rng(params.seed, i)
        rows = rng.integers(0, n, size=n) if params.bootstrap else slice(None)
        table, stack = [], [(X[rows], y[rows], 0)]
        while stack:
            X_node, y_node, depth = stack.pop()
            pos = int(y_node.sum())
            neg = len(y_node) - pos
            cand = None
            if (pos and neg and len(y_node) >= tree_params.min_samples_split
                    and (tree_params.max_depth is None or depth < tree_params.max_depth)):
                features = rng.choice(n_features, size=k, replace=False)
                # Deadlock-breaker: without require_improvement, a mixed node whose every
                # split ties the parent impurity still takes the best tie split, which
                # separates deeper down, so consistent data always trains to purity.
                cand = best_split(X_node, y_node, features, tree_params.min_samples_leaf, require_improvement=False)
            if cand is None:
                table.append((-1, 0.0, (neg, pos)))
                continue
            table.append((cand.feature_index, cand.threshold, (0, 0)))
            mask = X_node[:, cand.feature_index] <= cand.threshold
            stack += (X_node[~mask], y_node[~mask], depth + 1), (X_node[mask], y_node[mask], depth + 1)
        trees.append(DecisionTree(*_nodes(*zip(*table)), tree_params))
    return RandomForest(trees=tuple(trees), params=params)


def _vote(layout: _Layout, X: np.ndarray) -> np.ndarray:
    """The one tree descent: all (tree, row) positions step down a level at a
    time (flat ``take`` indexing keeps one login's few rows cheap); each row
    then takes its trees' majority, an even vote Unauthorized. A row narrower
    than ``width`` would read its neighbour's cells, so it raises instead."""
    if X.ndim != 2 or X.shape[1] < layout.width:
        raise ValueError(f"X must be 2-D with at least {layout.width} columns, got shape {X.shape}")
    n_trees, (n_rows, width) = len(layout.roots), X.shape
    row_start = np.tile(np.arange(n_rows) * width, n_trees)
    pos = np.repeat(layout.roots, n_rows)
    for _ in range(layout.depth):  # a leaf reads any value and stays put
        x = X.take(row_start + layout.feature.take(pos))
        pos = np.where(x <= layout.threshold.take(pos), layout.left.take(pos), layout.right.take(pos))
    votes = layout.authentic.take(pos).reshape(n_trees, n_rows).sum(axis=0)
    return (2 * votes > n_trees).astype(np.int8)


def predict_batch(model: DecisionTree | RandomForest, X: np.ndarray) -> np.ndarray:
    """Vectorized prediction of many rows; returns int labels (1 = Authentic)."""
    return _vote(model._layout, np.asarray(X, dtype=np.float64))


class Classifier(NamedTuple):
    """A model and the encoder of its rows, as a model file holds them: the one
    value that turns observations into votes. It unpacks as ``(model, encoder)``."""

    model: DecisionTree | RandomForest
    encoder: FeatureEncoder

    def votes(self, pairs: Sequence[tuple[DeviceRole, BeaconObservation]]) -> np.ndarray:
        """One int8 vote (1 = Authentic) per ``(role, observation)`` pair, encoded and classified in one batch."""
        return _vote(self.model._layout, encode_observations(self.encoder, pairs))


def evaluate(
    model: DecisionTree | RandomForest, X: np.ndarray, y: np.ndarray
) -> ConfusionMatrix:
    """Confusion matrix of the model over an encoded test set, one ``bincount`` of
    ``2 * prediction + label``. ``y`` is refused as in training unless it holds one
    label, 0 or 1, per row of X; a float or bool ``y`` of 0s and 1s reads as ints."""
    y = _labels(X, y)
    if len(y) == 0:
        raise EmptyTestSet("cannot evaluate on zero samples")
    tn, fn, fp, tp = np.bincount(2 * predict_batch(model, X) + y.astype(np.int64), minlength=4).tolist()
    return ConfusionMatrix(tp=tp, tn=tn, fp=fp, fn=fn)


def compute_metrics(cm: ConfusionMatrix) -> MetricsReport:
    """Accuracy, sensitivity, specificity, precision, and F1 as fractions.

    A metric whose denominator is zero is reported as None (undefined); F1 is
    0 when precision and sensitivity are both defined but sum to zero.
    """
    n = cm.total
    if n == 0:
        raise EmptyMatrix("confusion matrix has zero total count")

    def ratio(num: int, den: int) -> float | None:
        return num / den if den > 0 else None

    accuracy = (cm.tp + cm.tn) / n
    sensitivity = ratio(cm.tp, cm.tp + cm.fn)
    specificity = ratio(cm.tn, cm.tn + cm.fp)
    precision = ratio(cm.tp, cm.tp + cm.fp)
    if precision is None or sensitivity is None:
        f1 = None
    elif precision + sensitivity == 0:
        f1 = 0.0
    else:
        f1 = 2.0 * precision * sensitivity / (precision + sensitivity)
    return MetricsReport(
        accuracy=accuracy,
        sensitivity=sensitivity,
        specificity=specificity,
        precision=precision,
        f1=f1,
    )


# -- model serialization ------------------------------------------------------
#
# A model file is a single JSON document: format marker, version, model kind,
# the fitted encoder, the hyperparameters, the trees and, when the trainer
# records one, the ``train_seed`` of its held-out split. The encoder and the
# hyperparameters are written by ``jsondoc.encode``, fields in declaration
# order, so reordering a field changes the file bytes. There is one version,
# 2: each tree is three equal-length preorder columns, ``feature`` (-1 at a
# leaf), ``threshold`` (0.0 at a leaf) and ``counts`` ([0, 0] at a split); a
# split's right child follows from the preorder shape, so it is not stored.
# ``load_model`` reads one tree's lists at a time, and every tree passes the
# one column check, ``_columns_to_nodes``, on its way to ``_nodes``. A file of
# any other version, the nested nodes of version 1 among them, is refused. A
# threshold is a float64, so a hand-written int threshold is written back as a
# float; otherwise the document round-trips losslessly and re-serializes
# byte-identically. A malformed document is a ValueError.


def _tree_to_columns(tree: DecisionTree) -> dict:
    return {c: getattr(tree, c).tolist() for c in _COLUMNS}


def _columns_to_nodes(doc) -> tuple[np.ndarray, ...]:
    """The one check of a tree's node values, a model file's tree object.
    Each column is checked whole, in Python before numpy converts it (numpy
    1.x wraps an int32 overflow): features are ints in [-1, 2**31),
    thresholds finite ints or floats, counts pairs of ints in [0, 2**63).
    Then splits (feature >= 0) must have counts [0, 0] and leaves a float
    threshold 0.0, and :func:`_nodes` checks the tree's shape."""
    if type(doc) is not dict or doc.keys() != set(_COLUMNS) or {type(doc[c]) for c in _COLUMNS} != {list}:
        raise ValueError(f"bad tree {doc!r:.80}: not an object of the columns {list(_COLUMNS)}")
    feature, threshold, counts = (doc[c] for c in _COLUMNS)
    if not len(feature) == len(threshold) == len(counts):
        raise ValueError(f"the tree columns {list(_COLUMNS)} differ in length")
    kinds = set(map(type, threshold))
    # min and max compare an int past the float range exactly; a NaN fails them when they start from it
    if not (set(map(type, feature)) <= {int} and -1 <= min(feature, default=-1) and max(feature, default=-1) < 2**31
            and kinds <= {int, float} and -_FLOAT_MAX <= min(threshold, default=0.0)
            and max(threshold, default=0.0) <= _FLOAT_MAX
            and set(map(type, counts)) <= {list} and set(map(len, counts)) <= {2}
            and set(map(type, cells := list(chain.from_iterable(counts)))) <= {int}
            and 0 <= min(cells, default=0) and max(cells, default=0) < 2**63):
        raise ValueError("a tree column holds a value of the wrong type or range")
    columns = np.array(feature, np.int32), np.array(threshold, np.float64), np.array(cells, np.int64).reshape(-1, 2)
    if not np.isfinite(columns[1]).all():  # any NaN the range check missed
        raise ValueError("a tree column holds a value of the wrong type or range")
    leaf = columns[0] < 0
    if (columns[1][leaf].any() or columns[2][~leaf].any()
            or int in kinds and any(type(threshold[i]) is int for i in np.flatnonzero(leaf))):
        raise ValueError("a tree has a leaf with a threshold or a split with counts")
    return _nodes(*columns)


def model_to_document(
    model: DecisionTree | RandomForest, encoder: FeatureEncoder, train_seed: int | None = None
) -> dict:
    doc = {
        "format": MODEL_FORMAT,
        "version": MODEL_FORMAT_VERSION,
        "kind": "decision_tree" if isinstance(model, DecisionTree) else "random_forest",
        "encoder": encode(encoder),
        "params": encode(model.params),
    }
    if isinstance(model, DecisionTree):
        doc["tree"] = _tree_to_columns(model)
    else:
        doc["trees"] = [_tree_to_columns(t) for t in model.trees]
    if train_seed is not None:
        doc["train_seed"] = train_seed
    return doc


def document_to_model(doc: dict) -> Classifier:
    """A document as ``json.loads`` or :func:`read_model_document` reads it, of
    ``MODEL_FORMAT_VERSION`` only, to its :class:`Classifier`, the model compiled. A tree
    is its object or the columns (a tuple, which JSON never gives) that the latter made of it."""
    if not isinstance(doc, dict) or doc.get("format") != MODEL_FORMAT:
        raise ValueError(f"not a {MODEL_FORMAT} document")
    if type(version := doc.get("version")) is not int or version != MODEL_FORMAT_VERSION:
        raise ValueError(f"unsupported model format version {version!r}")

    def read_tree(tree, params: TreeParams) -> DecisionTree:
        return DecisionTree(*(tree if type(tree) is tuple else _columns_to_nodes(tree)), params)

    try:
        encoder = decode(FeatureEncoder, doc["encoder"], exact=True)
        if doc["kind"] == "decision_tree":
            model = read_tree(doc["tree"], decode(TreeParams, doc["params"], exact=True))
        elif doc["kind"] == "random_forest":
            params = decode(ForestParams, doc["params"], exact=True)
            trees = tuple(read_tree(d, params.tree_params) for d in doc["trees"])
            if len(trees) != params.n_trees:
                raise ValueError(f"a forest of n_trees {params.n_trees} holds {len(trees)} trees")
            if (k := params.features_per_split) > encoder.width:
                raise ValueError(f"features_per_split {k} exceeds the encoder's width {encoder.width}")
            model = RandomForest(trees=trees, params=params)
        else:
            raise ValueError(f"unknown model kind {doc['kind']!r}")
        if (top := model._layout.width - 1) >= encoder.width:  # compiles the model
            raise ValueError(f"a split on feature_index {top} is past the encoder's width {encoder.width}")
    except KeyError as exc:
        raise ValueError(f"malformed {MODEL_FORMAT} document: missing key {exc}") from exc
    except (AttributeError, IndexError, OverflowError, RecursionError, TypeError) as exc:
        raise ValueError(f"malformed {MODEL_FORMAT} document: {exc}") from exc
    return Classifier(model, encoder)


def save_model(
    path: str | Path,
    model: DecisionTree | RandomForest,
    encoder: FeatureEncoder,
    train_seed: int | None = None,
) -> None:
    Path(path).write_bytes(dump(model_to_document(model, encoder, train_seed)))


def read_model_document(path: str | Path):
    """A model file's document, parsed one tree at a time: an object of
    exactly the stored columns, each a list, is a tree, and becomes its
    checked columns as the parser closes it. Any other object stays as
    parsed: an SSID vocabulary may map those keys to ints, and a malformed
    tree fails the same check in :func:`document_to_model`."""
    return parse(Path(path).read_text(encoding="utf-8"), object_hook=lambda obj: (
        _columns_to_nodes(obj) if obj.keys() == set(_COLUMNS) and {type(v) for v in obj.values()} == {list}
        else obj))


def load_model(path: str | Path) -> Classifier:
    """The :class:`Classifier` a file holds, its model compiled, so its first
    prediction does not pay for the layout."""
    return document_to_model(read_model_document(path))
