"""Supervised co-location classifiers built from scratch.

Provides a stratified train/test split, a CART-style decision tree on Gini
impurity, a bagged random forest, confusion-matrix evaluation, and the five
derived metrics (accuracy, sensitivity, specificity, precision, F1).

Conventions
-----------
* Samples are numeric feature matrices ``X`` of shape (n, 4) as produced by
  :func:`proxauth.beacon_model.encode_dataset`, with integer labels ``y``
  (1 = Authentic, the positive class; 0 = Unauthorized).
* Trees are built and stored as ``SplitNode``/``LeafNode``, routing ``feature <=
  threshold`` to the left child, and compiled once into flat node arrays that
  one vectorized descent reads for every prediction.
* All tie-breaks fail toward Unauthorized: leaf majorities and forest votes
  that end even predict Unauthorized.
* Randomness comes from numpy's PCG64 generator seeded through
  ``SeedSequence``; per-tree streams derive only from (seed, tree_index),
  so serial and concurrent forest builds produce identical models.
"""

from __future__ import annotations

import json
import math
from array import array
from dataclasses import asdict, dataclass, field, fields
from functools import cached_property
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .beacon_model import (
    Dataset,
    FeatureEncoder,
    FEATURE_VECTOR_LENGTH,
    Label,
)
from .errors import (
    DegenerateSplit,
    EmptyMatrix,
    EmptyNode,
    EmptyTestSet,
    EmptyTrainingSet,
)

__all__ = [
    "TreeParams",
    "ForestParams",
    "SplitNode",
    "LeafNode",
    "DecisionTree",
    "RandomForest",
    "SplitCandidate",
    "ConfusionMatrix",
    "MetricsReport",
    "stratified_split",
    "gini_impurity",
    "best_split",
    "train_decision_tree",
    "train_random_forest",
    "predict",
    "predict_batch",
    "evaluate",
    "compute_metrics",
    "model_to_document",
    "document_to_model",
    "save_model",
    "load_model",
    "derived_rng",
]

_SEED_MASK = (1 << 64) - 1

MODEL_FORMAT = "proxauth-colocation-model"
MODEL_FORMAT_VERSION = 1


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
        if not 1 <= self.features_per_split <= FEATURE_VECTOR_LENGTH:
            raise ValueError(
                f"features_per_split must be in [1, {FEATURE_VECTOR_LENGTH}]"
            )


@dataclass(frozen=True)
class LeafNode:
    label: Label
    class_counts: tuple[int, int]  # (unauthorized, authentic)


@dataclass(frozen=True)
class SplitNode:
    feature_index: int
    threshold: float
    left: "SplitNode | LeafNode"   # samples with feature <= threshold
    right: "SplitNode | LeafNode"  # samples with feature > threshold


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


def _compile(roots: Sequence[SplitNode | LeafNode]) -> _Layout:
    columns = [array(t) for t in "idiibi"]  # feature, threshold, left, right, authentic, depth
    stack = [(root, -1, 0) for root in reversed(roots)]  # (node, parent of a right child, depth)
    while stack:
        node, parent, d = stack.pop()
        i = len(columns[0])
        if parent >= 0:
            columns[3][parent] = i
        if isinstance(node, SplitNode):
            row = (node.feature_index, node.threshold, i + 1, -1, False, d)
            stack += [(node.right, i, d + 1), (node.left, -1, d + 1)]
        else:
            row = (-1, 0.0, i, i, node.label is Label.AUTHENTIC, d)
        for column, value in zip(columns, row):
            column.append(value)
    *columns, depth = (np.frombuffer(c, bool if c.typecode == "b" else c.typecode) for c in columns)
    return _Layout(*columns, np.flatnonzero(depth == 0).astype(np.int32), int(depth.max(initial=0)))


@dataclass(frozen=True)
class DecisionTree:
    root: SplitNode | LeafNode
    params: TreeParams

    @cached_property
    def _layout(self) -> _Layout:  # compiled on first use; not a dataclass field
        return _compile((self.root,))

    def depth(self) -> int:
        return self._layout.depth

    def node_count(self) -> int:
        return len(self._layout.feature)


@dataclass(frozen=True)
class RandomForest:
    trees: tuple[DecisionTree, ...]
    params: ForestParams

    @cached_property
    def _layout(self) -> _Layout:
        return _compile([t.root for t in self.trees])


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
        return {
            "accuracy": self.accuracy,
            "sensitivity": self.sensitivity,
            "specificity": self.specificity,
            "precision": self.precision,
            "f1": self.f1,
        }


def stratified_split(
    dataset: Dataset, test_fraction: float, seed: int
) -> tuple[Dataset, Dataset]:
    """Split per class: the test side receives round-half-up(fraction * count)
    samples of each class, chosen by a seeded uniform shuffle. Deterministic
    for a fixed seed. Raises :class:`DegenerateSplit` when either class would
    leave one partition empty."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test_fraction must be in (0, 1), got {test_fraction}")
    by_label: dict[Label, list[int]] = {Label.AUTHENTIC: [], Label.UNAUTHORIZED: []}
    for i, s in enumerate(dataset.samples):
        by_label[s.label].append(i)
    for label, idxs in by_label.items():
        if not idxs:
            raise DegenerateSplit(f"class {label.value!r} has no samples")

    rng = derived_rng(seed)
    test_idx: list[int] = []
    train_idx: list[int] = []
    for label in (Label.AUTHENTIC, Label.UNAUTHORIZED):
        idxs = np.array(by_label[label], dtype=np.int64)
        k = _round_half_up(test_fraction * len(idxs))
        if k == 0 or k == len(idxs):
            raise DegenerateSplit(
                f"class {label.value!r} would contribute 0 samples to one partition"
            )
        perm = rng.permutation(idxs)
        test_idx.extend(perm[:k].tolist())
        train_idx.extend(perm[k:].tolist())

    test_idx.sort()
    train_idx.sort()
    samples = dataset.samples
    train = Dataset(tuple(samples[i] for i in train_idx), dataset.provenance)
    test = Dataset(tuple(samples[i] for i in test_idx), dataset.provenance)
    return train, test


def gini_impurity(class_counts: Sequence[int]) -> float:
    """Gini impurity 1 - sum(p_c^2) for a two-class count pair."""
    total = int(class_counts[0]) + int(class_counts[1])
    if total == 0:
        raise EmptyNode("gini impurity is undefined for an empty node")
    p0 = class_counts[0] / total
    p1 = class_counts[1] / total
    return 1.0 - (p0 * p0 + p1 * p1)


def _gini_from_arrays(neg: np.ndarray, pos: np.ndarray) -> np.ndarray:
    total = neg + pos
    with np.errstate(invalid="ignore"):
        return 1.0 - ((neg / total) ** 2 + (pos / total) ** 2)


def best_split(
    X: np.ndarray,
    y: np.ndarray,
    candidate_features: Sequence[int],
    min_child: int = 1,
    require_improvement: bool = True,
) -> SplitCandidate | None:
    """Exhaustively evaluate midpoint thresholds on each candidate feature and
    return the split minimizing child-size-weighted Gini impurity.

    Returns None when no threshold exists or (with ``require_improvement``)
    no split strictly reduces the parent impurity. Ties break toward the
    lowest feature index, then the lowest threshold. ``min_child`` rejects
    splits that would leave a child smaller than the minimum leaf size.
    ``require_improvement=False`` serves the tree builder's deadlock-breaker:
    exactly balanced mixed-label nodes (XOR-like) can have every candidate
    split tie the parent impurity, yet still separate perfectly one level
    deeper.
    """
    n = len(y)
    if n < 2:
        return None
    total_pos = int(y.sum())
    total_neg = n - total_pos
    parent = gini_impurity((total_neg, total_pos))

    best: tuple[float, int, float] | None = None  # (impurity, feature, threshold)
    for f in sorted(set(int(f) for f in candidate_features)):
        xs = X[:, f]
        order = np.argsort(xs, kind="stable")
        sx = xs[order]
        sy = y[order]
        # candidate boundaries between consecutive distinct values
        cut = np.nonzero(sx[1:] != sx[:-1])[0] + 1  # left sizes
        if cut.size == 0:
            continue
        if min_child > 1:
            cut = cut[(cut >= min_child) & (n - cut >= min_child)]
            if cut.size == 0:
                continue
        csum = np.cumsum(sy)
        left_pos = csum[cut - 1].astype(np.float64)
        left_n = cut.astype(np.float64)
        left_neg = left_n - left_pos
        right_pos = total_pos - left_pos
        right_n = n - left_n
        right_neg = right_n - right_pos
        weighted = (
            left_n * _gini_from_arrays(left_neg, left_pos)
            + right_n * _gini_from_arrays(right_neg, right_pos)
        ) / n
        thresholds = (sx[cut - 1] + sx[cut]) / 2.0
        # lowest threshold wins among equal impurities within this feature
        i = int(np.lexsort((thresholds, weighted))[0])
        cand = (float(weighted[i]), f, float(thresholds[i]))
        if best is None or cand < best:
            best = cand

    if best is None:
        return None
    if require_improvement and best[0] >= parent:
        return None
    return SplitCandidate(feature_index=best[1], threshold=best[2], weighted_impurity=best[0])


def _majority_label(neg: int, pos: int) -> Label:
    # ties fail closed to Unauthorized
    return Label.AUTHENTIC if pos > neg else Label.UNAUTHORIZED


def _build_tree(
    X: np.ndarray,
    y: np.ndarray,
    params: TreeParams,
    depth: int,
    choose_features: Callable[[], Sequence[int]],
) -> SplitNode | LeafNode:
    n = len(y)
    pos = int(y.sum())
    neg = n - pos

    def leaf() -> LeafNode:
        return LeafNode(label=_majority_label(neg, pos), class_counts=(neg, pos))

    if pos == 0 or neg == 0:
        return leaf()
    if n < params.min_samples_split:
        return leaf()
    if params.max_depth is not None and depth >= params.max_depth:
        return leaf()

    # Deadlock-breaker: without require_improvement, a mixed node whose every
    # split ties the parent impurity still takes the best tie split, which
    # separates deeper down, so consistent data always trains to purity.
    cand = best_split(X, y, choose_features(), params.min_samples_leaf, require_improvement=False)
    if cand is None:
        return leaf()

    mask = X[:, cand.feature_index] <= cand.threshold
    left = _build_tree(X[mask], y[mask], params, depth + 1, choose_features)
    right = _build_tree(X[~mask], y[~mask], params, depth + 1, choose_features)
    return SplitNode(cand.feature_index, cand.threshold, left, right)


def train_decision_tree(
    X: np.ndarray,
    y: np.ndarray,
    params: TreeParams = TreeParams(),
    seed: int = 0,
) -> DecisionTree:
    """Greedy CART over all four features. ``seed`` is accepted for interface
    symmetry with the forest; plain tree induction is fully deterministic."""
    if len(y) == 0:
        raise EmptyTrainingSet("cannot train a tree on zero samples")
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    all_features = tuple(range(X.shape[1]))
    root = _build_tree(X, y, params, 0, lambda: all_features)
    return DecisionTree(root=root, params=params)


def train_random_forest(
    X: np.ndarray,
    y: np.ndarray,
    params: ForestParams = ForestParams(),
) -> RandomForest:
    """Bagged forest: tree i trains on a bootstrap resample (drawn from an RNG
    derived from (seed, i)) and considers ``features_per_split`` randomly drawn
    features at each node."""
    n = len(y)
    if n == 0:
        raise EmptyTrainingSet("cannot train a forest on zero samples")
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    n_features = X.shape[1]

    trees = []
    for i in range(params.n_trees):
        rng = derived_rng(params.seed, i)
        if params.bootstrap:
            idx = rng.integers(0, n, size=n)
            Xi, yi = X[idx], y[idx]
        else:
            Xi, yi = X, y

        def choose() -> Sequence[int]:
            return np.sort(rng.choice(n_features, size=params.features_per_split, replace=False))

        root = _build_tree(Xi, yi, params.tree_params, 0, choose)
        trees.append(DecisionTree(root=root, params=params.tree_params))
    return RandomForest(trees=tuple(trees), params=params)


def _vote(layout: _Layout, X: np.ndarray) -> np.ndarray:
    """The one tree descent: all (tree, row) positions step down a level at a
    time (flat ``take`` indexing keeps one login's few rows cheap); each row
    then takes its trees' majority, an even vote Unauthorized."""
    n_trees, (n_rows, width) = len(layout.roots), X.shape
    row_start = np.tile(np.arange(n_rows) * width, n_trees)
    pos = np.repeat(layout.roots, n_rows)
    for _ in range(layout.depth):  # a leaf reads any value and stays put
        x = X.take(row_start + layout.feature.take(pos))
        pos = np.where(x <= layout.threshold.take(pos), layout.left.take(pos), layout.right.take(pos))
    votes = layout.authentic.take(pos).reshape(n_trees, n_rows).sum(axis=0)
    return (2 * votes > n_trees).astype(np.int8)


def predict(model: DecisionTree | RandomForest, x: np.ndarray) -> Label:
    """Classify one feature vector. Forests take an unweighted majority vote;
    an even vote predicts Unauthorized."""
    row = np.asarray(x, dtype=np.float64).reshape(1, -1)
    return Label.AUTHENTIC if _vote(model._layout, row)[0] else Label.UNAUTHORIZED


def predict_batch(model: DecisionTree | RandomForest, X: np.ndarray) -> np.ndarray:
    """Vectorized prediction of many rows; returns int labels (1 = Authentic)."""
    return _vote(model._layout, np.asarray(X, dtype=np.float64))


def evaluate(
    model: DecisionTree | RandomForest, X: np.ndarray, y: np.ndarray
) -> ConfusionMatrix:
    """Confusion matrix of the model over an encoded test set."""
    if len(y) == 0:
        raise EmptyTestSet("cannot evaluate on zero samples")
    pred = predict_batch(model, X)
    y = np.asarray(y)
    tp = int(np.sum((pred == 1) & (y == 1)))
    tn = int(np.sum((pred == 0) & (y == 0)))
    fp = int(np.sum((pred == 1) & (y == 0)))
    fn = int(np.sum((pred == 0) & (y == 1)))
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
# the fitted encoder, the hyperparameters, the full tree structures and, when
# the trainer records one, the ``train_seed`` of its held-out split. The
# encoder and the hyperparameters are their dataclasses' fields in declaration
# order, so reordering a field changes the file bytes. ``save_model`` writes
# every model file. The document round-trips losslessly and re-serializes
# byte-identically; a malformed document is a ValueError.


def _node_to_doc(node: SplitNode | LeafNode) -> dict:
    if isinstance(node, LeafNode):
        return {
            "type": "leaf",
            "label": node.label.value,
            "class_counts": list(node.class_counts),
        }
    return {
        "type": "split",
        "feature_index": node.feature_index,
        "threshold": node.threshold,
        "left": _node_to_doc(node.left),
        "right": _node_to_doc(node.right),
    }


def _node_from_doc(doc: dict) -> SplitNode | LeafNode:
    if doc["type"] == "leaf":
        counts = doc["class_counts"]
        return LeafNode(label=Label(doc["label"]), class_counts=(int(counts[0]), int(counts[1])))
    if doc["type"] != "split":
        raise ValueError(f"unknown node type {doc['type']!r}")
    return SplitNode(
        feature_index=int(doc["feature_index"]),
        threshold=float(doc["threshold"]),
        left=_node_from_doc(doc["left"]),
        right=_node_from_doc(doc["right"]),
    )


def _from_doc(cls, doc: dict, **read):
    """Build dataclass ``cls`` from a document holding exactly its fields;
    ``read`` maps a field name to the function that converts its value."""
    names = [f.name for f in fields(cls)]
    if not isinstance(doc, dict) or doc.keys() != set(names):
        raise ValueError(f"{cls.__name__} must be an object with keys {names}, got {doc!r:.200}")
    return cls(**{k: read[k](v) if k in read else v for k, v in doc.items()})


def model_to_document(
    model: DecisionTree | RandomForest, encoder: FeatureEncoder, train_seed: int | None = None
) -> dict:
    doc = {
        "format": MODEL_FORMAT,
        "version": MODEL_FORMAT_VERSION,
        "kind": "decision_tree" if isinstance(model, DecisionTree) else "random_forest",
        "encoder": asdict(encoder),
        "params": asdict(model.params),
    }
    if isinstance(model, DecisionTree):
        doc["tree"] = _node_to_doc(model.root)
    else:
        doc["trees"] = [_node_to_doc(t.root) for t in model.trees]
    if train_seed is not None:
        doc["train_seed"] = train_seed
    return doc


def document_to_model(doc: dict) -> tuple[DecisionTree | RandomForest, FeatureEncoder]:
    if not isinstance(doc, dict) or doc.get("format") != MODEL_FORMAT:
        raise ValueError(f"not a {MODEL_FORMAT} document")
    if doc.get("version") != MODEL_FORMAT_VERSION:
        raise ValueError(f"unsupported model format version {doc.get('version')!r}")
    try:
        encoder = _from_doc(FeatureEncoder, doc["encoder"], frequency_scale=tuple)
        if doc["kind"] == "decision_tree":
            model: DecisionTree | RandomForest = DecisionTree(
                root=_node_from_doc(doc["tree"]), params=_from_doc(TreeParams, doc["params"])
            )
        elif doc["kind"] == "random_forest":
            params = _from_doc(
                ForestParams, doc["params"], tree_params=lambda p: _from_doc(TreeParams, p)
            )
            trees = tuple(
                DecisionTree(root=_node_from_doc(d), params=params.tree_params) for d in doc["trees"]
            )
            model = RandomForest(trees=trees, params=params)
        else:
            raise ValueError(f"unknown model kind {doc['kind']!r}")
    except KeyError as exc:
        raise ValueError(f"malformed {MODEL_FORMAT} document: missing key {exc}") from exc
    except (AttributeError, IndexError, TypeError) as exc:
        raise ValueError(f"malformed {MODEL_FORMAT} document: {exc}") from exc
    return model, encoder


def save_model(
    path: str | Path,
    model: DecisionTree | RandomForest,
    encoder: FeatureEncoder,
    train_seed: int | None = None,
) -> None:
    doc = model_to_document(model, encoder, train_seed)
    Path(path).write_text(json.dumps(doc, separators=(",", ":")) + "\n", encoding="utf-8")


def load_model(path: str | Path) -> tuple[DecisionTree | RandomForest, FeatureEncoder]:
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    return document_to_model(doc)
