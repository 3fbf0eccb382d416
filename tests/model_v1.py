"""The version-1 model file, which ``load_model`` refuses since ``save_model``
writes version 2, the one version it reads. The tests keep its writer, every
tree as nested split and leaf nodes with the header as ``model_to_document``
writes it: ``test_cli`` checks that it reproduces the v1 files the seed-5
pipeline wrote, byte for byte, and the refusal tests write v1 files with it.
Next to it is the v1 tree reader that ``colocation_ml`` kept until v1 was
refused; the tests build hand-made trees with it from nested node documents.
Below them are the v1 reader and the trainer as they were when both grew a
tree through one ``_grow``: the references that the column-fed reader and the
trainer's own stack loop must agree with, tree for tree."""

import json
import math

import numpy as np

from proxauth.beacon_model import Label
from proxauth.colocation_ml import (
    _COLUMNS,
    DecisionTree,
    ForestParams,
    RandomForest,
    TreeParams,
    _columns_to_nodes,
    _nodes,
    best_split,
    derived_rng,
    model_to_document,
)


def _leaf_doc(unauthorized: int, authentic: int) -> dict:
    label = Label.AUTHENTIC if authentic > unauthorized else Label.UNAUTHORIZED  # a tie fails closed
    return {
        "type": "leaf",
        "label": label.value,
        "class_counts": [unauthorized, authentic],
    }


_SPLIT_KEYS = {"type", "feature_index", "threshold", "left", "right"}


def _tree_from_doc(doc, params: TreeParams) -> DecisionTree:
    """The v1 tree reader: the nested nodes flattened into the v2 columns in
    preorder, on an explicit stack, for :func:`_columns_to_nodes` to check and
    pass to :func:`_nodes`. It checks only what is v1's own: a split has
    exactly its keys and an int ``feature_index`` >= 0 (-1 would read as a
    leaf), and a leaf is what ``_leaf_doc`` gives for its two counts."""
    table, stack = [], [doc]
    while stack:
        node = stack.pop()
        if (type(node) is dict and node.keys() == _SPLIT_KEYS and node["type"] == "split"
                and type(node["feature_index"]) is int and node["feature_index"] >= 0):
            table.append((node["feature_index"], node["threshold"], [0, 0]))
            stack += node["right"], node["left"]
        elif (type(node) is dict and type(counts := node.get("class_counts")) is list and len(counts) == 2
              and node == _leaf_doc(*counts)):
            table.append((-1, 0.0, counts))
        else:
            raise ValueError(f"bad tree node {node!r:.80}: not a split or leaf as the v1 format writes it")
    return DecisionTree(*_columns_to_nodes(dict(zip(_COLUMNS, map(list, zip(*table))))), params)


def node_doc(tree, i=0):
    """The v1 node document of ``tree``'s subtree rooted at row ``i``."""
    if tree.feature[i] < 0:
        return _leaf_doc(*tree.counts[i].tolist())
    return {
        "type": "split",
        "feature_index": tree.feature[i].item(),
        "threshold": tree.threshold[i].item(),
        "left": node_doc(tree, i + 1),
        "right": node_doc(tree, tree.right[i].item()),
    }


def v1_document(model, encoder, train_seed=None):
    doc = model_to_document(model, encoder, train_seed)
    doc["version"] = 1
    if "tree" in doc:
        doc["tree"] = node_doc(model)
    else:
        doc["trees"] = [node_doc(t) for t in model.trees]
    return doc


def v1_bytes(model, encoder, train_seed=None) -> bytes:
    """The v1 file, as ``save_model`` wrote it."""
    return (json.dumps(v1_document(model, encoder, train_seed), separators=(",", ":")) + "\n").encode()


def _grow(expand, root, params: TreeParams) -> DecisionTree:
    """Rows for ``_nodes`` in preorder on an explicit stack: ``expand(node)``
    gives a leaf's (unauthorized, authentic) counts or a split's (feature,
    threshold, left child, right child)."""
    rows, stack = [], [root]
    while stack:
        grown = expand(stack.pop())
        if len(grown) == 2:
            rows.append((-1, 0.0, grown))
        else:
            feature, threshold, left, right = grown
            rows.append((feature, threshold, (0, 0)))
            stack += (right, left)
    return DecisionTree(*_nodes(*zip(*rows)), params)


def grow_tree_from_doc(doc, params: TreeParams) -> DecisionTree:
    """The v1 tree reader that checked each node's values itself."""

    def expand(node):
        if type(node) is dict and node.keys() == _SPLIT_KEYS and node["type"] == "split":
            feature, threshold = node["feature_index"], node["threshold"]
            if (type(feature) is int and 0 <= feature < 2**31
                    and type(threshold) in (int, float) and math.isfinite(threshold)):
                return feature, threshold, node["left"], node["right"]
        elif type(node) is dict and type(counts := node.get("class_counts")) is list and len(counts) == 2:
            if all(type(c) is int and 0 <= c < 2**63 for c in counts) and node == _leaf_doc(*counts):
                return tuple(counts)
        raise ValueError(f"bad tree node {node!r:.80}: not a split or leaf as the v1 format writes it")

    return _grow(expand, doc, params)


def grow_random_forest(X, y, params: ForestParams = ForestParams()) -> RandomForest:
    """The trainer whose ``expand`` callback fed ``_grow``."""
    n = len(y)
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    n_features, k, tree_params = X.shape[1], params.features_per_split, params.tree_params

    trees = []
    for i in range(params.n_trees):
        rng = derived_rng(params.seed, i)
        rows = rng.integers(0, n, size=n) if params.bootstrap else slice(None)

        def expand(node):
            X, y, depth = node
            n = len(y)
            pos = int(y.sum())
            neg = n - pos
            if pos == 0 or neg == 0:
                return neg, pos
            if n < tree_params.min_samples_split:
                return neg, pos
            if tree_params.max_depth is not None and depth >= tree_params.max_depth:
                return neg, pos
            features = np.sort(rng.choice(n_features, size=k, replace=False))
            cand = best_split(X, y, features, tree_params.min_samples_leaf, require_improvement=False)
            if cand is None:
                return neg, pos
            mask = X[:, cand.feature_index] <= cand.threshold
            left, right = (X[mask], y[mask], depth + 1), (X[~mask], y[~mask], depth + 1)
            return cand.feature_index, cand.threshold, left, right

        trees.append(_grow(expand, (X[rows], y[rows], 0), tree_params))
    return RandomForest(trees=tuple(trees), params=params)
