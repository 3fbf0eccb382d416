"""The per-row version-2 tree reader that ``load_model`` used before it built a
tree's node columns whole: the checked columns, fed to a recursive preorder
walk one row at a time. The tests keep it as the reference the column reader
must agree with, column for column and right pointer for right pointer."""

import json
import math
from itertools import chain

import numpy as np

COLUMNS = ("feature", "threshold", "counts")


def rows_of(doc) -> list[list]:
    """[feature, threshold, right, counts] of one v2 tree object, as lists."""
    if type(doc) is not dict or doc.keys() != set(COLUMNS) or {type(doc[c]) for c in COLUMNS} != {list}:
        raise ValueError("not an object of the tree columns")
    feature, threshold, counts = (doc[c] for c in COLUMNS)
    if not len(feature) == len(threshold) == len(counts):
        raise ValueError("the tree columns differ in length")
    if not (set(map(type, feature)) <= {int} and min(feature, default=-1) >= -1
            and set(map(type, threshold)) <= {int, float} and all(map(math.isfinite, threshold))
            and set(map(type, counts)) <= {list} and set(map(len, counts)) <= {2}
            and set(map(type, cells := list(chain.from_iterable(counts)))) <= {int} and min(cells, default=0) >= 0):
        raise ValueError("a tree column holds a value of the wrong type or range")
    rows = zip(feature, threshold, counts)
    table: list[list] = []

    def visit() -> None:
        if (row := next(rows, None)) is None:
            raise ValueError("a tree's columns end before its last leaf")
        i = len(table)
        feature, threshold, counts = row
        if feature < 0:
            if type(threshold) is float and threshold == 0.0:
                table.append([-1, 0.0, -1, counts])
                return
        elif counts == [0, 0]:
            table.append([feature, threshold, -1, [0, 0]])
            visit()
            table[i][2] = len(table)
            visit()
            return
        raise ValueError("a leaf with a threshold or a split with counts")

    visit()
    if next(rows, None) is not None:
        raise ValueError("a tree's columns run on past its last leaf")
    return list(map(list, zip(*table)))


def trees_of(path) -> list[list[list]]:
    """The rows of every tree in a v2 model file, as :func:`rows_of` reads them."""
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    return [rows_of(t) for t in ([doc["tree"]] if "tree" in doc else doc["trees"])]


def node_rows(model) -> list[list[list]]:
    """[feature, threshold, right, counts] of every tree of a loaded model, as lists."""
    trees = model.trees if hasattr(model, "trees") else (model,)
    return [[np.asarray(getattr(t, c)).tolist() for c in ("feature", "threshold", "right", "counts")] for t in trees]
