"""The version-1 model file writer, which the tests keep since ``save_model``
writes version 2: every tree as nested split and leaf nodes, the header as
``model_to_document`` writes it. The v1 reader tests build their documents
with it, and ``test_cli`` checks that it reproduces the v1 files the seed-5
pipeline wrote, byte for byte."""

import json

from proxauth.colocation_ml import _leaf_doc, model_to_document


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
