"""Model persistence: a versioned JSON document that round-trips losslessly.

The file bundles everything prediction needs: the hyperparameters, the
fitted feature encoder (SSID vocabulary + frequency scale), and the trees,
each as three preorder columns (feature, threshold, counts) from which the
reader rebuilds the right-child pointers. The reader turns each tree into
typed, read-only numpy columns as soon as the JSON parser closes it, and
compiles the model before it returns, so the first prediction pays for
nothing. Training is deterministic per seed, so the same inputs produce
byte-identical files.
"""

import json
import tempfile
from pathlib import Path

import numpy as np

from proxauth import (
    EnvironmentConfig,
    ForestParams,
    PathLossConfig,
    build_feature_encoder,
    encode_dataset,
    generate_dataset,
    load_model,
    predict_batch,
    save_model,
    train_random_forest,
)

dataset = generate_dataset(EnvironmentConfig(), PathLossConfig(), 60, 3, seed=8)
encoder = build_feature_encoder(dataset)
X, y = encode_dataset(encoder, dataset)
forest = train_random_forest(X, y, ForestParams(n_trees=20, seed=8))

with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "forest.model"
    save_model(path, forest, encoder)
    print(f"wrote {path.stat().st_size:,} bytes")

    doc = json.loads(path.read_text())
    print(f"format: {doc['format']} v{doc['version']}, kind: {doc['kind']}")
    print(f"params: {doc['params']}")
    print(f"encoder vocabulary: {list(doc['encoder']['ssid_vocabulary'])[:4]}...")
    tree = doc["trees"][0]
    rows = list(zip(*(tree[column] for column in tree)))
    print(f"tree 0: columns {list(tree)}, {len(rows)} preorder rows, the first three {rows[:3]}")

    again, enc_again = load_model(path)
    first = again.trees[0]
    print(f"loaded tree 0: feature {first.feature.dtype}, threshold {first.threshold.dtype}, "
          f"counts {first.counts.dtype} {first.counts.shape}, right {first.right.dtype} "
          f"(derived, the first three {first.right[:3].tolist()}), compiled at load: {'_layout' in vars(again)}")
    print(f"reload: {len(again.trees)} trees, predictions identical: "
          f"{np.array_equal(predict_batch(again, X), predict_batch(forest, X))}")

    # determinism: retraining with the same seed reproduces the same bytes
    retrained = train_random_forest(X, y, ForestParams(n_trees=20, seed=8))
    other = Path(tmp) / "again.model"
    save_model(other, retrained, encoder)
    print(f"byte-identical retrain: {path.read_bytes() == other.read_bytes()}")
