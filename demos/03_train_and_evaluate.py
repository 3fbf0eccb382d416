"""The supervised pipeline: stratified 80/20 split, tree and forest, metrics.

Both classifiers are built from scratch: CART on Gini impurity for the
tree, bootstrap bagging with per-split feature sampling for the forest.
Evaluation reports the confusion matrix and the five standard metrics.
"""

import time

from proxauth import (
    EnvironmentConfig,
    ForestParams,
    PathLossConfig,
    TreeParams,
    build_feature_encoder,
    compute_metrics,
    encode_dataset,
    evaluate,
    generate_dataset,
    stratified_split,
    train_decision_tree,
    train_random_forest,
)

SEED = 101

dataset = generate_dataset(EnvironmentConfig(), PathLossConfig(), 360, 3, seed=SEED)
train_set, test_set = stratified_split(dataset, test_fraction=0.2, seed=SEED)
print(f"dataset: {len(dataset)} rows -> train {len(train_set)}, test {len(test_set)}")

# the encoder is fitted on the training split only
encoder = build_feature_encoder(train_set)
X_train, y_train = encode_dataset(encoder, train_set)
X_test, y_test = encode_dataset(encoder, test_set)
print(f"vocabulary: {len(encoder.ssid_vocabulary)} SSIDs, "
      f"frequency scale {encoder.frequency_scale[0] / 1e9:.3f}..{encoder.frequency_scale[1] / 1e9:.3f} GHz")

for name, trainer in (
    ("decision tree", lambda: train_decision_tree(X_train, y_train, TreeParams())),
    ("random forest", lambda: train_random_forest(X_train, y_train, ForestParams(seed=SEED))),
):
    started = time.perf_counter()
    model = trainer()
    elapsed = time.perf_counter() - started
    cm = evaluate(model, X_test, y_test)
    m = compute_metrics(cm)
    print(f"\n{name} (trained in {elapsed:.2f}s)")
    print(f"  confusion matrix: tp={cm.tp} tn={cm.tn} fp={cm.fp} fn={cm.fn}")
    print(f"  accuracy={m.accuracy:.3f} sensitivity={m.sensitivity:.3f} "
          f"specificity={m.specificity:.3f} precision={m.precision:.3f} f1={m.f1:.3f}")
