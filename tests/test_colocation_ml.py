import dataclasses
import hashlib
import json

import numpy as np
import pytest

from proxauth.beacon_model import (
    BeaconObservation,
    Dataset,
    DeviceRole,
    FeatureEncoder,
    Label,
    LabeledSample,
    dataset_to_csv_bytes,
    encode_observations,
)
from proxauth.colocation_ml import (
    Classifier,
    ConfusionMatrix,
    DecisionTree,
    ForestParams,
    RandomForest,
    TreeParams,
    _nodes,
    _tree_to_columns,
    best_split,
    compute_metrics,
    document_to_model,
    evaluate,
    gini_impurity,
    load_model,
    model_to_document,
    predict_batch,
    save_model,
    stratified_split,
    train_decision_tree,
    train_random_forest,
)
from proxauth.errors import (
    DegenerateSplit,
    EmptyMatrix,
    EmptyNode,
    EmptyTestSet,
    EmptyTrainingSet,
)
from proxauth.rf_simulator import EnvironmentConfig, PathLossConfig, generate_dataset, sessions_for_target_rows

from model_v1 import _tree_from_doc, grow_random_forest, grow_tree_from_doc, node_doc, v1_document
from model_v2_rows import node_rows, trees_of


def leaf(label, counts):
    return {"type": "leaf", "label": label.value, "class_counts": list(counts)}


def split(feature, threshold, left, right):
    return {"type": "split", "feature_index": feature, "threshold": threshold, "left": left, "right": right}


def tree_of(node):
    """A hand-made tree: a v1 node document read by the tests' v1 reader."""
    return _tree_from_doc(node, TreeParams())


def make_dataset(n_auth, n_unauth):
    def mk(i, label):
        return LabeledSample(
            role=DeviceRole.MOBILE,
            observation=BeaconObservation(f"N{i % 7}", 2437000000, -40 - (i % 50)),
            location_tag="L",
            label=label,
        )

    samples = tuple(mk(i, Label.AUTHENTIC) for i in range(n_auth)) + tuple(
        mk(i, Label.UNAUTHORIZED) for i in range(n_unauth)
    )
    return Dataset(samples)


def random_consistent_data(rng, n_max=200):
    """Random dataset whose label is a fixed random function of the feature
    tuple, so no two identical rows ever disagree."""
    n = int(rng.integers(1, n_max + 1))
    X = np.column_stack(
        [
            rng.integers(0, 2, n),
            rng.integers(0, 6, n),
            rng.integers(0, 4, n) / 3.0,
            rng.integers(-90, -39, n),
        ]
    ).astype(np.float64)
    labels = {}
    y = np.empty(n, dtype=np.int8)
    for i in range(n):
        key = tuple(X[i])
        if key not in labels:
            labels[key] = int(rng.integers(0, 2))
        y[i] = labels[key]
    return X, y


# sha256 of the (train, test) CSVs of stratified_split(D, 0.2, S), D the default 4,828-row dataset
# that `proxauth simulate --seed S` writes; taken with numpy 2.4.6 from the split that kept
# per-class index lists and sorted them, before the split became one boolean mask
SPLIT_SHA256 = {
    5: ("9793cadee1e769692ccbce9f570f4ca3445e38ed042b663bf2c553e4d9609270",
        "fb351175bd6bbd1db6274c8934c4f4b0384b9f5cf141a625a69bd38ab33d45c1"),
    7: ("7c776da21fd9638b337ce32519242e394f63fe235a949d17701947634ded2a2d",
        "8584ab4f14ad1f1cdc6443b7103f89e2571700f6b5f70638c602aeecf4ca77d6"),
    11: ("c682fb16e92a03354c0c60a58c68ed404a4321da44742874e5c95ccceda9677a",
         "c69951fc70fc38a28d2eab60ac00a5eb58f87a89d6a16aff93bc8e5727a38158"),
}


class TestStratifiedSplit:
    @pytest.mark.parametrize("seed", list(SPLIT_SHA256))
    def test_default_splits_write_pinned_bytes(self, seed):
        env, loss = EnvironmentConfig(), PathLossConfig()
        dataset = generate_dataset(env, loss, sessions_for_target_rows(env, loss, 4825, 3, seed), 3, seed)
        sides = stratified_split(dataset, 0.2, seed)
        assert tuple(hashlib.sha256(dataset_to_csv_bytes(side)).hexdigest() for side in sides) == SPLIT_SHA256[seed]

    def test_field_collection_counts_round_half_up(self):
        ds = make_dataset(2442, 2383)
        train, test = stratified_split(ds, 0.2, seed=9)
        counts = test.label_counts()
        assert counts[Label.AUTHENTIC] == 488
        assert counts[Label.UNAUTHORIZED] == 477
        assert len(test) == 965
        assert len(train) == 3860

    def test_ten_samples_exact(self):
        ds = make_dataset(5, 5)
        train, test = stratified_split(ds, 0.2, seed=1)
        assert test.label_counts() == {Label.AUTHENTIC: 1, Label.UNAUTHORIZED: 1}
        assert train.label_counts() == {Label.AUTHENTIC: 4, Label.UNAUTHORIZED: 4}

    def test_deterministic(self):
        ds = make_dataset(40, 37)
        a = stratified_split(ds, 0.25, seed=42)
        b = stratified_split(ds, 0.25, seed=42)
        assert a[0].samples == b[0].samples
        assert a[1].samples == b[1].samples

    def test_different_seeds_differ(self):
        ds = make_dataset(40, 37)
        a = stratified_split(ds, 0.25, seed=1)
        b = stratified_split(ds, 0.25, seed=2)
        assert a[1].samples != b[1].samples

    def test_union_is_original_multiset(self):
        ds = make_dataset(31, 29)
        train, test = stratified_split(ds, 0.3, seed=3)
        assert sorted(map(repr, train.samples + test.samples)) == sorted(map(repr, ds.samples))

    def test_degenerate_when_class_too_small(self):
        with pytest.raises(DegenerateSplit):
            stratified_split(make_dataset(2, 50), 0.1, seed=0)  # round(0.2) == 0

    def test_degenerate_when_test_takes_everything(self):
        with pytest.raises(DegenerateSplit):
            stratified_split(make_dataset(1, 50), 0.6, seed=0)

    def test_missing_class_rejected(self):
        with pytest.raises(DegenerateSplit):
            stratified_split(make_dataset(10, 0), 0.2, seed=0)

    def test_fraction_bounds(self):
        with pytest.raises(ValueError):
            stratified_split(make_dataset(5, 5), 1.0, seed=0)


class TestGini:
    def test_pure_node(self):
        assert gini_impurity((10, 0)) == 0.0

    def test_symmetric(self):
        assert gini_impurity((5, 5)) == 0.5

    def test_three_one(self):
        assert gini_impurity((3, 1)) == pytest.approx(0.375)

    def test_a_pair_of_arrays_gives_one_impurity_per_node(self):
        neg, pos = np.array([10, 5, 3]), np.array([0, 5, 1])
        assert gini_impurity((neg, pos)).tolist() == [gini_impurity(pair) for pair in zip(neg, pos)]

    @pytest.mark.parametrize("counts", [(0, 0), (np.array([3, 0]), np.array([1, 0]))], ids=["pair", "arrays"])
    def test_empty_node(self, counts):
        with pytest.raises(EmptyNode):
            gini_impurity(counts)


def brute_force_best_split(X, y, features, min_child=1):
    """Independent oracle: enumerate every feature and midpoint threshold."""
    n = len(y)
    parent = gini_impurity((int(np.sum(y == 0)), int(np.sum(y == 1))))
    best = None
    for f in sorted(set(features)):
        values = sorted(set(X[:, f]))
        for lo, hi in zip(values, values[1:]):
            thr = (lo + hi) / 2.0
            mask = X[:, f] <= thr
            nl, nr = int(mask.sum()), int((~mask).sum())
            if nl < min_child or nr < min_child:
                continue
            gl = gini_impurity((int(np.sum(y[mask] == 0)), int(np.sum(y[mask] == 1))))
            gr = gini_impurity((int(np.sum(y[~mask] == 0)), int(np.sum(y[~mask] == 1))))
            w = (nl * gl + nr * gr) / n
            cand = (w, f, thr)
            if best is None or cand < best:
                best = cand
    if best is None or best[0] >= parent:
        return None
    return best


def brute_force_least_impurity(X, y, features, min_child=1):
    """The oracle without its parent check: the least (weighted impurity,
    feature, threshold) over every legal midpoint, or None when there is none."""
    n = len(y)
    splits = []
    for f in sorted(set(features)):
        values = sorted(set(X[:, f]))
        for lo, hi in zip(values, values[1:]):
            thr = (lo + hi) / 2.0
            mask = X[:, f] <= thr
            nl, nr = int(mask.sum()), int((~mask).sum())
            if nl >= min_child and nr >= min_child:
                gl = gini_impurity((int(np.sum(y[mask] == 0)), int(np.sum(y[mask] == 1))))
                gr = gini_impurity((int(np.sum(y[~mask] == 0)), int(np.sum(y[~mask] == 1))))
                splits.append(((nl * gl + nr * gr) / n, f, thr))
    return min(splits, default=None)


class TestBestSplit:
    def test_perfect_separation_on_rssi(self):
        X = np.array([[0, 1, 0.5, -70], [0, 1, 0.5, -72], [0, 1, 0.5, -50], [0, 1, 0.5, -52]], float)
        y = np.array([0, 0, 1, 1], np.int8)
        cand = best_split(X, y, [0, 1, 2, 3])
        assert cand is not None
        assert cand.feature_index == 3
        assert cand.threshold == pytest.approx((-70 + -52) / 2)
        assert cand.weighted_impurity == 0.0

    def test_identical_vectors_mixed_labels(self):
        X = np.tile([0.0, 1.0, 0.5, -60.0], (6, 1))
        y = np.array([0, 1, 0, 1, 0, 1], np.int8)
        assert best_split(X, y, [0, 1, 2, 3]) is None

    @pytest.mark.parametrize("features", [[0, 1, 2, 3], [3, 1, 3, 2, 1]], ids=["sorted", "unsorted-repeated"])
    def test_tie_prefers_lowest_feature_index(self, features):
        # features 1 and 3 both separate perfectly
        X = np.array([[0, 0, 0.0, -80], [0, 0, 0.0, -80], [0, 5, 0.0, -40], [0, 5, 0.0, -40]], float)
        y = np.array([0, 0, 1, 1], np.int8)
        cand = best_split(X, y, features)
        assert cand.feature_index == 1

    def test_tie_prefers_lowest_threshold(self):
        # cutting off either end's lone 0 leaves the same impurity; mirroring the
        # values makes the other cut the lower threshold
        X = np.array([[0, 0, 0, -90], [0, 0, 0, -80], [0, 0, 0, -70], [0, 0, 0, -60]], float)
        y = np.array([0, 1, 1, 0], np.int8)
        cand, mirrored = best_split(X, y, [3]), best_split(-X, y, [3])
        assert (cand.threshold, mirrored.threshold) == (-85.0, 65.0)
        assert cand.weighted_impurity == mirrored.weighted_impurity

    @pytest.mark.parametrize("n", [0, 1])
    def test_fewer_than_two_rows_returns_none(self, n):
        X = np.array([[0, 1, 0.5, -50]], float)[:n]
        assert best_split(X, np.ones(n, np.int8), [0, 1, 2, 3], require_improvement=False) is None

    def test_no_improvement_returns_none(self):
        # any threshold keeps both children at gini 0.5
        X = np.array([[0, 1, 0, -60], [0, 1, 0, -60], [0, 2, 0, -50], [0, 2, 0, -50]], float)
        y = np.array([0, 1, 0, 1], np.int8)
        assert best_split(X, y, [1]) is None

    def test_min_child_filters_splits(self):
        X = np.array([[0, 0, 0, -90], [0, 0, 0, -60], [0, 0, 0, -59], [0, 0, 0, -58]], float)
        y = np.array([0, 1, 1, 1], np.int8)
        free = best_split(X, y, [3], min_child=1)
        assert free.threshold == pytest.approx(-75.0)  # isolates the single 0
        bounded = best_split(X, y, [3], min_child=2)
        assert bounded.threshold == pytest.approx(-59.5)  # smallest legal children
        assert best_split(X, y, [3], min_child=3, require_improvement=False) is None  # no cut leaves 3 a side

    def test_xor_balance_requires_fallback(self):
        # every split ties the parent impurity; strict mode must return None
        X = np.array([[0, 0, 0, -60], [0, 0, 0, -50], [0, 1, 0, -60], [0, 1, 0, -50]], float)
        y = np.array([0, 1, 1, 0], np.int8)
        assert best_split(X, y, [0, 1, 2, 3]) is None
        tied = best_split(X, y, [0, 1, 2, 3], require_improvement=False)
        assert tied is not None
        assert tied.weighted_impurity == pytest.approx(0.5)

    @pytest.mark.parametrize("require_improvement", [True, False])
    @pytest.mark.parametrize("reorder", [False, True], ids=["sorted", "unsorted-repeated"])
    def test_matches_brute_force_oracle(self, require_improvement, reorder):
        rng = np.random.default_rng(123)
        for _ in range(150):
            n = int(rng.integers(2, 40))
            X = np.column_stack(
                [
                    rng.integers(0, 2, n),
                    rng.integers(0, 5, n),
                    rng.integers(0, 3, n) / 2.0,
                    rng.integers(-80, -50, n),
                ]
            ).astype(np.float64)
            y = rng.integers(0, 2, n).astype(np.int8)
            feats = sorted(rng.choice(4, size=int(rng.integers(1, 5)), replace=False).tolist())
            min_child = int(rng.integers(1, 3))
            passed = feats[::-1] + feats[:1] if reorder else feats
            ours = best_split(X, y, passed, min_child=min_child, require_improvement=require_improvement)
            if require_improvement:
                oracle = brute_force_best_split(X, y, feats, min_child=min_child)
            else:
                oracle = brute_force_least_impurity(X, y, feats, min_child=min_child)
            if oracle is None:
                assert ours is None
            else:
                assert ours is not None
                assert ours.weighted_impurity == pytest.approx(oracle[0], abs=1e-12)
                assert ours.feature_index == oracle[1]
                assert ours.threshold == pytest.approx(oracle[2], abs=1e-12)


def walk_with_data(tree, X, y, out, i=0):
    """Collect (node index, X, y) triples for every node of the table, routing
    data as the tree does: left to i + 1, right to ``tree.right[i]``."""
    out.append((i, X, y))
    if tree.feature[i] >= 0:
        mask = X[:, tree.feature[i]] <= tree.threshold[i]
        walk_with_data(tree, X[mask], y[mask], out, i + 1)
        walk_with_data(tree, X[~mask], y[~mask], out, tree.right[i])


class TestDecisionTree:
    def test_single_sample_single_leaf(self):
        X = np.array([[0, 1, 0.5, -50]], float)
        y = np.array([1], np.int8)
        tree = train_decision_tree(X, y)
        assert tree.feature.tolist() == [-1]
        assert node_doc(tree) == leaf(Label.AUTHENTIC, (0, 1))

    def test_empty_training_set(self):
        with pytest.raises(EmptyTrainingSet):
            train_decision_tree(np.empty((0, 4)), np.empty(0, np.int8))

    def test_consistent_data_trains_to_perfection(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            X, y = random_consistent_data(rng)
            tree = train_decision_tree(X, y, TreeParams(max_depth=None))
            assert np.array_equal(predict_batch(tree, X), y)

    def test_leaf_tie_predicts_unauthorized(self):
        X = np.tile([0.0, 1.0, 0.5, -60.0], (4, 1))
        y = np.array([1, 1, 0, 0], np.int8)
        tree = train_decision_tree(X, y)
        assert tree.feature.tolist() == [-1]
        assert tree.counts.tolist() == [[2, 2]]
        assert node_doc(tree) == leaf(Label.UNAUTHORIZED, (2, 2))
        assert predict_batch(tree, X[:1]).tolist() == [0]

    def test_mixed_node_below_min_samples_split_is_a_leaf(self):
        X = np.array([[0, 1, 0.5, -50], [0, 1, 0.5, -80]], float)
        y = np.array([1, 0], np.int8)
        assert train_decision_tree(X, y).feature.tolist() == [3, -1, -1]
        tree = train_decision_tree(X, y, TreeParams(min_samples_split=3))
        assert (tree.feature.tolist(), tree.counts.tolist()) == ([-1], [[1, 1]])

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"max_depth": 0}, "max_depth must be >= 1 or None"),
            ({"min_samples_split": 1}, "min_samples_split must be >= 2"),
            ({"min_samples_leaf": 0}, "min_samples_leaf must be >= 1"),
        ],
    )
    def test_params_range_checks(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            TreeParams(**kwargs)

    def test_max_depth_bound(self):
        rng = np.random.default_rng(11)
        X, y = random_consistent_data(rng, n_max=150)
        for depth in (1, 2, 3):
            tree = train_decision_tree(X, y, TreeParams(max_depth=depth))
            assert tree.depth() <= depth

    def test_split_invariant_and_monotone_impurity(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            X, y = random_consistent_data(rng, n_max=150)
            tree = train_decision_tree(X, y, TreeParams(max_depth=None))
            nodes = []
            walk_with_data(tree, X, y, nodes)
            assert len(nodes) == tree.node_count()
            for i, Xn, yn in nodes:
                f, t = tree.feature[i], tree.threshold[i]
                if f < 0:
                    assert sum(tree.counts[i]) >= 1
                    assert tree.counts[i].tolist() == [int(np.sum(yn == 0)), int(np.sum(yn == 1))]
                    continue
                assert tree.counts[i].tolist() == [0, 0]  # a split carries no counts
                mask = Xn[:, f] <= t
                assert np.all(Xn[mask, f] <= t)
                assert np.all(Xn[~mask, f] > t)
                parent = gini_impurity((int(np.sum(yn == 0)), int(np.sum(yn == 1))))
                nl, nr = int(mask.sum()), int((~mask).sum())
                gl = gini_impurity((int(np.sum(yn[mask] == 0)), int(np.sum(yn[mask] == 1))))
                gr = gini_impurity((int(np.sum(yn[~mask] == 0)), int(np.sum(yn[~mask] == 1))))
                weighted = (nl * gl + nr * gr) / (nl + nr)
                improving = best_split(Xn, yn, [0, 1, 2, 3])
                if improving is not None:
                    # normal path: the accepted split strictly reduces impurity
                    assert weighted < parent
                    assert (f, t) == (
                        improving.feature_index,
                        improving.threshold,
                    )
                else:
                    # deadlock-break tie split: never worse than the parent
                    assert weighted == pytest.approx(parent)

    def test_min_samples_leaf_respected(self):
        rng = np.random.default_rng(17)
        X, y = random_consistent_data(rng, n_max=120)
        tree = train_decision_tree(X, y, TreeParams(max_depth=None, min_samples_leaf=5))
        nodes = []
        walk_with_data(tree, X, y, nodes)
        for i, Xn, yn in nodes:
            if tree.feature[i] < 0:
                assert sum(tree.counts[i]) >= 5

    def test_a_tree_deeper_than_the_recursion_limit_trains_saves_and_loads(self, tmp_path):
        # labels alternate along column 3, so each split peels one row off
        n = 3000
        X = np.zeros((n, 4))
        X[:, 3] = -np.arange(n)
        y = (np.arange(n) % 2).astype(np.int8)
        tree = train_decision_tree(X, y, TreeParams(max_depth=None))
        assert tree.depth() > 1000
        save_model(tmp_path / "deep.model", tree, FeatureEncoder({"A": 1}, (0.0, 1.0)))
        again, _ = load_model(tmp_path / "deep.model")
        assert again == tree
        assert np.array_equal(predict_batch(again, X), predict_batch(tree, X))
        assert np.array_equal(predict_batch(tree, X), y)


class TestRandomForest:
    def test_degenerate_forest_equals_single_tree(self):
        rng = np.random.default_rng(23)
        X, y = random_consistent_data(rng, n_max=200)
        params = ForestParams(n_trees=1, bootstrap=False, features_per_split=4, seed=99)
        forest = train_random_forest(X, y, params)
        tree = train_decision_tree(X, y, params.tree_params)
        probes = np.column_stack(
            [
                rng.integers(0, 2, 500),
                rng.integers(0, 6, 500),
                rng.integers(0, 4, 500) / 3.0,
                rng.integers(-90, -39, 500),
            ]
        ).astype(np.float64)
        assert np.array_equal(predict_batch(forest, probes), predict_batch(tree, probes))

    def test_same_seed_identical_forests(self):
        rng = np.random.default_rng(29)
        X, y = random_consistent_data(rng, n_max=150)
        enc = FeatureEncoder({"A": 1}, (2412000000.0, 5240000000.0))
        p = ForestParams(n_trees=10, seed=1234)
        doc1 = json.dumps(model_to_document(train_random_forest(X, y, p), enc))
        doc2 = json.dumps(model_to_document(train_random_forest(X, y, p), enc))
        assert doc1 == doc2

    def test_different_seeds_differ(self):
        rng = np.random.default_rng(31)
        X, y = random_consistent_data(rng, n_max=150)
        enc = FeatureEncoder({"A": 1}, (0.0, 1.0))
        d1 = json.dumps(model_to_document(train_random_forest(X, y, ForestParams(n_trees=5, seed=1)), enc))
        d2 = json.dumps(model_to_document(train_random_forest(X, y, ForestParams(n_trees=5, seed=2)), enc))
        assert d1 != d2

    def test_tree_count(self):
        X = np.array([[0, 1, 0.5, -50], [0, 1, 0.5, -80]], float)
        y = np.array([1, 0], np.int8)
        forest = train_random_forest(X, y, ForestParams(n_trees=7, seed=0))
        assert len(forest.trees) == 7

    def test_empty_training_set(self):
        with pytest.raises(EmptyTrainingSet):
            train_random_forest(np.empty((0, 4)), np.empty(0, np.int8))

    def test_a_smaller_forest_is_the_first_trees_of_a_larger_one(self):
        X, y = random_consistent_data(np.random.default_rng(37), n_max=150)
        three = train_random_forest(X, y, ForestParams(n_trees=3, seed=41))
        five = train_random_forest(X, y, ForestParams(n_trees=5, seed=41))
        assert three.trees == five.trees[:3]

    @pytest.mark.parametrize("trainer", ["forest", "tree", "evaluate"])
    @pytest.mark.parametrize("y, message", [
        ([0, 2, 0, 2], "^y holds a label other than 0 or 1$"),
        ([0, 1, 0], r"^y must hold one label per row of X: X has 4 rows, y the shape \(3,\)$"),
        ([[0], [1], [0], [1]], r"^y must hold one label per row of X: X has 4 rows, y the shape \(4, 1\)$"),
    ], ids=["label-2", "one-label-short", "a-column"])
    def test_training_refuses_labels_that_are_not_one_0_or_1_per_row(self, trainer, y, message):
        X = np.array([[0.0, 0.0, 0.5, -50.0], [1.0, 1.0, 0.5, -60.0], [0.0, 2.0, 0.5, -70.0], [1.0, 3.0, 0.5, -80.0]])
        with pytest.raises(ValueError, match=message):
            if trainer == "forest":
                train_random_forest(X, y, ForestParams(n_trees=3, features_per_split=2))
            elif trainer == "tree":
                train_decision_tree(X, y)
            else:
                evaluate(train_decision_tree(X, [0, 1, 0, 1]), X, y)

    def test_params_validation(self):
        X = np.array([[0, 1, 0.5, -50], [0, 1, 0.5, -80]], float)
        with pytest.raises(ValueError, match="features_per_split 5 exceeds the 4 columns"):
            train_random_forest(X, np.array([1, 0], np.int8), ForestParams(features_per_split=5))
        with pytest.raises(ValueError):
            ForestParams(n_trees=0)
        with pytest.raises(ValueError, match="features_per_split must be >= 1"):
            ForestParams(features_per_split=0)


def leaf_tree(label):
    counts = (0, 1) if label is Label.AUTHENTIC else (1, 0)
    return tree_of(leaf(label, counts))


class TestNonFiniteInput:
    """Training and the model file take only finite numbers, as the reader does."""

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("trainer", ["forest", "tree"])
    def test_training_refuses_a_non_finite_value_in_x(self, value, trainer):
        X = np.array([[0.0, 0.0, 0.5, -50.0], [1.0, 1.0, 0.5, -60.0], [0.0, 2.0, 0.5, -70.0], [1.0, 3.0, 0.5, -80.0]])
        X[2, 3] = value  # one RSSI
        y = np.array([1, 0, 1, 0])
        with pytest.raises(ValueError, match="^X holds a NaN or an infinite value$"):
            if trainer == "forest":
                train_random_forest(X, y, ForestParams(n_trees=3, features_per_split=2))
            elif trainer == "tree":
                train_decision_tree(X, y)
            else:
                evaluate(train_decision_tree(X, [0, 1, 0, 1]), X, y)

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_save_model_refuses_a_non_finite_threshold_and_writes_no_file(self, tmp_path, value):
        tree = DecisionTree(*_nodes([3, -1, -1], [value, 0.0, 0.0], [[0, 0], [1, 0], [0, 1]]), TreeParams())
        encoder = FeatureEncoder({"N0": 1}, (2412000000.0, 5240000000.0))
        path = tmp_path / "tree.model"
        with pytest.raises(ValueError, match="Out of range float values"):
            save_model(path, tree, encoder)
        assert not path.exists()


class TestPredict:
    def test_leaf_only_tree(self):
        X = np.array([[0, 1, 0.5, -50.0]])
        assert predict_batch(leaf_tree(Label.AUTHENTIC), X).tolist() == [1]

    def test_forest_majority(self):
        forest = RandomForest(
            trees=(leaf_tree(Label.AUTHENTIC), leaf_tree(Label.AUTHENTIC), leaf_tree(Label.UNAUTHORIZED)),
            params=ForestParams(n_trees=3, seed=0),
        )
        assert predict_batch(forest, np.zeros((1, 4))).tolist() == [1]

    def test_forest_tie_fails_closed(self):
        forest = RandomForest(
            trees=(leaf_tree(Label.AUTHENTIC), leaf_tree(Label.UNAUTHORIZED)),
            params=ForestParams(n_trees=2, seed=0),
        )
        assert predict_batch(forest, np.zeros((1, 4))).tolist() == [0]

    def test_batch_matches_single(self):
        rng = np.random.default_rng(37)
        X, y = random_consistent_data(rng, n_max=80)
        forest = train_random_forest(X, y, ForestParams(n_trees=9, seed=3))
        batch = predict_batch(forest, X)
        for i in range(len(X)):
            assert predict_batch(forest, X[[i]]).tolist() == [batch[i]]


def reference_leaf(node, x):
    """Reference walk of a nested v1 node document: follow ``x[feature] <=
    threshold`` to the left."""
    while node["type"] == "split":
        node = node["left"] if x[node["feature_index"]] <= node["threshold"] else node["right"]
    return node


def reference_predict(model, X):
    """Per-row walk of every tree, then an unweighted majority with ties to 0."""
    docs = [node_doc(t) for t in (model.trees if isinstance(model, RandomForest) else (model,))]
    out = []
    for x in X:
        votes = sum(reference_leaf(d, x)["label"] == Label.AUTHENTIC.value for d in docs)
        out.append(1 if 2 * votes > len(docs) else 0)
    return np.array(out, dtype=np.int8)


def reference_shape(node):
    """(node count, depth) by recursion over a nested v1 node document."""
    if node["type"] == "leaf":
        return 1, 0
    nl, dl = reference_shape(node["left"])
    nr, dr = reference_shape(node["right"])
    return 1 + nl + nr, 1 + max(dl, dr)


def hand_built_trees():
    a = leaf(Label.AUTHENTIC, (0, 3))
    u = leaf(Label.UNAUTHORIZED, (2, 1))
    return (
        tree_of(a),
        tree_of(split(3, -60.0, a, u)),
        tree_of(split(1, 2.5, split(3, -70.0, u, a), u)),
        tree_of(split(0, 0.5, u, split(2, 0.5, split(3, -55.0, a, u), a))),
    )


class TestCompiledDescent:
    def _probes(self, rng, n=300):
        probes = np.column_stack(
            [
                rng.integers(0, 2, n),
                rng.integers(0, 6, n),
                rng.integers(0, 4, n) / 3.0,
                rng.integers(-90, -39, n),
            ]
        ).astype(np.float64)
        # rows sitting exactly on the hand-built thresholds go left
        probes[:10] = [[0.5, 2.5, 0.5, -60.0]] * 5 + [[0.5, 2.5, 0.5, -70.0]] * 5
        probes[10] = np.nan  # compares false, so it goes right
        return probes

    def test_trained_forest_matches_reference_walk(self):
        rng = np.random.default_rng(59)
        X, y = random_consistent_data(rng, n_max=200)
        forest = train_random_forest(X, y, ForestParams(n_trees=8, seed=5))  # even, so votes can tie
        probes = self._probes(rng)
        assert np.array_equal(predict_batch(forest, probes), reference_predict(forest, probes))
        for t in forest.trees[:3]:
            assert np.array_equal(predict_batch(t, probes), reference_predict(t, probes))

    def test_hand_built_trees_match_reference_walk(self):
        rng = np.random.default_rng(61)
        probes = self._probes(rng)
        trees = hand_built_trees()
        for tree in trees:
            assert np.array_equal(predict_batch(tree, probes), reference_predict(tree, probes))
        for k in range(1, len(trees) + 1):
            forest = RandomForest(trees=trees[:k], params=ForestParams(n_trees=k))
            expected = reference_predict(forest, probes)
            assert np.array_equal(predict_batch(forest, probes), expected)
            assert [predict_batch(forest, probes[[i]])[0] for i in range(20)] == expected[:20].tolist()

    def test_shape_matches_recursive_count(self):
        rng = np.random.default_rng(67)
        X, y = random_consistent_data(rng, n_max=200)
        trained = train_random_forest(X, y, ForestParams(n_trees=5, seed=2)).trees
        for tree in trained + hand_built_trees():
            assert (tree.node_count(), tree.depth()) == reference_shape(node_doc(tree))

    def test_zero_rows(self):
        tree = hand_built_trees()[2]
        forest = RandomForest(trees=hand_built_trees(), params=ForestParams(n_trees=4))
        for model in (tree, forest):
            out = predict_batch(model, np.empty((0, 4)))
            assert out.dtype == np.int8
            assert out.shape == (0,)

    def test_rows_narrower_than_the_features_raise(self):
        a, u = leaf(Label.AUTHENTIC, (0, 1)), leaf(Label.UNAUTHORIZED, (1, 0))
        tree = tree_of(split(0, 0.5, split(3, -60.0, a, u), u))
        forest = RandomForest(trees=(tree, tree, tree), params=ForestParams(n_trees=3))
        for model in (tree, forest):
            assert predict_batch(model, [[0, 0, -99, -99], [1, 0, 0, 0]]).tolist() == [1, 0]
            assert predict_batch(model, np.empty((0, 5))).shape == (0,)
            for X in ([[0, 0, -99], [1, 0, 0]], np.empty((0, 3)), np.zeros(4), np.zeros((1, 1, 4))):
                with pytest.raises(ValueError, match="at least 4 columns"):
                    predict_batch(model, X)
            with pytest.raises(ValueError, match="at least 4 columns"):
                predict_batch(model, [[0, 0, -99]])
        # a leaf reads no feature, so any width is enough
        assert predict_batch(leaf_tree(Label.AUTHENTIC), np.zeros((2, 0))).tolist() == [1, 1]

    def test_a_batch_of_one_row_and_of_two(self):
        a, u = leaf(Label.AUTHENTIC, (0, 1)), leaf(Label.UNAUTHORIZED, (1, 0))
        tree = tree_of(split(3, -60.0, a, u))
        assert predict_batch(tree, [[0, 0, 0, 0], [0, 0, 0, -99]]).tolist() == [0, 1]
        assert predict_batch(tree, np.array([[0, 0, 0, -99]])).tolist() == [1]

    def test_layout_outside_equality_hash_and_repr(self):
        a = hand_built_trees()[3]
        predict_batch(a, np.zeros((1, 4)))  # compiles and caches a's layout
        b = dataclasses.replace(a)
        assert "_layout" in vars(a) and "_layout" not in vars(b)
        assert a == b and hash(a) == hash(b)
        assert "_layout" not in repr(a)

    def test_trees_differing_in_one_stored_column_are_unequal(self):
        a, u = leaf(Label.AUTHENTIC, (0, 3)), leaf(Label.UNAUTHORIZED, (2, 1))
        tree = tree_of(split(3, -60.0, a, u))
        for other in (split(2, -60.0, a, u), split(3, -61.0, a, u), split(3, -60.0, a, leaf(Label.UNAUTHORIZED, (2, 0)))):
            assert tree_of(other) != tree
        assert dataclasses.replace(tree, params=TreeParams(max_depth=3)) != tree

    def test_empty_forest_predicts_unauthorized(self):
        forest = RandomForest(trees=(), params=ForestParams(n_trees=1))
        assert predict_batch(forest, np.zeros((3, 4))).tolist() == [0, 0, 0]
        assert predict_batch(forest, np.zeros((1, 4))).tolist() == [0]


class TestEvaluate:
    def test_perfect_model(self):
        X = np.array([[0, 1, 0.5, -50]] * 10 + [[0, 1, 0.5, -90]] * 10, float)
        y = np.array([1] * 10 + [0] * 10, np.int8)
        tree = train_decision_tree(X, y)
        cm = evaluate(tree, X, y)
        assert (cm.tp, cm.tn, cm.fp, cm.fn) == (10, 10, 0, 0)

    def test_constant_unauthorized_model(self):
        X = np.array([[0, 1, 0.5, -50]] * 10 + [[0, 1, 0.5, -90]] * 10, float)
        y = np.array([1] * 10 + [0] * 10, np.int8)
        cm = evaluate(leaf_tree(Label.UNAUTHORIZED), X, y)
        assert (cm.tp, cm.tn, cm.fp, cm.fn) == (0, 10, 0, 10)

    def test_total_partitions_test_set(self):
        rng = np.random.default_rng(41)
        X, y = random_consistent_data(rng, n_max=90)
        forest = train_random_forest(X, y, ForestParams(n_trees=5, seed=1))
        cm = evaluate(forest, X, y)
        assert cm.total == len(y)
        pred = predict_batch(forest, X)  # each cell counted on its own, as a reference
        cells = [int(np.sum((pred == p) & (y == t))) for p, t in ((1, 1), (0, 0), (1, 0), (0, 1))]
        assert [cm.tp, cm.tn, cm.fp, cm.fn] == cells

    def test_empty_test_set(self):
        with pytest.raises(EmptyTestSet):
            evaluate(leaf_tree(Label.AUTHENTIC), np.empty((0, 4)), np.empty(0, np.int8))

    @pytest.mark.parametrize("dtype", [np.float64, bool])
    def test_a_float_or_bool_y_of_0s_and_1s_scores_as_ints(self, dtype):
        X = np.array([[0, 1, 0.5, -50]] * 3 + [[0, 1, 0.5, -90]] * 3, float)
        y = np.array([1, 1, 0, 0, 0, 1], np.int8)  # one fp and one fn under the tree below
        tree = train_decision_tree(X, np.array([1] * 3 + [0] * 3, np.int8))
        cm = evaluate(tree, X, y.astype(dtype))
        assert cm == evaluate(tree, X, y) == ConfusionMatrix(tp=2, tn=2, fp=1, fn=1)
        assert {type(n) for n in (cm.tp, cm.tn, cm.fp, cm.fn)} == {int}


class TestMetrics:
    def test_perfect_classifier(self):
        m = compute_metrics(ConfusionMatrix(tp=10, tn=10, fp=0, fn=0))
        assert m.accuracy == m.sensitivity == m.specificity == m.precision == m.f1 == 1.0

    def test_hand_derived_values(self):
        m = compute_metrics(ConfusionMatrix(tp=90, tn=85, fp=15, fn=10))
        assert m.accuracy == pytest.approx(0.875)
        assert m.sensitivity == pytest.approx(0.900)
        assert m.specificity == pytest.approx(0.850)
        assert m.precision == pytest.approx(90 / 105)
        assert m.f1 == pytest.approx(2 * (90 / 105) * 0.9 / ((90 / 105) + 0.9))

    def test_all_wrong_zero_policy(self):
        m = compute_metrics(ConfusionMatrix(tp=0, tn=0, fp=10, fn=10))
        assert m.accuracy == 0.0
        assert m.sensitivity == 0.0
        assert m.specificity == 0.0
        assert m.precision == 0.0
        assert m.f1 == 0.0

    def test_undefined_on_zero_denominator(self):
        m = compute_metrics(ConfusionMatrix(tp=0, tn=10, fp=0, fn=0))
        assert m.sensitivity is None  # no positives in truth
        assert m.precision is None  # no positive predictions
        assert m.f1 is None
        assert m.specificity == 1.0

    def test_empty_matrix(self):
        with pytest.raises(EmptyMatrix):
            compute_metrics(ConfusionMatrix(0, 0, 0, 0))

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            ConfusionMatrix(tp=-1, tn=0, fp=0, fn=0)

    def test_accuracy_identity(self):
        rng = np.random.default_rng(43)
        for _ in range(100):
            tp, tn, fp, fn = (int(v) for v in rng.integers(0, 500, 4))
            if tp + tn + fp + fn == 0:
                continue
            cm = ConfusionMatrix(tp, tn, fp, fn)
            m = compute_metrics(cm)
            pos, neg = tp + fn, tn + fp
            if m.sensitivity is not None and m.specificity is not None:
                assert m.accuracy == pytest.approx(
                    (m.sensitivity * pos + m.specificity * neg) / cm.total
                )
            if m.precision is not None and m.sensitivity is not None and m.precision + m.sensitivity > 0:
                assert m.f1 == pytest.approx(
                    2 * m.precision * m.sensitivity / (m.precision + m.sensitivity)
                )


class TestSerialization:
    def _encoder(self):
        return FeatureEncoder({"A": 1, "B": 2, "C": 3}, (2412000000.0, 5240000000.0))

    def test_tree_round_trip(self):
        rng = np.random.default_rng(47)
        X, y = random_consistent_data(rng, n_max=100)
        tree = train_decision_tree(X, y, TreeParams(max_depth=8, min_samples_leaf=2))
        doc = model_to_document(tree, self._encoder())
        again, enc = document_to_model(json.loads(json.dumps(doc)))
        assert enc == self._encoder()
        assert again == tree
        assert np.array_equal(predict_batch(again, X), predict_batch(tree, X))

    def test_forest_round_trip_reserializes_identically(self):
        rng = np.random.default_rng(53)
        X, y = random_consistent_data(rng, n_max=100)
        forest = train_random_forest(X, y, ForestParams(n_trees=6, seed=8))
        doc = model_to_document(forest, self._encoder())
        text = json.dumps(doc)
        again, _ = document_to_model(json.loads(text))
        assert json.dumps(model_to_document(again, self._encoder())) == text

    def test_a_vocabulary_keyed_like_a_tree_round_trips(self, tmp_path):
        X, y = np.array([[0, 1, 0.5, -50], [0, 2, 0.5, -80]], float), np.array([1, 0], np.int8)
        tree = train_decision_tree(X, y)
        encoder = FeatureEncoder({"feature": 1, "threshold": 2, "counts": 3}, (2412000000.0, 5240000000.0))
        save_model(tmp_path / "tree.model", tree, encoder)
        assert load_model(tmp_path / "tree.model") == (tree, encoder)

    def test_a_tree_with_a_column_that_is_no_list_is_refused_as_before(self, tmp_path):
        doc = model_to_document(hand_built_trees()[1], self._encoder())
        doc["tree"]["feature"] = 3
        (tmp_path / "tree.model").write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=r"^bad tree \{'feature': 3, .*: not an object of the columns"):
            load_model(tmp_path / "tree.model")

    def test_hand_written_tree_reserializes_as_written(self):
        a, u = leaf(Label.AUTHENTIC, (0, 3)), leaf(Label.UNAUTHORIZED, (0, 0))
        doc = split(3, -60, split(0, 0.5, a, u), u)  # an int threshold reads as a float64
        tree = tree_of(doc)
        assert tree.feature.tolist() == [3, 0, -1, -1, -1]
        assert tree.threshold.tolist() == [-60.0, 0.5, 0.0, 0.0, 0.0]
        assert tree.right.tolist() == [4, 3, -1, -1, -1]
        assert tree.counts.tolist() == [[0, 0], [0, 0], [0, 3], [0, 0], [0, 0]]
        assert json.dumps(node_doc(tree)) == json.dumps({**doc, "threshold": -60.0})

    def test_columns_are_typed_and_read_only(self):
        a, u = leaf(Label.AUTHENTIC, (0, 3)), leaf(Label.UNAUTHORIZED, (0, 0))
        tree = tree_of(split(3, -60.0, split(0, 0.5, a, u), u))
        dtypes = {"feature": np.int32, "threshold": np.float64, "right": np.int32, "counts": np.int64}
        for name, dtype in dtypes.items():
            column = getattr(tree, name)
            assert column.dtype == dtype and not column.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 1
        assert tree.counts.shape == (5, 2)

    def test_v2_stores_three_preorder_columns(self):
        a, u = leaf(Label.AUTHENTIC, (0, 3)), leaf(Label.UNAUTHORIZED, (0, 0))
        tree = tree_of(split(3, -60, split(0, 0.5, a, u), u))
        doc = model_to_document(tree, self._encoder())
        assert doc["version"] == 2
        assert doc["tree"] == {
            "feature": [3, 0, -1, -1, -1],
            "threshold": [-60.0, 0.5, 0.0, 0.0, 0.0],  # an int threshold is written as a float
            "counts": [[0, 0], [0, 0], [0, 3], [0, 0], [0, 0]],
        }
        assert list(doc["tree"]) == ["feature", "threshold", "counts"]
        text = json.dumps(doc)
        again, _ = document_to_model(json.loads(text))
        assert again == tree and again.right.tolist() == [4, 3, -1, -1, -1]
        assert json.dumps(model_to_document(again, self._encoder())) == text

    def test_trained_forests_read_as_the_row_reader_reads_them(self, tmp_path):
        rng = np.random.default_rng(73)
        for seed in range(6):
            X, y = random_consistent_data(rng, n_max=150)
            forest = train_random_forest(X, y, ForestParams(n_trees=5, seed=seed))
            save_model(tmp_path / "m.model", forest, self._encoder())
            loaded, _ = load_model(tmp_path / "m.model")
            assert node_rows(loaded) == node_rows(forest) == trees_of(tmp_path / "m.model")

    @pytest.mark.parametrize("params", [
        ForestParams(n_trees=4, seed=3),
        ForestParams(n_trees=4, seed=5, tree_params=TreeParams(max_depth=None)),
        ForestParams(n_trees=4, seed=7, tree_params=TreeParams(min_samples_leaf=3)),
        ForestParams(n_trees=4, bootstrap=False, seed=9),
        ForestParams(n_trees=1, seed=11),
    ], ids=["defaults", "max_depth None", "min_samples_leaf 3", "bootstrap False", "one tree"])
    def test_the_trainer_grows_the_trees_the_grow_trainer_grew(self, params):
        rng = np.random.default_rng(83)
        for offset in range(4):
            X, y = random_consistent_data(rng, n_max=150)
            seeded = dataclasses.replace(params, seed=params.seed + offset)
            assert train_random_forest(X, y, seeded).trees == grow_random_forest(X, y, seeded).trees
            # and the decision tree is the unbagged one-tree forest over every feature
            every_feature = ForestParams(n_trees=1, bootstrap=False, features_per_split=4,
                                         tree_params=params.tree_params)
            assert train_decision_tree(X, y, params.tree_params) == grow_random_forest(X, y, every_feature).trees[0]

    def test_trained_trees_read_from_v1_by_the_tests_reader_as_trained(self):
        rng = np.random.default_rng(89)
        for seed in range(4):
            X, y = random_consistent_data(rng, n_max=150)
            forest = train_random_forest(X, y, ForestParams(n_trees=3, seed=seed))
            doc = json.loads(json.dumps(v1_document(forest, self._encoder())))
            params = forest.params.tree_params
            read = [_tree_from_doc(t, params) for t in doc["trees"]]
            reference = [grow_tree_from_doc(t, params) for t in doc["trees"]]
            assert node_rows(RandomForest(tuple(read), forest.params)) == node_rows(forest)
            assert node_rows(RandomForest(tuple(reference), forest.params)) == node_rows(forest)

    @pytest.mark.parametrize("kind", ["tree", "forest"])
    def test_a_v1_document_is_refused(self, kind, tmp_path):
        rng = np.random.default_rng(71)
        X, y = random_consistent_data(rng, n_max=150)
        if kind == "tree":
            model = train_decision_tree(X, y, TreeParams(max_depth=6))
        else:
            model = train_random_forest(X, y, ForestParams(n_trees=6, seed=4))
        v1 = json.loads(json.dumps(v1_document(model, self._encoder(), train_seed=3)))
        (tmp_path / "v1.model").write_text(json.dumps(v1))
        for load in (lambda: document_to_model(v1), lambda: load_model(tmp_path / "v1.model")):
            with pytest.raises(ValueError, match="^unsupported model format version 1$"):
                load()

    def test_bad_format_rejected(self):
        with pytest.raises(ValueError):
            document_to_model({"format": "something-else", "version": 1})

    @pytest.mark.parametrize("version", [999, 0, 3, True, 2.0, "2", None])
    def test_bad_version_rejected(self, version):
        doc = model_to_document(leaf_tree(Label.AUTHENTIC), self._encoder())
        doc["version"] = version
        with pytest.raises(ValueError, match="unsupported model format version"):
            document_to_model(doc)


def _split_forest_doc(version: int = 2) -> dict:
    """A one-tree forest, a split on feature 3 with two leaves, as a model
    document of ``version``; its v2 columns are feature [3, -1, -1],
    threshold [-60.0, 0.0, 0.0] and counts [[0, 0], [0, 3], [2, 1]]."""
    write = model_to_document if version == 2 else v1_document
    return write(*_split_forest())


def _split_forest() -> tuple[RandomForest, FeatureEncoder]:
    a, u = leaf(Label.AUTHENTIC, (0, 3)), leaf(Label.UNAUTHORIZED, (2, 1))
    forest = RandomForest(trees=(tree_of(split(3, -60.0, a, u)),), params=ForestParams(n_trees=1))
    return forest, FeatureEncoder({"A": 1}, (2412000000.0, 5240000000.0))


_DROP = "<drop>"

# edits of the header, which both versions share
HEADER_EDITS = [
    ("encoder", _DROP),
    ("kind", _DROP),
    ("params", _DROP),
    ("trees", _DROP),
    ("params.seed", _DROP),
    ("params.tree_params.min_samples_leaf", _DROP),
    ("encoder.frequency_scale", _DROP),
    ("params.bogus", 1),
    ("params.tree_params.bogus", 1),
    ("encoder.bogus", 1),
    ("encoder", ["A", 1]),
    ("encoder.ssid_vocabulary", None),
    ("encoder.ssid_vocabulary", {"A": 2}),
    ("params.tree_params", 7),
    ("trees", 7),
    ("trees.0", "leaf"),
    ("kind", "bogus"),
    ("params.n_trees", 3),
    ("trees", []),
    ("trees", {}),
    ("params.features_per_split", 5),
    pytest.param("encoder.frequency_scale.0", 10**400, id="encoder.frequency_scale.0-10**400"),
    ("encoder.frequency_scale", [float("nan"), float("nan")]),
    ("encoder.frequency_scale", [2412000000.0, float("inf")]),
    ("encoder.frequency_scale", [5240000000.0, 2412000000.0]),
]

# edits of the v1 tree, nested split and leaf nodes
V1_EDITS = [
    ("trees.0.left", _DROP),
    ("trees.0.right.label", _DROP),
    ("trees.0.type", "branch"),
    ("trees.0.left.type", "branch"),
    ("trees.0.left.class_counts", [1]),
    ("trees.0.feature_index", -1),
    ("trees.0.feature_index", 3.9),
    ("trees.0.feature_index", "3"),
    ("trees.0.feature_index", True),
    ("trees.0.threshold", "-60"),
    ("trees.0.threshold", True),
    ("trees.0.left.class_counts", [0, 3, 7]),
    ("trees.0.left.class_counts", ["0", "3"]),
    ("trees.0.left.class_counts", [0, 3.0]),
    ("trees.0.left.class_counts", [False, 3]),
    ("trees.0.right.class_counts", [2, -1]),
    ("trees.0.left.label", "unauthorized"),
    ("trees.0.right.label", "authentic"),
    ("trees.0.bogus", 1),
    ("trees.0.left.bogus", 1),
    ("trees.0.feature_index", 4),
    ("trees.0.feature_index", 7),
    ("trees.0.threshold", float("nan")),
    ("trees.0.threshold", float("inf")),
    ("trees.0.threshold", float("-inf")),
    pytest.param("trees.0.threshold", 2**1024, id="trees.0.threshold-2**1024"),
    pytest.param("trees.0.feature_index", 2**31, id="trees.0.feature_index-2**31"),
    pytest.param("trees.0.left.class_counts", [0, 2**63], id="trees.0.left.class_counts-[0, 2**63]"),
]

# edits of the v2 tree's columns, cell by cell
V2_EDITS = [
    ("trees.0.feature", _DROP),
    ("trees.0.counts", _DROP),
    ("trees.0.bogus", [1, 2, 3]),
    ("trees.0.feature", 3),
    ("trees.0.threshold", {"0": -60.0}),
    ("trees.0", [[3, -60.0, [0, 0]]]),
    ("trees.0.feature.0", True),
    ("trees.0.feature.0", 3.0),
    ("trees.0.feature.0", "3"),
    ("trees.0.feature.0", 4),
    ("trees.0.feature.0", 7),
    ("trees.0.feature.1", -2),
    ("trees.0.feature.2", None),
    ("trees.0.feature.0", -1),  # a leaf with a threshold
    ("trees.0.feature.1", 0),  # a split with counts
    ("trees.0.threshold.0", float("nan")),
    ("trees.0.threshold.0", float("inf")),
    ("trees.0.threshold.0", float("-inf")),
    pytest.param("trees.0.threshold.0", 2**1024, id="trees.0.threshold.0-2**1024"),
    ("trees.0.threshold.0", "-60"),
    ("trees.0.threshold.0", True),
    ("trees.0.threshold.1", 1.5),  # a leaf with a threshold
    ("trees.0.threshold.2", 0),
    ("trees.0.counts.0", [1, 0]),  # a split with counts
    ("trees.0.counts.1", [1]),
    ("trees.0.counts.1", [0, 3, 7]),
    ("trees.0.counts.1", ["0", "3"]),
    ("trees.0.counts.1", [0, 3.0]),
    ("trees.0.counts.1", [False, 3]),
    ("trees.0.counts.2", [2, -1]),
    ("trees.0.counts.2", "21"),
    ("trees.0.counts.2", {"2": 1}),
    ("trees.0.counts.2", None),
    # each column holds a value its numpy column cannot, or a bool
    pytest.param("trees.0.feature.0", 2**31, id="trees.0.feature.0-2**31"),
    pytest.param("trees.0.counts.1", [0, 2**63], id="trees.0.counts.1-[0, 2**63]"),
    pytest.param("trees.0.counts.2", [2**64, 1], id="trees.0.counts.2-[2**64, 1]"),
    ("trees.0.feature.1", False),
    ("trees.0.threshold.1", False),
    ("trees.0.counts.0", [False, False]),
    ("trees.0.threshold.2", float("nan")),
]

def _four_counts(tree):
    """Unchecked, a leaf's four counts would read as a split whose children
    are the next two rows, so two more leaf rows would complete the tree."""
    tree["counts"][1] = [0, 3, 0, 0]
    for column, value in zip(tree.values(), (-1, 0.0, [1, 0])):
        column += [value, value]


# edits of the v2 tree's shape: (name, what is done to the tree's columns)
V2_SHAPES = [
    ("truncated", lambda tree: [column.pop() for column in tree.values()]),
    ("extra row", lambda tree: [column.append(v) for column, v in zip(tree.values(), (-1, 0.0, [1, 0]))]),
    ("extra split row", lambda tree: [column.append(v) for column, v in zip(tree.values(), (0, 0.5, [0, 0]))]),
    ("unequal columns", lambda tree: tree["counts"].pop()),
    ("one column longer", lambda tree: tree["feature"].append(-1)),
    ("a leaf of four counts", _four_counts),
    ("empty", lambda tree: [column.clear() for column in tree.values()]),
    ("leaves only", lambda tree: tree.update(feature=[-1, -1, -1], threshold=[0.0] * 3)),
    ("splits only", lambda tree: tree.update(feature=[3, 3, 3], threshold=[1.0] * 3, counts=[[0, 0]] * 3)),
    # the rows' running sum ends at -1, but a leaf ends the tree at the first row
    ("a leaf before the root's split", lambda tree: tree.update(feature=[-1, 3, -1], threshold=[0.0, -60.0, 0.0],
                                                                counts=[[0, 3], [0, 0], [2, 1]])),
]


def _versioned(version: int, edits: list):
    """Each edit as the parameters (version, path, value)."""
    for edit in edits:
        if hasattr(edit, "id"):  # a pytest.param with its own id
            yield pytest.param(version, *edit.values, id=f"{version}-{edit.id}")
        else:
            yield (version, *edit)


def _edited(doc: dict, path: str, value) -> dict:
    *parents, last = [int(k) if k.isdigit() else k for k in path.split(".")]
    target = doc
    for key in parents:
        target = target[key]
    if value == _DROP:
        del target[last]
    else:
        target[last] = value
    return doc


class TestMalformedDocuments:
    """Every malformed model document is a ValueError, never a KeyError or
    TypeError from deep inside the reader."""

    @pytest.mark.parametrize("version, path, value", [*_versioned(1, HEADER_EDITS + V1_EDITS),
                                                      *_versioned(2, HEADER_EDITS + V2_EDITS)])
    def test_edited_document_is_value_error(self, version, path, value, tmp_path):
        doc = _split_forest_doc(version)
        if version == 1:  # the unedited tree reads, by the tests' v1 reader
            assert _tree_from_doc(doc["trees"][0], TreeParams()) == _split_forest()[0].trees[0]
        else:  # the unedited document loads
            document_to_model(json.loads(json.dumps(doc)))
        edited = _edited(doc, path, value)
        (tmp_path / "edited.model").write_text(json.dumps(edited))
        # never an OverflowError or TypeError; a v1 file is refused by its version before the edit is read
        message = "^unsupported model format version 1$" if version == 1 else None
        with pytest.raises(ValueError, match=message):
            load_model(tmp_path / "edited.model")
        with pytest.raises(ValueError, match=message):
            document_to_model(edited)
        if version == 1 and path.startswith("trees.0."):
            # the tests' v1 reader refuses the edited tree, or the v2 document of the tree it reads is refused
            with pytest.raises(ValueError):
                tree = _tree_from_doc(edited["trees"][0], TreeParams())
                document_to_model({**_split_forest_doc(), "trees": [_tree_to_columns(tree)]})

    def test_v2_nan_threshold_past_the_first_row_is_value_error(self, tmp_path):
        # min and max only see a NaN they start from, so the reader checks the column for one too
        doc = _split_forest_doc()
        doc["trees"][0] = {"feature": [3, 0, -1, -1, -1], "threshold": [-60.0, float("nan"), 0.0, 0.0, 0.0],
                           "counts": [[0, 0], [0, 0], [0, 3], [2, 1], [2, 1]]}
        (tmp_path / "nan.model").write_text(json.dumps(doc))
        for load in (lambda: document_to_model(doc), lambda: load_model(tmp_path / "nan.model")):
            with pytest.raises(ValueError, match="wrong type or range"):
                load()

    @pytest.mark.parametrize("name, edit", V2_SHAPES, ids=[name for name, _ in V2_SHAPES])
    def test_v2_tree_of_the_wrong_shape_is_value_error(self, name, edit):
        doc = _split_forest_doc()
        edit(doc["trees"][0])
        with pytest.raises(ValueError, match="tree"):
            document_to_model(doc)

    def test_v2_tree_deeper_than_the_recursion_limit_loads(self):
        depth = 5000  # past Python's default recursion limit of 1000
        tree = {"feature": [0] * depth + [-1] * (depth + 1), "threshold": [0.5] * depth + [0.0] * (depth + 1),
                "counts": [[0, 0]] * depth + [[1, 0]] * (depth + 1)}
        forest, _ = document_to_model({**_split_forest_doc(), "trees": [tree]})
        assert forest.trees[0].depth() == depth
        assert forest.trees[0].right[:3].tolist() == [2 * depth, 2 * depth - 1, 2 * depth - 2]

    @pytest.mark.parametrize("text", ["[" * 100_000 + "]" * 100_000, '{"a":' * 100_000 + "1" + "}" * 100_000])
    def test_a_file_nested_past_the_parsers_depth_is_value_error(self, text, tmp_path):
        (tmp_path / "deep.model").write_text(text)
        with pytest.raises(ValueError, match="^nested past the JSON parser's depth$"):
            load_model(tmp_path / "deep.model")

    @pytest.mark.parametrize("doc", [[], "proxauth-colocation-model", 1, None])
    def test_non_object_document_is_value_error(self, doc):
        with pytest.raises(ValueError):
            document_to_model(doc)

    def test_header_only_document_is_value_error(self):
        with pytest.raises(ValueError, match="missing key 'encoder'"):
            document_to_model({"format": "proxauth-colocation-model", "version": 2, "kind": "random_forest"})


class TestDocumentLayout:
    def test_params_keys_keep_v1_order(self):
        doc = _split_forest_doc()
        assert list(doc) == ["format", "version", "kind", "encoder", "params", "trees"]
        assert list(doc["encoder"]) == ["ssid_vocabulary", "frequency_scale"]
        assert list(doc["params"]) == [
            "n_trees", "bootstrap", "features_per_split", "seed", "tree_params"
        ]
        assert list(doc["params"]["tree_params"]) == [
            "max_depth", "min_samples_split", "min_samples_leaf"
        ]

    @pytest.mark.parametrize("kind", ["tree", "forest"])
    def test_load_model_compiles_the_model(self, tmp_path, kind):
        rng = np.random.default_rng(79)
        X, y = random_consistent_data(rng, n_max=80)
        model = train_decision_tree(X, y) if kind == "tree" else train_random_forest(X, y, ForestParams(n_trees=3))
        assert "_layout" not in vars(model)
        save_model(tmp_path / "m.model", model, FeatureEncoder({"A": 1}, (0.0, 1.0)))
        loaded, _ = load_model(tmp_path / "m.model")
        assert "_layout" in vars(loaded)

    def test_train_seed_is_the_last_key_and_loads(self, tmp_path):
        tree = leaf_tree(Label.AUTHENTIC)
        encoder = FeatureEncoder({"A": 1}, (0.0, 1.0))
        save_model(tmp_path / "m.model", tree, encoder, train_seed=5)
        doc = json.loads((tmp_path / "m.model").read_text())
        assert list(doc)[-1] == "train_seed" and doc["train_seed"] == 5
        assert document_to_model(doc) == (tree, encoder)
        assert "train_seed" not in model_to_document(tree, encoder)


class TestClassifier:
    @pytest.mark.parametrize("kind", ["tree", "forest"])
    def test_load_model_unpacks_to_its_fields_and_votes_as_predict_batch(self, tmp_path, kind):
        rng = np.random.default_rng(83)
        X, y = random_consistent_data(rng)
        model = train_decision_tree(X, y) if kind == "tree" else train_random_forest(X, y, ForestParams(n_trees=5))
        encoder = FeatureEncoder({s: i for i, s in enumerate("ABCDE", 1)}, (2412000000.0, 5240000000.0))
        save_model(tmp_path / "m.model", model, encoder)
        classifier = load_model(tmp_path / "m.model")
        assert type(classifier) is Classifier
        loaded, loaded_encoder = classifier
        assert loaded is classifier.model and loaded_encoder is classifier.encoder
        assert loaded == model and loaded_encoder == encoder
        for n in (0, 1, 2, 7, 40):
            pairs = [
                (DeviceRole(rng.choice(["mobile", "login"])),
                 BeaconObservation(str(rng.choice(list("ABCDEZ"))),
                                   int(rng.choice([2412000000, 2437000000, 5240000000, 5800000000])),
                                   int(rng.integers(-95, -20))))
                for _ in range(n)
            ]
            votes = classifier.votes(pairs)
            assert votes.shape == (n,) and votes.dtype == np.int8
            np.testing.assert_array_equal(votes, predict_batch(loaded, encode_observations(encoder, pairs)))
