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
    Provenance,
)
from proxauth.colocation_ml import (
    ConfusionMatrix,
    DecisionTree,
    ForestParams,
    LeafNode,
    RandomForest,
    SplitNode,
    TreeParams,
    best_split,
    compute_metrics,
    document_to_model,
    evaluate,
    gini_impurity,
    model_to_document,
    predict,
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
    return Dataset(samples, Provenance.SIMULATED)


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


class TestStratifiedSplit:
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

    def test_empty_node(self):
        with pytest.raises(EmptyNode):
            gini_impurity((0, 0))


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

    def test_tie_prefers_lowest_feature_index(self):
        # features 1 and 3 both separate perfectly
        X = np.array([[0, 0, 0.0, -80], [0, 0, 0.0, -80], [0, 5, 0.0, -40], [0, 5, 0.0, -40]], float)
        y = np.array([0, 0, 1, 1], np.int8)
        cand = best_split(X, y, [0, 1, 2, 3])
        assert cand.feature_index == 1

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

    def test_xor_balance_requires_fallback(self):
        # every split ties the parent impurity; strict mode must return None
        X = np.array([[0, 0, 0, -60], [0, 0, 0, -50], [0, 1, 0, -60], [0, 1, 0, -50]], float)
        y = np.array([0, 1, 1, 0], np.int8)
        assert best_split(X, y, [0, 1, 2, 3]) is None
        tied = best_split(X, y, [0, 1, 2, 3], require_improvement=False)
        assert tied is not None
        assert tied.weighted_impurity == pytest.approx(0.5)

    def test_matches_brute_force_oracle(self):
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
            ours = best_split(X, y, feats, min_child=min_child)
            oracle = brute_force_best_split(X, y, feats, min_child=min_child)
            if oracle is None:
                assert ours is None
            else:
                assert ours is not None
                assert ours.weighted_impurity == pytest.approx(oracle[0], abs=1e-12)
                assert ours.feature_index == oracle[1]
                assert ours.threshold == pytest.approx(oracle[2], abs=1e-12)


def walk_with_data(node, X, y, out):
    """Collect (node, X, y) triples for every node, routing data as the tree does."""
    out.append((node, X, y))
    if isinstance(node, SplitNode):
        mask = X[:, node.feature_index] <= node.threshold
        walk_with_data(node.left, X[mask], y[mask], out)
        walk_with_data(node.right, X[~mask], y[~mask], out)


class TestDecisionTree:
    def test_single_sample_single_leaf(self):
        X = np.array([[0, 1, 0.5, -50]], float)
        y = np.array([1], np.int8)
        tree = train_decision_tree(X, y)
        assert isinstance(tree.root, LeafNode)
        assert tree.root.label is Label.AUTHENTIC

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
        assert isinstance(tree.root, LeafNode)
        assert tree.root.label is Label.UNAUTHORIZED
        assert tree.root.class_counts == (2, 2)

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
            walk_with_data(tree.root, X, y, nodes)
            for node, Xn, yn in nodes:
                if isinstance(node, LeafNode):
                    assert sum(node.class_counts) >= 1
                    continue
                mask = Xn[:, node.feature_index] <= node.threshold
                assert np.all(Xn[mask, node.feature_index] <= node.threshold)
                assert np.all(Xn[~mask, node.feature_index] > node.threshold)
                parent = gini_impurity((int(np.sum(yn == 0)), int(np.sum(yn == 1))))
                nl, nr = int(mask.sum()), int((~mask).sum())
                gl = gini_impurity((int(np.sum(yn[mask] == 0)), int(np.sum(yn[mask] == 1))))
                gr = gini_impurity((int(np.sum(yn[~mask] == 0)), int(np.sum(yn[~mask] == 1))))
                weighted = (nl * gl + nr * gr) / (nl + nr)
                improving = best_split(Xn, yn, [0, 1, 2, 3])
                if improving is not None:
                    # normal path: the accepted split strictly reduces impurity
                    assert weighted < parent
                    assert (node.feature_index, node.threshold) == (
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
        walk_with_data(tree.root, X, y, nodes)
        for node, Xn, yn in nodes:
            if isinstance(node, LeafNode):
                assert sum(node.class_counts) >= 5


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

    def test_params_validation(self):
        with pytest.raises(ValueError):
            ForestParams(features_per_split=5)
        with pytest.raises(ValueError):
            ForestParams(n_trees=0)


def leaf_tree(label):
    counts = (0, 1) if label is Label.AUTHENTIC else (1, 0)
    return DecisionTree(LeafNode(label, counts), TreeParams())


class TestPredict:
    def test_leaf_only_tree(self):
        x = np.array([0, 1, 0.5, -50.0])
        assert predict(leaf_tree(Label.AUTHENTIC), x) is Label.AUTHENTIC

    def test_forest_majority(self):
        forest = RandomForest(
            trees=(leaf_tree(Label.AUTHENTIC), leaf_tree(Label.AUTHENTIC), leaf_tree(Label.UNAUTHORIZED)),
            params=ForestParams(n_trees=3, seed=0),
        )
        assert predict(forest, np.zeros(4)) is Label.AUTHENTIC

    def test_forest_tie_fails_closed(self):
        forest = RandomForest(
            trees=(leaf_tree(Label.AUTHENTIC), leaf_tree(Label.UNAUTHORIZED)),
            params=ForestParams(n_trees=2, seed=0),
        )
        assert predict(forest, np.zeros(4)) is Label.UNAUTHORIZED

    def test_batch_matches_single(self):
        rng = np.random.default_rng(37)
        X, y = random_consistent_data(rng, n_max=80)
        forest = train_random_forest(X, y, ForestParams(n_trees=9, seed=3))
        batch = predict_batch(forest, X)
        for i in range(len(X)):
            single = predict(forest, X[i])
            assert (single is Label.AUTHENTIC) == bool(batch[i] == 1)


def reference_leaf(node, x):
    """Reference node walk: follow ``x[feature] <= threshold`` to the left."""
    while isinstance(node, SplitNode):
        node = node.left if x[node.feature_index] <= node.threshold else node.right
    return node


def reference_predict(model, X):
    """Per-row walk of every tree, then an unweighted majority with ties to 0."""
    trees = model.trees if isinstance(model, RandomForest) else (model,)
    out = []
    for x in X:
        votes = sum(reference_leaf(t.root, x).label is Label.AUTHENTIC for t in trees)
        out.append(1 if 2 * votes > len(trees) else 0)
    return np.array(out, dtype=np.int8)


def reference_shape(node):
    """(node count, depth) by recursion over the node objects."""
    if isinstance(node, LeafNode):
        return 1, 0
    nl, dl = reference_shape(node.left)
    nr, dr = reference_shape(node.right)
    return 1 + nl + nr, 1 + max(dl, dr)


def hand_built_trees():
    a = LeafNode(Label.AUTHENTIC, (0, 3))
    u = LeafNode(Label.UNAUTHORIZED, (2, 1))
    return (
        DecisionTree(a, TreeParams()),
        DecisionTree(SplitNode(3, -60.0, a, u), TreeParams()),
        DecisionTree(SplitNode(1, 2.5, SplitNode(3, -70.0, u, a), u), TreeParams()),
        DecisionTree(
            SplitNode(0, 0.5, u, SplitNode(2, 0.5, SplitNode(3, -55.0, a, u), a)), TreeParams()
        ),
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
            assert [predict(forest, x) is Label.AUTHENTIC for x in probes[:20]] == [
                bool(v) for v in expected[:20]
            ]

    def test_shape_matches_recursive_count(self):
        rng = np.random.default_rng(67)
        X, y = random_consistent_data(rng, n_max=200)
        trained = train_random_forest(X, y, ForestParams(n_trees=5, seed=2)).trees
        for tree in trained + hand_built_trees():
            assert (tree.node_count(), tree.depth()) == reference_shape(tree.root)

    def test_zero_rows(self):
        tree = hand_built_trees()[2]
        forest = RandomForest(trees=hand_built_trees(), params=ForestParams(n_trees=4))
        for model in (tree, forest):
            out = predict_batch(model, np.empty((0, 4)))
            assert out.dtype == np.int8
            assert out.shape == (0,)

    def test_layout_outside_equality_hash_and_repr(self):
        a = hand_built_trees()[3]
        b = DecisionTree(a.root, a.params)
        assert a == b and hash(a) == hash(b)
        assert "_layout" not in repr(a)

    def test_empty_forest_predicts_unauthorized(self):
        forest = RandomForest(trees=(), params=ForestParams(n_trees=1))
        assert predict_batch(forest, np.zeros((3, 4))).tolist() == [0, 0, 0]
        assert predict(forest, np.zeros(4)) is Label.UNAUTHORIZED


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

    def test_empty_test_set(self):
        with pytest.raises(EmptyTestSet):
            evaluate(leaf_tree(Label.AUTHENTIC), np.empty((0, 4)), np.empty(0, np.int8))


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

    def test_bad_format_rejected(self):
        with pytest.raises(ValueError):
            document_to_model({"format": "something-else", "version": 1})

    def test_bad_version_rejected(self):
        doc = model_to_document(leaf_tree(Label.AUTHENTIC), self._encoder())
        doc["version"] = 999
        with pytest.raises(ValueError):
            document_to_model(doc)


def _split_forest_doc() -> dict:
    a, u = LeafNode(Label.AUTHENTIC, (0, 3)), LeafNode(Label.UNAUTHORIZED, (2, 1))
    forest = RandomForest(
        trees=(DecisionTree(SplitNode(3, -60.0, a, u), TreeParams()),), params=ForestParams(n_trees=1)
    )
    return model_to_document(forest, FeatureEncoder({"A": 1}, (2412000000.0, 5240000000.0)))


_DROP = "<drop>"


class TestMalformedDocuments:
    """Every malformed model document is a ValueError, never a KeyError or
    TypeError from deep inside the reader."""

    @pytest.mark.parametrize(
        "path, value",
        [
            ("encoder", _DROP),
            ("kind", _DROP),
            ("params", _DROP),
            ("trees", _DROP),
            ("params.seed", _DROP),
            ("params.tree_params.min_samples_leaf", _DROP),
            ("encoder.frequency_scale", _DROP),
            ("trees.0.left", _DROP),
            ("trees.0.right.label", _DROP),
            ("params.bogus", 1),
            ("params.tree_params.bogus", 1),
            ("encoder.bogus", 1),
            ("trees.0.type", "branch"),
            ("trees.0.left.type", "branch"),
            ("encoder", ["A", 1]),
            ("encoder.ssid_vocabulary", None),
            ("params.tree_params", 7),
            ("trees", 7),
            ("trees.0", "leaf"),
            ("trees.0.left.class_counts", [1]),
            ("kind", "bogus"),
        ],
    )
    def test_edited_document_is_value_error(self, path, value):
        doc = _split_forest_doc()
        document_to_model(json.loads(json.dumps(doc)))  # the unedited document loads
        *parents, last = [int(k) if k.isdigit() else k for k in path.split(".")]
        target = doc
        for key in parents:
            target = target[key]
        if value == _DROP:
            del target[last]
        else:
            target[last] = value
        with pytest.raises(ValueError):
            document_to_model(doc)

    @pytest.mark.parametrize("doc", [[], "proxauth-colocation-model", 1, None])
    def test_non_object_document_is_value_error(self, doc):
        with pytest.raises(ValueError):
            document_to_model(doc)

    def test_header_only_document_is_value_error(self):
        with pytest.raises(ValueError, match="missing key 'encoder'"):
            document_to_model({"format": "proxauth-colocation-model", "version": 1, "kind": "random_forest"})


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

    def test_train_seed_is_the_last_key_and_loads(self, tmp_path):
        tree = leaf_tree(Label.AUTHENTIC)
        encoder = FeatureEncoder({"A": 1}, (0.0, 1.0))
        save_model(tmp_path / "m.model", tree, encoder, train_seed=5)
        doc = json.loads((tmp_path / "m.model").read_text())
        assert list(doc)[-1] == "train_seed" and doc["train_seed"] == 5
        assert document_to_model(doc) == (tree, encoder)
        assert "train_seed" not in model_to_document(tree, encoder)
