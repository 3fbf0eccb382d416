"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``)."""

import dataclasses
import json
import os
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from proxauth.auth_service import (
    AuthService,
    DecisionOutcome,
    DecisionReason,
    PolicyConfig,
    SessionState,
    UserStore,
)
from proxauth.beacon_model import (
    BeaconObservation,
    DeviceRole,
    FeatureEncoder,
    Label,
    ScanSnapshot,
    build_feature_encoder,
    encode_dataset,
    parse_dataset_csv,
)
from proxauth.colocation_ml import (
    Classifier,
    ConfusionMatrix,
    ForestParams,
    TreeParams,
    best_split,
    compute_metrics,
    derived_rng,
    evaluate,
    gini_impurity,
    model_to_document,
    predict_batch,
    stratified_split,
    train_decision_tree,
    train_random_forest,
)
from proxauth.errors import MissingScan, SessionDecided
from proxauth.rf_simulator import (
    EnvironmentConfig,
    PathLossConfig,
    Scenario,
    generate_dataset,
    rssi_at_distance,
    scenario_session,
    sessions_for_target_rows,
)
from proxauth.wire import AuthClient, AuthWireServer

from model_v1 import _tree_from_doc


@contextmanager
def criterion(number, name):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number} ({name}): FAIL")
        raise
    print(f"[acceptance] criterion {number} ({name}): PASS "
          f"({time.perf_counter() - started:.1f}s)")


# -- criterion 1: metric oracle equivalence -----------------------------------

def oracle_metrics(tp, tn, fp, fn):
    """Independent straight-line evaluation of the five metric formulas."""
    n = tp + tn + fp + fn
    acc = (tp + tn) / n
    sens = tp / (tp + fn) if tp + fn else None
    spec = tn / (tn + fp) if tn + fp else None
    prec = tp / (tp + fp) if tp + fp else None
    if prec is None or sens is None:
        f1 = None
    elif prec + sens == 0:
        f1 = 0.0
    else:
        f1 = 2 * prec * sens / (prec + sens)
    return acc, sens, spec, prec, f1


def test_criterion_1_metric_oracle():
    with criterion(1, "metric oracle equivalence"):
        started = time.perf_counter()
        rng = np.random.default_rng(20240)
        checked = 0
        while checked < 20:
            tp, tn, fp, fn = (int(v) for v in rng.integers(0, 1001, 4))
            if tp + tn + fp + fn == 0:
                continue
            checked += 1
            report = compute_metrics(ConfusionMatrix(tp, tn, fp, fn))
            expected = oracle_metrics(tp, tn, fp, fn)
            got = (report.accuracy, report.sensitivity, report.specificity,
                   report.precision, report.f1)
            for g, e in zip(got, expected):
                if e is None:
                    assert g is None
                else:
                    assert abs(g - e) < 1e-9
        assert time.perf_counter() - started < 1.0


# -- criterion 2: metric band on simulated data --------------------------------

def test_criterion_2_simulated_metric_band():
    with criterion(2, "metric band on simulated data"):
        env = EnvironmentConfig()
        loss = PathLossConfig()
        locations = 3
        for seed in (101, 202, 303, 404, 505):
            started = time.perf_counter()
            sessions = sessions_for_target_rows(env, loss, 4825, locations, seed)
            dataset = generate_dataset(env, loss, sessions, locations, seed)
            assert abs(len(dataset) - 4825) <= 0.10 * 4825
            assert dataset.is_balanced()
            assert len({s.observation.ssid for s in dataset.samples}) == 10

            train_set, test_set = stratified_split(dataset, 0.2, seed)
            encoder = build_feature_encoder(train_set)
            Xtr, ytr = encode_dataset(encoder, train_set)
            Xte, yte = encode_dataset(encoder, test_set)

            models = (
                train_decision_tree(Xtr, ytr, TreeParams()),
                train_random_forest(Xtr, ytr, ForestParams(seed=seed)),
            )
            for model in models:
                m = compute_metrics(evaluate(model, Xte, yte))
                assert m.accuracy >= 0.85
                for value in (m.sensitivity, m.specificity, m.precision, m.f1):
                    assert value is not None and value >= 0.80
            assert time.perf_counter() - started < 60.0


# -- criterion 3: real field-collected dataset (conditional) -------------------

REAL_DATASET_ENV = "PROXAUTH_REAL_DATASET"
REAL_DATASET_DEFAULT = Path(__file__).resolve().parent.parent / "data" / "beacon_rssi.csv"


def test_criterion_3_real_dataset_if_present():
    path = Path(os.environ.get(REAL_DATASET_ENV, REAL_DATASET_DEFAULT))
    if not path.exists():
        print("[acceptance] criterion 3 (real dataset check): SKIPPED (file absent)")
        pytest.skip(f"real dataset not present at {path}")
    with criterion(3, "real dataset check"):
        dataset = parse_dataset_csv(path.read_bytes())
        counts = dataset.label_counts()
        assert len(dataset) == 4825
        assert counts[Label.AUTHENTIC] == 2442
        assert counts[Label.UNAUTHORIZED] == 2383

        train_set, test_set = stratified_split(dataset, 0.2, seed=0)
        encoder = build_feature_encoder(train_set)
        Xtr, ytr = encode_dataset(encoder, train_set)
        Xte, yte = encode_dataset(encoder, test_set)
        forest = train_random_forest(Xtr, ytr, ForestParams(seed=0))
        m = compute_metrics(evaluate(forest, Xte, yte))
        assert abs(m.accuracy - 0.922) <= 0.05


# -- criterion 4: classifier property suite ------------------------------------

def random_consistent_data(rng, n_max=200):
    n = int(rng.integers(1, n_max + 1))
    X = np.column_stack(
        [
            rng.integers(0, 2, n),
            rng.integers(0, 6, n),
            rng.integers(0, 4, n) / 3.0,
            rng.integers(-90, -39, n),
        ]
    ).astype(np.float64)
    assignment = {}
    y = np.empty(n, dtype=np.int8)
    for i in range(n):
        key = tuple(X[i])
        if key not in assignment:
            assignment[key] = int(rng.integers(0, 2))
        y[i] = assignment[key]
    return X, y


def check_tree_invariants(tree, X, y, i=0):
    """Split invariants at node ``i`` of the preorder table and below it."""
    f, t = tree.feature[i], tree.threshold[i]
    if f < 0:
        return
    mask = X[:, f] <= t
    assert np.all(X[mask, f] <= t)
    assert np.all(X[~mask, f] > t)
    parent = gini_impurity((int(np.sum(y == 0)), int(np.sum(y == 1))))
    nl, nr = int(mask.sum()), int((~mask).sum())
    gl = gini_impurity((int(np.sum(y[mask] == 0)), int(np.sum(y[mask] == 1))))
    gr = gini_impurity((int(np.sum(y[~mask] == 0)), int(np.sum(y[~mask] == 1))))
    weighted = (nl * gl + nr * gr) / (nl + nr)
    if best_split(X, y, [0, 1, 2, 3]) is not None:
        assert weighted < parent
    else:
        assert weighted <= parent + 1e-12  # deadlock-break tie split
    check_tree_invariants(tree, X[mask], y[mask], i + 1)
    check_tree_invariants(tree, X[~mask], y[~mask], tree.right[i])


def test_criterion_4_classifier_properties():
    with criterion(4, "classifier property suite"):
        started = time.perf_counter()
        rng = np.random.default_rng(777)

        # training-set perfection on 100 random consistent datasets
        for _ in range(100):
            X, y = random_consistent_data(rng)
            tree = train_decision_tree(X, y, TreeParams(max_depth=None))
            assert np.array_equal(predict_batch(tree, X), y)

        # split and impurity invariants, replayed over fresh trees
        for _ in range(10):
            X, y = random_consistent_data(rng)
            tree = train_decision_tree(X, y, TreeParams(max_depth=None))
            check_tree_invariants(tree, X, y)

        # degenerate forest == single tree on 1000 probes
        X, y = random_consistent_data(rng, n_max=200)
        params = ForestParams(n_trees=1, bootstrap=False, features_per_split=4, seed=5)
        forest = train_random_forest(X, y, params)
        tree = train_decision_tree(X, y, params.tree_params)
        probes = np.column_stack(
            [
                rng.integers(0, 2, 1000),
                rng.integers(0, 6, 1000),
                rng.integers(0, 4, 1000) / 3.0,
                rng.integers(-90, -39, 1000),
            ]
        ).astype(np.float64)
        assert np.array_equal(predict_batch(forest, probes), predict_batch(tree, probes))

        # seed determinism: byte-identical serialized models across two runs
        env, loss = EnvironmentConfig(), PathLossConfig()
        dataset = generate_dataset(env, loss, 60, 3, seed=4242)
        encoder = build_feature_encoder(dataset)
        Xd, yd = encode_dataset(encoder, dataset)
        blobs = []
        for _ in range(2):
            forest = train_random_forest(Xd, yd, ForestParams(seed=4242))
            blobs.append(json.dumps(model_to_document(forest, encoder), separators=(",", ":")))
        assert blobs[0] == blobs[1]

        assert time.perf_counter() - started < 30.0


# -- criterion 5: simulator physics --------------------------------------------

def test_criterion_5_simulator_physics():
    with criterion(5, "simulator physics"):
        started = time.perf_counter()
        quiet = PathLossConfig(noise_sigma_dbm=0.0)

        # noise-free monotonicity over 1000 distance pairs
        rng = np.random.default_rng(31337)
        for _ in range(1000):
            d1, d2 = np.sort(rng.uniform(0.2, 300.0, 2))
            assert rssi_at_distance(quiet, float(d1)) >= rssi_at_distance(quiet, float(d2))

        # reference distance returns the reference power exactly
        assert rssi_at_distance(quiet, quiet.d0_m) == int(quiet.p0_dbm)

        # shadowing statistics over 10,000 draws at a fixed distance
        noisy = PathLossConfig()  # sigma = 2.0
        gen = derived_rng(2718)
        draws = np.array([rssi_at_distance(noisy, 10.0, gen) for _ in range(10_000)])
        assert abs(draws.mean() - (-65.0)) < 0.2
        assert 1.6 <= draws.std() <= 2.4

        assert time.perf_counter() - started < 5.0


# -- criterion 6: end-to-end protocol soundness ---------------------------------

def test_criterion_6_end_to_end_soundness(tmp_path):
    with criterion(6, "end-to-end protocol soundness"):
        started = time.perf_counter()
        env, loss = EnvironmentConfig(), PathLossConfig()
        env_seed, locations = 7001, 3

        sessions = sessions_for_target_rows(env, loss, 4825, locations, env_seed)
        dataset = generate_dataset(env, loss, sessions, locations, env_seed)
        train_set, _ = stratified_split(dataset, 0.2, env_seed)
        encoder = build_feature_encoder(train_set)
        Xtr, ytr = encode_dataset(encoder, train_set)
        forest = train_random_forest(Xtr, ytr, ForestParams(seed=env_seed))

        service = AuthService(UserStore(tmp_path / "data"), Classifier(forest, encoder), policy=PolicyConfig())
        grants = {"near": 0, "far": 0}
        denies = {"near": 0, "far": 0}
        bad_grant_reasons = []

        with AuthWireServer(service, "127.0.0.1", 0) as server:
            host, port = server.address
            with AuthClient(host, port) as client:
                for i in range(200):
                    kind = "near" if i < 100 else "far"
                    scenario = Scenario.authentic() if kind == "near" else Scenario.unauthorized()
                    user = f"user{i:03d}"
                    mobile_id, login_id = f"{user}:m", f"{user}:l"
                    mobile, login = scenario_session(
                        env, loss, scenario,
                        env_seed=env_seed, locations=locations,
                        location_index=i % locations, session_seed=40_000 + i,
                        device_ids=(mobile_id, login_id),
                    )
                    assert client.enroll(user, f"password-{i:04d}", mobile_id, login_id)["ok"]
                    begun = client.begin(user, f"password-{i:04d}")
                    assert begun["ok"] and begun["state"] == "AwaitingScans"
                    client.submit_scan(begun["session_id"], mobile_id, mobile)
                    final = client.submit_scan(begun["session_id"], login_id, login)
                    assert final["ok"]
                    if final["outcome"] == "Grant":
                        grants[kind] += 1
                        if final["reason"] != "ClassifierAuthentic":
                            bad_grant_reasons.append(final["reason"])
                    else:
                        denies[kind] += 1

                # stale-scan injections deny with the right reason, always
                for k in range(20):
                    user = f"user{k:03d}"
                    mobile, login = scenario_session(
                        env, loss, Scenario.authentic(),
                        env_seed=env_seed, locations=locations,
                        location_index=k % locations, session_seed=80_000 + k,
                        device_ids=(f"{user}:m", f"{user}:l"),
                    )
                    login = dataclasses.replace(login, timestamp=mobile.timestamp + 15_000)
                    begun = client.begin(user, f"password-{k:04d}")
                    client.submit_scan(begun["session_id"], f"{user}:m", mobile)
                    final = client.submit_scan(begun["session_id"], f"{user}:l", login)
                    assert final["outcome"] == "Deny" and final["reason"] == "StaleScans"

                # no-overlap injections deny with the right reason, always
                for k in range(20):
                    user = f"user{k:03d}"
                    mobile, login = scenario_session(
                        env, loss, Scenario.authentic(),
                        env_seed=env_seed, locations=locations,
                        location_index=k % locations, session_seed=90_000 + k,
                        device_ids=(f"{user}:m", f"{user}:l"),
                    )
                    ghosts = tuple(
                        BeaconObservation(f"GHOST-{j}", 2412000000, -70)
                        for j in range(len(login.observations))
                    )
                    login = dataclasses.replace(login, observations=ghosts)
                    begun = client.begin(user, f"password-{k:04d}")
                    client.submit_scan(begun["session_id"], f"{user}:m", mobile)
                    final = client.submit_scan(begun["session_id"], f"{user}:l", login)
                    assert final["outcome"] == "Deny" and final["reason"] == "NoOverlap"

        assert grants["near"] >= 90, f"near grants: {grants['near']}/100"
        assert denies["far"] >= 90, f"far denies: {denies['far']}/100"
        assert bad_grant_reasons == []
        assert time.perf_counter() - started < 60.0


# -- criterion 7: fail-closed exhaustiveness ------------------------------------

DECLARED_REASONS = {
    DecisionReason.CLASSIFIER_AUTHENTIC,
    DecisionReason.CLASSIFIER_UNAUTHORIZED,
    DecisionReason.NO_OVERLAP,
    DecisionReason.STALE_SCANS,
    DecisionReason.MISSING_SCAN,
    DecisionReason.FIRST_FACTOR_FAILED,
}


def test_criterion_7_fail_closed_state_machine(tmp_path):
    with criterion(7, "fail-closed exhaustiveness"):
        encoder = FeatureEncoder({"NetA": 1, "NetB": 2}, (2412000000.0, 5240000000.0))
        gate = _tree_from_doc(
            {"type": "split", "feature_index": 3, "threshold": -70.0,
             "left": {"type": "leaf", "label": "unauthorized", "class_counts": [1, 0]},
             "right": {"type": "leaf", "label": "authentic", "class_counts": [0, 1]}},
            TreeParams(),
        )
        policy = PolicyConfig()
        svc = AuthService(UserStore(tmp_path / "data"), Classifier(gate, encoder), policy=policy, clock=lambda: 999)
        svc.enroll_user("alice", "sesame-street", "a-m", "a-l")

        def scan(device, rssis, ts=1_000_000):
            names = ["NetA", "NetB"]
            return ScanSnapshot(
                device, DeviceRole.MOBILE, ts,
                tuple(BeaconObservation(names[j], 2437000000, r) for j, r in enumerate(rssis)),
            )

        decisions = []

        def run(mobile, login):
            session = svc.begin_session("alice", "sesame-street")
            svc.submit_scan(session.session_id, "a-m", mobile)
            svc.submit_scan(session.session_id, "a-l", login)
            decisions.append(session.decision)
            return session

        # transition: wrong first factor -> immediate deny
        denied = svc.begin_session("alice", "wrong-secret")
        assert denied.state is SessionState.DECIDED
        decisions.append(denied.decision)
        assert denied.decision.reason is DecisionReason.FIRST_FACTOR_FAILED

        # transition: stale pairing -> deny before classification
        stale = run(scan("a-m", [-50]), scan("a-l", [-50], ts=1_020_000))
        assert stale.decision.reason is DecisionReason.STALE_SCANS

        # transition: no common AP -> deny (incl. the empty-scan edge)
        disjoint = run(scan("a-m", [-50]), ScanSnapshot("a-l", DeviceRole.LOGIN, 1_000_000,
                       (BeaconObservation("Other", 2412000000, -60),)))
        assert disjoint.decision.reason is DecisionReason.NO_OVERLAP
        empty = run(scan("a-m", []), scan("a-l", []))
        assert empty.decision.reason is DecisionReason.NO_OVERLAP

        # transition: classifier below threshold -> deny with fraction
        low = run(scan("a-m", [-80, -80]), scan("a-l", [-80, -50]))
        assert low.decision.reason is DecisionReason.CLASSIFIER_UNAUTHORIZED
        assert low.decision.authentic_fraction == pytest.approx(0.25)

        # transition: classifier at/above threshold -> the only grant path
        granted = run(scan("a-m", [-50, -50]), scan("a-l", [-50, -80]))
        assert granted.decision.outcome is DecisionOutcome.GRANT
        assert granted.decision.reason is DecisionReason.CLASSIFIER_AUTHENTIC
        assert granted.decision.authentic_fraction >= policy.vote_threshold_tau

        # early decide: an error, not a decision; the session stays open
        open_session = svc.begin_session("alice", "sesame-street")
        svc.submit_scan(open_session.session_id, "a-m", scan("a-m", [-50]))
        with pytest.raises(MissingScan):
            svc.decide_session(open_session.session_id)
        assert open_session.state is SessionState.AWAITING_SCANS
        assert open_session.decision is None
        svc.submit_scan(open_session.session_id, "a-l", scan("a-l", [-50]))
        decisions.append(open_session.decision)

        # immutability: the decision object never changes once set
        before = granted.decision
        assert svc.decide_session(granted.session_id) is before
        with pytest.raises(SessionDecided):
            svc.submit_scan(granted.session_id, "a-m", scan("a-m", [-50]))
        assert granted.decision is before

        # exhaustiveness: every decision denies unless the classifier granted,
        # and every reason is one of the six declared
        for decision in decisions:
            assert decision.reason in DECLARED_REASONS
            if decision.outcome is DecisionOutcome.GRANT:
                assert decision.reason is DecisionReason.CLASSIFIER_AUTHENTIC
                assert decision.authentic_fraction >= policy.vote_threshold_tau
            else:
                assert decision.outcome is DecisionOutcome.DENY
        assert {d.outcome for d in decisions} == {DecisionOutcome.GRANT, DecisionOutcome.DENY}
