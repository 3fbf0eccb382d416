import itertools
import json
import os
import re
import stat
import sys
import tempfile
import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from contextlib import suppress
from dataclasses import replace

import numpy as np
import pytest

from proxauth import auth_service
from proxauth.auth_service import (
    AuthDecision,
    AuthService,
    AuthSession,
    DecisionOutcome,
    DecisionReason,
    PolicyConfig,
    SessionState,
    UserRecord,
    UserStore,
    decide,
    hash_secret,
    overlap_observations,
    verify_secret,
)
from proxauth.beacon_model import (
    BeaconObservation,
    DeviceRole,
    FeatureEncoder,
    Label,
    ScanSnapshot,
    build_feature_encoder,
    encode_dataset,
    encode_observations,
)
from proxauth.colocation_ml import (
    Classifier,
    ForestParams,
    TreeParams,
    predict_batch,
    stratified_split,
    train_decision_tree,
    train_random_forest,
)
from proxauth.errors import (
    DuplicateDeviceId,
    DuplicateRoleSubmission,
    DuplicateUser,
    ForeignDevice,
    MissingScan,
    SessionDecided,
    UnknownSession,
    UnknownUser,
    WeakSecret,
)
from proxauth.rf_simulator import (
    EnvironmentConfig,
    PathLossConfig,
    Scenario,
    generate_dataset,
    scenario_session,
    sessions_for_target_rows,
)
from proxauth.wire import AuthClient, AuthWireServer, handle_request_line

from model_v1 import _tree_from_doc

ENCODER = FeatureEncoder({"NetA": 1, "NetB": 2, "NetC": 3}, (2412000000.0, 5240000000.0))

def leaf(label, counts):
    return {"type": "leaf", "label": label.value, "class_counts": list(counts)}


ALWAYS_AUTHENTIC = _tree_from_doc(leaf(Label.AUTHENTIC, (0, 1)), TreeParams())
ALWAYS_UNAUTHORIZED = _tree_from_doc(leaf(Label.UNAUTHORIZED, (1, 0)), TreeParams())
# authentic iff rssi > -70 (feature 3)
RSSI_GATE = _tree_from_doc(
    {"type": "split", "feature_index": 3, "threshold": -70.0,
     "left": leaf(Label.UNAUTHORIZED, (5, 0)), "right": leaf(Label.AUTHENTIC, (0, 5))},
    TreeParams(),
)


def obs(ssid="NetA", rssi=-60, bssid=None, freq=2437000000):
    return BeaconObservation(ssid=ssid, frequency=freq, rssi=rssi, bssid=bssid)


BSSIDS = ("aa:bb:cc:dd:ee:00", "aa:bb:cc:dd:ee:01", "aa:bb:cc:dd:ee:02")


def snap(device_id, role, observations, ts=1_000_000):
    return ScanSnapshot(device_id, role, ts, tuple(observations))


@pytest.fixture(autouse=True)
def _in_tmp_path(tmp_path, monkeypatch):
    """Each test runs in its own directory, where ``service`` opens its stores."""
    monkeypatch.chdir(tmp_path)


def service(model=ALWAYS_AUTHENTIC, policy=PolicyConfig(), store=None, clock=None):
    store = store or UserStore(tempfile.mkdtemp(dir="."))
    return AuthService(store, Classifier(model, ENCODER), policy=policy, clock=clock or (lambda: 777))


def enrolled_service(**kwargs):
    svc = service(**kwargs)
    svc.enroll_user("alice", "sesame-street", "alice-m", "alice-l")
    return svc


class TestSecrets:
    def test_round_trip(self):
        stored = hash_secret("hunter22")
        assert verify_secret("hunter22", stored)
        assert not verify_secret("hunter23", stored)

    def test_salts_differ(self):
        assert hash_secret("hunter22") != hash_secret("hunter22")

    def test_garbage_stored_value(self):
        assert not verify_secret("x", "not-a-hash")


class TestEnroll:
    def test_enroll_and_lookup(self):
        svc = enrolled_service()
        record = svc.store.get_user("alice")
        assert record is not None
        assert record.mobile_device_id == "alice-m"
        assert "sesame" not in record.credential_hash

    def test_duplicate_user(self):
        svc = enrolled_service()
        with pytest.raises(DuplicateUser):
            svc.enroll_user("alice", "another-pw", "x1", "x2")

    def test_same_device_ids(self):
        svc = service()
        with pytest.raises(DuplicateDeviceId):
            svc.enroll_user("bob", "password1", "dev", "dev")

    def test_cross_user_device_collision(self):
        svc = enrolled_service()
        with pytest.raises(DuplicateDeviceId):
            svc.enroll_user("bob", "password1", "alice-m", "bob-l")

    def test_weak_secret(self):
        svc = service()
        with pytest.raises(WeakSecret):
            svc.enroll_user("bob", "short", "b1", "b2")

    @pytest.mark.parametrize(
        "enrollment, error",
        [
            (("alice", "another-pw", "x1", "x2"), DuplicateUser),
            (("bob", "password1", "alice-m", "bob-l"), DuplicateDeviceId),
            (("bob", "password1", "bob-m", "alice-l"), DuplicateDeviceId),
        ],
        ids=["taken-username", "taken-mobile", "taken-login"],
    )
    def test_a_refused_enrollment_hashes_nothing(self, monkeypatch, enrollment, error):
        svc = enrolled_service()
        hashed = []
        monkeypatch.setattr(auth_service, "hash_secret", lambda secret: hashed.append(secret) or "unused")
        with pytest.raises(error):
            svc.enroll_user(*enrollment)
        assert hashed == []
        assert svc.store.get_user("bob") is None


class TestConstruction:
    def test_a_store_needs_its_directory(self):
        with pytest.raises(TypeError):
            UserStore()

    def test_policy_and_clock_are_keyword_only(self):
        store = UserStore("store")
        with pytest.raises(TypeError):
            AuthService(store, ALWAYS_AUTHENTIC, ENCODER, PolicyConfig())  # the call before Classifier
        with pytest.raises(TypeError):
            AuthService(store, Classifier(ALWAYS_AUTHENTIC, ENCODER), PolicyConfig())
        policy = PolicyConfig(vote_threshold_tau=0.5)
        svc = AuthService(store, Classifier(ALWAYS_AUTHENTIC, ENCODER), policy=policy, clock=lambda: 5)
        assert svc.policy is policy and svc.enroll_user("bob", "password1", "b1", "b2").enrolled_at == 5


class TestBeginSession:
    def test_correct_secret_awaits_scans(self):
        svc = enrolled_service()
        session = svc.begin_session("alice", "sesame-street")
        assert session.state is SessionState.AWAITING_SCANS
        assert session.decision is None

    def test_wrong_secret_denies_first_factor(self):
        svc = enrolled_service()
        session = svc.begin_session("alice", "wrong-secret")
        assert session.state is SessionState.DECIDED
        assert session.decision.outcome is DecisionOutcome.DENY
        assert session.decision.reason is DecisionReason.FIRST_FACTOR_FAILED
        assert session.decision.authentic_fraction is None

    def test_unknown_user(self):
        svc = service()
        with pytest.raises(UnknownUser):
            svc.begin_session("nobody", "whatever1")


class TestSubmitScan:
    def test_second_scan_triggers_decision(self):
        svc = enrolled_service()
        session = svc.begin_session("alice", "sesame-street")
        svc.submit_scan(session.session_id, "alice-m", snap("alice-m", DeviceRole.MOBILE, [obs()]))
        assert session.state is SessionState.AWAITING_SCANS
        svc.submit_scan(session.session_id, "alice-l", snap("alice-l", DeviceRole.LOGIN, [obs()]))
        assert session.state is SessionState.DECIDED
        assert session.decision.outcome is DecisionOutcome.GRANT

    def test_foreign_device(self):
        svc = enrolled_service()
        svc.enroll_user("bob", "bobs-password", "bob-m", "bob-l")
        session = svc.begin_session("alice", "sesame-street")
        with pytest.raises(ForeignDevice):
            svc.submit_scan(session.session_id, "bob-m", snap("bob-m", DeviceRole.MOBILE, [obs()]))

    def test_duplicate_role(self):
        svc = enrolled_service()
        session = svc.begin_session("alice", "sesame-street")
        svc.submit_scan(session.session_id, "alice-m", snap("alice-m", DeviceRole.MOBILE, [obs()]))
        with pytest.raises(DuplicateRoleSubmission):
            svc.submit_scan(session.session_id, "alice-m", snap("alice-m", DeviceRole.MOBILE, [obs()]))

    def test_unknown_session(self):
        svc = enrolled_service()
        with pytest.raises(UnknownSession):
            svc.submit_scan("missing", "alice-m", snap("alice-m", DeviceRole.MOBILE, [obs()]))

    def test_submission_after_decision_rejected(self):
        svc = enrolled_service()
        session = svc.begin_session("alice", "wrong-secret")
        with pytest.raises(SessionDecided):
            svc.submit_scan(session.session_id, "alice-m", snap("alice-m", DeviceRole.MOBILE, [obs()]))

    def test_role_comes_from_enrollment_not_snapshot(self):
        svc = enrolled_service()
        session = svc.begin_session("alice", "sesame-street")
        # client claims LOGIN role but the device id is the enrolled mobile
        svc.submit_scan(session.session_id, "alice-m", snap("alice-m", DeviceRole.LOGIN, [obs()]))
        assert list(session.scans) == [DeviceRole.MOBILE]
        assert session.scans[DeviceRole.MOBILE].role is DeviceRole.MOBILE

    def test_a_round_reads_no_record_after_begin(self, monkeypatch):
        svc = enrolled_service()
        svc.enroll_user("bob", "bobs-password", "bob-m", "bob-l")
        session = svc.begin_session("alice", "sesame-street")
        assert session.user is svc.store.get_user("alice")

        def no_reads(username):
            raise AssertionError(f"store read for {username!r} after begin")

        monkeypatch.setattr(svc.store, "get_user", no_reads)
        with pytest.raises(ForeignDevice, match="^device 'bob-m' is not enrolled to 'alice'$"):
            svc.submit_scan(session.session_id, "bob-m", snap("bob-m", DeviceRole.MOBILE, [obs()]))
        svc.submit_scan(session.session_id, "alice-m", snap("alice-m", DeviceRole.MOBILE, [obs()]))
        svc.submit_scan(session.session_id, "alice-l", snap("alice-l", DeviceRole.LOGIN, [obs()]))
        assert session.decision.outcome is DecisionOutcome.GRANT


class TestOverlap:
    def test_shared_ssid_intersection(self):
        mobile = snap("m", DeviceRole.MOBILE, [obs("NetA"), obs("NetB")])
        login = snap("l", DeviceRole.LOGIN, [obs("NetB", -72), obs("NetC")])
        pairs = overlap_observations(mobile, login)
        assert [(r, o.ssid) for r, o in pairs] == [
            (DeviceRole.MOBILE, "NetB"),
            (DeviceRole.LOGIN, "NetB"),
        ]

    def test_disjoint_sets_empty(self):
        mobile = snap("m", DeviceRole.MOBILE, [obs("NetA")])
        login = snap("l", DeviceRole.LOGIN, [obs("NetB")])
        assert overlap_observations(mobile, login) == []

    def test_empty_scan_empty_overlap(self):
        mobile = snap("m", DeviceRole.MOBILE, [])
        login = snap("l", DeviceRole.LOGIN, [obs("NetA")])
        assert overlap_observations(mobile, login) == []

    def test_bssid_match_preferred(self):
        mobile = snap("m", DeviceRole.MOBILE, [obs("NetA", -60, "aa:aa:aa:aa:aa:01")])
        login = snap("l", DeviceRole.LOGIN, [obs("NetA", -65, "aa:aa:aa:aa:aa:01")])
        pairs = overlap_observations(mobile, login)
        assert len(pairs) == 2

    def test_bssid_mismatch_falls_back_to_ssid(self):
        mobile = snap("m", DeviceRole.MOBILE, [obs("NetA", -60, "aa:aa:aa:aa:aa:01")])
        login = snap("l", DeviceRole.LOGIN, [obs("NetA", -65, "aa:aa:aa:aa:aa:02")])
        pairs = overlap_observations(mobile, login)
        assert [(r, o.bssid) for r, o in pairs] == [
            (DeviceRole.MOBILE, "aa:aa:aa:aa:aa:01"),
            (DeviceRole.LOGIN, "aa:aa:aa:aa:aa:02"),
        ]

    def test_bssid_less_scans_match_by_ssid(self):
        # the paper's scans carry no BSSID: the shared SSIDs are kept, mobile's then login's, each in scan order
        mobile = snap("m", DeviceRole.MOBILE, [obs("NetA", -60), obs("NetB", -70), obs("NetD", -80)])
        login = snap("l", DeviceRole.LOGIN, [obs("NetD", -75), obs("NetC", -50), obs("NetA", -65)])
        pairs = overlap_observations(mobile, login)
        assert [(r, o.ssid, o.rssi) for r, o in pairs] == [
            (DeviceRole.MOBILE, "NetA", -60),
            (DeviceRole.MOBILE, "NetD", -80),
            (DeviceRole.LOGIN, "NetD", -75),
            (DeviceRole.LOGIN, "NetA", -65),
        ]

    def test_no_cross_ssid_bssid_confusion(self):
        mobile = snap("m", DeviceRole.MOBILE, [obs("NetA"), obs("NetB", -70)])
        login = snap("l", DeviceRole.LOGIN, [obs("NetB", -71), obs("NetA", -55)])
        pairs = overlap_observations(mobile, login)
        assert len(pairs) == 4
        ssids = [o.ssid for _, o in pairs]
        assert ssids.count("NetA") == 2 and ssids.count("NetB") == 2

    def test_one_ssid_at_two_bssids(self):
        mobile = snap("m", DeviceRole.MOBILE, [obs("NetA", -60, "aa:aa:aa:aa:aa:01"),
                                               obs("NetA", -70, "aa:aa:aa:aa:aa:02")])
        login = snap("l", DeviceRole.LOGIN, [obs("NetA", -65, "aa:aa:aa:aa:aa:01")])
        by_bssid = overlap_observations(mobile, login)
        assert [(r, o.bssid) for r, o in by_bssid] == [
            (DeviceRole.MOBILE, "aa:aa:aa:aa:aa:01"),
            (DeviceRole.LOGIN, "aa:aa:aa:aa:aa:01"),
        ]

    def test_matches_set_oracle_on_random_scans(self):
        # 3 SSIDs over 4 BSSIDs or none: shared SSIDs at several BSSIDs, some BSSIDs missing
        combos = [(s, b) for s in ("NetA", "NetB", "NetC")
                  for b in (None, *(f"aa:aa:aa:aa:aa:0{i}" for i in range(4)))]
        rng = np.random.default_rng(5)

        def random_snap(role):
            picks = rng.choice(len(combos), size=rng.integers(0, 7), replace=False)
            return snap(role.value, role, [obs(combos[i][0], int(rng.integers(-90, -30)), combos[i][1])
                                           for i in picks])

        def oracle(mobile, login):
            left = {DeviceRole.MOBILE: list(mobile.observations), DeviceRole.LOGIN: list(login.observations)}
            kept = Counter()
            for key in ("bssid", "ssid"):
                shared = set.intersection(*({getattr(o, key) for o in side} - {None}
                                            for side in left.values()))
                for role, side in left.items():
                    kept.update((role, o) for o in side if getattr(o, key) in shared)
                    left[role] = [o for o in side if getattr(o, key) not in shared]
            return kept

        for _ in range(500):
            mobile, login = random_snap(DeviceRole.MOBILE), random_snap(DeviceRole.LOGIN)
            pairs = overlap_observations(mobile, login)
            assert Counter(pairs) == oracle(mobile, login)


def run_session(svc, mobile_obs, login_obs, mobile_ts=1_000_000, login_ts=1_000_100):
    session = svc.begin_session("alice", "sesame-street")
    svc.submit_scan(
        session.session_id, "alice-m",
        ScanSnapshot("alice-m", DeviceRole.MOBILE, mobile_ts, tuple(mobile_obs)),
    )
    svc.submit_scan(
        session.session_id, "alice-l",
        ScanSnapshot("alice-l", DeviceRole.LOGIN, login_ts, tuple(login_obs)),
    )
    return session


class TestDecision:
    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"vote_threshold_tau": 0.0}, r"vote_threshold_tau must be in \(0, 1\]"),
            ({"vote_threshold_tau": 1.5}, r"vote_threshold_tau must be in \(0, 1\]"),
            ({"min_overlap_aps": 0}, "min_overlap_aps must be >= 1"),
            ({"pairing_window_ms": -1}, "pairing_window_ms must be >= 0"),
        ],
    )
    def test_policy_range_checks(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            PolicyConfig(**kwargs)

    def test_stale_scans_denied_before_model_runs(self):
        # model=None would crash if the classifier were consulted
        svc = enrolled_service(model=None)
        session = run_session(svc, [obs()], [obs()], mobile_ts=0, login_ts=15_000)
        assert session.decision.reason is DecisionReason.STALE_SCANS
        assert session.decision.authentic_fraction is None

    def test_no_overlap_denied(self):
        svc = enrolled_service(model=None)
        session = run_session(svc, [obs("NetA")], [obs("NetB")])
        assert session.decision.reason is DecisionReason.NO_OVERLAP

    def test_empty_scans_deny_no_overlap(self):
        svc = enrolled_service(model=None)
        session = run_session(svc, [], [])
        assert session.decision.outcome is DecisionOutcome.DENY
        assert session.decision.reason is DecisionReason.NO_OVERLAP

    def test_grant_with_fraction(self):
        # 4 overlapping observations predicted (A, A, A, U) with the gate at -70
        svc = enrolled_service(model=RSSI_GATE)
        session = run_session(
            svc,
            [obs("NetA", -50), obs("NetB", -60)],
            [obs("NetA", -55), obs("NetB", -80)],
        )
        assert session.decision.outcome is DecisionOutcome.GRANT
        assert session.decision.reason is DecisionReason.CLASSIFIER_AUTHENTIC
        assert session.decision.authentic_fraction == pytest.approx(0.75)

    def test_half_fraction_denied_at_default_tau(self):
        svc = enrolled_service(model=RSSI_GATE)
        session = run_session(svc, [obs("NetA", -50)], [obs("NetA", -80)])
        assert session.decision.outcome is DecisionOutcome.DENY
        assert session.decision.reason is DecisionReason.CLASSIFIER_UNAUTHORIZED
        assert session.decision.authentic_fraction == pytest.approx(0.5)

    def test_fraction_at_threshold_grants(self):
        svc = enrolled_service(model=RSSI_GATE, policy=PolicyConfig(vote_threshold_tau=0.5))
        session = run_session(svc, [obs("NetA", -50)], [obs("NetA", -80)])
        assert session.decision.outcome is DecisionOutcome.GRANT

    def test_min_overlap_aps_enforced(self):
        svc = enrolled_service(model=ALWAYS_AUTHENTIC, policy=PolicyConfig(min_overlap_aps=2))
        session = run_session(svc, [obs("NetA")], [obs("NetA")])
        assert session.decision.reason is DecisionReason.NO_OVERLAP

    @pytest.mark.parametrize(
        "mobile_obs, login_obs",
        [
            ([obs(ssid, bssid=BSSIDS[0]) for ssid in ("NetA", "NetB", "NetC")], [obs("NetA", bssid=BSSIDS[0])]),
            ([obs("NetA", bssid=b) for b in BSSIDS], [obs("NetA")]),
            ([obs("NetA", bssid=BSSIDS[0]), obs("NetA")], [obs("NetA", bssid=BSSIDS[1]), obs("NetA")]),
        ],
        ids=["one-bssid-under-three-ssids", "three-bssids-of-one-ssid", "one-ssid-with-and-without-bssid"],
    )
    def test_min_overlap_aps_counts_aps_not_observations(self, mobile_obs, login_obs):
        """One shared AP seen in four observations is one AP, whichever key matched it."""
        policy = PolicyConfig(min_overlap_aps=2)
        mobile, login = snap("m", DeviceRole.MOBILE, mobile_obs), snap("l", DeviceRole.LOGIN, login_obs)
        assert len(overlap_observations(mobile, login)) == 4
        classifier = Classifier(ALWAYS_AUTHENTIC, ENCODER)
        assert decide(classifier, policy, mobile, login, 5) == AuthDecision(DecisionReason.NO_OVERLAP, None, 5)
        # a second shared AP, seen once by each device, reaches the minimum
        mobile, login = (replace(s, observations=s.observations + (obs("NetB", bssid="bb:bb:cc:dd:ee:02"),))
                         for s in (mobile, login))
        assert decide(classifier, policy, mobile, login, 5).reason is DecisionReason.CLASSIFIER_AUTHENTIC

    def test_missing_scan_error_keeps_session_open(self):
        svc = enrolled_service()
        session = svc.begin_session("alice", "sesame-street")
        svc.submit_scan(session.session_id, "alice-m", snap("alice-m", DeviceRole.MOBILE, [obs()]))
        with pytest.raises(MissingScan):
            svc.decide_session(session.session_id)
        assert session.state is SessionState.AWAITING_SCANS
        # the session can still complete normally afterwards
        svc.submit_scan(session.session_id, "alice-l", snap("alice-l", DeviceRole.LOGIN, [obs()]))
        assert session.state is SessionState.DECIDED

    def test_decision_immutable(self):
        svc = enrolled_service()
        session = run_session(svc, [obs()], [obs()])
        first = session.decision
        again = svc.decide_session(session.session_id)
        assert again is first

    def test_decision_deterministic(self):
        results = []
        for _ in range(2):
            svc = enrolled_service(model=RSSI_GATE)
            session = run_session(
                svc, [obs("NetA", -50), obs("NetB", -75)], [obs("NetA", -72), obs("NetB", -40)]
            )
            results.append(
                (session.decision.outcome, session.decision.reason, session.decision.authentic_fraction)
            )
        assert results[0] == results[1]


STORE_RECORDS = (
    UserRecord("carol", "pbkdf2-sha256$20000$00$c0", "c-m", "c-l", 777),
    UserRecord("dave", "pbkdf2-sha256$20000$01$d0", "d-m", "d-l", 778),
)
# what the store wrote after every enrollment when it rewrote users.json each time
STORE_SNAPSHOT = (
    '{"version":1,"users":['
    '{"username":"carol","credential_hash":"pbkdf2-sha256$20000$00$c0",'
    '"mobile_device_id":"c-m","login_device_id":"c-l","enrolled_at":777},'
    '{"username":"dave","credential_hash":"pbkdf2-sha256$20000$01$d0",'
    '"mobile_device_id":"d-m","login_device_id":"d-l","enrolled_at":778}]}\n'
)
ANN = UserRecord("ann", "pbkdf2-sha256$20000$02$a0", "m1", "l1", 779)
# records that share a username or a device id with ANN, and what refuses them
CONFLICTS_WITH_ANN = {
    "bob on ann's mobile": (UserRecord("bob", "pbkdf2-sha256$20000$03$b0", "m1", "l2", 780), DuplicateDeviceId),
    "bob on ann's login": (UserRecord("bob", "pbkdf2-sha256$20000$03$b0", "m2", "l1", 780), DuplicateDeviceId),
    "a second ann": (UserRecord("ann", "pbkdf2-sha256$20000$04$a1", "m3", "l3", 781), DuplicateUser),
}


def claimed(store, *device_ids):
    """Whether the store refuses each device id to a new user, tried in
    order; a device it does not refuse is enrolled to a probe user."""
    def refuses(device_id):
        probe = UserRecord(f"probe-{device_id}", "pbkdf2-sha256$20000$05$e0", device_id, f"{device_id}-probe", 790)
        try:
            store.add_user(probe)
        except DuplicateDeviceId:
            return True
        return False
    return [refuses(d) for d in device_ids]


def where_read(root, where):
    """How a store error names the record at fault: users.json's first, or users.log's first line."""
    return str(root / where) + (":1" if where == "users.log" else ": users.0")


def reference_decision(model, encoder, policy, mobile, login):
    """The per-row encode and predict loop that batched classification
    replaced, kept as the reference: one pair at a time through the batch
    functions, then (outcome, reason, authentic fraction)."""
    if abs(mobile.timestamp - login.timestamp) > policy.pairing_window_ms:
        return DecisionOutcome.DENY, DecisionReason.STALE_SCANS, None
    bssids = {o.bssid for o in mobile.observations} & {o.bssid for o in login.observations} - {None}
    ssids = set.intersection(*({o.ssid for o in s.observations if o.bssid not in bssids} for s in (mobile, login)))
    if len(bssids) + len(ssids) < policy.min_overlap_aps:  # shared APs, each counted once
        return DecisionOutcome.DENY, DecisionReason.NO_OVERLAP, None
    pairs = overlap_observations(mobile, login)
    authentic = 0
    for pair in pairs:
        authentic += int(predict_batch(model, encode_observations(encoder, [pair]))[0])
    fraction = authentic / len(pairs)
    if fraction >= policy.vote_threshold_tau:
        return DecisionOutcome.GRANT, DecisionReason.CLASSIFIER_AUTHENTIC, fraction
    return DecisionOutcome.DENY, DecisionReason.CLASSIFIER_UNAUTHORIZED, fraction


def random_snapshot(rng, role):
    """0-8 observations over three known SSIDs and two unknown ones, with
    BSSIDs from a small pool so both matching passes see hits."""
    chosen = {}
    for _ in range(int(rng.integers(0, 9))):
        ssid = f"Net{'ABCDE'[int(rng.integers(5))]}"
        bssid = None if rng.random() < 0.4 else f"aa:bb:cc:dd:ee:0{int(rng.integers(4))}"
        freq = int(rng.choice([2412000000, 2437000000, 5240000000, 5800000000]))
        chosen[(ssid, bssid)] = obs(ssid, int(rng.integers(-95, -20)), bssid, freq)
    return snap(f"{role.value}-dev", role, chosen.values())


class TestBatchedDecision:
    def test_matches_per_row_reference(self):
        rng = np.random.default_rng(2024)
        X = np.column_stack(
            [rng.integers(0, 2, 400), rng.integers(0, 4, 400), rng.random(400), rng.integers(-95, -20, 400)]
        ).astype(np.float64)
        y = ((X[:, 3] > -60) ^ (rng.random(400) < 0.15)).astype(np.int8)
        forest = train_random_forest(X, y, ForestParams(n_trees=9, seed=3))
        collapsed = FeatureEncoder(ENCODER.ssid_vocabulary, (2437000000.0, 2437000000.0))
        reasons = Counter()
        for i in range(400):
            encoder = (ENCODER, collapsed)[i % 2]
            policy = PolicyConfig(
                vote_threshold_tau=float(rng.choice([0.3, 0.5, 0.6, 1.0])),
                min_overlap_aps=int(rng.integers(1, 3)),
            )
            mobile = random_snapshot(rng, DeviceRole.MOBILE)
            login = random_snapshot(rng, DeviceRole.LOGIN)
            if rng.random() < 0.05:
                login = replace(login, timestamp=login.timestamp + 20_000)
            decision = decide(Classifier(forest, encoder), policy, mobile, login, 777)
            assert decision.decided_at == 777
            got = (decision.outcome, decision.reason, decision.authentic_fraction)
            assert got == reference_decision(forest, encoder, policy, mobile, login)
            reasons[decision.reason] += 1
        classified = reasons[DecisionReason.CLASSIFIER_AUTHENTIC] + reasons[DecisionReason.CLASSIFIER_UNAUTHORIZED]
        assert classified >= 200 and min(reasons.values()) > 0 and len(reasons) == 4, reasons


NEAR, FAR = (0.1, 2.1336), (2.286, 10.0)
# the four cases of the per-session co-location table: a near or a far pair,
# standing at home (the authentic zone) or at the intruder zone
SESSION_CASES = {
    "near pair at home": Scenario(Label.AUTHENTIC, NEAR),
    "far pair at home": Scenario(Label.AUTHENTIC, FAR),
    "near pair at the intruder zone": Scenario(Label.UNAUTHORIZED, NEAR),
    "far pair at the intruder zone": Scenario(Label.UNAUTHORIZED, FAR),
}


@pytest.fixture(scope="module")
def session_table():
    """Both model kinds trained on the 80% split (seed 7) of the seed-7
    dataset, its encoder, and 300 sessions per case on that environment."""
    env, loss = EnvironmentConfig(), PathLossConfig()
    dataset = generate_dataset(env, loss, sessions_for_target_rows(env, loss, 4825, 3, 7), 3, 7)
    assert len(dataset) == 4828
    train, _ = stratified_split(dataset, 0.2, 7)
    encoder = build_feature_encoder(train)
    X, y = encode_dataset(encoder, train)
    models = {"forest": train_random_forest(X, y, ForestParams(seed=7)), "tree": train_decision_tree(X, y)}
    cases = {
        name: [scenario_session(env, loss, scenario, env_seed=7, locations=3, location_index=i % 3,
                                session_seed=10000 + i) for i in range(300)]
        for name, scenario in SESSION_CASES.items()
    }
    return encoder, models, cases


class TestSessionTable:
    """The per-session co-location table, pinned: the granted count of each
    case at tau 0.6, and each decision equal to the encode-then-predict it
    stands for."""

    @pytest.mark.parametrize("kind, granted", [("forest", [300, 291, 0, 0]), ("tree", [300, 289, 0, 0])])
    def test_granted_counts_and_every_decision(self, session_table, kind, granted):
        encoder, models, cases = session_table
        classifier, policy = Classifier(models[kind], encoder), PolicyConfig(vote_threshold_tau=0.6)
        counts = []
        for sessions in cases.values():
            decisions = [decide(classifier, policy, mobile, login, 777) for mobile, login in sessions]
            for decision, (mobile, login) in zip(decisions, sessions):
                pairs = overlap_observations(mobile, login)
                fraction = int(predict_batch(models[kind], encode_observations(encoder, pairs)).sum()) / len(pairs)
                authentic = fraction >= policy.vote_threshold_tau
                assert decision == AuthDecision(
                    DecisionReason.CLASSIFIER_AUTHENTIC if authentic else DecisionReason.CLASSIFIER_UNAUTHORIZED,
                    fraction, 777)
            counts.append(sum(d.outcome is DecisionOutcome.GRANT for d in decisions))
        assert counts == granted


class TestAuthDecision:
    @pytest.mark.parametrize("reason", list(DecisionReason))
    def test_outcome_follows_from_the_reason(self, reason):
        decision = AuthDecision(reason, 0.75, 777)
        granted = reason is DecisionReason.CLASSIFIER_AUTHENTIC
        assert decision.outcome is (DecisionOutcome.GRANT if granted else DecisionOutcome.DENY)
        assert decision.as_dict() == {
            "outcome": decision.outcome.value, "reason": reason.value, "authentic_fraction": 0.75
        }
        assert list(decision.as_dict()) == ["outcome", "reason", "authentic_fraction"]

    def test_classifier_grant_needs_its_fraction(self):
        with pytest.raises(ValueError):
            AuthDecision(DecisionReason.CLASSIFIER_AUTHENTIC, None, 777)
        assert AuthDecision(DecisionReason.NO_OVERLAP, None, 777).outcome is DecisionOutcome.DENY

    def test_sessions_and_decisions_hold_no_instance_dict(self):
        # one is held per session in the window, so each keeps only its slots
        decision = AuthDecision(DecisionReason.NO_OVERLAP, None, 777)
        record = UserRecord("alice", "pbkdf2-sha256$1$00$00", "alice-m", "alice-l", 777)
        session = AuthSession("s", record, 777, decision=decision)
        for value in (decision, session):
            assert not hasattr(value, "__dict__")
        with pytest.raises(AttributeError):
            session.bogus = 1

    def test_service_decides_through_decide(self, monkeypatch):
        calls = []

        def spy(*args):
            calls.append(args)
            return AuthDecision(DecisionReason.NO_OVERLAP, None, args[-1])

        monkeypatch.setattr(auth_service, "decide", spy)
        svc = enrolled_service(clock=lambda: 4242)
        session = run_session(svc, [obs()], [obs()])
        assert session.decision == AuthDecision(DecisionReason.NO_OVERLAP, None, 4242)
        [(classifier, policy, mobile, login, now)] = calls
        assert (classifier, policy, now) == (svc.classifier, svc.policy, 4242)
        assert classifier is svc.classifier and not hasattr(svc, "model") and not hasattr(svc, "encoder")
        assert (mobile.device_id, login.device_id) == ("alice-m", "alice-l")


class TestStore:
    def test_persistence_round_trip(self, tmp_path):
        store = UserStore(tmp_path / "data")
        svc = AuthService(store, Classifier(ALWAYS_AUTHENTIC, ENCODER))
        svc.enroll_user("carol", "carols-secret", "c-m", "c-l")

        reopened = UserStore(tmp_path / "data")
        record = reopened.get_user("carol")
        assert record is not None
        assert record.login_device_id == "c-l"
        assert claimed(reopened, "c-m", "c-l", "e-m") == [True, True, False]

    def test_pretty_printed_users_json_still_loads(self, tmp_path):
        root = tmp_path / "data"
        root.mkdir()
        carol, dave = STORE_RECORDS
        (root / "users.json").write_text(json.dumps({"version": 1, "users": [vars(carol)]}, indent=2) + "\n")
        (root / "users.log").write_text(json.dumps(vars(dave)) + "\n")

        store = UserStore(root)
        assert [store.get_user("carol"), store.get_user("dave")] == [carol, dave]
        assert claimed(store, "c-m", "d-l", "e-m") == [True, True, False]
        assert (root / "users.json").read_text() == STORE_SNAPSHOT

    def test_reopen_folds_the_log_into_the_snapshot(self, tmp_path):
        root = tmp_path / "data"
        store = UserStore(root)
        for record in STORE_RECORDS:
            store.add_user(record)
        assert (root / "users.log").read_text().splitlines() == [
            json.dumps(vars(r), separators=(",", ":")) for r in STORE_RECORDS
        ]

        reopened = UserStore(root)
        assert (root / "users.log").read_bytes() == b""
        assert (root / "users.json").read_text() == STORE_SNAPSHOT
        assert [reopened.get_user(r.username) for r in STORE_RECORDS] == list(STORE_RECORDS)
        UserStore(root)  # a second reopen leaves the snapshot as it was
        assert (root / "users.json").read_text() == STORE_SNAPSHOT

    def test_the_log_is_emptied_once_the_snapshot_and_its_rename_are_on_disk(self, tmp_path, monkeypatch):
        root = tmp_path / "data"
        UserStore(root).add_user(STORE_RECORDS[0])
        log = (root / "users.log").read_bytes()
        calls = []
        os_fsync, os_replace = os.fsync, os.replace

        def recording_fsync(fd):
            kind = "dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "file"
            calls.append((f"fsync {kind}", (root / "users.log").read_bytes()))
            os_fsync(fd)

        def recording_replace(src, dst):
            calls.append((f"replace {os.path.basename(dst)}", (root / "users.log").read_bytes()))
            os_replace(src, dst)

        monkeypatch.setattr(os, "fsync", recording_fsync)
        monkeypatch.setattr(os, "replace", recording_replace)
        UserStore(root)
        assert calls == [("fsync file", log), ("replace users.json", log), ("fsync dir", log)]
        assert (root / "users.log").read_bytes() == b""

    def test_torn_last_log_line_is_dropped(self, tmp_path):
        root = tmp_path / "data"
        UserStore(root).add_user(STORE_RECORDS[0])
        with (root / "users.log").open("a") as f:
            f.write(json.dumps(vars(STORE_RECORDS[1]))[:40])  # a crash mid-append

        store = UserStore(root)
        assert store.get_user("carol") == STORE_RECORDS[0]
        assert store.get_user("dave") is None
        assert (root / "users.log").read_bytes() == b""

    def test_malformed_whole_log_line_raises(self, tmp_path):
        root = tmp_path / "data"
        UserStore(root).add_user(STORE_RECORDS[0])
        with (root / "users.log").open("a") as f:
            f.write('{"username": "dave", \n')
        with pytest.raises(ValueError):
            UserStore(root)

    @pytest.mark.parametrize("where", ["users.json", "users.log"])
    def test_a_file_nested_past_the_parsers_depth_raises_value_error(self, tmp_path, where):
        root = tmp_path / "data"
        root.mkdir()
        (root / where).write_text("[" * 100_000 + "\n")
        with pytest.raises(ValueError, match="parser's depth"):
            UserStore(root)

    @pytest.mark.parametrize("where", ["users.json", "users.log"])
    @pytest.mark.parametrize("change", ["unknown key", "missing key"])
    def test_record_without_exactly_its_fields_raises(self, tmp_path, where, change):
        root = tmp_path / "data"
        root.mkdir()
        doc = dict(vars(STORE_RECORDS[0]))
        if change == "unknown key":
            doc["role"] = "admin"
        else:
            del doc["login_device_id"]
        text = json.dumps({"version": 1, "users": [doc]}) if where == "users.json" else json.dumps(doc)
        (root / where).write_text(text + "\n")
        with pytest.raises(ValueError, match="UserRecord must be an object with keys"):
            UserStore(root)

    @pytest.mark.parametrize("where", ["users.json", "users.log"])
    @pytest.mark.parametrize(
        "key, value", [("username", 7), ("enrolled_at", 1.9), ("enrolled_at", None), ("enrolled_at", True)]
    )
    def test_record_with_a_wrongly_typed_field_raises(self, tmp_path, where, key, value):
        root = tmp_path / "data"
        root.mkdir()
        doc = {**vars(STORE_RECORDS[0]), key: value}
        text = json.dumps({"version": 1, "users": [doc]}) if where == "users.json" else json.dumps(doc)
        (root / where).write_text(text + "\n")
        named = re.escape(where_read(root, where))
        with pytest.raises(ValueError, match=f"^{named}: bad UserRecord value: {key} must be"):
            UserStore(root)

    @pytest.mark.parametrize(
        "snapshot",
        [[], {"version": 2, "users": []}, {"users": []}, {"version": 1, "users": {}},
         {"version": True, "users": []}, {"version": 1, "users": [], "extra": 0}],
    )
    def test_snapshot_must_be_a_version_1_envelope(self, tmp_path, snapshot):
        root = tmp_path / "data"
        root.mkdir()
        (root / "users.json").write_text(json.dumps(snapshot) + "\n")
        with pytest.raises(ValueError, match="StoreSnapshot"):
            UserStore(root)

    @pytest.mark.parametrize("where", ["users.json", "users.log"])
    def test_record_with_equal_device_ids_raises(self, tmp_path, where):
        root = tmp_path / "data"
        root.mkdir()
        doc = {**vars(STORE_RECORDS[0]), "login_device_id": STORE_RECORDS[0].mobile_device_id}
        text = json.dumps({"version": 1, "users": [doc]}) if where == "users.json" else json.dumps(doc)
        (root / where).write_text(text + "\n")
        named = re.escape(where_read(root, where))
        with pytest.raises(ValueError, match=f"^{named}: bad UserRecord value: device ids must be distinct"):
            UserStore(root)

    def test_records_held_by_different_users_are_refused(self, tmp_path):
        # ann (m1/l1), bob (m1/l2) and a second ann (m3/l3): bob's mobile is ann's
        root = tmp_path / "data"
        root.mkdir()
        records = [ANN, CONFLICTS_WITH_ANN["bob on ann's mobile"][0], CONFLICTS_WITH_ANN["a second ann"][0]]
        text = json.dumps({"version": 1, "users": [vars(r) for r in records]}) + "\n"
        (root / "users.json").write_text(text)
        with pytest.raises(DuplicateDeviceId, match="'m1'"):
            UserStore(root)
        assert (root / "users.json").read_text() == text  # not rewritten

    @pytest.mark.parametrize("where", ["users.json", "users.log", "users.json then users.log"])
    @pytest.mark.parametrize("conflict", list(CONFLICTS_WITH_ANN))
    def test_loaded_record_conflicting_with_another_raises(self, tmp_path, where, conflict):
        root = tmp_path / "data"
        root.mkdir()
        other, error = CONFLICTS_WITH_ANN[conflict]
        if where == "users.json":
            (root / where).write_text(json.dumps({"version": 1, "users": [vars(ANN), vars(other)]}) + "\n")
            named = root / where
        elif where == "users.log":
            (root / where).write_text(json.dumps(vars(ANN)) + "\n" + json.dumps(vars(other)) + "\n")
            named = f"{root / where}:2"
        else:
            (root / "users.json").write_text(json.dumps({"version": 1, "users": [vars(ANN)]}) + "\n")
            (root / "users.log").write_text(json.dumps(vars(other)) + "\n")
            named = f"{root / 'users.log'}:1"
        with pytest.raises(error, match=f"^{re.escape(str(named))}: "):  # the file holding the conflicting record
            UserStore(root)

    @pytest.mark.parametrize("conflict", list(CONFLICTS_WITH_ANN))
    def test_add_user_refuses_a_conflict_before_appending(self, tmp_path, conflict):
        root = tmp_path / "data"
        store = UserStore(root)
        store.add_user(ANN)
        other, error = CONFLICTS_WITH_ANN[conflict]
        with pytest.raises(error):
            store.add_user(other)
        assert store.get_user("ann") == ANN and store.get_user("bob") is None
        assert (root / "users.log").read_text() == json.dumps(vars(ANN), separators=(",", ":")) + "\n"
        assert claimed(store, "m1", "l1", "m2", "l2", "m3", "l3") == [True, True, False, False, False, False]

    def test_identical_record_in_snapshot_and_log_loads(self, tmp_path):
        root = tmp_path / "data"
        root.mkdir()
        (root / "users.json").write_text(json.dumps({"version": 1, "users": [vars(ANN)]}) + "\n")
        (root / "users.log").write_text(json.dumps(vars(ANN)) + "\n")
        store = UserStore(root)
        store.add_user(ANN)  # an identical record is held already, so it is not logged again
        assert (root / "users.log").read_bytes() == b""
        assert json.loads((root / "users.json").read_text())["users"] == [vars(ANN)]
        assert claimed(store, "m1", "l1", "m2") == [True, True, False]

    def test_record_in_snapshot_and_log_loads_once(self, tmp_path):
        # a crash after the snapshot was written but before the log was emptied
        root = tmp_path / "data"
        store = UserStore(root)
        for record in STORE_RECORDS:
            store.add_user(record)
        log = (root / "users.log").read_bytes()
        UserStore(root)
        (root / "users.log").write_bytes(log)

        reopened = UserStore(root)
        assert (root / "users.json").read_text() == STORE_SNAPSHOT
        assert reopened.get_user("carol") == STORE_RECORDS[0]
        assert claimed(reopened, "c-m", "d-l", "e-m") == [True, True, False]

    def test_no_secret_material_on_disk(self, tmp_path):
        store = UserStore(tmp_path / "data")
        svc = AuthService(store, Classifier(ALWAYS_AUTHENTIC, ENCODER))
        svc.enroll_user("carol", "carols-secret", "c-m", "c-l")
        session = svc.begin_session("carol", "carols-secret")
        svc.submit_scan(session.session_id, "c-m", snap("c-m", DeviceRole.MOBILE, [obs()]))
        svc.submit_scan(session.session_id, "c-l", snap("c-l", DeviceRole.LOGIN, [obs()]))

        on_disk = (tmp_path / "data" / "users.json").read_text()
        log = (tmp_path / "data" / "users.log").read_text()
        audit = (tmp_path / "data" / "audit.log").read_text()
        assert "carol" in log
        assert "carols-secret" not in on_disk
        assert "carols-secret" not in log
        assert "carols-secret" not in audit
        assert verify_secret("carols-secret", store.get_user("carol").credential_hash)

    def test_audit_records_decisions(self, tmp_path):
        store = UserStore(tmp_path / "data")
        svc = AuthService(store, Classifier(ALWAYS_AUTHENTIC, ENCODER))
        svc.enroll_user("carol", "carols-secret", "c-m", "c-l")
        session = svc.begin_session("carol", "carols-secret")
        svc.submit_scan(session.session_id, "c-m", snap("c-m", DeviceRole.MOBILE, [obs()]))
        svc.submit_scan(session.session_id, "c-l", snap("c-l", DeviceRole.LOGIN, [obs()]))

        lines = (tmp_path / "data" / "audit.log").read_text().splitlines()
        events = [__import__("json").loads(l)["event"] for l in lines]
        assert events == ["enroll", "begin", "decision"]


def in_threads(*calls):
    """Run each call on its own thread; return their results in order."""
    with ThreadPoolExecutor(len(calls)) as pool:
        futures = [pool.submit(call) for call in calls]
        return [f.result(timeout=30) for f in futures]


def meet_first(monkeypatch, name):
    """Patch ``auth_service.<name>`` so two calls must be inside it at once
    before either proceeds; a caller blocked elsewhere breaks the barrier."""
    barrier = threading.Barrier(2, timeout=5)
    real = getattr(auth_service, name)

    def patched(*args, **kwargs):
        barrier.wait()
        return real(*args, **kwargs)

    monkeypatch.setattr(auth_service, name, patched)


def decision_lines(root):
    lines = (root / "audit.log").read_text().splitlines()
    return [entry for entry in map(json.loads, lines) if entry["event"] == "decision"]


class TestConcurrency:
    def test_begin_sessions_verify_secrets_concurrently(self, monkeypatch):
        svc = enrolled_service()
        meet_first(monkeypatch, "verify_secret")
        sessions = in_threads(
            lambda: svc.begin_session("alice", "sesame-street"),
            lambda: svc.begin_session("alice", "wrong-secret"),
        )
        assert sessions[0].state is SessionState.AWAITING_SCANS
        assert sessions[1].decision.reason is DecisionReason.FIRST_FACTOR_FAILED

    def test_enrollments_hash_secrets_concurrently(self, monkeypatch):
        svc = service()
        meet_first(monkeypatch, "hash_secret")
        in_threads(
            lambda: svc.enroll_user("bob", "bobs-secret", "bob-m", "bob-l"),
            lambda: svc.enroll_user("carol", "carols-secret", "carol-m", "carol-l"),
        )
        assert verify_secret("bobs-secret", svc.store.get_user("bob").credential_hash)
        assert verify_secret("carols-secret", svc.store.get_user("carol").credential_hash)

    def test_racing_enrollments_of_one_device_enroll_one(self, monkeypatch):
        svc = service()
        meet_first(monkeypatch, "hash_secret")  # both pass the claim check before either holds the lock

        def enroll(username):
            try:
                return svc.enroll_user(username, f"{username}-secret", "shared-m", f"{username}-l").username
            except DuplicateDeviceId:
                return None

        [enrolled] = filter(None, in_threads(lambda: enroll("bob"), lambda: enroll("carol")))
        assert [svc.store.get_user(u) is not None for u in ("bob", "carol")] == [enrolled == "bob", enrolled == "carol"]

    def test_racing_deciders_agree_and_audit_once(self, monkeypatch, tmp_path):
        svc = enrolled_service(model=RSSI_GATE, store=UserStore(tmp_path))
        session = svc.begin_session("alice", "sesame-street")
        svc.submit_scan(session.session_id, "alice-m", snap("alice-m", DeviceRole.MOBILE, [obs()]))
        meet_first(monkeypatch, "overlap_observations")

        def decide_once_paired():
            for _ in range(5000):
                if DeviceRole.LOGIN in session.scans:
                    break
                time.sleep(0.001)
            return svc.decide_session(session.session_id)

        # the login scan completes the pair, so its submitter decides while
        # a direct caller classifies the same scans
        results = in_threads(
            lambda: svc.submit_scan(
                session.session_id, "alice-l", snap("alice-l", DeviceRole.LOGIN, [obs()])
            ).decision,
            decide_once_paired,
        )
        assert results[0] is results[1] is session.decision
        assert len(decision_lines(tmp_path)) == 1

    def test_scans_from_two_threads_match_a_sequential_run(self, tmp_path):
        rng = np.random.default_rng(3)

        def random_scan(device_id, role, ts):
            nets = rng.permutation(["NetA", "NetB", "NetC"])[: rng.integers(0, 4)]
            return snap(device_id, role, [obs(str(n), int(rng.integers(-90, -40))) for n in nets], ts)

        scans = [
            (random_scan("alice-m", DeviceRole.MOBILE, 1_000_000),
             random_scan("alice-l", DeviceRole.LOGIN, 1_000_000 + int(rng.choice([100, 20_000]))))
            for _ in range(60)
        ]

        def decided(decision):
            return (decision.outcome, decision.reason, decision.authentic_fraction)

        sequential = enrolled_service(model=RSSI_GATE)
        expected = [decided(run_session(sequential, m.observations, l.observations, m.timestamp,
                                        l.timestamp).decision) for m, l in scans]

        svc = enrolled_service(model=RSSI_GATE, store=UserStore(tmp_path))
        sessions = [svc.begin_session("alice", "sesame-street") for _ in scans]
        # two submitters and two direct deciders, more threads than cores
        barrier = threading.Barrier(4, timeout=5)
        returned = []

        def submit_all(device_id, index):
            for session, pair in zip(sessions, scans):
                barrier.wait()  # all four threads act on each session at once
                svc.submit_scan(session.session_id, device_id, pair[index])

        def decide_all():
            for session in sessions:
                barrier.wait()
                try:
                    returned.append((session, svc.decide_session(session.session_id)))
                except MissingScan:
                    pass

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            in_threads(lambda: submit_all("alice-m", 0), lambda: submit_all("alice-l", 1),
                       decide_all, decide_all)
        finally:
            sys.setswitchinterval(interval)
        assert [decided(s.decision) for s in sessions] == expected
        assert len(set(expected)) > 2  # the scans reach several decision paths
        assert all(decision is session.decision for session, decision in returned)
        per_session = Counter(entry["session_id"] for entry in decision_lines(tmp_path))
        assert per_session == Counter(s.session_id for s in sessions)
        assert all(s.scans == {} for s in sessions)


class TestDecidedSessionsReleaseScans:
    @pytest.mark.parametrize(
        "model, secret, outcome, reason",
        [
            (ALWAYS_AUTHENTIC, "sesame-street", "Grant", "ClassifierAuthentic"),
            (ALWAYS_UNAUTHORIZED, "sesame-street", "Deny", "ClassifierUnauthorized"),
            (ALWAYS_AUTHENTIC, "wrong-secret", "Deny", "FirstFactorFailed"),
        ],
    )
    def test_decided_session_keeps_no_scans(self, model, secret, outcome, reason):
        svc = enrolled_service(model=model)
        session = svc.begin_session("alice", secret)
        if session.decision is None:
            svc.submit_scan(session.session_id, "alice-m", snap("alice-m", DeviceRole.MOBILE, [obs()]))
            svc.submit_scan(session.session_id, "alice-l", snap("alice-l", DeviceRole.LOGIN, [obs()]))
        assert session.state is SessionState.DECIDED
        assert session.scans == {}
        with AuthWireServer(svc, "127.0.0.1", 0) as server, AuthClient(*server.address) as client:
            status = client.status(session.session_id)
        assert status["ok"] and status["state"] == "Decided"
        assert (status["outcome"], status["reason"]) == (outcome, reason)
        assert status["authentic_fraction"] == session.decision.authentic_fraction


class SteppingClock:
    """A server clock that moves only when a test moves it."""

    def __init__(self, now=1_000_000):
        self.now = now

    def __call__(self):
        return self.now


WINDOW = PolicyConfig().pairing_window_ms


class TestSessionExpiry:
    """A session lives for the pairing window after begin, by the server clock."""

    def _service(self, tmp_path, clock, **kwargs):
        svc = AuthService(UserStore(tmp_path), Classifier(ALWAYS_AUTHENTIC, ENCODER), clock=clock, **kwargs)
        svc.enroll_user("alice", "sesame-street", "alice-m", "alice-l")
        return svc

    def _scan(self, clock, device_id="alice-m", role=DeviceRole.MOBILE):
        return snap(device_id, role, [obs()], ts=clock.now)

    def test_a_late_scan_denies_missing_scan_with_one_audit_line(self, tmp_path):
        clock = SteppingClock()
        svc = self._service(tmp_path, clock)
        session = svc.begin_session("alice", "sesame-street")
        svc.submit_scan(session.session_id, "alice-m", self._scan(clock))
        clock.now += WINDOW + 1
        out = svc.submit_scan(session.session_id, "alice-l", self._scan(clock, "alice-l", DeviceRole.LOGIN))
        assert out is session
        assert session.decision == AuthDecision(DecisionReason.MISSING_SCAN, None, clock.now)
        assert session.decision.outcome is DecisionOutcome.DENY
        assert session.scans == {}
        assert [(e["session_id"], e["reason"], e["ts"]) for e in decision_lines(tmp_path)] == [
            (session.session_id, "MissingScan", clock.now)
        ]
        with pytest.raises(SessionDecided):
            svc.submit_scan(session.session_id, "alice-l", self._scan(clock, "alice-l", DeviceRole.LOGIN))
        assert len(decision_lines(tmp_path)) == 1

    def test_status_after_the_window_denies_missing_scan_with_one_audit_line(self, tmp_path):
        clock = SteppingClock()
        svc = self._service(tmp_path, clock)
        session = svc.begin_session("alice", "sesame-street")
        svc.submit_scan(session.session_id, "alice-m", self._scan(clock))
        status = json.dumps({"op": "status", "session_id": session.session_id})
        clock.now += WINDOW
        assert handle_request_line(svc, status) == {
            "ok": True, "session_id": session.session_id, "state": "AwaitingScans"
        }
        clock.now += 1
        decided = {
            "ok": True, "session_id": session.session_id, "state": "Decided",
            "outcome": "Deny", "reason": "MissingScan", "authentic_fraction": None,
        }
        assert handle_request_line(svc, status) == decided
        assert session.decision == AuthDecision(DecisionReason.MISSING_SCAN, None, clock.now)
        assert session.scans == {}
        clock.now += 1
        assert handle_request_line(svc, status) == decided  # decided once, at the first late status
        assert svc.get_session(session.session_id).decision.decided_at == clock.now - 1
        assert [(e["session_id"], e["reason"], e["ts"]) for e in decision_lines(tmp_path)] == [
            (session.session_id, "MissingScan", clock.now - 1)
        ]

    def test_a_scan_on_the_last_ms_of_the_window_is_in_time(self, tmp_path):
        clock = SteppingClock()
        svc = self._service(tmp_path, clock)
        session = svc.begin_session("alice", "sesame-street")
        svc.submit_scan(session.session_id, "alice-m", self._scan(clock))
        clock.now += WINDOW
        svc.submit_scan(session.session_id, "alice-l", self._scan(clock, "alice-l", DeviceRole.LOGIN))
        assert session.decision.reason is DecisionReason.CLASSIFIER_AUTHENTIC

    def test_a_later_begin_evicts_expired_sessions(self, tmp_path):
        clock = SteppingClock()
        svc = self._service(tmp_path, clock)
        waiting = svc.begin_session("alice", "sesame-street")
        half = svc.begin_session("alice", "sesame-street")
        svc.submit_scan(half.session_id, "alice-m", self._scan(clock))
        granted = svc.begin_session("alice", "sesame-street")
        svc.submit_scan(granted.session_id, "alice-m", self._scan(clock))
        svc.submit_scan(granted.session_id, "alice-l", self._scan(clock, "alice-l", DeviceRole.LOGIN))
        refused = svc.begin_session("alice", "wrong-secret")
        clock.now += WINDOW
        fresh = svc.begin_session("alice", "sesame-street")  # the others are on their window's last ms
        assert len(svc._sessions) == 5 and len(decision_lines(tmp_path)) == 2
        clock.now += 1
        newest = svc.begin_session("alice", "sesame-street")
        assert list(svc._sessions) == [fresh.session_id, newest.session_id]
        for session in (waiting, half):
            assert session.decision == AuthDecision(DecisionReason.MISSING_SCAN, None, clock.now)
        assert granted.decision.reason is DecisionReason.CLASSIFIER_AUTHENTIC
        assert refused.decision.reason is DecisionReason.FIRST_FACTOR_FAILED
        assert [(e["session_id"], e["reason"]) for e in decision_lines(tmp_path)] == [
            (granted.session_id, "ClassifierAuthentic"), (refused.session_id, "FirstFactorFailed"),
            (waiting.session_id, "MissingScan"), (half.session_id, "MissingScan"),
        ]
        for session in (waiting, half, granted, refused):
            with pytest.raises(UnknownSession):
                svc.get_session(session.session_id)
            with pytest.raises(UnknownSession):
                svc.submit_scan(session.session_id, "alice-l", self._scan(clock, "alice-l", DeviceRole.LOGIN))
        assert svc.get_session(fresh.session_id).state is SessionState.AWAITING_SCANS

    def test_sessions_inside_the_window_behave_as_before(self, tmp_path):
        clock = SteppingClock()
        svc = self._service(tmp_path, clock)
        session = svc.begin_session("alice", "sesame-street")
        clock.now += WINDOW // 2
        svc.begin_session("alice", "sesame-street")
        svc.submit_scan(session.session_id, "alice-m", self._scan(clock))
        clock.now += WINDOW // 2
        assert svc.get_session(session.session_id).state is SessionState.AWAITING_SCANS
        with pytest.raises(MissingScan):
            svc.decide_session(session.session_id)
        assert session.decision is None
        svc.submit_scan(session.session_id, "alice-l", self._scan(clock, "alice-l", DeviceRole.LOGIN))
        assert svc.get_session(session.session_id).decision.reason is DecisionReason.CLASSIFIER_AUTHENTIC
        with pytest.raises(SessionDecided):
            svc.submit_scan(session.session_id, "alice-l", self._scan(clock, "alice-l", DeviceRole.LOGIN))

    @pytest.mark.parametrize("window", [0, 1, 40])
    def test_held_sessions_never_exceed_the_window_plus_one(self, tmp_path, monkeypatch, window):
        monkeypatch.setattr(auth_service, "verify_secret", lambda secret, stored: True)
        clock = SteppingClock()
        svc = self._service(tmp_path, clock, policy=PolicyConfig(pairing_window_ms=window))
        held = []
        for _ in range(3 * window + 10):
            clock.now += 1
            svc.begin_session("alice", "sesame-street")
            held.append(len(svc._sessions))
        assert max(held) == window + 1
        assert len(decision_lines(tmp_path)) == 3 * window + 10 - (window + 1)  # every evicted one, MissingScan

    def test_a_clock_stepping_back_never_evicts_early(self, tmp_path):
        clock = SteppingClock(100_000)
        svc = self._service(tmp_path, clock)
        first = svc.begin_session("alice", "sesame-street")
        clock.now = 50_000
        behind = svc.begin_session("alice", "sesame-street")
        clock.now = 100_000 + WINDOW  # the last ms of first's window, past behind's
        svc.begin_session("alice", "sesame-street")
        assert first.session_id in svc._sessions and behind.session_id in svc._sessions  # behind goes late
        svc.submit_scan(first.session_id, "alice-m", self._scan(clock))
        assert first.decision is None
        clock.now = 0
        svc.begin_session("alice", "sesame-street")
        svc.submit_scan(first.session_id, "alice-l", self._scan(clock, "alice-l", DeviceRole.LOGIN))
        assert first.decision.reason is DecisionReason.STALE_SCANS  # the scans' own timestamps decide
        clock.now = 100_000 + WINDOW + 1
        svc.begin_session("alice", "sesame-street")
        assert first.session_id not in svc._sessions and behind.session_id not in svc._sessions
        assert behind.decision.reason is DecisionReason.MISSING_SCAN

    def test_an_eviction_racing_the_decision_is_the_decision(self, tmp_path):
        clock = SteppingClock()
        svc = self._service(tmp_path, clock)
        session = svc.begin_session("alice", "sesame-street")
        svc.submit_scan(session.session_id, "alice-m", self._scan(clock))
        real = svc.decide_session

        def after_an_eviction(session_id):
            clock.now += WINDOW + 1
            svc.begin_session("alice", "sesame-street")  # evicts the session, denying it MissingScan
            return real(session_id)

        svc.decide_session = after_an_eviction
        out = svc.submit_scan(session.session_id, "alice-l", self._scan(clock, "alice-l", DeviceRole.LOGIN))
        assert out.decision.reason is DecisionReason.MISSING_SCAN
        assert [e["reason"] for e in decision_lines(tmp_path)] == ["MissingScan"]

    def test_racing_begins_and_scans_decide_each_session_once(self, tmp_path, monkeypatch):
        monkeypatch.setattr(auth_service, "verify_secret", lambda secret, stored: True)
        ticks = itertools.count(1_000_000)  # each reading of the clock moves it 1 ms
        svc = self._service(tmp_path, lambda: next(ticks), policy=PolicyConfig(pairing_window_ms=20))
        begun = []

        def rounds():
            for i in range(150):
                session = svc.begin_session("alice", "sesame-street")
                begun.append(session)
                devices = (("alice-m", DeviceRole.MOBILE), ("alice-l", DeviceRole.LOGIN))
                for device_id, role in devices[: 1 + (i % 3 > 0)]:  # every third round leaves a scan out
                    with suppress(UnknownSession, SessionDecided):  # evicted, or denied late
                        svc.submit_scan(session.session_id, device_id, snap(device_id, role, [obs()]))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            in_threads(rounds, rounds, rounds, rounds)  # more threads than cores
        finally:
            sys.setswitchinterval(interval)
        audited = {entry["session_id"]: entry["reason"] for entry in decision_lines(tmp_path)}
        assert len(audited) == len(decision_lines(tmp_path))  # no session decided twice
        assert {s.session_id: s.decision.reason.value for s in begun if s.decision} == audited
        assert all(s.decision for s in begun if s.session_id not in svc._sessions)
        assert "MissingScan" in set(audited.values()) <= {"ClassifierAuthentic", "MissingScan"}
        assert len(svc._sessions) <= 21
