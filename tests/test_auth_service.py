import json
import sys
import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from proxauth import auth_service
from proxauth.auth_service import (
    AuthService,
    DecisionOutcome,
    DecisionReason,
    MatchKey,
    PolicyConfig,
    SessionState,
    UserStore,
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
)
from proxauth.colocation_ml import DecisionTree, LeafNode, SplitNode, TreeParams
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
from proxauth.wire import AuthClient, AuthWireServer

ENCODER = FeatureEncoder({"NetA": 1, "NetB": 2, "NetC": 3}, (2412000000.0, 5240000000.0))

ALWAYS_AUTHENTIC = DecisionTree(LeafNode(Label.AUTHENTIC, (0, 1)), TreeParams())
ALWAYS_UNAUTHORIZED = DecisionTree(LeafNode(Label.UNAUTHORIZED, (1, 0)), TreeParams())
# authentic iff rssi > -70 (feature 3)
RSSI_GATE = DecisionTree(
    SplitNode(3, -70.0, LeafNode(Label.UNAUTHORIZED, (5, 0)), LeafNode(Label.AUTHENTIC, (0, 5))),
    TreeParams(),
)


def obs(ssid="NetA", rssi=-60, bssid=None, freq=2437000000):
    return BeaconObservation(ssid=ssid, frequency=freq, rssi=rssi, bssid=bssid)


def snap(device_id, role, observations, ts=1_000_000):
    return ScanSnapshot(device_id, role, ts, tuple(observations))


def service(model=ALWAYS_AUTHENTIC, policy=PolicyConfig(), store=None, clock=None):
    return AuthService(store or UserStore(), model, ENCODER, policy, clock=clock or (lambda: 777))


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
        assert session.mobile_scan is not None
        assert session.mobile_scan.role is DeviceRole.MOBILE
        assert session.login_scan is None


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

    def test_ssid_only_policy_ignores_bssid(self):
        policy = PolicyConfig(match_key=MatchKey.SSID_ONLY)
        mobile = snap("m", DeviceRole.MOBILE, [obs("NetA", -60, "aa:aa:aa:aa:aa:01")])
        login = snap("l", DeviceRole.LOGIN, [obs("NetA", -65, "aa:aa:aa:aa:aa:02")])
        assert len(overlap_observations(mobile, login, policy)) == 2

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
        ssid_only = PolicyConfig(match_key=MatchKey.SSID_ONLY)
        assert len(overlap_observations(mobile, login, ssid_only)) == 3

    @pytest.mark.parametrize("match_key", list(MatchKey))
    def test_matches_set_oracle_on_random_scans(self, match_key):
        keys = ("bssid", "ssid") if match_key is MatchKey.BSSID_THEN_SSID else ("ssid",)
        policy = PolicyConfig(match_key=match_key)
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
            for key in keys:
                shared = set.intersection(*({getattr(o, key) for o in side} - {None}
                                            for side in left.values()))
                for role, side in left.items():
                    kept.update((role, o) for o in side if getattr(o, key) in shared)
                    left[role] = [o for o in side if getattr(o, key) not in shared]
            return kept

        for _ in range(500):
            mobile, login = random_snap(DeviceRole.MOBILE), random_snap(DeviceRole.LOGIN)
            pairs = overlap_observations(mobile, login, policy)
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


class TestStore:
    def test_persistence_round_trip(self, tmp_path):
        store = UserStore(tmp_path / "data")
        svc = AuthService(store, ALWAYS_AUTHENTIC, ENCODER)
        svc.enroll_user("carol", "carols-secret", "c-m", "c-l")

        reopened = UserStore(tmp_path / "data")
        record = reopened.get_user("carol")
        assert record is not None
        assert record.login_device_id == "c-l"
        assert reopened.username_for_device("c-m") == "carol"

    def test_pretty_printed_users_json_still_loads(self, tmp_path):
        store = UserStore(tmp_path / "data")
        AuthService(store, ALWAYS_AUTHENTIC, ENCODER).enroll_user("carol", "carols-secret", "c-m", "c-l")
        path = tmp_path / "data" / "users.json"
        doc = json.loads(path.read_text())
        path.write_text(json.dumps(doc, indent=2) + "\n")

        assert UserStore(tmp_path / "data").get_user("carol") == store.get_user("carol")

    def test_no_secret_material_on_disk(self, tmp_path):
        store = UserStore(tmp_path / "data")
        svc = AuthService(store, ALWAYS_AUTHENTIC, ENCODER)
        svc.enroll_user("carol", "carols-secret", "c-m", "c-l")
        session = svc.begin_session("carol", "carols-secret")
        svc.submit_scan(session.session_id, "c-m", snap("c-m", DeviceRole.MOBILE, [obs()]))
        svc.submit_scan(session.session_id, "c-l", snap("c-l", DeviceRole.LOGIN, [obs()]))

        on_disk = (tmp_path / "data" / "users.json").read_text()
        audit = (tmp_path / "data" / "audit.log").read_text()
        assert "carols-secret" not in on_disk
        assert "carols-secret" not in audit
        assert verify_secret("carols-secret", store.get_user("carol").credential_hash)

    def test_audit_records_decisions(self, tmp_path):
        store = UserStore(tmp_path / "data")
        svc = AuthService(store, ALWAYS_AUTHENTIC, ENCODER)
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

    def test_racing_deciders_agree_and_audit_once(self, monkeypatch, tmp_path):
        svc = enrolled_service(model=RSSI_GATE, store=UserStore(tmp_path))
        session = svc.begin_session("alice", "sesame-street")
        svc.submit_scan(session.session_id, "alice-m", snap("alice-m", DeviceRole.MOBILE, [obs()]))
        meet_first(monkeypatch, "overlap_observations")

        def decide_once_paired():
            for _ in range(5000):
                if session.login_scan is not None:
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
        assert all(s.mobile_scan is None and s.login_scan is None for s in sessions)


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
        assert session.mobile_scan is None and session.login_scan is None
        with AuthWireServer(svc, "127.0.0.1", 0) as server, AuthClient(*server.address) as client:
            status = client.status(session.session_id)
        assert status["ok"] and status["state"] == "Decided"
        assert (status["outcome"], status["reason"]) == (outcome, reason)
        assert status["authentic_fraction"] == session.decision.authentic_fraction
