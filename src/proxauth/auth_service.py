"""The authentication server: enrollment, paired-scan sessions, decisions.

A user enrolls a username, a first-factor secret, and the ids of their two
devices. An authentication attempt begins with the first factor; the session
then waits for a beacon scan from each device, and as soon as both are in,
the co-location classifier runs over the observations of every access point
both devices saw. The attempt is granted only when the authentic fraction of
those per-observation predictions clears the vote threshold; every other
path denies.

State and durability: an enrollment appends one JSON line to a user log,
which opening the store folds into a JSON snapshot of every record, so it
costs the same however many users exist; decisions are appended to a
JSON-lines audit log. Secrets are stored only as salted PBKDF2 hashes and
never appear in scan records, the audit log, or decisions. Sessions are
in-memory and short-lived; a decided session keeps only its id, user,
creation time and decision, not its scans.

Concurrency: one service-wide lock is held only while shared state changes
(a user added, a session created, a scan slot filled, a decision set) and
around the audit and store writes that go with it. PBKDF2 hashing and
verification and the classification of a session's scans run outside it,
on immutable inputs: user records, the model, the encoder and the policy.
When two threads decide one session, the first decision written wins.
"""

from __future__ import annotations

import hashlib
import hmac
import json
import os
import secrets as _secrets
import threading
import time
import uuid
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path
from typing import Callable

# encode_observation and predict are unused here but stay: perfbench/spans.py wraps them by name
from .beacon_model import (
    BeaconObservation,
    DeviceRole,
    FeatureEncoder,
    ScanSnapshot,
    encode_observation,
    encode_observations,
)
from .colocation_ml import DecisionTree, RandomForest, predict, predict_batch
from .errors import (
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

__all__ = [
    "MatchKey",
    "PolicyConfig",
    "UserRecord",
    "SessionState",
    "DecisionOutcome",
    "DecisionReason",
    "AuthDecision",
    "AuthSession",
    "UserStore",
    "AuthService",
    "hash_secret",
    "verify_secret",
    "overlap_observations",
]

_PBKDF2_ITERATIONS = 20_000
_MIN_SECRET_LENGTH = 8


class MatchKey(Enum):
    BSSID_THEN_SSID = "BssidThenSsid"
    SSID_ONLY = "SsidOnly"


@dataclass(frozen=True)
class PolicyConfig:
    """Decision policy: scan pairing window, vote threshold, and AP matching."""

    pairing_window_ms: int = 10_000
    vote_threshold_tau: float = 0.6
    min_overlap_aps: int = 1
    match_key: MatchKey = MatchKey.BSSID_THEN_SSID

    def __post_init__(self):
        if not 0.0 < self.vote_threshold_tau <= 1.0:
            raise ValueError("vote_threshold_tau must be in (0, 1]")
        if self.min_overlap_aps < 1:
            raise ValueError("min_overlap_aps must be >= 1")
        if self.pairing_window_ms < 0:
            raise ValueError("pairing_window_ms must be >= 0")


@dataclass(frozen=True)
class UserRecord:
    username: str
    credential_hash: str
    mobile_device_id: str
    login_device_id: str
    enrolled_at: int  # ms since epoch

    def __post_init__(self):
        if self.mobile_device_id == self.login_device_id:
            raise ValueError("device ids must be distinct")


class SessionState(Enum):
    AWAITING_SCANS = "AwaitingScans"
    DECIDED = "Decided"


class DecisionOutcome(Enum):
    GRANT = "Grant"
    DENY = "Deny"


class DecisionReason(Enum):
    CLASSIFIER_AUTHENTIC = "ClassifierAuthentic"
    CLASSIFIER_UNAUTHORIZED = "ClassifierUnauthorized"
    NO_OVERLAP = "NoOverlap"
    STALE_SCANS = "StaleScans"
    MISSING_SCAN = "MissingScan"
    FIRST_FACTOR_FAILED = "FirstFactorFailed"


@dataclass(frozen=True)
class AuthDecision:
    outcome: DecisionOutcome
    reason: DecisionReason
    authentic_fraction: float | None
    decided_at: int

    def __post_init__(self):
        if self.outcome is DecisionOutcome.GRANT:
            if self.reason is not DecisionReason.CLASSIFIER_AUTHENTIC:
                raise ValueError("a grant must come from the classifier")
            if self.authentic_fraction is None:
                raise ValueError("a grant must carry its authentic fraction")


@dataclass
class AuthSession:
    session_id: str
    username: str
    created_at: int
    mobile_scan: ScanSnapshot | None = None
    login_scan: ScanSnapshot | None = None
    decision: AuthDecision | None = None

    @property
    def state(self) -> SessionState:
        return SessionState.AWAITING_SCANS if self.decision is None else SessionState.DECIDED


def hash_secret(secret: str, salt: bytes | None = None) -> str:
    """Salted PBKDF2-SHA256 of a first-factor secret, self-describing."""
    if salt is None:
        salt = _secrets.token_bytes(16)
    digest = hashlib.pbkdf2_hmac("sha256", secret.encode("utf-8"), salt, _PBKDF2_ITERATIONS)
    return f"pbkdf2-sha256${_PBKDF2_ITERATIONS}${salt.hex()}${digest.hex()}"


def verify_secret(secret: str, stored: str) -> bool:
    try:
        _, iterations, salt_hex, digest_hex = stored.split("$")
        digest = hashlib.pbkdf2_hmac(
            "sha256", secret.encode("utf-8"), bytes.fromhex(salt_hex), int(iterations)
        )
        return hmac.compare_digest(digest.hex(), digest_hex)
    except (ValueError, TypeError):
        return False


class UserStore:
    """Durable user records plus an append-only audit log.

    With a root directory, ``add_user`` appends one JSON line to
    ``users.log``. Opening the store loads the v1 snapshot ``users.json``,
    replays the log in order (a torn last line is dropped; a record loaded
    twice is indexed once), rewrites the snapshot atomically and empties the
    log. Audit entries append to ``audit.log``. Without a root, everything
    stays in memory (useful in tests). Reads take no lock: records are
    immutable and never removed, so AuthService looks users up and verifies
    secrets outside its lock. Writes are serialized by the caller
    (AuthService holds its lock across each ``add_user`` and ``audit``).
    """

    def __init__(self, root: str | Path | None = None):
        self.root = Path(root) if root is not None else None
        self._users: dict[str, UserRecord] = {}
        self._devices: dict[str, str] = {}  # device_id -> username
        if self.root is not None:
            self._users_path = self.root / "users.json"
            self._log_path = self.root / "users.log"
            self._audit_path = self.root / "audit.log"
            self.root.mkdir(parents=True, exist_ok=True)
            self._compact()

    def _compact(self) -> None:
        docs = []
        if self._users_path.exists():
            docs += json.loads(self._users_path.read_text(encoding="utf-8")).get("users", [])
        log = self._log_path.read_bytes() if self._log_path.exists() else b""
        # bytes after the last newline are a torn append; a bad whole line raises ValueError
        docs += [json.loads(line) for line in log[: log.rfind(b"\n") + 1].splitlines()]
        for u in docs:
            self._index(UserRecord(**{**u, "enrolled_at": int(u["enrolled_at"])}))
        # a record's __dict__ holds its fields in declaration order; asdict would copy each one
        doc = {"version": 1, "users": [vars(r) for r in self._users.values()]}
        tmp = self._users_path.with_suffix(".json.tmp")
        # compact separators keep json on its C encoder; indent would not
        tmp.write_text(json.dumps(doc, separators=(",", ":")) + "\n", encoding="utf-8")
        os.replace(tmp, self._users_path)
        self._log_path.write_bytes(b"")  # after the snapshot: a crash between replays a logged record

    def _index(self, record: UserRecord) -> None:
        self._users[record.username] = record
        self._devices[record.mobile_device_id] = record.username
        self._devices[record.login_device_id] = record.username

    def add_user(self, record: UserRecord) -> None:
        if self.root is not None:
            _append_json_line(self._log_path, vars(record))
        self._index(record)

    def get_user(self, username: str) -> UserRecord | None:
        return self._users.get(username)

    def username_for_device(self, device_id: str) -> str | None:
        return self._devices.get(device_id)

    def audit(self, entry: dict) -> None:
        if self.root is not None:
            _append_json_line(self._audit_path, entry)


def _append_json_line(path: Path, doc: dict) -> None:
    with path.open("a", encoding="utf-8") as f:
        f.write(json.dumps(doc, separators=(",", ":")) + "\n")


def overlap_observations(
    mobile: ScanSnapshot,
    login: ScanSnapshot,
    policy: PolicyConfig = PolicyConfig(),
) -> list[tuple[DeviceRole, BeaconObservation]]:
    """Observations of every AP seen by both devices.

    APs match by BSSID when both sides carry one; anything left unmatched
    falls back to SSID equality (or SSID only, per the policy's match key).
    Each pass keeps every mobile observation whose key some still-unmatched
    login observation shares, and the first time a key matches, every login
    observation with that key. The result lists the passes in turn, each in
    the mobile snapshot's AP order; it is empty when the devices share no AP.
    """
    keys = ("bssid", "ssid") if policy.match_key is MatchKey.BSSID_THEN_SSID else ("ssid",)
    mobile_left, login_left = mobile.observations, login.observations
    mobile_role, login_role = DeviceRole.MOBILE, DeviceRole.LOGIN  # looked up once, not per AP
    pairs: list[tuple[DeviceRole, BeaconObservation]] = []
    for key in keys:
        login_by_key: dict[str | None, list[BeaconObservation]] = {}
        for obs in login_left:
            login_by_key.setdefault(getattr(obs, key), []).append(obs)
        login_by_key.pop(None, None)  # an observation without the key matches nothing
        matched: set[str] = set()
        still_mobile = []
        for obs in mobile_left:
            value = getattr(obs, key)
            hits = login_by_key.get(value)
            if hits is None:
                still_mobile.append(obs)
            else:
                pairs.append((mobile_role, obs))
                if value not in matched:
                    matched.add(value)
                    pairs += [(login_role, hit) for hit in hits]
        mobile_left = still_mobile
        if matched:
            login_left = [o for o in login_left if getattr(o, key) not in matched]
    return pairs


class AuthService:
    """Session state machine around an immutable trained model.

    Every decision path that is not an affirmative classifier grant denies;
    a session's decision never changes once set.
    """

    def __init__(
        self,
        store: UserStore,
        model: DecisionTree | RandomForest,
        encoder: FeatureEncoder,
        policy: PolicyConfig = PolicyConfig(),
        clock: Callable[[], int] | None = None,
    ):
        self.store = store
        self.model = model
        self.encoder = encoder
        self.policy = policy
        self._clock = clock or (lambda: time.time_ns() // 1_000_000)
        self._lock = threading.Lock()
        self._sessions: dict[str, AuthSession] = {}

    # -- enrollment ---------------------------------------------------------

    def enroll_user(
        self, username: str, secret: str, mobile_device_id: str, login_device_id: str
    ) -> UserRecord:
        if len(secret) < _MIN_SECRET_LENGTH:
            raise WeakSecret(f"secret must be at least {_MIN_SECRET_LENGTH} characters")
        credential_hash = hash_secret(secret)
        with self._lock:
            if self.store.get_user(username) is not None:
                raise DuplicateUser(f"user {username!r} already enrolled")
            if mobile_device_id == login_device_id:
                raise DuplicateDeviceId("mobile and login device ids must differ")
            for device_id in (mobile_device_id, login_device_id):
                if self.store.username_for_device(device_id) is not None:
                    raise DuplicateDeviceId(f"device {device_id!r} is already enrolled")
            record = UserRecord(
                username=username,
                credential_hash=credential_hash,
                mobile_device_id=mobile_device_id,
                login_device_id=login_device_id,
                enrolled_at=self._clock(),
            )
            self.store.add_user(record)
            self.store.audit({"ts": record.enrolled_at, "event": "enroll", "username": username})
            return record

    # -- session lifecycle ---------------------------------------------------

    def begin_session(self, username: str, secret: str) -> AuthSession:
        record = self.store.get_user(username)
        if record is None:
            raise UnknownUser(f"no such user {username!r}")
        secret_ok = verify_secret(secret, record.credential_hash)
        with self._lock:
            now = self._clock()
            session = AuthSession(session_id=uuid.uuid4().hex, username=username, created_at=now)
            self._sessions[session.session_id] = session
            self.store.audit(
                {"ts": now, "event": "begin", "session_id": session.session_id, "username": username}
            )
            if not secret_ok:
                self._finalize(
                    session,
                    AuthDecision(
                        outcome=DecisionOutcome.DENY,
                        reason=DecisionReason.FIRST_FACTOR_FAILED,
                        authentic_fraction=None,
                        decided_at=now,
                    ),
                )
            return session

    def get_session(self, session_id: str) -> AuthSession:
        # sessions are only ever added, and one dict lookup is atomic
        session = self._sessions.get(session_id)
        if session is None:
            raise UnknownSession(f"no such session {session_id!r}")
        return session

    def submit_scan(
        self, session_id: str, device_id: str, snapshot: ScanSnapshot
    ) -> AuthSession:
        """Store one device's scan; the submission that completes the pair
        decides the session."""
        with self._lock:
            session = self.get_session(session_id)
            if session.state is SessionState.DECIDED:
                raise SessionDecided(f"session {session_id!r} already decided")
            record = self.store.get_user(session.username)
            assert record is not None
            if device_id == record.mobile_device_id:
                role = DeviceRole.MOBILE
            elif device_id == record.login_device_id:
                role = DeviceRole.LOGIN
            else:
                raise ForeignDevice(f"device {device_id!r} is not enrolled to {session.username!r}")

            # the enrollment binding is authoritative for role and identity
            snapshot = replace(snapshot, device_id=device_id, role=role)
            slot = f"{role.value}_scan"
            if getattr(session, slot) is not None:
                raise DuplicateRoleSubmission(f"{role.value} scan already submitted")
            setattr(session, slot, snapshot)
            completed = session.mobile_scan is not None and session.login_scan is not None

        if completed:
            self.decide_session(session_id)
        return session

    def decide_session(self, session_id: str) -> AuthDecision:
        """Run the decision procedure; idempotent once a decision exists.

        Classification runs outside the lock; when two calls race, the
        first decision written is kept and both return it. Raises
        :class:`MissingScan` when invoked before both scans arrived (the
        session stays open).
        """
        with self._lock:
            session = self.get_session(session_id)
            if session.decision is not None:
                return session.decision
            if session.mobile_scan is None or session.login_scan is None:
                raise MissingScan("both device scans are required before deciding")
            # read under the lock: a racing _finalize clears them
            mobile, login = session.mobile_scan, session.login_scan

        decision = self._evaluate(mobile, login)
        with self._lock:
            if session.decision is None:
                self._finalize(session, decision)
            return session.decision

    def _evaluate(self, mobile: ScanSnapshot, login: ScanSnapshot) -> AuthDecision:
        now = self._clock()
        if abs(mobile.timestamp - login.timestamp) > self.policy.pairing_window_ms:
            return AuthDecision(DecisionOutcome.DENY, DecisionReason.STALE_SCANS, None, now)
        pairs = overlap_observations(mobile, login, self.policy)
        if len(pairs) < 2 * self.policy.min_overlap_aps:
            return AuthDecision(DecisionOutcome.DENY, DecisionReason.NO_OVERLAP, None, now)

        authentic = int(predict_batch(self.model, encode_observations(self.encoder, pairs)).sum())
        fraction = authentic / len(pairs)
        if fraction >= self.policy.vote_threshold_tau:
            return AuthDecision(
                DecisionOutcome.GRANT, DecisionReason.CLASSIFIER_AUTHENTIC, fraction, now
            )
        return AuthDecision(
            DecisionOutcome.DENY, DecisionReason.CLASSIFIER_UNAUTHORIZED, fraction, now
        )

    def _finalize(self, session: AuthSession, decision: AuthDecision) -> None:
        session.decision = decision
        session.mobile_scan = session.login_scan = None  # a decided session needs no scans
        self.store.audit(
            {
                "ts": decision.decided_at,
                "event": "decision",
                "session_id": session.session_id,
                "username": session.username,
                "outcome": decision.outcome.value,
                "reason": decision.reason.value,
                "authentic_fraction": decision.authentic_fraction,
            }
        )
