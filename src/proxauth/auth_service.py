"""The authentication server: enrollment, paired-scan sessions, decisions.

A user enrolls a username, a first-factor secret, and the ids of their two
devices. An authentication attempt begins with the first factor; the session
then waits for a beacon scan from each device, and as soon as both are in,
:func:`decide` runs the co-location classifier over the observations of
every access point both devices saw. A decision's outcome follows from its
reason: only CLASSIFIER_AUTHENTIC, an authentic fraction of those
per-observation predictions at or above the vote threshold, grants; every
other reason denies.

State and durability: a user store is its data directory. An enrollment
appends one JSON line to the user log there, which opening the store folds
into a JSON snapshot of every record, so it costs the same however many
users exist; decisions are appended to a JSON-lines audit log beside it.
Secrets are stored only as salted PBKDF2 hashes and never appear in scan
records, the audit log, or decisions. Sessions are in memory and live for
the policy's pairing window after ``begin``, by the server clock; a decided
session keeps only its id, user, creation time and decision, not its scans.
A scan or a status request that comes after the window denies a session
still open MissingScan, and each ``begin`` first forgets the sessions whose
window has passed, denying MissingScan any still open, so the server holds
about the request rate times the window of them however long it runs.

Concurrency: one service-wide lock is held only while shared state changes
(a user added, a session created, a scan slot filled, a decision set) and
around the audit and store writes that go with it. PBKDF2 hashing and
verification and the classification of a session's scans run outside it,
on immutable inputs: user records, the classifier and the policy. An
enrollment whose username or device id is taken is refused before it hashes.
When two threads decide one session, the first decision written wins.
"""

from __future__ import annotations

import hashlib
import hmac
import os
import secrets as _secrets
import threading
import time
import uuid
from contextlib import suppress
from dataclasses import dataclass, replace
from enum import Enum
from itertools import takewhile
from pathlib import Path
from typing import Callable

# perfbench/spans.py patches encode_observation and predict by name; the service calls neither.
# They go when the benchmark's serving spans wrap what it does call (ROADMAP item 18).
from .beacon_model import BeaconObservation, DeviceRole, ScanSnapshot, encode_observations as encode_observation
from .colocation_ml import Classifier, predict_batch as predict
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
from .jsondoc import decode, dump, encode, naming, parse

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
    "decide",
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
    """Decision policy: scan pairing window, vote threshold, and AP matching.
    The pairing window also bounds a session's life after ``begin``."""

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


@dataclass(frozen=True)
class StoreSnapshot:
    """The ``users.json`` envelope."""

    version: int
    users: tuple[UserRecord, ...]

    def __post_init__(self):
        if self.version != 1:
            raise ValueError(f"unsupported users.json version {self.version}")


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


@dataclass(frozen=True, slots=True)
class AuthDecision:
    """A session's decision; the outcome is derived, never stored, so only
    a CLASSIFIER_AUTHENTIC reason can grant."""

    reason: DecisionReason
    authentic_fraction: float | None
    decided_at: int

    def __post_init__(self):
        if self.reason is DecisionReason.CLASSIFIER_AUTHENTIC and self.authentic_fraction is None:
            raise ValueError("a grant must carry its authentic fraction")

    @property
    def outcome(self) -> DecisionOutcome:
        granted = self.reason is DecisionReason.CLASSIFIER_AUTHENTIC
        return DecisionOutcome.GRANT if granted else DecisionOutcome.DENY

    def as_dict(self) -> dict:
        """The outcome, reason and fraction as the audit log and the wire show them."""
        return {"outcome": self.outcome.value, "reason": self.reason.value,
                "authentic_fraction": self.authentic_fraction}


@dataclass(slots=True)
class AuthSession:
    """One attempt. ``user`` is the record ``begin`` verified; records are
    immutable and never removed, so a scan's device is checked against it."""

    session_id: str
    user: UserRecord
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
    """Durable user records plus an append-only audit log, kept in ``root``.

    ``add_user`` appends one JSON line to ``users.log``. Opening the store
    loads the v1 snapshot ``users.json``, replays the log in order (a torn
    last line is dropped; a record loaded twice is indexed once), rewrites
    the snapshot atomically and empties the log, only once the new
    snapshot and its rename are fsynced; an appended line is not fsynced,
    so a power loss may drop the last enrollments. A snapshot envelope or
    record that does not hold exactly its type's fields, each of its
    annotated type, is a ValueError. A record sharing a username or device
    id with another is refused with an error naming where it was read.
    Audit entries append to ``audit.log``. Reads take no lock: records are
    immutable and never removed, so AuthService looks users up, verifies
    secrets and checks a claim outside its lock. Writes are serialized by
    the caller (AuthService holds its lock across each ``add_user`` and ``audit``).
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self._users: dict[str, UserRecord] = {}
        self._devices: set[str] = set()  # every claimed device id
        self._users_path = self.root / "users.json"
        self._log_path = self.root / "users.log"
        self._audit_path = self.root / "audit.log"
        self.root.mkdir(parents=True, exist_ok=True)
        self._compact()

    def _compact(self) -> None:
        if self._users_path.exists():
            with naming(self._users_path):
                for record in decode(StoreSnapshot, parse(self._users_path.read_bytes()), exact=True).users:
                    self._index(record)
        log = self._log_path.read_bytes() if self._log_path.exists() else b""
        # bytes after the last newline are a torn append; a bad whole line raises ValueError
        for number, line in enumerate(log[: log.rfind(b"\n") + 1].splitlines(), 1):
            with naming(f"{self._log_path}:{number}"):
                self._index(decode(UserRecord, parse(line), exact=True))
        tmp = self._users_path.with_suffix(".json.tmp")
        with tmp.open("wb") as f:
            f.write(dump(encode(StoreSnapshot(version=1, users=tuple(self._users.values())))))
            f.flush()
            os.fsync(f.fileno())  # the snapshot's bytes are on disk before its name is
        os.replace(tmp, self._users_path)
        directory = os.open(self.root, os.O_RDONLY)
        try:
            os.fsync(directory)  # the rename is on disk before the log is emptied
        finally:
            os.close(directory)
        self._log_path.write_bytes(b"")  # after the snapshot: a crash between replays a logged record

    def check_unclaimed(self, username: str, *device_ids: str) -> None:
        """The one claim rule: a username or a device id names one record."""
        if username in self._users:
            raise DuplicateUser(f"user {username!r} already enrolled")
        for device_id in device_ids:
            if device_id in self._devices:
                raise DuplicateDeviceId(f"device {device_id!r} is already enrolled")

    def _index(self, record: UserRecord, append: bool = False) -> None:
        """Hold a record that passes the claim rule; ``append`` logs it first."""
        if self._users.get(record.username) == record:
            return  # a replayed log line
        devices = (record.mobile_device_id, record.login_device_id)
        self.check_unclaimed(record.username, *devices)
        if append:
            _append_json_line(self._log_path, encode(record))
        self._users[record.username] = record
        self._devices.update(devices)

    def add_user(self, record: UserRecord) -> None:
        self._index(record, append=True)

    def get_user(self, username: str) -> UserRecord | None:
        return self._users.get(username)

    def audit(self, entry: dict) -> None:
        _append_json_line(self._audit_path, entry)


def _append_json_line(path: Path, doc: dict) -> None:
    with path.open("ab") as f:
        f.write(dump(doc))


def overlap_observations(
    mobile: ScanSnapshot,
    login: ScanSnapshot,
    policy: PolicyConfig = PolicyConfig(),
) -> list[tuple[DeviceRole, BeaconObservation]]:
    """Observations of every AP seen by both devices.

    APs match by BSSID first and then, among the observations left, by SSID
    (or by SSID alone, per the policy's match key). For each key, every
    observation on either side whose value both sides carry is kept: the
    mobile device's, then the login device's, each in its snapshot's order.
    An observation without the key matches nothing. The result is empty when
    the devices share no AP.
    """
    keys = ("bssid", "ssid") if policy.match_key is MatchKey.BSSID_THEN_SSID else ("ssid",)
    left = {DeviceRole.MOBILE: mobile.observations, DeviceRole.LOGIN: login.observations}
    pairs: list[tuple[DeviceRole, BeaconObservation]] = []
    for key in keys:
        shared = set.intersection(*({getattr(o, key) for o in side} for side in left.values())) - {None}
        for role, side in left.items():
            pairs += [(role, o) for o in side if getattr(o, key) in shared]
            left[role] = [o for o in side if getattr(o, key) not in shared]
    return pairs


def _shared_aps(pairs: list[tuple[DeviceRole, BeaconObservation]], policy: PolicyConfig) -> int:
    """The APs the overlap pairs show, each counted once: a mobile observation
    names the BSSID it shares with a login observation, or else its SSID."""
    by_bssid = policy.match_key is MatchKey.BSSID_THEN_SSID
    login_bssids = {o.bssid for role, o in pairs if by_bssid and role is DeviceRole.LOGIN} - {None}
    return len({("bssid", o.bssid) if o.bssid in login_bssids else ("ssid", o.ssid)
                for role, o in pairs if role is DeviceRole.MOBILE})


def decide(
    classifier: Classifier, policy: PolicyConfig, mobile: ScanSnapshot, login: ScanSnapshot, now: int
) -> AuthDecision:
    """The co-location rule, decided at ``now``: scans further apart than the
    pairing window are stale, fewer than ``min_overlap_aps`` shared APs is no
    overlap, and otherwise the classifier votes on every overlap observation
    in one batch and the authentic fraction grants when it reaches tau."""
    if abs(mobile.timestamp - login.timestamp) > policy.pairing_window_ms:
        return AuthDecision(DecisionReason.STALE_SCANS, None, now)
    pairs = overlap_observations(mobile, login, policy)
    if _shared_aps(pairs, policy) < policy.min_overlap_aps:
        return AuthDecision(DecisionReason.NO_OVERLAP, None, now)
    fraction = int(classifier.votes(pairs).sum()) / len(pairs)
    if fraction >= policy.vote_threshold_tau:
        return AuthDecision(DecisionReason.CLASSIFIER_AUTHENTIC, fraction, now)
    return AuthDecision(DecisionReason.CLASSIFIER_UNAUTHORIZED, fraction, now)


class AuthService:
    """Session state machine around an immutable trained classifier; every
    decision comes from :func:`decide` or the first-factor check, and a
    session's decision never changes once set. ``policy`` and ``clock``
    (ms since epoch; the wall clock by default) are keyword-only.
    """

    def __init__(
        self,
        store: UserStore,
        classifier: Classifier,
        *,
        policy: PolicyConfig = PolicyConfig(),
        clock: Callable[[], int] | None = None,
    ):
        self.store = store
        self.classifier = classifier
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
        if mobile_device_id == login_device_id:
            raise DuplicateDeviceId("mobile and login device ids must differ")
        # a refusal costs no hash; a racing enrollment is refused by add_user under the lock
        self.store.check_unclaimed(username, mobile_device_id, login_device_id)
        credential_hash = hash_secret(secret)
        with self._lock:
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
            self._evict(now)
            session = AuthSession(session_id=uuid.uuid4().hex, user=record, created_at=now)
            self._sessions[session.session_id] = session
            self.store.audit(
                {"ts": now, "event": "begin", "session_id": session.session_id, "username": username}
            )
            if not secret_ok:
                self._finalize(session, AuthDecision(DecisionReason.FIRST_FACTOR_FAILED, None, now))
            return session

    def _expired(self, session: AuthSession, now: int) -> bool:
        return now - session.created_at > self.policy.pairing_window_ms

    def _evict(self, now: int) -> None:
        """Forget the sessions past their window from the oldest, denying
        MissingScan any still open. The first one inside its window stops
        the sweep, so a clock that steps back evicts late, never early."""
        for session in list(takewhile(lambda s: self._expired(s, now), self._sessions.values())):
            if session.decision is None:
                self._finalize(session, AuthDecision(DecisionReason.MISSING_SCAN, None, now))
            del self._sessions[session.session_id]

    def get_session(self, session_id: str) -> AuthSession:
        """The session, first denied MissingScan if its window has passed
        while it was open."""
        with self._lock:
            session = self._session(session_id)
            if session.decision is None and self._expired(session, now := self._clock()):
                self._finalize(session, AuthDecision(DecisionReason.MISSING_SCAN, None, now))
            return session

    def _session(self, session_id: str) -> AuthSession:
        session = self._sessions.get(session_id)
        if session is None:
            raise UnknownSession(f"no such session {session_id!r}")
        return session

    def submit_scan(
        self, session_id: str, device_id: str, snapshot: ScanSnapshot
    ) -> AuthSession:
        """Store one device's scan in the role that the session's user record
        gives its id (any other id is ForeignDevice); the submission that
        completes the pair decides the session. A scan after the session's
        window denies it MissingScan instead."""
        with self._lock:
            session = self._session(session_id)
            if session.decision is not None:
                raise SessionDecided(f"session {session_id!r} already decided")
            if self._expired(session, now := self._clock()):
                self._finalize(session, AuthDecision(DecisionReason.MISSING_SCAN, None, now))
                return session
            user = session.user
            role = {user.mobile_device_id: DeviceRole.MOBILE, user.login_device_id: DeviceRole.LOGIN}.get(device_id)
            if role is None:
                raise ForeignDevice(f"device {device_id!r} is not enrolled to {user.username!r}")

            # the enrollment binding is authoritative for role and identity
            snapshot = replace(snapshot, device_id=device_id, role=role)
            slot = f"{role.value}_scan"
            if getattr(session, slot) is not None:
                raise DuplicateRoleSubmission(f"{role.value} scan already submitted")
            setattr(session, slot, snapshot)
            completed = session.mobile_scan is not None and session.login_scan is not None

        if completed:
            # a begin past the window may evict the session, and so decide it, before this looks it up
            with suppress(UnknownSession):
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
            session = self._session(session_id)
            if session.decision is not None:
                return session.decision
            if session.mobile_scan is None or session.login_scan is None:
                raise MissingScan("both device scans are required before deciding")
            # read under the lock: a racing _finalize clears them
            mobile, login = session.mobile_scan, session.login_scan

        decision = decide(self.classifier, self.policy, mobile, login, self._clock())
        with self._lock:
            if session.decision is None:
                self._finalize(session, decision)
            return session.decision

    def _finalize(self, session: AuthSession, decision: AuthDecision) -> None:
        session.decision = decision
        session.mobile_scan = session.login_scan = None  # a decided session needs no scans
        self.store.audit(
            {"ts": decision.decided_at, "event": "decision", "session_id": session.session_id,
             "username": session.user.username, **decision.as_dict()}
        )
