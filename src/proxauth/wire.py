"""JSON-over-TCP wire protocol for the authentication service.

Each request and each response is one compact JSON line (``jsondoc.dump``
writes it, ``parse`` reads it); a request line that is not UTF-8 JSON gets a
``BadRequest``, and one over ``MAX_LINE_BYTES`` gets one and then the
connection closes. Requests carry an ``op`` of ``enroll``, ``begin``,
``submit_scan``, or ``status``; responses always carry ``ok`` plus either
result fields or an ``error`` code taken from the service's exception names.
Each op is one row of ``_OPS``: its request type (written with ``encode``,
read with ``decode``, so a missing, unknown or wrongly typed field is a
``BadRequest``), its ``AuthService`` method and its response shape. Snapshot
documents mirror :class:`proxauth.beacon_model.ScanSnapshot` field names,
with RSSI in integer dBm and timestamps in integer milliseconds.
"""

from __future__ import annotations

import socket
import socketserver
import threading
from contextlib import suppress
from dataclasses import dataclass

from .auth_service import AuthService, AuthSession, SessionState, UserRecord
from .beacon_model import ScanSnapshot
from .errors import ProxauthError
from .jsondoc import decode, dump, encode, parse

__all__ = [
    "MAX_LINE_BYTES",
    "IDLE_TIMEOUT_S",
    "POLL_S",
    "snapshot_to_doc",
    "snapshot_from_doc",
    "AuthWireServer",
    "AuthClient",
]


MAX_LINE_BYTES = 1 << 20  # a request line's bytes before its newline; a 1,000-AP scan is ~90 KB
IDLE_TIMEOUT_S = 60.0  # a connection idle this long is closed; above the default 10 s pairing window
POLL_S = 0.05  # how often the loop checks for shutdown() and serve_forever() for a SIGINT


def snapshot_to_doc(snapshot: ScanSnapshot) -> dict:
    return encode(snapshot)


def snapshot_from_doc(doc: dict) -> ScanSnapshot:
    return decode(ScanSnapshot, doc)


def _enrolled_doc(record: UserRecord) -> dict:
    return {"username": record.username, "enrolled_at": record.enrolled_at}


def _session_doc(session: AuthSession) -> dict:
    decision = session.decision  # read once: the other device's submission may decide the session meanwhile
    if decision is None:
        return {"session_id": session.session_id, "state": SessionState.AWAITING_SCANS.value}
    return {"session_id": session.session_id, "state": SessionState.DECIDED.value, **decision.as_dict()}


# One request type per op, named after the service method's parameters.


@dataclass(frozen=True)
class EnrollRequest:
    username: str
    secret: str
    mobile_device_id: str
    login_device_id: str


@dataclass(frozen=True)
class BeginRequest:
    username: str
    secret: str


@dataclass(frozen=True)
class SubmitScanRequest:
    session_id: str
    device_id: str
    snapshot: ScanSnapshot


@dataclass(frozen=True)
class StatusRequest:
    session_id: str


# op -> (request type, AuthService method, response shape), the method looked up per call
_OPS = {
    "enroll": (EnrollRequest, "enroll_user", _enrolled_doc),
    "begin": (BeginRequest, "begin_session", _session_doc),
    "submit_scan": (SubmitScanRequest, "submit_scan", _session_doc),
    "status": (StatusRequest, "get_session", _session_doc),
}


def handle_request_line(service: AuthService, line: str | bytes) -> dict:
    """Parse and execute one request line, UTF-8 if bytes; never raises."""
    try:
        request = parse(line)
        if not isinstance(request, dict):
            raise ValueError("request must be a JSON object")
    except ValueError as exc:
        return {"ok": False, "error": "BadRequest", "message": f"malformed JSON: {exc}"}
    op = request.pop("op", None)
    if type(op) is not str or op not in _OPS:
        return {"ok": False, "error": "UnknownOp", "message": f"unknown op {op!r}"}
    request_type, method, shape = _OPS[op]
    try:
        return {"ok": True, **shape(getattr(service, method)(**vars(decode(request_type, request))))}
    except ProxauthError as exc:
        return {"ok": False, "error": exc.code, "message": str(exc)}
    except (KeyError, TypeError, ValueError) as exc:
        return {"ok": False, "error": "BadRequest", "message": str(exc)}
    except Exception as exc:  # pragma: no cover - defensive catch-all
        return {"ok": False, "error": "Internal", "message": type(exc).__name__}


class _Handler(socketserver.StreamRequestHandler):
    server: AuthWireServer

    @property
    def timeout(self) -> float:  # read by StreamRequestHandler.setup for the connection
        return IDLE_TIMEOUT_S

    def handle(self):
        with suppress(TimeoutError):  # an idle client: finish() closes the connection
            while raw := self.rfile.readline(MAX_LINE_BYTES + 1):
                if len(raw.removesuffix(b"\n")) > MAX_LINE_BYTES:
                    self.wfile.write(dump({"ok": False, "error": "BadRequest",
                                           "message": f"request line longer than {MAX_LINE_BYTES} bytes"}))
                    return
                if line := raw.strip():
                    self.wfile.write(dump(handle_request_line(self.server.service, line)))


class AuthWireServer(socketserver.ThreadingTCPServer):
    """Threaded TCP server speaking the JSON-lines protocol for ``service``.

    ``port=0`` binds an ephemeral port; read the actual one from ``address``.
    Use ``start()``/``shutdown()`` for a background server or
    ``serve_forever()`` to block. Either way the accept loop runs on the one
    thread that ``start()`` makes, and ``shutdown()`` stops it within ``POLL_S``.
    """

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, service: AuthService, host: str = "127.0.0.1", port: int = 0):
        super().__init__((host, port), _Handler)
        self.service = service
        self._thread: threading.Thread | None = None
        self._state_lock = threading.Lock()
        self._closed = False

    @property
    def address(self) -> tuple[str, int]:
        return self.server_address[:2]

    def start(self) -> AuthWireServer:
        with self._state_lock:  # a racing shutdown() either stops this loop or keeps it from starting
            if not self._closed and self._thread is None:
                thread = threading.Thread(target=super().serve_forever, args=(POLL_S,), daemon=True)
                thread.start()
                self._thread = thread  # only once started, so shutdown() never waits for a loop that cannot run
        return self

    def serve_forever(self) -> None:
        """``start()``, then wait for the loop thread until ``shutdown()``; return at once if it came first.
        The wait wakes every ``POLL_S``, so a SIGINT raises here, never inside the loop's set-up."""
        self.start()
        while self._thread is not None and self._thread.is_alive():
            self._thread.join(POLL_S)

    def shutdown(self) -> None:
        with self._state_lock:
            self._closed, thread = True, self._thread
        if thread is not None:
            super().shutdown()
            thread.join()
        self.server_close()

    def __enter__(self) -> AuthWireServer:
        return self.start()

    def __exit__(self, *exc) -> None:
        self.shutdown()


class AuthClient:
    """Blocking client for the JSON-lines protocol; one request at a time."""

    def __init__(self, host: str, port: int, timeout: float = 10.0):
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._reader = self._sock.makefile("rb")

    def call(self, request: dict) -> dict:
        self._sock.sendall(dump(request))
        line = self._reader.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return parse(line)

    def _send(self, op: str, request) -> dict:
        return self.call({"op": op, **encode(request)})

    def enroll(
        self, username: str, secret: str, mobile_device_id: str, login_device_id: str
    ) -> dict:
        return self._send("enroll", EnrollRequest(username, secret, mobile_device_id, login_device_id))

    def begin(self, username: str, secret: str) -> dict:
        return self._send("begin", BeginRequest(username, secret))

    def submit_scan(self, session_id: str, device_id: str, snapshot: ScanSnapshot) -> dict:
        return self._send("submit_scan", SubmitScanRequest(session_id, device_id, snapshot))

    def status(self, session_id: str) -> dict:
        return self._send("status", StatusRequest(session_id))

    def close(self) -> None:
        with self._sock:  # closed even if closing the reader fails
            self._reader.close()

    def __enter__(self) -> "AuthClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
