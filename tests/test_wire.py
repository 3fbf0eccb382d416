import _thread
import json
import socket
import socketserver
import sys
import threading

import pytest

from proxauth import wire
from proxauth.auth_service import AuthDecision, AuthService, AuthSession, DecisionReason, PolicyConfig, UserStore
from proxauth.beacon_model import (
    BeaconObservation,
    DeviceRole,
    FeatureEncoder,
    ScanSnapshot,
)
from proxauth.colocation_ml import Classifier, TreeParams
from proxauth.wire import (
    MAX_LINE_BYTES,
    AuthClient,
    AuthWireServer,
    handle_request_line,
    snapshot_from_doc,
    snapshot_to_doc,
)

from model_v1 import _tree_from_doc

ENCODER = FeatureEncoder({"NetA": 1}, (2412000000.0, 5240000000.0))
GRANT_ALL = _tree_from_doc({"type": "leaf", "label": "authentic", "class_counts": [0, 1]}, TreeParams())


def make_snapshot(device_id="d1", role=DeviceRole.MOBILE, ts=1000):
    return ScanSnapshot(
        device_id,
        role,
        ts,
        (BeaconObservation("NetA", 2437000000, -60, "aa:bb:cc:dd:ee:ff"),),
        location_tag="desk",
    )


def grant_all(root, **options):
    """A service that grants every paired session, with its store in ``root``."""
    return AuthService(UserStore(root), Classifier(GRANT_ALL, ENCODER), **options)


@pytest.fixture()
def server(tmp_path):
    with AuthWireServer(grant_all(tmp_path / "data", policy=PolicyConfig()), "127.0.0.1", 0) as srv:
        yield srv


def client_for(server):
    host, port = server.address
    return AuthClient(host, port)


class TestSnapshotCodec:
    def test_round_trip(self):
        snap = make_snapshot()
        doc = snapshot_to_doc(snap)
        assert doc["device_id"] == "d1"
        assert doc["observations"][0]["rssi"] == -60
        again = snapshot_from_doc(json.loads(json.dumps(doc)))
        assert again == snap

    def test_missing_bssid_tolerated(self):
        doc = snapshot_to_doc(make_snapshot())
        del doc["observations"][0]["bssid"]
        again = snapshot_from_doc(doc)
        assert again.observations[0].bssid is None


_DROP = object()


def _edited(path: str, value):
    """A submitted snapshot document with the value at a dotted path set,
    or removed when ``value`` is _DROP."""
    doc = snapshot_to_doc(make_snapshot())
    *parents, last = [int(k) if k.isdigit() else k for k in path.split(".")]
    target = doc
    for key in parents:
        target = target[key]
    if value is _DROP:
        del target[last]
    else:
        target[last] = value
    return doc


class TestTypedSnapshot:
    @pytest.mark.parametrize(
        "path, value, named",
        [
            ("observations.0.ssid", 5, "ssid"),
            ("timestamp", 1000.9, "timestamp"),
            ("timestamp", True, "timestamp"),
            ("timestamp", "1000", "timestamp"),
            ("observations.0.rssi", "-50", "rssi"),
            ("observations.0.rssi", -50.0, "rssi"),
            ("observations.0.frequency", 2437000000.0, "frequency"),
            ("observations.0.bssid", 7, "bssid"),
            ("device_id", None, "device_id"),
            ("location_tag", 3, "location_tag"),
            ("role", "admin", "role"),
            ("role", _DROP, "role"),
            ("observations", _DROP, "observations"),
            ("observations", {"ssid": "NetA"}, "observations"),
            ("extra", 1, "extra"),
            ("observations.0.channel", 6, "channel"),
            # past 2**53 float64 no longer holds every integer; at 10**400 encoding overflows
            pytest.param("observations.0.rssi", -int("9" * 400), "rssi", id="rssi-400-digits"),
            pytest.param("observations.0.rssi", -2**53 - 1, "rssi", id="rssi-below-2**53"),
            pytest.param("observations.0.frequency", int("9" * 400), "frequency", id="frequency-400-digits"),
            pytest.param("observations.0.frequency", 2**53 + 1, "frequency", id="frequency-above-2**53"),
            pytest.param("observations.0.frequency", 0, "frequency", id="frequency-0"),
        ],
    )
    def test_wrongly_typed_or_unknown_field_is_refused(self, tmp_path, path, value, named):
        doc = _edited(path, value)
        with pytest.raises(ValueError, match=named):
            snapshot_from_doc(doc)
        service = grant_all(tmp_path / "data")
        service.enroll_user("gil", "gils-secret", "g-m", "g-l")
        sid = service.begin_session("gil", "gils-secret").session_id
        request = {"op": "submit_scan", "session_id": sid, "device_id": "g-m", "snapshot": doc}
        response = handle_request_line(service, json.dumps(request))
        assert response["ok"] is False and response["error"] == "BadRequest"
        assert named in response["message"]
        assert service.get_session(sid).mobile_scan is None

    @pytest.mark.parametrize("rssi, rule", [("x", "must be int, got 'x'"), (3, "must be <= 0 dBm: 3")])
    def test_a_bad_observation_is_named_by_its_index(self, tmp_path, rssi, rule):
        doc = snapshot_to_doc(make_snapshot())
        doc["observations"] = [doc["observations"][0]] * 2 + [{**doc["observations"][0], "rssi": rssi}]
        with pytest.raises(ValueError) as caught:
            snapshot_from_doc(doc)
        assert str(caught.value) == f"observations.2: bad BeaconObservation value: rssi {rule}"
        service = grant_all(tmp_path / "data")
        service.enroll_user("gil", "gils-secret", "g-m", "g-l")
        sid = service.begin_session("gil", "gils-secret").session_id
        request = {"op": "submit_scan", "session_id": sid, "device_id": "g-m", "snapshot": doc}
        assert handle_request_line(service, json.dumps(request)) == {
            "ok": False, "error": "BadRequest",
            "message": f"snapshot.observations.2: bad BeaconObservation value: rssi {rule}",
        }

    def test_optional_fields_may_be_left_out(self):
        doc = _edited("location_tag", _DROP)
        del doc["observations"][0]["bssid"]
        assert snapshot_from_doc(doc) == ScanSnapshot(
            "d1", DeviceRole.MOBILE, 1000, (BeaconObservation("NetA", 2437000000, -60),)
        )


class TestWireProtocol:
    def test_full_round_trip(self, server):
        with client_for(server) as client:
            resp = client.enroll("alice", "sesame-street", "a-m", "a-l")
            assert resp["ok"] is True
            assert resp["username"] == "alice"

            begun = client.begin("alice", "sesame-street")
            assert begun["ok"] is True
            assert begun["state"] == "AwaitingScans"
            sid = begun["session_id"]

            first = client.submit_scan(sid, "a-m", make_snapshot("a-m", DeviceRole.MOBILE))
            assert first["ok"] is True
            assert first["state"] == "AwaitingScans"

            final = client.submit_scan(sid, "a-l", make_snapshot("a-l", DeviceRole.LOGIN))
            assert final["ok"] is True
            assert final["state"] == "Decided"
            assert final["outcome"] == "Grant"
            assert final["reason"] == "ClassifierAuthentic"
            assert final["authentic_fraction"] == 1.0

            status = client.status(sid)
            assert status["outcome"] == "Grant"

    @pytest.mark.parametrize("reads", [0, 1, 2, 3])
    def test_a_response_comes_from_one_read_of_the_decision(self, reads):
        """The other device's submission may decide a session while its
        response is built; the state and the outcome still agree."""
        decided = AuthDecision(DecisionReason.NO_OVERLAP, None, 5)

        class DecidedAfterReads:
            session_id = "s1"
            state = AuthSession.state  # derived from a read of decision, as a real session's is
            left = reads

            @property
            def decision(self):
                self.left -= 1
                return None if self.left >= 0 else decided

        class Service:
            def get_session(self, session_id):
                return DecidedAfterReads()

        doc = handle_request_line(Service(), '{"op":"status","session_id":"s1"}')
        awaiting = {"ok": True, "session_id": "s1", "state": "AwaitingScans"}
        assert doc == (awaiting if reads else {**awaiting, "state": "Decided", **decided.as_dict()})

    def test_first_factor_failure_on_wire(self, server):
        with client_for(server) as client:
            client.enroll("bob", "bobs-password", "b-m", "b-l")
            resp = client.begin("bob", "wrong")
            assert resp["ok"] is True
            assert resp["state"] == "Decided"
            assert resp["outcome"] == "Deny"
            assert resp["reason"] == "FirstFactorFailed"

    def test_error_codes_surface(self, server):
        with client_for(server) as client:
            client.enroll("carol", "carols-secret", "c-m", "c-l")
            dup = client.enroll("carol", "carols-secret", "x1", "x2")
            assert dup == {"ok": False, "error": "DuplicateUser", "message": dup["message"]}

            weak = client.enroll("dave", "short", "d-m", "d-l")
            assert weak["error"] == "WeakSecret"

            unknown = client.begin("nobody", "whatever1")
            assert unknown["error"] == "UnknownUser"

            missing = client.status("no-such-session")
            assert missing["error"] == "UnknownSession"

    def test_foreign_device_error(self, server):
        with client_for(server) as client:
            client.enroll("erin", "erins-secret", "e-m", "e-l")
            sid = client.begin("erin", "erins-secret")["session_id"]
            resp = client.submit_scan(sid, "z-z", make_snapshot("z-z"))
            assert resp["error"] == "ForeignDevice"

    def test_malformed_json_line(self, server):
        host, port = server.address
        with socket.create_connection((host, port)) as sock:
            sock.sendall(b"this is not json\n")
            line = sock.makefile("r").readline()
        resp = json.loads(line)
        assert resp["ok"] is False
        assert resp["error"] == "BadRequest"

    def test_unknown_op(self, server):
        with client_for(server) as client:
            resp = client.call({"op": "frobnicate"})
            assert resp["error"] == "UnknownOp"
            for op in ([], {}, None, 5, "ENROLL"):  # not a string key of the op table
                assert client.call({"op": op, "username": "u", "secret": "s"})["error"] == "UnknownOp"

    def test_missing_fields_are_bad_request(self, server):
        with client_for(server) as client:
            resp = client.call({"op": "begin"})
            assert resp["error"] == "BadRequest"

    def test_concurrent_sessions_for_distinct_users(self, server):
        host, port = server.address
        errors = []

        def one_user(name):
            try:
                with AuthClient(host, port) as client:
                    client.enroll(name, f"{name}-password", f"{name}-m", f"{name}-l")
                    sid = client.begin(name, f"{name}-password")["session_id"]
                    client.submit_scan(sid, f"{name}-m", make_snapshot(f"{name}-m", DeviceRole.MOBILE))
                    final = client.submit_scan(sid, f"{name}-l", make_snapshot(f"{name}-l", DeviceRole.LOGIN))
                    assert final["outcome"] == "Grant"
            except Exception as exc:  # surface failures to the main thread
                errors.append(exc)

        threads = [threading.Thread(target=one_user, args=(f"user{i}",)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert errors == []


ENROLL = {
    "op": "enroll", "username": "gil", "secret": "gils-secret",
    "mobile_device_id": "g-m", "login_device_id": "g-l",
}
SUBMIT = {
    "op": "submit_scan", "session_id": "s", "device_id": "g-m",
    "snapshot": snapshot_to_doc(make_snapshot("g-m")),
}


class TestIdentityFields:
    @pytest.mark.parametrize(
        "request_doc, key",
        [
            ({**ENROLL, "username": 123}, "username"),
            ({**ENROLL, "secret": list("12345678")}, "secret"),
            ({**ENROLL, "mobile_device_id": 5}, "mobile_device_id"),
            ({**ENROLL, "login_device_id": None}, "login_device_id"),
            ({"op": "begin", "username": "gil", "secret": list("12345678")}, "secret"),
            ({"op": "status", "session_id": 7}, "session_id"),
            ({**SUBMIT, "device_id": ["g-m"]}, "device_id"),
            ({**SUBMIT, "session_id": 1.5}, "session_id"),
            ({**ENROLL, "admin": True}, "admin"),
            ({"op": "status", "session_id": "s", "username": "gil"}, "username"),
        ],
    )
    def test_non_string_identity_field_is_bad_request(self, tmp_path, request_doc, key):
        service = grant_all(tmp_path / "data")
        service.enroll_user("gil", "gils-secret", "g-m0", "g-l0")
        response = handle_request_line(service, json.dumps(request_doc))
        assert response["ok"] is False
        assert response["error"] == "BadRequest"
        assert key in response["message"]
        assert len((tmp_path / "data" / "users.log").read_text().splitlines()) == 1

    def test_string_fields_still_enroll(self, tmp_path):
        service = grant_all(tmp_path / "data")
        response = handle_request_line(service, json.dumps(ENROLL))
        assert response["ok"] is True and response["username"] == "gil"


def _send_line(sock_file, line: bytes) -> dict:
    sock_file.write(line + b"\n")
    sock_file.flush()
    return json.loads(sock_file.readline())


def _closed(sock_file) -> bool:
    try:
        return sock_file.readline() == b""
    except ConnectionResetError:  # the unread end of a refused line may reset it
        return True


def _status_line(size: int) -> bytes:
    """A status request for an unknown session, padded to ``size`` bytes."""
    head, tail = b'{"op":"status","session_id":"', b'"}'
    return head + b"s" * (size - len(head) - len(tail)) + tail


class TestWireLimits:
    def test_deeply_nested_json_is_bad_request(self, server, tmp_path):
        service = grant_all(tmp_path / "other")
        # one BadRequest per line, which says "malformed JSON" once
        refused = {"ok": False, "error": "BadRequest", "message": "malformed JSON: nested past the JSON parser's depth"}
        lines = ["[" * 100_000, '{"op":' * 100_000]
        assert [handle_request_line(service, line) for line in lines] == [refused, refused]
        with socket.create_connection(server.address, timeout=10) as sock, sock.makefile("rwb") as f:
            assert [_send_line(f, line.encode()) for line in lines] == [refused, refused]
            enrolled = _send_line(f, json.dumps(ENROLL).encode())
            assert enrolled["ok"] is True and enrolled["username"] == "gil"

    @pytest.mark.parametrize("line", [b"[]", b'"x"', b"5"])
    def test_non_object_json_line_is_bad_request(self, server, line):
        with socket.create_connection(server.address, timeout=10) as sock, sock.makefile("rwb") as f:
            refused = _send_line(f, line)
            assert refused["error"] == "BadRequest" and "JSON object" in refused["message"]
            enrolled = _send_line(f, json.dumps(ENROLL).encode())
            assert enrolled["ok"] is True and enrolled["username"] == "gil"

    def test_client_call_raises_once_the_server_closed(self):
        with socket.create_server(("127.0.0.1", 0)) as listener:
            with AuthClient(*listener.getsockname()) as client:
                peer, _ = listener.accept()
                with peer:
                    peer.shutdown(socket.SHUT_WR)  # the server's side is closed; the request still arrives
                    with pytest.raises(ConnectionError, match="server closed the connection"):
                        client.call({"op": "status", "session_id": "s"})

    def test_request_line_cap(self, server):
        with socket.create_connection(server.address, timeout=10) as sock, sock.makefile("rwb") as f:
            assert _send_line(f, _status_line(MAX_LINE_BYTES))["error"] == "UnknownSession"
            refused = _send_line(f, _status_line(MAX_LINE_BYTES + 1))
            assert refused["error"] == "BadRequest"
            assert str(MAX_LINE_BYTES) in refused["message"]
            assert _closed(f)
        with client_for(server) as client:
            assert client.enroll("gil", "gils-secret", "g-m", "g-l")["ok"] is True


def _enroll_line(username: bytes, mobile: bytes) -> bytes:
    return (b'{"op":"enroll","username":"' + username + b'","secret":"alices-secret","mobile_device_id":"'
            + mobile + b'","login_device_id":"' + mobile + b'-l"}')


class TestRequestBytes:
    def test_a_line_that_is_not_utf8_is_one_bad_request(self, server):
        lines = [_enroll_line(b"al\xffice", b"a1"), _enroll_line(b"al\xfeice", b"a2")]
        with socket.create_connection(server.address, timeout=10) as sock, sock.makefile("rwb") as f:
            for line in lines:
                refused = _send_line(f, line)
                assert refused["error"] == "BadRequest"
                assert refused["message"].startswith("malformed JSON: 'utf-8' codec can't decode byte 0x")
            assert _send_line(f, _enroll_line("alïce".encode(), b"a3"))["username"] == "alïce"
            assert _send_line(f, _enroll_line(b"al\xffice", b"a4"))["error"] == "BadRequest"
        store = server.service.store
        assert store.get_user("alïce").mobile_device_id == "a3"
        logged = (store.root / "users.log").read_bytes().splitlines()
        assert [json.loads(line)["mobile_device_id"] for line in logged] == ["a3"]

    def test_handle_request_line_reads_bytes_as_utf8(self, tmp_path):
        service = grant_all(tmp_path / "data")
        refused = handle_request_line(service, _enroll_line(b"al\xffice", b"a1"))
        assert refused["error"] == "BadRequest" and "utf-8" in refused["message"]
        assert handle_request_line(service, _enroll_line("alïce".encode(), b"a1"))["username"] == "alïce"

    def test_blank_lines_are_skipped(self, server):
        with socket.create_connection(server.address, timeout=10) as sock, sock.makefile("rwb") as f:
            f.write(b"\n  \r\n\t\n")
            assert _send_line(f, b'{"op":"status","session_id":"s"}')["error"] == "UnknownSession"


def assert_shutdown_stops_a_starting_loop(service, order):
    """``shutdown()`` on this thread while another starts ``serve_forever``:
    after the shutdown returned ("shutdown-first"), or at once ("racing")."""
    server = AuthWireServer(service, "127.0.0.1", 0)
    shut_down, go, errors = threading.Event(), threading.Barrier(2, timeout=5), []

    def loop():
        go.wait()
        if order == "shutdown-first":
            shut_down.wait(timeout=5)
        try:
            server.serve_forever()
        except Exception as exc:
            errors.append(exc)

    thread = threading.Thread(target=loop, daemon=True)
    thread.start()
    go.wait()
    server.shutdown()
    shut_down.set()
    thread.join(timeout=5)
    assert not thread.is_alive() and errors == []


class TestServer:
    def test_serve_forever_serves_until_shutdown(self, tmp_path):
        server = AuthWireServer(grant_all(tmp_path / "data"), "127.0.0.1", 0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)  # a regression fails, not hangs the run
        thread.start()
        try:
            with client_for(server) as client:
                assert client.status("s")["error"] == "UnknownSession"
        finally:
            server.shutdown()
            thread.join(timeout=10)
        assert not thread.is_alive()
        with pytest.raises(OSError):
            socket.create_connection(server.address, timeout=1).close()

    def test_shutdown_of_a_server_whose_loop_never_ran_returns(self, tmp_path):
        server = AuthWireServer(grant_all(tmp_path / "data"), "127.0.0.1", 0)
        thread = threading.Thread(target=server.shutdown, daemon=True)
        thread.start()
        thread.join(timeout=2)
        assert not thread.is_alive()
        with pytest.raises(OSError):
            socket.create_connection(server.address, timeout=1).close()

    def test_serve_forever_after_shutdown_returns_at_once(self, tmp_path):
        server = AuthWireServer(grant_all(tmp_path / "data"), "127.0.0.1", 0)
        server.shutdown()
        server.serve_forever()

    def test_start_after_shutdown_starts_no_thread(self, tmp_path, monkeypatch):
        server = AuthWireServer(grant_all(tmp_path / "data"), "127.0.0.1", 0)
        server.shutdown()
        started = []
        monkeypatch.setattr(threading.Thread, "start", lambda thread: started.append(thread))
        assert server.start() is server and started == []
        assert server.socket.fileno() == -1

    @pytest.mark.parametrize("ran", [False, True], ids=["never-started", "started"])
    def test_a_second_shutdown_returns_at_once(self, tmp_path, ran):
        server = AuthWireServer(grant_all(tmp_path / "data"), "127.0.0.1", 0)
        if ran:
            server.start()
        server.shutdown()
        thread = threading.Thread(target=server.shutdown, daemon=True)
        thread.start()
        thread.join(timeout=2)
        assert not thread.is_alive()

    def test_an_interrupt_in_serve_forever_leaves_shutdown_working(self, tmp_path, monkeypatch):
        real = socketserver.BaseServer.serve_forever

        def serve_forever(self, *args):
            if threading.current_thread() is threading.main_thread():
                raise KeyboardInterrupt  # a SIGINT that lands before the loop's try/finally
            real(self, *args)

        monkeypatch.setattr(socketserver.BaseServer, "serve_forever", serve_forever)
        server = AuthWireServer(grant_all(tmp_path / "data"), "127.0.0.1", 0)
        timer = threading.Timer(0.5, _thread.interrupt_main)  # the SIGINT, if no loop runs on this thread
        timer.start()
        try:
            with pytest.raises(KeyboardInterrupt):
                server.serve_forever()
        finally:
            timer.cancel()
        thread = threading.Thread(target=server.shutdown, daemon=True)
        thread.start()
        thread.join(timeout=5)
        assert not thread.is_alive()

    @pytest.mark.parametrize("order", ["shutdown-first", "racing"])
    def test_a_shutdown_racing_a_starting_loop_stops_it_or_keeps_it_from_starting(self, tmp_path, order):
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, so the racing order varies
        try:
            for attempt in range(1 if order == "shutdown-first" else 50):
                assert_shutdown_stops_a_starting_loop(grant_all(tmp_path / f"data{attempt}"), order)
        finally:
            sys.setswitchinterval(interval)
    def test_an_idle_connection_is_closed_quietly(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(wire, "IDLE_TIMEOUT_S", 0.2)
        service = grant_all(tmp_path / "data")
        with AuthWireServer(service, "127.0.0.1", 0) as server:
            with socket.create_connection(server.address, timeout=10) as idle:
                assert idle.recv(1) == b""  # the server closed it
            with client_for(server) as client:
                assert client.status("s")["error"] == "UnknownSession"
        assert "Traceback" not in capsys.readouterr().err

    def test_response_lines_keep_their_bytes(self, tmp_path):
        """Each response shape, byte for byte as the server has always sent it."""
        service = grant_all(tmp_path / "data", clock=lambda: 1_700_000_000_000)
        with AuthWireServer(service, "127.0.0.1", 0) as server, \
                socket.create_connection(server.address, timeout=10) as sock, sock.makefile("rwb") as f:
            def reply(line: bytes) -> bytes:
                f.write(line + b"\n")
                f.flush()
                return f.readline()

            assert reply(json.dumps(ENROLL).encode()) == b'{"ok":true,"username":"gil","enrolled_at":1700000000000}\n'
            begun = reply(b'{"op":"begin","username":"gil","secret":"gils-secret"}')
            sid = json.loads(begun)["session_id"]
            assert begun == b'{"ok":true,"session_id":"%s","state":"AwaitingScans"}\n' % sid.encode()
            denied = reply(b'{"op":"begin","username":"gil","secret":"not-gils-secret"}')
            assert denied == (b'{"ok":true,"session_id":"%s","state":"Decided","outcome":"Deny",'
                              b'"reason":"FirstFactorFailed","authentic_fraction":null}\n' % json.loads(denied)["session_id"].encode())
            assert reply(b'{"op":"status","session_id":"s"}') == (
                b'{"ok":false,"error":"UnknownSession","message":"no such session \'s\'"}\n')
            assert reply(b'{"op":"x"}') == b'{"ok":false,"error":"UnknownOp","message":"unknown op \'x\'"}\n'
