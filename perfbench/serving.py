"""Serving workloads: a bench-owned server process, generated scan pairs, a
reference oracle, and the ``login`` and ``onboard`` load generators, both
closed loops over 2 connections.

All scans are generated during set-up. The server only ever receives the
generated requests; each scan is stamped with the time it is sent.
"""

from __future__ import annotations

import itertools
import json
import select
import shutil
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import common
import training

CALL_TIMEOUT_S = 10.0
READY_TIMEOUT_S = 60.0
CONNECTIONS = 2
NEAR, FAR = "near", "far"


def now_ms() -> int:
    return time.time_ns() // 1_000_000


# -- inputs ---------------------------------------------------------------------


@dataclass(frozen=True)
class User:
    name: str
    mobile_id: str
    login_id: str


def make_users(prefix: str, count: int) -> list[User]:
    return [User(f"{prefix}-{i}", f"{prefix}-{i}-mobile", f"{prefix}-{i}-login") for i in range(count)]


@dataclass(frozen=True)
class Pair:
    """One generated scan pair: snapshot documents without device id and
    timestamp, which are filled in when a scan is sent."""

    kind: str  # NEAR or FAR
    mobile: dict
    login: dict


def make_pool(env_seed: int, seed: int, count: int) -> list[Pair]:
    """Alternating near and far pairs spread over the training environment's
    locations, drawn from ``seed``."""
    from proxauth import errors, rf_simulator, wire

    env, loss = rf_simulator.EnvironmentConfig(), rf_simulator.PathLossConfig()
    campaign = rf_simulator.CampaignConfig()
    geometries = [
        rf_simulator.location_geometry(env, loss, campaign, env_seed, j, common.LOCATIONS)
        for j in range(common.LOCATIONS)
    ]
    rng = np.random.default_rng([seed, 0x5CA9])
    pool = []
    for i in range(count):
        kind = NEAR if i % 2 == 0 else FAR
        scenario = rf_simulator.Scenario.authentic() if kind == NEAR else rf_simulator.Scenario.unauthorized()
        geometry = geometries[(i // 2) % common.LOCATIONS]
        for _ in range(101):
            try:
                mobile, login, _ = rf_simulator.generate_session(
                    env, loss, scenario, rng, geometry=geometry, campaign=campaign
                )
                break
            except errors.NoVisibleAp:
                continue
        else:
            raise RuntimeError("could not place a scan pair that sees any AP")
        docs = []
        for snapshot in (mobile, login):
            doc = wire.snapshot_to_doc(snapshot)
            del doc["device_id"], doc["timestamp"]
            docs.append(doc)
        pool.append(Pair(kind, docs[0], docs[1]))
    return pool


def stamped(doc: dict, device_id: str) -> dict:
    return {**doc, "device_id": device_id, "timestamp": now_ms()}


# -- reference oracle -----------------------------------------------------------


@dataclass
class Reference:
    """Decisions of an in-process service with the same model and policy,
    as (outcome, reason, authentic fraction)."""

    pairs: list[tuple]
    wrong_secret: tuple

    def matches(self, response: dict, pair_index: int | None) -> bool:
        """Whether a server response is a success with the reference decision
        for that pair (``None``: the wrong-secret attempt)."""
        expected = self.wrong_secret if pair_index is None else self.pairs[pair_index]
        decision = (response.get("outcome"), response.get("reason"), response.get("authentic_fraction"))
        return bool(response.get("ok")) and decision == expected


def reference_decisions(workdir: Path, model_path: Path, pool: list[Pair]) -> Reference:
    from proxauth import cli, wire

    service = cli.build_service(str(model_path), None, data_dir=str(workdir / "reference-data"))
    user = User("reference", "reference-mobile", "reference-login")
    service.enroll_user(user.name, common.SECRET, user.mobile_id, user.login_id)

    def decided(session) -> tuple:
        d = session.decision
        return (d.outcome.value, d.reason.value, d.authentic_fraction)

    decisions = []
    for pair in pool:
        session = service.begin_session(user.name, common.SECRET)
        for device_id, scan in ((user.mobile_id, pair.mobile), (user.login_id, pair.login)):
            session = service.submit_scan(
                session.session_id, device_id, wire.snapshot_from_doc(stamped(scan, device_id))
            )
        decisions.append(decided(session))
    wrong = service.begin_session(user.name, common.WRONG_SECRET)
    return Reference(decisions, decided(wrong))


# -- server process and client ----------------------------------------------------


class ServerProcess:
    """The benchmark's server launcher, run as its own process with a fresh
    data directory. Use as a context manager; ``stop`` waits for the exit."""

    def __init__(self, ctx, model_path: Path, name: str):
        self.data_dir = ctx.workdir / f"{name}-data"
        self.spans_path = ctx.workdir / f"{name}-spans.json" if ctx.trace else None
        self._stderr_path = ctx.workdir / f"{name}-stderr.txt"
        cmd = [
            sys.executable,
            str(common.BENCH_DIR / "server.py"),
            "--model", str(model_path),
            "--data-dir", str(self.data_dir),
        ]
        if self.spans_path is not None:
            cmd += ["--spans", str(self.spans_path)]
        with self._stderr_path.open("w") as stderr:
            self.proc = subprocess.Popen(
                cmd,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=stderr,
                text=True,
                cwd=common.ROOT,
                env=common.child_env(),
            )
        try:
            self.port, self.build_service_ms = self._wait_ready()
        except BaseException:
            self.stop()
            raise

    def _wait_ready(self) -> tuple[int, float]:
        ready, _, _ = select.select([self.proc.stdout], [], [], READY_TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else ""
        parts = line.split()
        if len(parts) != 3 or parts[0] != "READY":
            raise RuntimeError(f"server did not become ready: {self._stderr_tail()}")
        return int(parts[1]), float(parts[2])

    def _stderr_tail(self) -> str:
        try:
            return self._stderr_path.read_text()[-2000:]
        except OSError:
            return ""

    def peak_rss_mb(self) -> float:
        return common.vm_hwm_mb(self.proc.pid)

    def stop(self) -> None:
        if self.proc.poll() is None:
            try:
                self.proc.stdin.write("STOP\n")
                self.proc.stdin.close()
            except OSError:
                pass
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            if not stream.closed:
                stream.close()
        if self.proc.returncode != 0:
            raise RuntimeError(f"server exited with {self.proc.returncode}: {self._stderr_tail()}")

    def audit_reasons(self) -> Counter:
        reasons: Counter = Counter()
        path = self.data_dir / "audit.log"
        if path.exists():
            for line in path.read_text(encoding="utf-8").splitlines():
                entry = json.loads(line)
                if entry["event"] == "decision":
                    reasons[entry["reason"]] += 1
        return reasons

    def users_json_bytes(self) -> int:
        return (self.data_dir / "users.json").stat().st_size

    def __enter__(self) -> "ServerProcess":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


class Client:
    """A proxauth ``AuthClient`` that records each call's round-trip time."""

    def __init__(self, port: int):
        from proxauth.wire import AuthClient

        self._client = AuthClient("127.0.0.1", port, timeout=CALL_TIMEOUT_S)
        self.rtts: dict[str, list[float]] = defaultdict(list)

    def call(self, request: dict) -> dict:
        started = time.perf_counter()
        response = self._client.call(request)
        self.rtts[request["op"]].append(time.perf_counter() - started)
        return response

    def enroll(self, user: User) -> dict:
        return self.call(
            {
                "op": "enroll",
                "username": user.name,
                "secret": common.SECRET,
                "mobile_device_id": user.mobile_id,
                "login_device_id": user.login_id,
            }
        )

    def login_round(self, user: User, pair: Pair | None) -> dict:
        """begin -> mobile scan -> login scan; a ``None`` pair logs in with
        a wrong secret, which the server decides at begin."""
        secret = common.SECRET if pair is not None else common.WRONG_SECRET
        response = self.call({"op": "begin", "username": user.name, "secret": secret})
        if not response.get("ok") or response.get("state") == "Decided":
            return response
        session_id = response["session_id"]
        for device_id, scan in ((user.mobile_id, pair.mobile), (user.login_id, pair.login)):
            response = self.call(
                {
                    "op": "submit_scan",
                    "session_id": session_id,
                    "device_id": device_id,
                    "snapshot": stamped(scan, device_id),
                }
            )
            if not response.get("ok"):
                return response
        return response

    def close(self) -> None:
        self._client.close()


def merged_rtts(clients) -> dict[str, list[float]]:
    merged: dict[str, list[float]] = defaultdict(list)
    for client in clients:
        for op, values in client.rtts.items():
            merged[op].extend(values)
    return merged


def run_threads(targets, timeout_s: float) -> None:
    threads = [threading.Thread(target=t, daemon=True) for t in targets]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=timeout_s)
    if any(t.is_alive() for t in threads):
        raise RuntimeError("load generator threads did not finish in time")


# -- set-up -------------------------------------------------------------------------


@dataclass
class Fixture:
    flow: training.FlowResult
    pool: list[Pair]
    reference: Reference
    population: list[User]


def build_fixture(ctx) -> Fixture:
    """Train the served model on the environment of ``ctx.seed``, generate
    the scan pairs and decide each one in-process."""
    sizes = ctx.sizes
    flow = training.run_flow(ctx.seed, sizes, ctx.workdir, "served")
    training.check_band(ctx, flow.metrics)
    ctx.flow_counts(flow)
    ctx.fact("served_model_sha256", flow.sha256)
    pool = make_pool(ctx.seed, ctx.seed, sizes.pool_pairs)
    reference = reference_decisions(ctx.workdir, flow.model_path, pool)
    population = make_users(f"user{ctx.seed}", sizes.population)
    return Fixture(flow, pool, reference, population)


def set_up_server(ctx, model_path: Path, population: list[User], repeats: int):
    """Start the server ``repeats`` times, each time until it has loaded the
    model and enrolled the population; keep the last one running. Returns
    the server, every set-up time and the last set-up's enrollment client."""
    setups = []
    for k in range(repeats):
        started = time.perf_counter()
        server = ServerProcess(ctx, model_path, f"server-{k}")
        try:
            client = Client(server.port)
            try:
                for user in population:
                    response = client.enroll(user)
                    if not response.get("ok"):
                        raise RuntimeError(f"population enrollment failed: {response}")
            finally:
                client.close()
            setups.append(time.perf_counter() - started)
        except BaseException:
            server.stop()
            raise
        if k < repeats - 1:
            server.stop()
            shutil.rmtree(server.data_dir)
    return server, setups, client


def finish_server(ctx, server: ServerProcess, clients, client_reasons: Counter) -> None:
    """After ``server`` stopped: check the audit log against what the clients
    saw, and hand the server-side trace to the run."""
    ctx.fact("traffic", "JSON lines over TCP on the loopback interface (127.0.0.1), server in its own process")
    audit = server.audit_reasons()
    if audit != client_reasons:
        ctx.problem(f"audit decisions {dict(audit)} differ from responses {dict(client_reasons)}")
    ctx.serving_layers(server, merged_rtts(clients), audit)


# -- workloads ----------------------------------------------------------------------


def login_plan(seed: int, pool: list[Pair], users: int) -> list[tuple[int, int | None]]:
    """One cycle of login attempts as (user, pair index), in a shuffled mix of
    exactly 45% near pairs, 45% far pairs and 10% wrong secrets (pair index
    ``None``); every pair of the pool is used equally often."""
    rng = np.random.default_rng([seed, 0x10C1])
    n = 10 * len(pool)
    kinds = rng.permutation(np.repeat([NEAR, FAR, None], [9 * n // 20, 9 * n // 20, n // 10]))
    cycles = {kind: itertools.cycle([i for i, p in enumerate(pool) if p.kind == kind]) for kind in (NEAR, FAR)}
    users_drawn = rng.integers(users, size=n).tolist()
    return [(u, None if kind is None else next(cycles[kind])) for u, kind in zip(users_drawn, kinds)]


def closed_loop(ctx, server: ServerProcess, iteration) -> tuple[list[dict], list[Client]]:
    """Run ``iteration(client, k, n, row)`` back to back on each of
    CONNECTIONS connections until ``ctx.seconds`` have passed; ``k`` is the
    connection and ``n`` the iteration's number on it. An iteration returns
    the last response and may note figures in ``row``. A call that raises
    counts as a failed response and its connection is replaced. Returns the
    rows, each also with the iteration's duration ``s`` and its end ``end_s``
    from the start, and the clients."""
    per_thread: list[list[dict]] = [[] for _ in range(CONNECTIONS)]
    clients = [Client(server.port) for _ in range(CONNECTIONS)]
    start = time.perf_counter()
    deadline = start + ctx.seconds

    def caller(k: int) -> None:
        out = per_thread[k]
        while time.perf_counter() < deadline:
            row: dict = {}
            began = time.perf_counter()
            try:
                row["response"] = iteration(clients[k], k, len(out), row)
            except (OSError, ValueError) as exc:
                row["response"] = {"ok": False, "error": type(exc).__name__}
                clients[k].close()
                clients[k] = Client(server.port)
            ended = time.perf_counter()
            row["s"], row["end_s"] = ended - began, ended - start
            out.append(row)

    try:
        run_threads([lambda k=k: caller(k) for k in range(CONNECTIONS)], ctx.seconds + 120)
    finally:
        for c in clients:
            c.close()
    return [row for out in per_thread for row in out], clients


def check_rows(ctx, fx: Fixture, server: ServerProcess, rows: list[dict], clients) -> int:
    """Count the rows whose response differs from the reference decision for
    its pair, check the audit log against the responses, and return the
    number of failed rows."""
    failed = 0
    reasons: Counter = Counter()
    for row in rows:
        response = row["response"]
        if response.get("ok"):
            reasons[response["reason"]] += 1
        failed += not fx.reference.matches(response, row["pair"])
    finish_server(ctx, server, clients, reasons)
    ctx.count(attempted=len(rows), failed=failed)
    return failed


def run_login(ctx) -> None:
    fx = build_fixture(ctx)
    plan = login_plan(ctx.seed, fx.pool, len(fx.population))
    server, setups, enroll_client = set_up_server(ctx, fx.flow.model_path, fx.population, ctx.sizes.setup_repeats)

    def login(client: Client, k: int, n: int, row: dict) -> dict:
        user, row["pair"] = plan[(CONNECTIONS * n + k) % len(plan)]
        pair = fx.pool[row["pair"]] if row["pair"] is not None else None
        return client.login_round(fx.population[user], pair)

    with server:
        rows, clients = closed_loop(ctx, server, login)
        peak_rss = server.peak_rss_mb()
    failed = check_rows(ctx, fx, server, rows, [enroll_client, *clients])

    granted = Counter()
    sent_kind = Counter()
    for row in rows:
        kind = fx.pool[row["pair"]].kind if row["pair"] is not None else None
        sent_kind[kind] += 1
        granted[kind] += row["response"].get("outcome") == "Grant"
    latency = common.summary([r["s"] * 1e3 for r in rows])
    setup_s = sorted(setups)[len(setups) // 2]
    rounds_per_s = (len(rows) - failed) / max(r["end_s"] for r in rows)

    ctx.report("setup_s", setup_s, "s", n=len(setups))
    ctx.report("round_p50_ms", latency["p50"], "ms", n=latency["n"])
    ctx.report("round_p90_ms", latency["p90"], "ms", n=latency["n"])
    ctx.report("round_p99_ms", latency["p99"], "ms", n=latency["n"], info=True)
    ctx.report("rounds_per_s", rounds_per_s, "1/s")
    ctx.report("peak_rss_mb", peak_rss, "MB")
    ctx.report("failed_ratio", failed / len(rows), "ratio")
    ctx.report("false_accept_ratio", granted[FAR] / max(sent_kind[FAR], 1), "ratio", n=sent_kind[FAR])
    ctx.report(
        "false_reject_ratio", 1 - granted[NEAR] / max(sent_kind[NEAR], 1), "ratio", n=sent_kind[NEAR]
    )
    ctx.end_to_end(
        setup_s=setup_s,
        latency_p50_ms=latency["p50"],
        latency_p90_ms=latency["p90"],
        throughput_per_s=rounds_per_s,
        peak_rss_mb=peak_rss,
    )


def run_onboard(ctx) -> None:
    fx = build_fixture(ctx)
    order = np.random.default_rng([ctx.seed, 0x0B0A]).permutation(len(fx.pool)).tolist()
    server, setups, enroll_client = set_up_server(ctx, fx.flow.model_path, fx.population, ctx.sizes.setup_repeats)

    def onboard(client: Client, k: int, n: int, row: dict) -> dict:
        name = f"new{ctx.seed}-{k}-{n}"
        user = User(name, f"{name}-mobile", f"{name}-login")
        row["pair"] = order[(CONNECTIONS * n + k) % len(order)]
        began = time.perf_counter()
        response = client.enroll(user)
        row["enroll_s"] = time.perf_counter() - began
        if response.get("ok"):
            response = client.login_round(user, fx.pool[row["pair"]])
        return response

    with server:
        rows, clients = closed_loop(ctx, server, onboard)
        peak_rss = server.peak_rss_mb()
    failed = check_rows(ctx, fx, server, rows, [enroll_client, *clients])

    enroll = common.summary([r.get("enroll_s", r["s"]) * 1e3 for r in rows])
    rounds = common.summary([(r["s"] - r.get("enroll_s", r["s"])) * 1e3 for r in rows])
    iteration = common.summary([r["s"] * 1e3 for r in rows])
    setup_s = sorted(setups)[len(setups) // 2]
    rounds_per_s = (len(rows) - failed) / max(r["end_s"] for r in rows)

    ctx.report("setup_s", setup_s, "s", n=len(setups))
    ctx.report("round_p50_ms", rounds["p50"], "ms", n=rounds["n"])
    ctx.report("round_p90_ms", rounds["p90"], "ms", n=rounds["n"])
    ctx.report("round_p99_ms", rounds["p99"], "ms", n=rounds["n"], info=True)
    ctx.report("rounds_per_s", rounds_per_s, "1/s")
    ctx.report("enroll_p50_ms", enroll["p50"], "ms", n=enroll["n"])
    ctx.report("enroll_p90_ms", enroll["p90"], "ms", n=enroll["n"])
    ctx.report("enroll_p99_ms", enroll["p99"], "ms", n=enroll["n"], info=True)
    ctx.report("onboard_p50_ms", iteration["p50"], "ms", n=iteration["n"])
    ctx.report("onboard_p90_ms", iteration["p90"], "ms", n=iteration["n"])
    ctx.report("peak_rss_mb", peak_rss, "MB")
    ctx.report("failed_ratio", failed / len(rows), "ratio")
    ctx.end_to_end(
        setup_s=setup_s,
        latency_p50_ms=iteration["p50"],
        latency_p90_ms=iteration["p90"],
        throughput_per_s=rounds_per_s,
        peak_rss_mb=peak_rss,
    )
