"""Timing shims and span aggregation for the traced benchmark run.

A traced run replaces public functions of the proxauth modules with wrappers
that record one span per call: id, parent id, name, start, end and an
optional ``info`` value (rows handled, overlap size, or the request facts of
a wire call). Spans stay in memory and are written out once, at the end.
Nothing under ``src/`` changes: the wrappers are installed by assigning
module and class attributes, which proxauth resolves at call time.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path

# span fields
ID, PARENT, NAME, START, END, INFO = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def wrap(self, name: str, fn, info=None):
        """Wrap ``fn`` so each call records a span; ``info(args, result)``
        computes the span's info value after a successful call."""
        local = self._local
        ids = self._ids
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = getattr(local, "current", None)
            span = [next(ids), parent[ID] if parent else 0, name, 0.0, 0.0, None]
            local.current = span
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                local.current = parent
                spans.append(span)
            if info is not None:
                span[INFO] = info(args, result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, info=None) -> None:
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), info))

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps(self.spans), encoding="utf-8")


def span_cost_us(calls: int = 20_000) -> float:
    """Measured cost of one span, in microseconds: a wrapped no-op against
    the bare no-op, median of five batches."""

    def noop():
        return None

    wrapped = Tracer().wrap("noop", noop)
    costs = []
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            wrapped()
        t2 = time.perf_counter()
        costs.append(((t2 - t1) - (t1 - t0)) / calls * 1e6)
    return sorted(costs)[2]


# -- shims ----------------------------------------------------------------------


def _rows(args, result):
    """Rows handled by ``fn(model_or_encoder, rows)``."""
    return len(args[1])


def install_offline_shims(tracer: Tracer) -> None:
    """Spans around the training flow: simulate, split, encode, train,
    batch predict, save and load."""
    from proxauth import beacon_model, colocation_ml, rf_simulator

    tracer.patch(rf_simulator, "generate_dataset", "rf_simulator.generate_dataset")
    tracer.patch(colocation_ml, "stratified_split", "colocation_ml.stratified_split")
    tracer.patch(beacon_model, "build_feature_encoder", "beacon_model.build_feature_encoder")
    tracer.patch(beacon_model, "encode_dataset", "beacon_model.encode_dataset", _rows)
    tracer.patch(colocation_ml, "train_random_forest", "colocation_ml.train_random_forest")
    tracer.patch(colocation_ml, "predict_batch", "colocation_ml.predict_batch", _rows)
    tracer.patch(colocation_ml, "save_model", "colocation_ml.save_model")
    tracer.patch(colocation_ml, "load_model", "colocation_ml.load_model")


def _request_facts(args, result):
    """(op, session id, request bytes, response bytes) of one wire call."""
    line = args[1]
    try:
        request = json.loads(line)
        op = request.get("op") if isinstance(request, dict) else None
        sid = request.get("session_id") if isinstance(request, dict) else None
    except ValueError:
        op = sid = None
    sid = sid or result.get("session_id")
    response_bytes = len(json.dumps(result, separators=(",", ":"))) + 1
    return [op, sid, len(line) + 1, response_bytes]


_SERVICE_METHODS = ("enroll_user", "begin_session", "get_session", "submit_scan", "decide_session")


def install_server_shims(tracer: Tracer) -> None:
    """Spans around the serving path, installed in the server process."""
    from proxauth import auth_service, wire

    tracer.patch(auth_service, "verify_secret", "auth_service.verify_secret")
    tracer.patch(auth_service, "hash_secret", "auth_service.hash_secret")
    tracer.patch(
        auth_service,
        "overlap_observations",
        "auth_service.overlap_observations",
        lambda args, result: len(result),
    )
    tracer.patch(auth_service, "encode_observation", "beacon_model.encode_observation")
    tracer.patch(auth_service, "predict", "colocation_ml.predict")
    for method in _SERVICE_METHODS:
        tracer.patch(auth_service.AuthService, method, f"AuthService.{method}")
    tracer.patch(auth_service.UserStore, "add_user", "UserStore.add_user")
    tracer.patch(auth_service.UserStore, "audit", "UserStore.audit")
    tracer.patch(wire, "handle_request_line", "wire.handle_request_line", _request_facts)


# -- aggregation ------------------------------------------------------------------


class SpanSet:
    """Spans indexed by name, with self times (duration minus the time the
    span's direct children cover; children of one span never overlap,
    because a span and its children run on one thread)."""

    def __init__(self, spans: list[list]):
        self.spans = spans
        child_time: dict[int, float] = defaultdict(float)
        self.children: dict[int, list[list]] = defaultdict(list)
        for s in spans:
            if s[PARENT]:
                child_time[s[PARENT]] += s[END] - s[START]
                self.children[s[PARENT]].append(s)
        self.by_name: dict[str, list[list]] = defaultdict(list)
        self.self_time: dict[int, float] = {}
        for s in spans:
            self.by_name[s[NAME]].append(s)
            self.self_time[s[ID]] = (s[END] - s[START]) - child_time[s[ID]]

    def mean_duration(self, name: str, scale: float) -> float:
        return _mean(s[END] - s[START] for s in self.by_name.get(name, ())) * scale

    def per_item(self, name: str, scale: float) -> float:
        """Total duration divided by the total of the spans' info counts."""
        spans = self.by_name.get(name, ())
        items = sum(s[INFO] or 0 for s in spans)
        return sum(s[END] - s[START] for s in spans) / items * scale if items else 0.0

    def mean_info(self, name: str) -> float:
        return _mean(s[INFO] for s in self.by_name.get(name, ()) if s[INFO] is not None)

    def mean_self(self, names, scale: float) -> float:
        return _mean(self.self_time[s[ID]] for n in names for s in self.by_name.get(n, ())) * scale

    def split_by_child(self, name: str, child: str) -> tuple[list[float], list[float]]:
        """Durations of ``name`` spans without and with a ``child`` span."""
        without, with_ = [], []
        for s in self.by_name.get(name, ()):
            has = any(c[NAME] == child for c in self.children.get(s[ID], ()))
            (with_ if has else without).append(s[END] - s[START])
        return without, with_

    def wire_by_op(self) -> dict[str, list[list]]:
        ops: dict[str, list[list]] = defaultdict(list)
        for s in self.by_name.get("wire.handle_request_line", ()):
            ops[str(s[INFO][0])].append(s)
        return ops

    def attempts(self) -> int:
        """Distinct session ids seen by wire spans: one per login attempt."""
        return len({s[INFO][1] for s in self.by_name.get("wire.handle_request_line", ()) if s[INFO][1]})


def _mean(xs) -> float:
    xs = list(xs)
    return sum(xs) / len(xs) if xs else 0.0


WIRE_OPS = ("enroll", "begin", "submit_scan")


def offline_layer_metrics(bench: SpanSet) -> dict:
    return {
        "rf_simulator.generate_dataset_ms": bench.mean_duration("rf_simulator.generate_dataset", 1e3),
        "beacon_model.build_feature_encoder_ms": bench.mean_duration(
            "beacon_model.build_feature_encoder", 1e3
        ),
        "beacon_model.encode_dataset_us_per_row": bench.per_item("beacon_model.encode_dataset", 1e6),
        "colocation_ml.stratified_split_ms": bench.mean_duration("colocation_ml.stratified_split", 1e3),
        "colocation_ml.train_forest_s": bench.mean_duration("colocation_ml.train_random_forest", 1.0),
        "colocation_ml.predict_batch_us_per_row": bench.per_item("colocation_ml.predict_batch", 1e6),
        "colocation_ml.save_model_ms": bench.mean_duration("colocation_ml.save_model", 1e3),
        "colocation_ml.load_model_ms": bench.mean_duration("colocation_ml.load_model", 1e3),
    }


def serving_layer_metrics(server: SpanSet, client_rtts: dict[str, list[float]]) -> dict:
    store_only, with_decision = server.split_by_child("AuthService.submit_scan", "AuthService.decide_session")
    wire_ops = server.wire_by_op()
    metrics = {
        "beacon_model.encode_observation_us": server.mean_duration("beacon_model.encode_observation", 1e6),
        "colocation_ml.predict_us": server.mean_duration("colocation_ml.predict", 1e6),
        "auth_service.verify_secret_ms": server.mean_duration("auth_service.verify_secret", 1e3),
        "auth_service.hash_secret_ms": server.mean_duration("auth_service.hash_secret", 1e3),
        "auth_service.lock_wait_ms": server.mean_self(
            [f"AuthService.{m}" for m in _SERVICE_METHODS], 1e3
        ),
        "auth_service.store_flush_ms": server.mean_duration("UserStore.add_user", 1e3),
        "auth_service.overlap_us": server.mean_duration("auth_service.overlap_observations", 1e6),
        "auth_service.overlap_rows": server.mean_info("auth_service.overlap_observations"),
        "auth_service.audit_us": server.mean_duration("UserStore.audit", 1e6),
        "auth_service.begin_ms": server.mean_duration("AuthService.begin_session", 1e3),
        "auth_service.submit_store_ms": _mean(store_only) * 1e3,
        "auth_service.submit_decide_ms": _mean(with_decision) * 1e3,
        "wire.codec_us": server.mean_self(["wire.handle_request_line"], 1e6),
        "wire.request_bytes": _mean(s[INFO][2] for s in server.by_name["wire.handle_request_line"]),
        "wire.response_bytes": _mean(s[INFO][3] for s in server.by_name["wire.handle_request_line"]),
    }
    for op in WIRE_OPS:
        handle = _mean(s[END] - s[START] for s in wire_ops.get(op, ()))
        metrics[f"wire.handle_request_ms.{op}"] = handle * 1e3
        rtts = client_rtts.get(op, ())
        metrics[f"wire.transport_ms.{op}"] = (_mean(rtts) - handle) * 1e3 if rtts else 0.0
    return metrics


def load_spans(path: Path) -> SpanSet:
    return SpanSet(json.loads(path.read_text(encoding="utf-8")))
