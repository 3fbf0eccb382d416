"""Operator command line: simulate, ingest, train, evaluate, serve, attempt.

Typical pipeline::

    proxauth simulate --rows 4825 --seed 7 --out scans.csv
    proxauth train --data scans.csv --model rf --seed 7 --out rf.model
    proxauth evaluate --model rf.model --data scans.csv
    proxauth serve --model rf.model --listen 127.0.0.1:4980
    proxauth attempt --server 127.0.0.1:4980 --username alice \
        --secret sesame-street --scenario near --env-seed 7

``train`` holds out a stratified 20% of the data (keyed by its --seed),
fits on the rest and records that seed in the model file as ``train_seed``.
``evaluate`` re-derives the same 20% split from the recorded seed (or from
--seed, which a model file without ``train_seed`` requires), so its report
scores only held-out rows.
With ``--json`` a command prints its report as a single JSON document.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, replace
from pathlib import Path

from .auth_service import AuthService, PolicyConfig, SessionState, UserStore
from .beacon_model import (
    Dataset,
    Label,
    build_feature_encoder,
    dataset_to_csv_bytes,
    encode_dataset,
    parse_dataset_csv,
)
from .colocation_ml import (
    ForestParams,
    TreeParams,
    compute_metrics,
    document_to_model,
    evaluate,
    load_model,
    read_model_document,
    save_model,
    stratified_split,
    train_decision_tree,
    train_random_forest,
)
from .errors import ProxauthError
from .jsondoc import decode, encode, naming, parse
from .rf_simulator import (
    CampaignConfig,
    EnvironmentConfig,
    PathLossConfig,
    Scenario,
    generate_dataset,
    scenario_session,
    sessions_for_target_rows,
    simulation_metadata,
)
from .wire import AuthClient, AuthWireServer

DEFAULT_LISTEN = "127.0.0.1:4980"
DEFAULT_DATA_DIR = "proxauth_data"
DATA_DIR_ENV = "PROXAUTH_DATA_DIR"


# The sections of a --config and of a --params file; a section left out keeps its defaults.


@dataclass(frozen=True)
class SimulationFile:
    environment: EnvironmentConfig = EnvironmentConfig()
    path_loss: PathLossConfig = PathLossConfig()
    campaign: CampaignConfig = CampaignConfig()


@dataclass(frozen=True)
class ParamsFile:
    tree: TreeParams = TreeParams()
    forest: ForestParams = ForestParams()


def _load_json_file(path: str | None, cls):
    """The JSON file at ``path`` (``{}`` without one) and ``cls`` decoded from it."""
    with naming(path):
        doc = parse(Path(path).read_text(encoding="utf-8")) if path else {}
        return doc, decode(cls, doc)


def _read_dataset(path: str) -> Dataset:
    """The dataset CSV at ``path``; a parse error's message is led by the path."""
    with naming(path):
        return parse_dataset_csv(Path(path).read_bytes())


def _simulation_configs(config_path: str | None):
    config = _load_json_file(config_path, SimulationFile)[1]
    return config.environment, config.path_loss, config.campaign


def _policy_config(policy_path: str | None) -> PolicyConfig:
    return _load_json_file(policy_path, PolicyConfig)[1]


def _parse_listen(value: str) -> tuple[str, int]:
    host, _, port = value.rpartition(":")
    digits = port.lstrip("0") or port[-1:]  # 000080 is port 80; int() never meets more than five digits
    if not host or not (port.isascii() and port.isdigit()) or len(digits) > 5 or int(digits) > 65535:
        raise ValueError(f"address must be HOST:PORT with PORT in 0-65535, got {value!r}")
    return host, int(digits)


def _fmt_metric(value: float | None) -> str:
    return "undefined" if value is None else f"{value:.3f}"


def _emit(report_lines: list[str], json_doc: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(json_doc, indent=2))
    else:
        for line in report_lines:
            print(line)


def cmd_simulate(args: argparse.Namespace) -> int:
    env, loss, campaign = _simulation_configs(args.config)
    sessions = sessions_for_target_rows(env, loss, args.rows, args.locations, args.seed, campaign)
    dataset = generate_dataset(env, loss, sessions, args.locations, args.seed, campaign)
    out = Path(args.out)
    out.write_bytes(dataset_to_csv_bytes(dataset))
    meta = simulation_metadata(env, loss, campaign, sessions, args.locations, args.seed, dataset)
    meta_path = Path(str(out) + ".meta.json")
    meta_path.write_text(json.dumps(meta, indent=2) + "\n", encoding="utf-8")
    counts = dataset.label_counts()
    _emit(
        [
            f"wrote {len(dataset)} rows to {out}",
            f"labels: authentic={counts[Label.AUTHENTIC]} unauthorized={counts[Label.UNAUTHORIZED]}"
            f" balanced={dataset.is_balanced()}",
            f"sessions per class: {sessions} over {args.locations} locations",
            f"metadata: {meta_path}",
        ],
        {"command": "simulate", "out": str(out), "metadata": str(meta_path), **meta},
        args.json,
    )
    return 0


def cmd_ingest(args: argparse.Namespace) -> int:
    dataset = _read_dataset(args.data)
    counts = dataset.label_counts()
    ssids = {s.observation.ssid for s in dataset.samples}
    locations = {s.location_tag for s in dataset.samples}
    _emit(
        [
            f"parsed {len(dataset)} rows from {args.data}",
            f"labels: authentic={counts[Label.AUTHENTIC]} unauthorized={counts[Label.UNAUTHORIZED]}"
            f" balanced={dataset.is_balanced()}",
            f"distinct SSIDs: {len(ssids)}; distinct locations: {len(locations)}",
        ],
        {
            "command": "ingest",
            "data": args.data,
            "rows": len(dataset),
            "label_counts": {k.value: v for k, v in counts.items()},
            "balanced": dataset.is_balanced(),
            "distinct_ssids": len(ssids),
            "distinct_locations": len(locations),
        },
        args.json,
    )
    return 0


_TRAIN_HOLDOUT_FRACTION = 0.2


def cmd_train(args: argparse.Namespace) -> int:
    params_doc, params_file = _load_json_file(args.params, ParamsFile)
    if (unread := {"dt": "forest", "rf": "tree"}[args.model]) in params_doc:
        raise ValueError(f"{args.params}: --model {args.model} reads no {unread} section")
    dataset = _read_dataset(args.data)
    train_set, test_set = stratified_split(dataset, _TRAIN_HOLDOUT_FRACTION, args.seed)
    encoder = build_feature_encoder(train_set)
    X, y = encode_dataset(encoder, train_set)

    started = time.perf_counter()
    if args.model == "dt":
        model = train_decision_tree(X, y, params_file.tree)
        summary = f"decision tree: depth={model.depth()} nodes={model.node_count()}"
    else:
        params = params_file.forest
        if "seed" not in params_doc.get("forest", {}):  # --seed unless the file sets one
            params = replace(params, seed=args.seed)
        with naming(args.params) if args.params else nullcontext():  # features_per_split may exceed X's width
            model = train_random_forest(X, y, params)
        summary = f"random forest: trees={params.n_trees} features_per_split={params.features_per_split}"
    elapsed = time.perf_counter() - started

    save_model(args.out, model, encoder, train_seed=args.seed)
    _emit(
        [
            f"trained on {len(train_set)} rows ({len(test_set)} held out) in {elapsed:.2f}s",
            summary,
            f"model written to {args.out}",
        ],
        {
            "command": "train",
            "model_kind": {"dt": "decision_tree", "rf": "random_forest"}[args.model],
            "train_rows": len(train_set),
            "held_out_rows": len(test_set),
            "seconds": round(elapsed, 3),
            "out": args.out,
        },
        args.json,
    )
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    with naming(args.model):
        doc = read_model_document(args.model)
        model, encoder = document_to_model(doc)
    seed = doc.get("train_seed") if args.seed is None else args.seed
    if type(seed) is not int:
        raise ValueError(f"{args.model} records no integer train_seed; give the split seed with --seed")
    dataset = _read_dataset(args.data)
    train_set, test_set = stratified_split(dataset, _TRAIN_HOLDOUT_FRACTION, seed)
    X, y = encode_dataset(encoder, test_set)
    cm = evaluate(model, X, y)
    metrics = compute_metrics(cm)
    _emit(
        [
            f"samples: train={len(train_set)} test={len(test_set)}",
            f"confusion matrix: tp={cm.tp} tn={cm.tn} fp={cm.fp} fn={cm.fn}",
            f"accuracy: {_fmt_metric(metrics.accuracy)}",
            f"sensitivity: {_fmt_metric(metrics.sensitivity)}",
            f"specificity: {_fmt_metric(metrics.specificity)}",
            f"precision: {_fmt_metric(metrics.precision)}",
            f"f1: {_fmt_metric(metrics.f1)}",
        ],
        {
            "command": "evaluate",
            "model": args.model,
            "data": args.data,
            "split": _TRAIN_HOLDOUT_FRACTION,
            "seed": seed,
            "counts": {"train": len(train_set), "test": len(test_set)},
            "confusion_matrix": encode(cm),
            "metrics": metrics.as_dict(),
        },
        args.json,
    )
    return 0


def build_service(model_path: str, policy_path: str | None, data_dir: str | None = None) -> AuthService:
    with naming(model_path):
        classifier = load_model(model_path)
    policy = _policy_config(policy_path)
    root = data_dir if data_dir is not None else os.environ.get(DATA_DIR_ENV) or DEFAULT_DATA_DIR
    return AuthService(UserStore(root), classifier, policy=policy)


def cmd_serve(args: argparse.Namespace) -> int:
    host, port = _parse_listen(args.listen)
    service = build_service(args.model, args.policy)
    server = AuthWireServer(service, host, port)
    try:  # from the bind on, a SIGINT stops the server and closes its socket
        actual_host, actual_port = server.address
        # flushed: on a pipe this line is the only way to learn a :0 port
        print(f"serving on {actual_host}:{actual_port} (store: {service.store.root})", flush=True)
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
    return 0


def _reply(step: str, response: dict, tolerated: str | None = None) -> dict:
    """A server response that succeeded or failed with the ``tolerated`` code;
    any other failure is a ValueError naming the step, the code and the message."""
    if not response.get("ok") and response.get("error") != tolerated:
        raise ValueError(f"{step} failed: {response.get('error')}: {response.get('message')}")
    return response


def cmd_attempt(args: argparse.Namespace) -> int:
    env, loss, campaign = _simulation_configs(args.config)
    scenario = Scenario.authentic() if args.scenario == "near" else Scenario.unauthorized()
    if args.locations < 1:
        raise ValueError("--locations must be >= 1")
    location_index = args.seed % args.locations
    mobile_id = f"{args.username}:mobile"
    login_id = f"{args.username}:login"
    mobile, login = scenario_session(
        env,
        loss,
        scenario,
        env_seed=args.env_seed,
        locations=args.locations,
        location_index=location_index,
        session_seed=args.seed,
        campaign=campaign,
        device_ids=(mobile_id, login_id),
        base_timestamp_ms=time.time_ns() // 1_000_000,
    )

    host, port = _parse_listen(args.server)
    try:
        client = AuthClient(host, port)
    except OSError as exc:  # refused, unresolved or timed out: name the address with the reason
        raise ValueError(f"cannot connect to {args.server}: {exc.strerror or exc}") from None
    with client:
        _reply("enroll", client.enroll(args.username, args.secret, mobile_id, login_id), "DuplicateUser")
        final = _reply("begin", client.begin(args.username, args.secret))
        if final.get("state") == SessionState.AWAITING_SCANS.value:
            _reply("submit", client.submit_scan(final["session_id"], mobile_id, mobile))
            final = _reply("submit", client.submit_scan(final["session_id"], login_id, login))

    fraction = final.get("authentic_fraction")
    _emit(
        [
            f"outcome: {final.get('outcome')}",
            f"reason: {final.get('reason')}",
            f"authentic_fraction: {'n/a' if fraction is None else f'{fraction:.3f}'}",
        ],
        {
            "command": "attempt",
            "scenario": args.scenario,
            "session_id": final.get("session_id"),
            "outcome": final.get("outcome"),
            "reason": final.get("reason"),
            "authentic_fraction": fraction,
        },
        args.json,
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="proxauth",
        description="Proximity-based second-factor authentication toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a labeled scan dataset")
    p.add_argument("--config", help="JSON file with environment/path_loss/campaign overrides")
    p.add_argument("--rows", type=int, default=4825, help="target row count (default 4825)")
    p.add_argument("--locations", type=int, default=3, help="number of synthetic locations")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="CSV output path (sidecar: <out>.meta.json)")
    p.add_argument("--json", action="store_true", help="print the report as JSON")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("ingest", help="parse a dataset CSV and summarize it")
    p.add_argument("--data", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("train", help="train a classifier on 80%% of a dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--model", choices=("dt", "rf"), required=True)
    p.add_argument("--params", help="JSON file with tree/forest hyperparameter overrides")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="score a model on the 20%% that train held out")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--seed", type=int, default=None,
                   help="split seed (default: the train_seed recorded in the model file; "
                        "required when the file records none)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("serve", help="run the authentication server")
    p.add_argument("--model", required=True)
    p.add_argument("--policy", help="JSON policy overrides")
    p.add_argument("--listen", default=DEFAULT_LISTEN, help=f"HOST:PORT (default {DEFAULT_LISTEN})")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("attempt", help="drive one authentication round against a server")
    p.add_argument("--server", required=True, help="HOST:PORT of a running server")
    p.add_argument("--username", required=True)
    p.add_argument("--secret", required=True)
    p.add_argument("--scenario", choices=("near", "far"), required=True)
    p.add_argument("--seed", type=int, default=0, help="session seed")
    p.add_argument("--env-seed", type=int, default=0,
                   help="seed of the simulated environment the model was trained on")
    p.add_argument("--locations", type=int, default=3)
    p.add_argument("--config", help="JSON simulation config overrides")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_attempt)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ProxauthError as exc:
        print(f"error: {exc.domain}.{exc.code}: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: file not found: {exc.filename}", file=sys.stderr)
        return 1
    except (ValueError, ConnectionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
