import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from proxauth.auth_service import MatchKey, PolicyConfig
from proxauth.beacon_model import build_feature_encoder, encode_dataset, parse_dataset_csv
from proxauth.cli import (
    _make_config,
    _parse_listen,
    _policy_config,
    build_parser,
    build_service,
    main,
)
from proxauth.colocation_ml import (
    ForestParams,
    TreeParams,
    load_model,
    save_model,
    stratified_split,
    train_decision_tree,
    train_random_forest,
)
from proxauth.rf_simulator import CampaignConfig, EnvironmentConfig, PathLossConfig
from proxauth.wire import AuthWireServer


class TestParseArgs:
    def test_train_maps_flags(self):
        args = build_parser().parse_args(
            ["train", "--data", "d.csv", "--model", "rf", "--seed", "7", "--out", "m.model"]
        )
        assert args.command == "train"
        assert args.model == "rf"
        assert args.seed == 7
        assert args.out == "m.model"

    def test_evaluate_defaults_split_to_one_fifth(self):
        args = build_parser().parse_args(["evaluate", "--model", "m.model", "--data", "d.csv"])
        assert args.seed is None

    def test_evaluate_rejects_split_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(
                ["evaluate", "--model", "m.model", "--data", "d.csv", "--split", "0.3"]
            )
        assert exc.value.code == 2
        assert "--split" in capsys.readouterr().err

    def test_help_lists_every_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "80% of a dataset" in out and "20% that train held out" in out

    def test_unknown_model_kind_names_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["train", "--data", "d", "--model", "xgb", "--seed", "1", "--out", "o"])
        assert exc.value.code == 2
        assert "--model" in capsys.readouterr().err

    def test_seed_required_for_simulate_and_train(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--out", "x.csv"])
        assert "--seed" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            build_parser().parse_args(["train", "--data", "d", "--model", "dt", "--out", "o"])
        assert "--seed" in capsys.readouterr().err


class TestHelpers:
    def test_parse_listen(self):
        assert _parse_listen("127.0.0.1:4980") == ("127.0.0.1", 4980)
        assert _parse_listen("127.0.0.1:0") == ("127.0.0.1", 0)
        assert _parse_listen("127.0.0.1:65535") == ("127.0.0.1", 65535)
        for bad in ("nope", "127.0.0.1:65536", "127.0.0.1:70000", "127.0.0.1:-1", ":80"):
            with pytest.raises(ValueError):
                _parse_listen(bad)

    def test_make_config_overrides(self):
        env = _make_config(EnvironmentConfig, {"n_aps": 4, "frequency_set_hz": [2412000000]})
        assert env.n_aps == 4
        assert env.frequency_set_hz == (2412000000,)

    def test_make_config_rejects_unknown_keys(self):
        with pytest.raises(ValueError):
            _make_config(EnvironmentConfig, {"bogus": 1})

    def test_make_config_rejects_unknown_nested_keys(self):
        with pytest.raises(ValueError, match="TreeParams"):
            _make_config(ForestParams, {"n_trees": 3, "tree_params": {"bogus": 1}})

    @pytest.mark.parametrize("overrides", [5, [], {"tree_params": 5}])
    def test_make_config_rejects_non_objects(self, overrides):
        with pytest.raises(ValueError, match="object"):
            _make_config(ForestParams, overrides)

    @pytest.mark.parametrize(
        "cls, overrides, named",
        [
            (ForestParams, {"n_trees": "5"}, "ForestParams"),
            (ForestParams, {"tree_params": {"max_depth": "3"}}, "TreeParams"),
            (PolicyConfig, {"vote_threshold_tau": "high"}, "PolicyConfig"),
            (EnvironmentConfig, {"frequency_set_hz": 5}, "EnvironmentConfig"),
        ],
    )
    def test_make_config_wrong_type_names_class(self, cls, overrides, named):
        with pytest.raises(ValueError, match=f"^bad {named} value: "):
            _make_config(cls, overrides)

    def test_make_config_builds_nested_dataclass(self):
        params = _make_config(ForestParams, {"seed": 4, "tree_params": {"max_depth": 3}})
        assert params == ForestParams(seed=4, tree_params=TreeParams(max_depth=3))

    @pytest.mark.parametrize(
        "cls", [EnvironmentConfig, PathLossConfig, CampaignConfig, PolicyConfig, TreeParams, ForestParams]
    )
    def test_make_config_inverts_asdict(self, cls):
        doc = dataclasses.asdict(cls())
        assert _make_config(cls, doc) == cls()
        # as read back from a JSON file: lists for tuples, values for enums
        assert _make_config(cls, json.loads(json.dumps(doc, default=lambda e: e.value))) == cls()

    def test_policy_match_key_parsing(self, tmp_path):
        path = tmp_path / "policy.json"
        path.write_text(json.dumps({"vote_threshold_tau": 0.7, "match_key": "SsidOnly"}))
        policy = _policy_config(str(path))
        assert policy.vote_threshold_tau == 0.7
        assert policy.match_key is MatchKey.SSID_ONLY


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """simulate -> train dt+rf once for the whole module."""
    root = tmp_path_factory.mktemp("cli")
    csv = root / "scans.csv"
    assert main(["simulate", "--rows", "1500", "--seed", "5", "--out", str(csv)]) == 0
    rf = root / "rf.model"
    dt = root / "dt.model"
    assert main(["train", "--data", str(csv), "--model", "rf", "--seed", "5", "--out", str(rf)]) == 0
    assert main(["train", "--data", str(csv), "--model", "dt", "--seed", "5", "--out", str(dt)]) == 0
    return root, csv, rf, dt


class TestCommands:
    def test_simulate_writes_csv_and_sidecar(self, pipeline, capsys):
        root, csv, _, _ = pipeline
        meta = json.loads((root / "scans.csv.meta.json").read_text())
        assert meta["seed"] == 5
        assert abs(meta["rows"] - 1500) <= 150
        header = csv.read_text().splitlines()[0]
        assert header == "RPI,SSID,Frequency (Hz),RSSI (dBm),Location,Label"

    def test_ingest_reports_counts(self, pipeline, capsys):
        _, csv, _, _ = pipeline
        assert main(["ingest", "--data", str(csv), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["rows"] == doc["label_counts"]["authentic"] + doc["label_counts"]["unauthorized"]
        assert doc["balanced"] is True
        assert doc["distinct_ssids"] == 10

    def test_evaluate_reports_metrics(self, pipeline, capsys):
        _, csv, rf, _ = pipeline
        assert main(["evaluate", "--model", str(rf), "--data", str(csv)]) == 0
        out = capsys.readouterr().out
        assert "confusion matrix:" in out
        for name in ("accuracy", "sensitivity", "specificity", "precision", "f1"):
            assert f"{name}: 0." in out

    def test_evaluate_json_mirror(self, pipeline, capsys):
        _, csv, _, dt = pipeline
        assert main(["evaluate", "--model", str(dt), "--data", str(csv), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["seed"] == 5  # defaulted from the model file
        assert doc["split"] == 0.2
        _, held_out = stratified_split(parse_dataset_csv(csv.read_bytes()), 0.2, 5)
        assert doc["counts"]["test"] == len(held_out)
        assert set(doc["metrics"]) == {"accuracy", "sensitivity", "specificity", "precision", "f1"}
        cm = doc["confusion_matrix"]
        assert cm["tp"] + cm["tn"] + cm["fp"] + cm["fn"] == doc["counts"]["test"]
        assert doc["metrics"]["accuracy"] >= 0.8

    def test_evaluate_without_train_seed_needs_seed_flag(self, pipeline, tmp_path, capsys):
        _, csv, rf, _ = pipeline
        bare = tmp_path / "bare.model"
        save_model(bare, *load_model(rf))
        assert main(["evaluate", "--model", str(bare), "--data", str(csv)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "--seed" in err
        assert main(["evaluate", "--model", str(bare), "--data", str(csv), "--seed", "5", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["seed"] == 5

    @pytest.mark.parametrize("command", ["evaluate", "serve"])
    def test_malformed_model_file_is_a_clean_error(self, command, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("PROXAUTH_DATA_DIR", str(tmp_path / "store"))
        bad = tmp_path / "bad.model"
        bad.write_text(json.dumps(
            {"format": "proxauth-colocation-model", "version": 1, "kind": "random_forest"}
        ))
        argv = [command, "--model", str(bad)]
        argv += ["--data", "d.csv"] if command == "evaluate" else ["--listen", "127.0.0.1:0"]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("kind", ["rf", "dt"])
    def test_train_writes_what_save_model_writes(self, pipeline, tmp_path, kind):
        root, csv, _, _ = pipeline
        train_set, _ = stratified_split(parse_dataset_csv(csv.read_bytes()), 0.2, 5)
        encoder = build_feature_encoder(train_set)
        X, y = encode_dataset(encoder, train_set)
        if kind == "rf":
            model = train_random_forest(X, y, ForestParams(seed=5))
        else:
            model = train_decision_tree(X, y, TreeParams())
        expected = tmp_path / "expected.model"
        save_model(expected, model, encoder, train_seed=5)
        assert (root / f"{kind}.model").read_bytes() == expected.read_bytes()

    def test_evaluate_missing_file_errors(self, capsys):
        code = main(["evaluate", "--model", "/nonexistent/m.model", "--data", "d.csv"])
        assert code != 0
        assert "/nonexistent/m.model" in capsys.readouterr().err

    def test_train_missing_data_errors(self, capsys):
        code = main(["train", "--data", "/nonexistent/d.csv", "--model", "dt", "--seed", "1", "--out", "x"])
        assert code != 0
        assert "/nonexistent/d.csv" in capsys.readouterr().err

    def test_ingest_parse_error_is_module_qualified(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("RPI,SSID,Frequency (Hz),RSSI (dBm),Location,Label\nRPI1,Net,2437,abc,Lab,authentic\n")
        assert main(["ingest", "--data", str(bad)]) == 1
        assert "beacon_model.RowParseError" in capsys.readouterr().err

    def test_attempt_zero_locations_is_an_error(self, capsys):
        # rejected before any connection is made, so no server is needed
        code = main(["attempt", "--server", "127.0.0.1:9", "--username", "zoe",
                     "--secret", "zoes-secret", "--scenario", "near", "--locations", "0"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: --locations")

    def test_attempt_out_of_range_port_is_an_error(self, capsys):
        # 70000 must not wrap to port 4464
        code = main(["attempt", "--server", "127.0.0.1:70000", "--username", "zoe",
                     "--secret", "zoes-secret", "--scenario", "near"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: address must be HOST:PORT")

    def test_serve_out_of_range_port_is_an_error(self, pipeline, tmp_path, capsys, monkeypatch):
        _, _, rf, _ = pipeline
        monkeypatch.setenv("PROXAUTH_DATA_DIR", str(tmp_path / "store"))
        code = main(["serve", "--model", str(rf), "--listen", "127.0.0.1:70000"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: address must be HOST:PORT")

    def test_train_wrongly_typed_params_is_a_clean_error(self, pipeline, tmp_path, capsys):
        _, csv, _, _ = pipeline
        params = tmp_path / "params.json"
        params.write_text(json.dumps({"forest": {"n_trees": "5"}}))
        code = main(["train", "--data", str(csv), "--model", "rf", "--params", str(params),
                     "--seed", "2", "--out", str(tmp_path / "m.model")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: bad ForestParams value")

    def test_serve_wrongly_typed_policy_is_a_clean_error(self, pipeline, tmp_path, capsys, monkeypatch):
        _, _, rf, _ = pipeline
        monkeypatch.setenv("PROXAUTH_DATA_DIR", str(tmp_path / "store"))
        policy = tmp_path / "policy.json"
        policy.write_text(json.dumps({"vote_threshold_tau": "high"}))
        code = main(["serve", "--model", str(rf), "--policy", str(policy), "--listen", "127.0.0.1:0"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: bad PolicyConfig value")

    def test_module_entry_point_runs_without_warnings(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        result = subprocess.run(
            [sys.executable, "-W", "error", "-m", "proxauth.cli", "--help"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert result.returncode == 0
        assert result.stderr == ""
        assert "usage:" in result.stdout

    def test_train_params_file(self, pipeline, tmp_path, capsys):
        _, csv, _, _ = pipeline
        params = tmp_path / "params.json"
        params.write_text(json.dumps({"forest": {"n_trees": 5, "tree_params": {"max_depth": 4}}}))
        out = tmp_path / "small.model"
        assert main(["train", "--data", str(csv), "--model", "rf", "--params", str(params),
                     "--seed", "2", "--out", str(out), "--json"]) == 0
        doc = json.loads(out.read_text())
        assert doc["params"]["n_trees"] == 5
        assert doc["params"]["tree_params"]["max_depth"] == 4
        assert doc["params"]["seed"] == 2


class TestAttemptRoundTrip:
    def test_attempt_against_served_model(self, pipeline, tmp_path, capsys, monkeypatch):
        root, _, rf, _ = pipeline
        monkeypatch.setenv("PROXAUTH_DATA_DIR", str(tmp_path / "store"))
        service = build_service(str(rf), None)
        with AuthWireServer(service, "127.0.0.1", 0) as server:
            host, port = server.address
            code = main([
                "attempt", "--server", f"{host}:{port}",
                "--username", "zoe", "--secret", "zoes-secret",
                "--scenario", "near", "--seed", "3", "--env-seed", "5", "--json",
            ])
            assert code == 0
            near = json.loads(capsys.readouterr().out)
            assert near["outcome"] == "Grant"
            assert near["reason"] == "ClassifierAuthentic"

            code = main([
                "attempt", "--server", f"{host}:{port}",
                "--username", "zoe", "--secret", "zoes-secret",
                "--scenario", "far", "--seed", "4", "--env-seed", "5", "--json",
            ])
            assert code == 0
            far = json.loads(capsys.readouterr().out)
            assert far["outcome"] == "Deny"
            assert far["reason"] == "ClassifierUnauthorized"
