import json

import pytest

from proxauth.auth_service import MatchKey
from proxauth.cli import (
    _make_config,
    _parse_listen,
    _policy_config,
    build_parser,
    build_service,
    main,
)
from proxauth.colocation_ml import ForestParams
from proxauth.rf_simulator import EnvironmentConfig
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
        assert args.split == 0.2
        assert args.seed is None

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
        with pytest.raises(ValueError):
            _parse_listen("nope")

    def test_make_config_overrides(self):
        env = _make_config(EnvironmentConfig, {"n_aps": 4, "frequency_set_hz": [2412000000]})
        assert env.n_aps == 4
        assert env.frequency_set_hz == (2412000000,)

    def test_make_config_rejects_unknown_keys(self):
        with pytest.raises(ValueError):
            _make_config(EnvironmentConfig, {"bogus": 1})

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
        assert set(doc["metrics"]) == {"accuracy", "sensitivity", "specificity", "precision", "f1"}
        cm = doc["confusion_matrix"]
        assert cm["tp"] + cm["tn"] + cm["fp"] + cm["fn"] == doc["counts"]["test"]
        assert doc["metrics"]["accuracy"] >= 0.8

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
