import dataclasses
import hashlib
import json
import os
import re
import select
import signal
import socket
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from proxauth import cli
from proxauth.auth_service import PolicyConfig, StoreSnapshot, UserRecord
from proxauth.beacon_model import (
    BeaconObservation,
    DeviceRole,
    FeatureEncoder,
    ScanSnapshot,
    build_feature_encoder,
    encode_dataset,
    parse_dataset_csv,
)
from proxauth.cli import (
    ParamsFile,
    SimulationFile,
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
from proxauth.jsondoc import decode as _make_config
from proxauth.jsondoc import encode
from proxauth.rf_simulator import CampaignConfig, EnvironmentConfig, PathLossConfig
from proxauth.wire import AuthWireServer, BeginRequest, EnrollRequest, StatusRequest, SubmitScanRequest

from model_v1 import _tree_from_doc, grow_tree_from_doc, v1_bytes
from model_v2_rows import node_rows, trees_of


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


# values of the dataclasses without a default for every field
_SAMPLES = {
    FeatureEncoder: FeatureEncoder({"A": 1, "B": 2}, (2412000000.0, 5240000000)),
    UserRecord: UserRecord("zoe", "pbkdf2-sha256$20000$00$c0", "z-m", "z-l", 1_700_000_000_000),
    ScanSnapshot: ScanSnapshot(
        "z-m", DeviceRole.LOGIN, 1_700_000_000_000,
        (BeaconObservation("A", 2412000000, -60, "aa:bb:cc:dd:ee:ff"), BeaconObservation("B", 5240000000, -71)),
        location_tag="desk",
    ),
    BeaconObservation: BeaconObservation("C", 5180000000, -2**53, "aa:bb:cc:dd:ee:01"),
    EnrollRequest: EnrollRequest("zoe", "zoes-secret", "z-m", "z-l"),
    BeginRequest: BeginRequest("zoe", "zoes-secret"),
    StatusRequest: StatusRequest("s-1"),
}
_SAMPLES[SubmitScanRequest] = SubmitScanRequest("s-1", "z-m", _SAMPLES[ScanSnapshot])
_SAMPLES[StoreSnapshot] = StoreSnapshot(1, (_SAMPLES[UserRecord], UserRecord("ann", "h", "a-m", "a-l", 0)))


class TestHelpers:
    def test_parse_listen(self):
        assert _parse_listen("127.0.0.1:4980") == ("127.0.0.1", 4980)
        assert _parse_listen("127.0.0.1:0") == ("127.0.0.1", 0)
        assert _parse_listen("127.0.0.1:65535") == ("127.0.0.1", 65535)
        # leading zeros are dropped, however many, and a long digit string is refused before int()
        assert _parse_listen("127.0.0.1:000080") == ("127.0.0.1", 80)
        assert _parse_listen("127.0.0.1:" + "0" * 5000 + "80") == ("127.0.0.1", 80)
        for bad in ("nope", "127.0.0.1:65536", "127.0.0.1:70000", "127.0.0.1:-1", ":80", "127.0.0.1:" + "1" * 5000):
            with pytest.raises(ValueError, match="address must be HOST:PORT"):
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
            (PolicyConfig, {"vote_threshold_tau": True, "pairing_window_ms": 1.5}, "PolicyConfig"),
            (TreeParams, {"max_depth": 2.5}, "TreeParams"),
            (ForestParams, {"bootstrap": 0}, "ForestParams"),
            (PathLossConfig, {"noise_sigma_dbm": 10**400}, "PathLossConfig"),
            (EnvironmentConfig, {"area_m": 10**400}, "EnvironmentConfig"),
            (CampaignConfig, {"intruder_offset_m": [5.0, 10**400]}, "CampaignConfig"),
            (EnvironmentConfig, {"area_m": float("inf")}, "EnvironmentConfig"),
            (PathLossConfig, {"noise_sigma_dbm": float("nan")}, "PathLossConfig"),
            (CampaignConfig, {"intruder_offset_m": [5.0, float("inf")]}, "CampaignConfig"),
            (PolicyConfig, {"vote_threshold_tau": float("nan")}, "PolicyConfig"),
            (FeatureEncoder, {"ssid_vocabulary": {}, "frequency_scale": [5.0, 1.0]}, "FeatureEncoder"),
        ],
    )
    def test_make_config_wrong_type_names_class(self, cls, overrides, named):
        with pytest.raises(ValueError, match=f"^bad {named} value: "):
            _make_config(cls, overrides)

    def test_make_config_builds_nested_dataclass(self):
        params = _make_config(ForestParams, {"seed": 4, "tree_params": {"max_depth": 3}})
        assert params == ForestParams(seed=4, tree_params=TreeParams(max_depth=3))

    @pytest.mark.parametrize(
        "cls", [EnvironmentConfig, PathLossConfig, CampaignConfig, PolicyConfig, TreeParams, ForestParams,
                FeatureEncoder, UserRecord, ScanSnapshot, BeaconObservation, StoreSnapshot, SimulationFile,
                ParamsFile, EnrollRequest, BeginRequest, SubmitScanRequest, StatusRequest]
    )
    def test_make_config_inverts_asdict(self, cls):
        value = _SAMPLES[cls] if cls in _SAMPLES else cls()
        doc = dataclasses.asdict(value)
        assert _make_config(cls, doc) == value
        # as read back from a JSON file: lists for tuples, values for enums
        written = json.dumps(doc, default=lambda e: e.value)
        assert _make_config(cls, json.loads(written)) == value
        # with every key present, the exact mode reads the same value
        assert _make_config(cls, json.loads(written), exact=True) == value
        # encode writes that JSON document, key order included, and it reads back exactly
        assert encode(value) == json.loads(written)
        assert json.dumps(encode(value)) == written
        assert _make_config(cls, encode(value), exact=True) == value

    def test_a_policy_with_a_match_key_is_refused(self, tmp_path):
        # APs match by one rule, so a policy file that picks one names a key the policy does not have
        path = tmp_path / "policy.json"
        path.write_text(json.dumps({"vote_threshold_tau": 0.7, "match_key": "SsidOnly"}))
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: PolicyConfig .* got unknown \['match_key'\]$"):
            _policy_config(str(path))


def _run_pipeline(root, seed):
    csv = root / "scans.csv"
    assert main(["simulate", "--rows", "1500", "--seed", str(seed), "--out", str(csv)]) == 0
    rf = root / "rf.model"
    dt = root / "dt.model"
    assert main(["train", "--data", str(csv), "--model", "rf", "--seed", str(seed), "--out", str(rf)]) == 0
    assert main(["train", "--data", str(csv), "--model", "dt", "--seed", str(seed), "--out", str(dt)]) == 0
    return root, csv, rf, dt


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """simulate -> train dt+rf once for the whole module."""
    return _run_pipeline(tmp_path_factory.mktemp("cli"), 5)


@pytest.fixture(scope="module")
def pipeline_7(tmp_path_factory):
    """The same at seed 7."""
    return _run_pipeline(tmp_path_factory.mktemp("cli7"), 7)


# sha256 of what the pipeline fixture writes, model files in format v2, taken with numpy 2.4.6 and Python 3.11.7
PIPELINE_SHA256 = {
    "scans.csv": "048ce0144447d2e6c2f5a16971d8e895b8c1f4126212ac56c9f1590f1408c227",
    "scans.csv.meta.json": "aeaed3a65740a7f7fb5474f02312582a1e5a561a95223597dc3a7be98f5a33d6",
    "rf.model": "bd2fd4172eb3a9a322b10bebbb801b7c66518960c455216b0c0ec09250f04db0",
    "dt.model": "afe80406203c688a4f64527a80ab4bb0545c1365be521dfb08ddcf9b1c311254",
}


# sha256 of the model files the pipeline fixture wrote in format v1, before save_model wrote v2
PIPELINE_V1_SHA256 = {
    "rf.model": "d513142c63ffe054107369b64fa0fbf9afdfd9bd8186777c40331b7ed017d6b5",
    "dt.model": "0d66f0872a8195fd6d6673d916ef9dde0f825864be596607d90eb56c76fb93ad",
}


class TestModelFormatV1:
    """The tests' v1 writer is the old format, which the tests' v1 reader
    reads and every command refuses."""

    @pytest.mark.parametrize("name", list(PIPELINE_V1_SHA256))
    def test_the_v1_writer_reproduces_the_v1_pipeline_bytes(self, pipeline, name):
        path = pipeline[0] / name
        model, encoder = load_model(path)
        got = hashlib.sha256(v1_bytes(model, encoder, json.loads(path.read_text())["train_seed"])).hexdigest()
        assert got == PIPELINE_V1_SHA256[name], (
            f"{name} bytes changed under numpy {np.__version__}; the digest was pinned with numpy 2.4.6"
        )

    @pytest.mark.parametrize("command", ["load_model", "evaluate", "serve"])
    @pytest.mark.parametrize("name", ["rf.model", "dt.model"])
    def test_a_v1_file_is_refused(self, pipeline, tmp_path, capsys, monkeypatch, command, name):
        root, csv, _, _ = pipeline
        model, encoder = load_model(root / name)
        v1 = tmp_path / name
        v1.write_bytes(v1_bytes(model, encoder, train_seed=5))
        if command == "load_model":
            with pytest.raises(ValueError, match="^unsupported model format version 1$"):
                load_model(v1)
            return
        monkeypatch.setenv("PROXAUTH_DATA_DIR", str(tmp_path / "store"))
        monkeypatch.setattr(AuthWireServer, "serve_forever", lambda self: None)  # if the model loaded
        argv = [command, "--model", str(v1)]
        argv += ["--data", str(csv)] if command == "evaluate" else ["--listen", "127.0.0.1:0"]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {v1}: unsupported model format version 1\n"

    @pytest.mark.parametrize("fixture", ["pipeline", "pipeline_7"])
    @pytest.mark.parametrize("name", ["rf.model", "dt.model"])
    def test_the_v1_pipeline_files_read_by_the_tests_readers_as_the_v2_files(self, request, tmp_path, fixture, name):
        model, encoder = load_model(request.getfixturevalue(fixture)[0] / name)
        v1 = tmp_path / name
        v1.write_bytes(v1_bytes(model, encoder))
        doc = json.loads(v1.read_text())
        trees = [doc["tree"]] if "tree" in doc else doc["trees"]
        for read in (_tree_from_doc, grow_tree_from_doc):
            assert [node_rows(read(t, TreeParams()))[0] for t in trees] == node_rows(model)


class TestColumnReader:
    """The v2 reader builds each tree's columns whole; the per-row reader it
    replaced reads the same rows from the pipeline's files."""

    @pytest.mark.parametrize("fixture", ["pipeline", "pipeline_7"])
    @pytest.mark.parametrize("name", ["rf.model", "dt.model"])
    def test_the_pipeline_models_read_as_the_row_reader_reads_them(self, request, fixture, name):
        path = request.getfixturevalue(fixture)[0] / name
        model, _ = load_model(path)
        assert node_rows(model) == trees_of(path)

    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc/self/status")
    def test_loading_the_pipeline_forest_raises_the_peak_rss_by_under_3_mb(self, pipeline):
        # a fresh interpreter, so the peak so far is the imports' and nothing the tests did
        script = """if True:
            import sys
            import numpy as np
            from proxauth.colocation_ml import load_model, predict_batch

            def peak_kb():
                with open("/proc/self/status") as status:
                    return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))

            before = peak_kb()
            model, encoder = load_model(sys.argv[1])
            predict_batch(model, np.zeros((1, encoder.width)))
            print(peak_kb() - before)
        """
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        result = subprocess.run([sys.executable, "-c", script, str(pipeline[2])],
                                env=env, capture_output=True, text=True, timeout=60)
        assert result.returncode == 0, result.stderr
        assert int(result.stdout) < 3 * 1024, f"VmHWM grew {result.stdout.strip()} kB"


class TestCommands:
    @pytest.mark.parametrize("name", list(PIPELINE_SHA256))
    def test_seed_5_pipeline_writes_pinned_bytes(self, pipeline, name):
        got = hashlib.sha256((pipeline[0] / name).read_bytes()).hexdigest()
        assert got == PIPELINE_SHA256[name], (
            f"{name} bytes changed under numpy {np.__version__}; the digest was pinned with numpy 2.4.6"
        )

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
            {"format": "proxauth-colocation-model", "version": 2, "kind": "random_forest"}
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

    @pytest.mark.parametrize("command", ["ingest", "train", "evaluate"])
    def test_a_bad_data_csv_is_one_error_line_that_names_it(self, pipeline, tmp_path, capsys, command):
        _, _, rf, _ = pipeline
        bad = tmp_path / "bad.csv"
        bad.write_text("RPI,SSID,Frequency (Hz),RSSI (dBm),Location,Label\nRPI1,Net,9007199254740993,-58,Lab,authentic\n")
        argv = {
            "ingest": ["ingest", "--data", bad],
            "train": ["train", "--data", bad, "--model", "dt", "--seed", "1", "--out", tmp_path / "m.model"],
            "evaluate": ["evaluate", "--model", rf, "--data", bad],
        }[command]
        assert main(list(map(str, argv))) == 1
        assert capsys.readouterr().err == (
            f"error: beacon_model.RowParseError: {bad}: row 2, column 'Frequency (Hz)'"
            " (must be <= 2**53 Hz: 9007199254740993)\n")
        assert not (tmp_path / "m.model").exists()

    def test_a_params_file_past_the_width_of_x_is_one_error_line_that_names_it(self, pipeline, tmp_path, capsys):
        _, csv, _, _ = pipeline
        params, out = tmp_path / "params.json", tmp_path / "m.model"
        params.write_text(json.dumps({"forest": {"features_per_split": 9}}))
        assert main(["train", "--data", str(csv), "--model", "rf", "--params", str(params),
                     "--seed", "2", "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {params}: features_per_split 9 exceeds the 4 columns of X\n"
        assert not out.exists()

    def test_attempt_zero_locations_is_an_error(self, capsys):
        # rejected before any connection is made, so no server is needed
        code = main(["attempt", "--server", "127.0.0.1:9", "--username", "zoe",
                     "--secret", "zoes-secret", "--scenario", "near", "--locations", "0"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: --locations")

    def test_attempt_out_of_range_port_is_an_error(self, capsys):
        # 70000 must not wrap to port 4464, a non-ASCII digit is not a port, nor are 5,000 digits
        for port in ("70000", "\u00b2", "1" * 5000):
            code = main(["attempt", "--server", f"127.0.0.1:{port}", "--username", "zoe",
                         "--secret", "zoes-secret", "--scenario", "near"])
            assert code == 1
            assert capsys.readouterr().err.startswith("error: address must be HOST:PORT")

    def test_attempt_where_nothing_listens_names_the_address(self, capsys):
        with socket.socket() as probe:  # a port just bound and closed, so nothing listens on it
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        code = main(["attempt", "--server", f"127.0.0.1:{port}", "--username", "zoe",
                     "--secret", "zoes-secret", "--scenario", "near"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ") and f"127.0.0.1:{port}" in err
        assert "Traceback" not in err

    def test_serve_out_of_range_port_is_an_error(self, pipeline, tmp_path, capsys, monkeypatch):
        _, _, rf, _ = pipeline
        monkeypatch.setenv("PROXAUTH_DATA_DIR", str(tmp_path / "store"))
        for port in ("70000", "\u00b2", "1" * 5000):
            code = main(["serve", "--model", str(rf), "--listen", f"127.0.0.1:{port}"])
            assert code == 1
            assert capsys.readouterr().err.startswith("error: address must be HOST:PORT")

    @pytest.mark.parametrize("where", ["users.json", "users.log"])
    def test_serve_with_a_malformed_user_record_is_a_clean_error(
        self, pipeline, tmp_path, capsys, monkeypatch, where
    ):
        _, _, rf, _ = pipeline
        store = tmp_path / "store"
        store.mkdir()
        record = {"username": "x", "credential_hash": "h", "mobile_device_id": "m", "role": "admin"}
        text = json.dumps({"version": 1, "users": [record]}) if where == "users.json" else json.dumps(record)
        (store / where).write_text(text + "\n")
        monkeypatch.setenv("PROXAUTH_DATA_DIR", str(store))
        code = main(["serve", "--model", str(rf), "--listen", "127.0.0.1:0"])
        assert code == 1
        named = f"{store / where}{':1' if where == 'users.log' else ': users.0'}"
        assert capsys.readouterr().err.startswith(f"error: {named}: UserRecord must be an object with keys")

    def test_train_wrongly_typed_params_is_a_clean_error(self, pipeline, tmp_path, capsys):
        _, csv, _, _ = pipeline
        params = tmp_path / "params.json"
        params.write_text(json.dumps({"forest": {"n_trees": "5"}}))
        code = main(["train", "--data", str(csv), "--model", "rf", "--params", str(params),
                     "--seed", "2", "--out", str(tmp_path / "m.model")])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {params}: bad ForestParams value")

    def test_serve_wrongly_typed_policy_is_a_clean_error(self, pipeline, tmp_path, capsys, monkeypatch):
        _, _, rf, _ = pipeline
        monkeypatch.setenv("PROXAUTH_DATA_DIR", str(tmp_path / "store"))
        policy = tmp_path / "policy.json"
        policy.write_text(json.dumps({"vote_threshold_tau": "high"}))
        code = main(["serve", "--model", str(rf), "--policy", str(policy), "--listen", "127.0.0.1:0"])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {policy}: bad PolicyConfig value")

    @pytest.mark.parametrize("command", ["evaluate --model", "simulate --config", "train --params", "serve --policy"])
    def test_a_file_nested_past_the_parsers_depth_is_one_error_line(self, pipeline, tmp_path, command):
        _, csv, rf, _ = pipeline
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000)
        argv = {
            "evaluate --model": ["evaluate", "--model", deep, "--data", csv],
            "simulate --config": ["simulate", "--rows", "10", "--seed", "1", "--config", deep, "--out", tmp_path / "s"],
            "train --params": ["train", "--data", csv, "--model", "dt", "--seed", "1", "--params", deep,
                               "--out", tmp_path / "m"],
            "serve --policy": ["serve", "--model", rf, "--policy", deep, "--listen", "127.0.0.1:0"],
        }[command]
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
               "PROXAUTH_DATA_DIR": str(tmp_path / "store")}
        result = subprocess.run([sys.executable, "-m", "proxauth.cli", *map(str, argv)],
                                env=env, capture_output=True, text=True, timeout=60)
        assert result.returncode == 1
        assert "Traceback" not in result.stderr
        assert [line for line in result.stderr.splitlines() if line.startswith("error:")] == [
            f"error: {deep}: nested past the JSON parser's depth"], result.stderr

    @pytest.mark.parametrize(
        "kind", ["--config", "--params", "--policy", "evaluate --model", "serve --model", "users.json", "users.log"]
    )
    def test_an_error_line_names_the_file_at_fault(self, pipeline, tmp_path, capsys, monkeypatch, kind):
        _, csv, rf, _ = pipeline
        store = tmp_path / "store"
        store.mkdir()
        monkeypatch.setenv("PROXAUTH_DATA_DIR", str(store))
        monkeypatch.setattr(AuthWireServer, "serve_forever", lambda self: None)  # if everything loaded
        bad = store / kind if kind.startswith("users.") else tmp_path / "bad.json"
        named = bad
        if kind == "users.log":  # a good record, then a bad line
            bad.write_text(json.dumps(vars(UserRecord("ann", "h", "m1", "l1", 1))) + "\n{\n")
            named = f"{bad}:2"
        else:
            bad.write_text("{")
        serve = ["serve", "--model", rf, "--listen", "127.0.0.1:0"]
        argv = {
            "--config": ["simulate", "--rows", "10", "--seed", "1", "--config", bad, "--out", tmp_path / "s.csv"],
            "--params": ["train", "--data", csv, "--model", "dt", "--seed", "1", "--params", bad,
                         "--out", tmp_path / "m.model"],
            "--policy": [*serve, "--policy", bad],
            "evaluate --model": ["evaluate", "--model", bad, "--data", csv],
            "serve --model": ["serve", "--model", bad, "--listen", "127.0.0.1:0"],
        }.get(kind, serve)
        assert main(list(map(str, argv))) == 1
        assert capsys.readouterr().err == (
            f"error: {named}: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)\n")

    @pytest.mark.parametrize("model, content, unread", [
        ("rf", {"tree": {"max_depth": 1}}, "tree"),
        ("rf", {"tree": {}, "forest": {"n_trees": 2}}, "tree"),
        ("dt", {"forest": {"n_trees": 1}}, "forest"),
    ])
    def test_a_params_section_the_model_does_not_read_is_an_error(self, pipeline, tmp_path, capsys, model, content,
                                                                   unread):
        _, csv, _, _ = pipeline
        params, out = tmp_path / "params.json", tmp_path / "m.model"
        params.write_text(json.dumps(content))
        assert main(["train", "--data", str(csv), "--model", model, "--params", str(params),
                     "--seed", "2", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {params}: --model {model} reads no {unread} section")
        assert err.count("\n") == 1
        assert not out.exists()

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

    def test_params_file_seed_overrides_the_seed_flag(self, pipeline, tmp_path):
        _, csv, _, _ = pipeline
        params = tmp_path / "params.json"
        params.write_text(json.dumps({"forest": {"n_trees": 2, "seed": 9}}))
        out = tmp_path / "small.model"
        assert main(["train", "--data", str(csv), "--model", "rf", "--params", str(params),
                     "--seed", "2", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert (doc["params"]["seed"], doc["train_seed"]) == (9, 2)

    @pytest.mark.parametrize("command", ["simulate", "attempt"])
    @pytest.mark.parametrize("content", [{"enviroment": {"n_aps": 4}}, [], {"environment": []}])
    def test_config_file_takes_only_its_sections(self, tmp_path, capsys, command, content):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(content))
        argv = ["--config", str(config), "--seed", "1"]
        if command == "simulate":
            argv = ["simulate", "--rows", "50", "--out", str(tmp_path / "s.csv"), *argv]
        else:
            argv = ["attempt", "--server", "127.0.0.1:9", "--username", "u", "--secret", "s" * 8,
                    "--scenario", "near", *argv]
        assert main(argv) == 1
        assert re.match(rf"error: {re.escape(str(config))}: (SimulationFile|EnvironmentConfig) must be an object with keys",
                        capsys.readouterr().err)
        assert not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize("command", ["simulate", "attempt"])
    @pytest.mark.parametrize("content, message", [
        ({"environment": {"frequency_set_hz": []}},
         "bad EnvironmentConfig value: frequency_set_hz must be non-empty"),
        ({"environment": {"frequency_set_hz": [2412000000, 2**53 + 1]}},
         "bad EnvironmentConfig value: frequencies must be <= 2**53 Hz"),
        ({"environment": {"ssid_pattern": "AP-{j}"}},
         "bad EnvironmentConfig value: ssid_pattern 'AP-{j}' must format with i alone: KeyError: 'j'"),
        ({"environment": {"ssid_pattern": "AP-{0}"}},
         "bad EnvironmentConfig value: ssid_pattern 'AP-{0}' must format with i alone: "
         "IndexError: Replacement index 0 out of range for positional args tuple"),
        ({"environment": {"ssid_pattern": ""}},
         "bad EnvironmentConfig value: ssid_pattern '' gives an empty SSID for AP 0"),
        ({"path_loss": {"clamp_dbm": [-100, 10], "p0_dbm": 30}},
         "bad PathLossConfig value: clamp_dbm must lie within [-2**53, 0] dBm, got [-100, 10]"),
        ({"path_loss": {"exponent_n": 1e308}},
         "bad PathLossConfig value: exponent_n must be positive and at most 2**53, got 1e+308"),
        ({"path_loss": {"noise_sigma_dbm": 1e308}},
         "bad PathLossConfig value: noise_sigma_dbm must be >= 0 and at most 2**53 dB, got 1e+308"),
        ({"path_loss": {"d0_m": 1e-320}}, "bad PathLossConfig value: d0_m must lie within [1e-3, 1e6] m, got 1e-320"),
        ({"campaign": {"shadow_sigma_dbm": 1e308}},
         "bad CampaignConfig value: shadow_sigma_dbm must be >= 0 and at most 2**53 dB, got 1e+308"),
        ({"campaign": {"anchor_jitter_m": 1e308}},
         "bad CampaignConfig value: anchor_jitter_m must be >= 0 and at most 1e6 m, got 1e+308"),
        ({"environment": {"area_m": 1e308, "detection_radius_m": 1e308}},
         "bad EnvironmentConfig value: area and detection radius must be positive and at most 1e6 m"),
        ({"path_loss": {"p0_dbm": 1e308}, "campaign": {"min_band_gap_dbm": 1e308}},
         "bad CampaignConfig value: min_band_gap_dbm must be >= 0 and at most 2**53 dB, got 1e+308"),
        ({"environment": {"n_aps": 65537}},
         "bad EnvironmentConfig value: n_aps must be >= 1 and at most 65536, one BSSID per 16-bit index, got 65537"),
        ({"environment": {"frequency_set_hz": [2412000000, "x"]}},
         "environment.frequency_set_hz.1: bad EnvironmentConfig value: frequency_set_hz must be int, got 'x'"),
    ], ids=["no-frequency", "frequency-past-2**53", "unknown-field", "positional-field", "empty-ssid",
            "clamp-above-0-dbm", "exponent-overflows", "noise-overflows", "d0-underflows", "shadow-overflows",
            "jitter-overflows", "area-overflows", "band-gap-overflows", "bssids-repeat", "frequency-item-not-int"])
    def test_a_config_that_would_fail_mid_run_is_one_error_line(self, tmp_path, capsys, command, content, message):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(content))
        argv = ["--config", str(config), "--seed", "1"]
        if command == "simulate":
            argv = ["simulate", "--rows", "50", "--out", str(tmp_path / "s.csv"), *argv]
        else:
            argv = ["attempt", "--server", "127.0.0.1:9", "--username", "u", "--secret", "s" * 8,
                    "--scenario", "near", *argv]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {config}: {message}\n"
        assert not (tmp_path / "s.csv").exists()

    def test_aps_may_share_one_ssid(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"environment": {"ssid_pattern": "corp"}}))
        out = tmp_path / "s.csv"
        assert main(["simulate", "--rows", "50", "--seed", "1", "--config", str(config), "--out", str(out)]) == 0
        assert {row.split(",")[1] for row in out.read_text().splitlines()[1:]} == {"corp"}

    @pytest.mark.parametrize("literal", ["Infinity", "-Infinity", "NaN"])
    def test_simulate_refuses_a_non_finite_config_number(self, tmp_path, capsys, literal):
        config = tmp_path / "config.json"
        config.write_text('{"environment": {"area_m": %s}}' % literal)
        out = tmp_path / "s.csv"
        assert main(["simulate", "--rows", "100", "--seed", "1", "--config", str(config), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {config}: bad EnvironmentConfig value: area_m must be float")
        assert not out.exists()

    @pytest.mark.parametrize("content", [{"forrest": {"n_trees": 2}}, [], {"tree": 3}])
    def test_params_file_takes_only_its_sections(self, pipeline, tmp_path, capsys, content):
        _, csv, _, _ = pipeline
        params = tmp_path / "params.json"
        params.write_text(json.dumps(content))
        assert main(["train", "--data", str(csv), "--model", "dt", "--params", str(params),
                     "--seed", "2", "--out", str(tmp_path / "m.model")]) == 1
        assert re.match(rf"error: {re.escape(str(params))}: (ParamsFile|TreeParams) must be an object with keys",
                        capsys.readouterr().err)
        assert not (tmp_path / "m.model").exists()

    def test_evaluate_rejects_a_bool_train_seed(self, pipeline, tmp_path, capsys):
        _, csv, rf, _ = pipeline
        doc = json.loads(rf.read_text())
        doc["train_seed"] = True
        edited = tmp_path / "edited.model"
        edited.write_text(json.dumps(doc))
        assert main(["evaluate", "--model", str(edited), "--data", str(csv)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "train_seed" in err

    @pytest.mark.parametrize(
        "content", [[], {"version": 2, "users": []}, {"users": []}, {"version": 1, "users": {}}]
    )
    def test_serve_with_a_malformed_store_envelope_is_a_clean_error(
        self, pipeline, tmp_path, capsys, monkeypatch, content
    ):
        _, _, rf, _ = pipeline
        store = tmp_path / "store"
        store.mkdir()
        (store / "users.json").write_text(json.dumps(content) + "\n")
        monkeypatch.setenv("PROXAUTH_DATA_DIR", str(store))
        monkeypatch.setattr(AuthWireServer, "serve_forever", lambda self: None)  # if the store loaded
        assert main(["serve", "--model", str(rf), "--listen", "127.0.0.1:0"]) == 1
        assert re.match(rf"error: {re.escape(str(store / 'users.json'))}: (bad )?StoreSnapshot", capsys.readouterr().err)


    @pytest.mark.parametrize("where", ["users.json", "users.log"])
    def test_serve_with_conflicting_user_records_is_a_clean_error(self, pipeline, tmp_path, capsys, monkeypatch,
                                                                  where):
        _, _, rf, _ = pipeline
        store = tmp_path / "store"
        store.mkdir()
        users = [("ann", "m1", "l1"), ("bob", "m1", "l2"), ("ann", "m3", "l3")]
        records = [vars(UserRecord(name, f"h-{i}", mobile, login, i)) for i, (name, mobile, login) in enumerate(users)]
        if where == "users.json":
            text, named = json.dumps({"version": 1, "users": records}) + "\n", store / where
        else:
            text, named = "".join(json.dumps(r) + "\n" for r in records), f"{store / where}:2"
        (store / where).write_text(text)
        monkeypatch.setenv("PROXAUTH_DATA_DIR", str(store))
        monkeypatch.setattr(AuthWireServer, "serve_forever", lambda self: None)  # if the store loaded
        assert main(["serve", "--model", str(rf), "--listen", "127.0.0.1:0"]) == 1
        assert capsys.readouterr().err == (
            f"error: auth_service.DuplicateDeviceId: {named}: device 'm1' is already enrolled\n")
        assert (store / where).read_text() == text

    def test_a_sigint_during_the_banner_stops_serve_and_closes_its_socket(self, pipeline, tmp_path, monkeypatch):
        _, _, rf, _ = pipeline
        servers = []

        class Recorded(AuthWireServer):
            def __init__(self, *args):
                super().__init__(*args)
                servers.append(self)

            def serve_forever(self, poll_interval=0.5):
                raise AssertionError("the loop started after the interrupt")

        class Interrupted:  # a stdout that SIGINT interrupts mid-write
            def write(self, text):
                raise KeyboardInterrupt

        monkeypatch.setenv("PROXAUTH_DATA_DIR", str(tmp_path / "store"))
        monkeypatch.setattr(cli, "AuthWireServer", Recorded)
        monkeypatch.setattr(sys, "stdout", Interrupted())
        try:
            code = main(["serve", "--model", str(rf), "--listen", "127.0.0.1:0"])
        except KeyboardInterrupt:
            pytest.fail("the interrupt escaped main")
        [server] = servers
        assert code == 0 and server.socket.fileno() == -1

    @pytest.mark.parametrize("value", [None, ""], ids=["unset", "empty"])
    def test_an_unset_or_empty_data_dir_is_the_default_store(self, pipeline, tmp_path, monkeypatch, value):
        _, _, rf, _ = pipeline
        monkeypatch.chdir(tmp_path)
        if value is None:
            monkeypatch.delenv("PROXAUTH_DATA_DIR", raising=False)
        else:
            monkeypatch.setenv("PROXAUTH_DATA_DIR", value)
        assert build_service(str(rf), None).store.root == Path("proxauth_data")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["proxauth_data"]


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

    def test_attempt_reports_the_servers_message(self, pipeline, tmp_path, capsys, monkeypatch):
        _, _, rf, _ = pipeline
        monkeypatch.setenv("PROXAUTH_DATA_DIR", str(tmp_path / "store"))
        service = build_service(str(rf), None)
        service.enroll_user("yan", "yans-secret", "yan-phone", "yan-laptop")
        with AuthWireServer(service, "127.0.0.1", 0) as server:
            host, port = server.address
            code = main([
                "attempt", "--server", f"{host}:{port}", "--username", "yan",
                "--secret", "yans-secret", "--scenario", "near", "--env-seed", "5",
            ])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: submit failed: ForeignDevice: device 'yan:mobile' is not enrolled to 'yan'\n"
        )

    def test_serve_banner_reaches_a_pipe_and_sigint_stops_it(self, pipeline, tmp_path, capsys):
        _, _, rf, _ = pipeline
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env["PROXAUTH_DATA_DIR"] = str(tmp_path / "store")
        proc = subprocess.Popen(
            [sys.executable, "-X", "dev", "-m", "proxauth.cli", "serve", "--model", str(rf),
             "--listen", "127.0.0.1:0"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            assert select.select([proc.stdout], [], [], 10)[0], "no banner within 10 s"
            banner = re.match(r"serving on (\S+):(\d+) \(store: ", proc.stdout.readline())
            assert banner, "unexpected banner"
            code = main([
                "attempt", "--server", f"{banner[1]}:{banner[2]}", "--username", "zoe",
                "--secret", "zoes-secret", "--scenario", "near", "--seed", "3", "--env-seed", "5",
                "--json",
            ])
            assert code == 0
            assert json.loads(capsys.readouterr().out)["outcome"] == "Grant"
            proc.send_signal(signal.SIGINT)
            try:
                returncode = proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.send_signal(signal.SIGABRT)  # -X dev's faulthandler writes every thread's stack
                pytest.fail(f"serve still ran 10 s after SIGINT; its stderr:\n{proc.communicate(timeout=10)[1]}")
            assert returncode == 0
            assert proc.stderr.read() == ""
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
            proc.stderr.close()
