import io

import numpy as np
import pytest

from proxauth.beacon_model import (
    BeaconObservation,
    Dataset,
    DeviceRole,
    Label,
    LabeledSample,
    Provenance,
    ScanSnapshot,
    build_feature_encoder,
    dataset_to_csv_bytes,
    FeatureEncoder,
    default_role_of_rpi,
    encode_dataset,
    encode_observation,
    encode_observations,
    parse_dataset_csv,
    write_dataset_csv,
)
from proxauth.errors import EmptyDataset, MalformedHeader, RowParseError

HEADER = "RPI,SSID,Frequency (Hz),RSSI (dBm),Location,Label"


def sample(ssid="Net", freq=2437000000, rssi=-60, role=DeviceRole.MOBILE,
           loc="Lab", label=Label.AUTHENTIC):
    return LabeledSample(
        role=role,
        observation=BeaconObservation(ssid=ssid, frequency=freq, rssi=rssi),
        location_tag=loc,
        label=label,
    )


class TestObservationInvariants:
    def test_valid(self):
        obs = BeaconObservation("HomeNet", 2437000000, -58, "aa:bb:cc:dd:ee:ff")
        assert obs.rssi == -58

    def test_empty_ssid_rejected(self):
        with pytest.raises(ValueError):
            BeaconObservation("", 2437000000, -58)

    def test_nonpositive_frequency_rejected(self):
        with pytest.raises(ValueError):
            BeaconObservation("Net", 0, -58)

    def test_positive_rssi_rejected(self):
        with pytest.raises(ValueError):
            BeaconObservation("Net", 2437000000, 3)

    def test_zero_rssi_allowed(self):
        assert BeaconObservation("Net", 2437000000, 0).rssi == 0

    def test_bad_bssid_rejected(self):
        with pytest.raises(ValueError):
            BeaconObservation("Net", 2437000000, -58, bssid="not-a-mac")


class TestScanSnapshot:
    def test_duplicate_ssid_bssid_rejected(self):
        obs = BeaconObservation("Net", 2437000000, -58)
        dup = BeaconObservation("Net", 2412000000, -61)
        with pytest.raises(ValueError):
            ScanSnapshot("dev", DeviceRole.MOBILE, 0, (obs, dup))

    def test_empty_observation_list_allowed(self):
        snap = ScanSnapshot("dev", DeviceRole.MOBILE, 0, ())
        assert snap.observations == ()

    def test_same_ssid_different_bssid_allowed(self):
        a = BeaconObservation("Net", 2437000000, -58, "aa:bb:cc:dd:ee:01")
        b = BeaconObservation("Net", 2437000000, -61, "aa:bb:cc:dd:ee:02")
        snap = ScanSnapshot("dev", DeviceRole.MOBILE, 0, (a, b))
        assert len(snap.observations) == 2


class TestParseCsv:
    def test_single_row_echoes_fields(self):
        text = HEADER + "\nRPI1,HomeNet,2437000000,-58,Lab,authentic\n"
        ds = parse_dataset_csv(text.encode())
        assert len(ds) == 1
        s = ds.samples[0]
        assert s.role is DeviceRole.MOBILE
        assert s.observation.ssid == "HomeNet"
        assert s.observation.frequency == 2437000000
        assert s.observation.rssi == -58
        assert s.location_tag == "Lab"
        assert s.label is Label.AUTHENTIC
        assert ds.provenance is Provenance.REAL_CSV

    def test_bad_rssi_names_row_and_column(self):
        text = HEADER + "\nRPI1,Net,2437000000,abc,Lab,authentic\n"
        with pytest.raises(RowParseError) as err:
            parse_dataset_csv(text.encode())
        assert err.value.row == 2
        assert err.value.column == "RSSI (dBm)"

    def test_bad_frequency(self):
        text = HEADER + "\nRPI1,Net,fast,-58,Lab,authentic\n"
        with pytest.raises(RowParseError) as err:
            parse_dataset_csv(text.encode())
        assert err.value.column == "Frequency (Hz)"

    def test_unknown_label(self):
        text = HEADER + "\nRPI1,Net,2437000000,-58,Lab,maybe\n"
        with pytest.raises(RowParseError) as err:
            parse_dataset_csv(text.encode())
        assert err.value.column == "Label"

    def test_unmappable_rpi(self):
        text = HEADER + "\nRPIX,Net,2437000000,-58,Lab,authentic\n"
        with pytest.raises(RowParseError) as err:
            parse_dataset_csv(text.encode())
        assert err.value.column == "RPI"

    def test_header_mismatch(self):
        with pytest.raises(MalformedHeader):
            parse_dataset_csv(b"a,b,c\n1,2,3\n")

    def test_empty_input(self):
        with pytest.raises(MalformedHeader):
            parse_dataset_csv(b"")

    def test_header_only_is_empty_dataset(self):
        with pytest.raises(EmptyDataset):
            parse_dataset_csv((HEADER + "\n").encode())

    def test_header_tolerates_quotes_units_and_order(self):
        header = '"Label","RPI","SSID","Frequency","RSSI","Location"'
        text = header + "\nauthentic,RPI2,Net,2412000000,-70,Desk\n"
        ds = parse_dataset_csv(text.encode())
        assert ds.samples[0].role is DeviceRole.LOGIN
        assert ds.samples[0].observation.frequency == 2412000000

    def test_crlf_line_endings(self):
        text = HEADER + "\r\nRPI1,Net,2437000000,-58,Lab,authentic\r\n"
        ds = parse_dataset_csv(text.encode())
        assert len(ds) == 1

    def test_label_case_insensitive(self):
        text = HEADER + "\nRPI1,Net,2437000000,-58,Lab,AUTHENTIC\nRPI2,Net,2437000000,-61,Lab,Unauthorized\n"
        ds = parse_dataset_csv(text.encode())
        assert ds.samples[0].label is Label.AUTHENTIC
        assert ds.samples[1].label is Label.UNAUTHORIZED

    def test_row_count_matches_line_count(self):
        rows = [f"RPI{1 + i % 2},Net-{i % 4},2437000000,{-50 - i},Lab,authentic" for i in range(25)]
        text = HEADER + "\n" + "\n".join(rows) + "\n"
        ds = parse_dataset_csv(text.encode())
        assert len(ds) == len(text.splitlines()) - 1

    def test_blank_line_is_an_error(self):
        text = HEADER + "\nRPI1,Net,2437000000,-58,Lab,authentic\n\nRPI2,Net,2437000000,-60,Lab,authentic\n"
        with pytest.raises(RowParseError) as err:
            parse_dataset_csv(text.encode())
        assert err.value.row == 3

    def test_custom_role_rule(self):
        def rule(value):
            return {"phone": DeviceRole.MOBILE, "desk": DeviceRole.LOGIN}.get(value)

        text = HEADER + "\nphone,Net,2437000000,-58,Lab,authentic\ndesk,Net,2412000000,-61,Lab,unauthorized\n"
        ds = parse_dataset_csv(text.encode(), role_of_rpi=rule)
        assert ds.samples[0].role is DeviceRole.MOBILE
        assert ds.samples[1].role is DeviceRole.LOGIN

    def test_default_rpi_rule(self):
        assert default_role_of_rpi("RPI1") is DeviceRole.MOBILE
        assert default_role_of_rpi("rpi-2") is DeviceRole.LOGIN
        assert default_role_of_rpi("pi") is None

    def test_accepts_file_object(self):
        text = HEADER + "\nRPI1,Net,2437000000,-58,Lab,authentic\n"
        ds = parse_dataset_csv(io.BytesIO(text.encode()))
        assert len(ds) == 1


class TestCsvRoundTrip:
    def test_round_trip_identity(self):
        samples = (
            sample("Plain", 2412000000, -55),
            sample("With,Comma", 5180000000, -72, DeviceRole.LOGIN, "Desk 2", Label.UNAUTHORIZED),
            sample('Quo"ted', 2462000000, -81, DeviceRole.LOGIN, "", Label.AUTHENTIC),
        )
        ds = Dataset(samples, Provenance.SIMULATED)
        again = parse_dataset_csv(dataset_to_csv_bytes(ds))
        assert again.samples == ds.samples

    def test_writer_emits_canonical_header(self):
        buf = io.StringIO()
        write_dataset_csv(Dataset((sample(),), Provenance.SIMULATED), buf)
        assert buf.getvalue().splitlines()[0] == HEADER


class TestDataset:
    def test_label_counts_and_balance(self):
        samples = tuple(sample(label=Label.AUTHENTIC) for _ in range(2442)) + tuple(
            sample(label=Label.UNAUTHORIZED) for _ in range(2383)
        )
        ds = Dataset(samples, Provenance.REAL_CSV)
        counts = ds.label_counts()
        assert counts[Label.AUTHENTIC] == 2442
        assert counts[Label.UNAUTHORIZED] == 2383
        assert ds.is_balanced()

    def test_unbalanced(self):
        samples = tuple(sample(label=Label.AUTHENTIC) for _ in range(100)) + tuple(
            sample(label=Label.UNAUTHORIZED) for _ in range(50)
        )
        assert not Dataset(samples, Provenance.REAL_CSV).is_balanced()


def reference_row(encoder, role, obs):
    """The per-row encoder that encode_observations replaced, kept as the reference."""
    lo, hi = encoder.frequency_scale
    freq_norm = 0.5 if hi == lo else min(max((obs.frequency - lo) / (hi - lo), 0.0), 1.0)
    return np.array(
        [role.code, encoder.ssid_vocabulary.get(obs.ssid, 0), freq_norm, obs.rssi], dtype=np.float64
    )


class TestFeatureEncoder:
    def test_vocabulary_first_appearance_order(self):
        ds = Dataset(
            tuple(sample(ssid=s) for s in ["A", "B", "A", "C"]), Provenance.SIMULATED
        )
        enc = build_feature_encoder(ds)
        assert enc.ssid_vocabulary == {"A": 1, "B": 2, "C": 3}

    def test_collapsed_frequency_scale_encodes_half(self):
        ds = Dataset(tuple(sample() for _ in range(4)), Provenance.SIMULATED)
        enc = build_feature_encoder(ds)
        vec = encode_observation(enc, DeviceRole.MOBILE, ds.samples[0].observation)
        assert vec[2] == 0.5

    def test_empty_dataset_rejected(self):
        with pytest.raises(EmptyDataset):
            build_feature_encoder(Dataset((), Provenance.SIMULATED))

    def test_ten_ssids_vocab_size_ten(self):
        ds = Dataset(
            tuple(sample(ssid=f"AP-{i:02d}") for i in range(10)), Provenance.SIMULATED
        )
        assert len(build_feature_encoder(ds).ssid_vocabulary) == 10

    def test_known_ssid_min_frequency(self):
        ds = Dataset(
            (sample("A", 2412000000, -50), sample("B", 5240000000, -60)),
            Provenance.SIMULATED,
        )
        enc = build_feature_encoder(ds)
        vec = encode_observation(
            enc, DeviceRole.MOBILE, BeaconObservation("A", 2412000000, -50)
        )
        assert vec.tolist() == [0.0, 1.0, 0.0, -50.0]

    def test_unseen_ssid_maps_to_zero(self):
        ds = Dataset((sample("A"),), Provenance.SIMULATED)
        enc = build_feature_encoder(ds)
        vec = encode_observation(
            enc, DeviceRole.MOBILE, BeaconObservation("Zzz", 2437000000, -50)
        )
        assert vec[1] == 0.0

    def test_login_role_max_frequency(self):
        ds = Dataset(
            (sample("A", 2412000000, -50), sample("B", 5240000000, -60)),
            Provenance.SIMULATED,
        )
        enc = build_feature_encoder(ds)
        vec = encode_observation(
            enc, DeviceRole.LOGIN, BeaconObservation("B", 5240000000, -61)
        )
        assert vec.tolist() == [1.0, 2.0, 1.0, -61.0]

    def test_out_of_range_frequency_clamps(self):
        ds = Dataset(
            (sample("A", 2412000000, -50), sample("B", 2462000000, -60)),
            Provenance.SIMULATED,
        )
        enc = build_feature_encoder(ds)
        low = encode_observation(enc, DeviceRole.MOBILE, BeaconObservation("A", 1, -50))
        high = encode_observation(enc, DeviceRole.MOBILE, BeaconObservation("A", 9999999999, -50))
        assert low[2] == 0.0 and high[2] == 1.0

    def test_encoding_total_and_deterministic(self):
        rng = np.random.default_rng(5)
        ds = Dataset(
            tuple(sample(ssid=f"S{i}", freq=int(f), rssi=int(r))
                  for i, (f, r) in enumerate(zip(rng.integers(1, 6_000_000_000, 50),
                                                 rng.integers(-100, 1, 50)))),
            Provenance.SIMULATED,
        )
        enc = build_feature_encoder(ds)
        for s in ds.samples:
            v1 = encode_observation(enc, s.role, s.observation)
            v2 = encode_observation(enc, s.role, s.observation)
            assert v1.shape == (4,)
            assert np.all(np.isfinite(v1))
            assert np.array_equal(v1, v2)

    @pytest.mark.parametrize("scale", [(2412000000.0, 5240000000.0), (2437000000.0, 2437000000.0)])
    def test_batch_matches_per_row_reference(self, scale):
        rng = np.random.default_rng(11)
        enc = FeatureEncoder({"A": 1, "B": 2, "C": 3}, scale)
        samples = tuple(
            sample(
                ssid=str(rng.choice(["A", "B", "C", "Unseen"])),
                freq=int(rng.integers(1, 9_999_999_999)),
                rssi=int(rng.integers(-100, 1)),
                role=(DeviceRole.MOBILE, DeviceRole.LOGIN)[int(rng.integers(2))],
                label=(Label.AUTHENTIC, Label.UNAUTHORIZED)[int(rng.integers(2))],
            )
            for _ in range(500)
        )
        pairs = [(s.role, s.observation) for s in samples]
        reference = np.stack([reference_row(enc, role, o) for role, o in pairs])

        X = encode_observations(enc, pairs)
        assert X.dtype == np.float64 and X.shape == (500, 4)
        assert X.tobytes() == reference.tobytes()
        assert np.stack([encode_observation(enc, role, o) for role, o in pairs]).tobytes() == reference.tobytes()
        X_ds, y = encode_dataset(enc, Dataset(samples, Provenance.SIMULATED))
        assert X_ds.tobytes() == reference.tobytes()
        assert y.dtype == np.int8 and y.tolist() == [int(s.label is Label.AUTHENTIC) for s in samples]
        assert (X[:, 1] == 0).any()  # unknown SSIDs were drawn
        if scale[0] != scale[1]:
            assert (X[:, 2] == 0.0).any() and (X[:, 2] == 1.0).any()  # both clamps were hit
        assert encode_observations(enc, []).shape == (0, 4)
