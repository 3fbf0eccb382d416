import re

import numpy as np
import pytest

from proxauth.beacon_model import (
    BeaconObservation,
    Dataset,
    DeviceRole,
    Label,
    LabeledSample,
    ScanSnapshot,
    build_feature_encoder,
    dataset_to_csv_bytes,
    FeatureEncoder,
    encode_dataset,
    encode_observations,
    parse_dataset_csv,
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

    @pytest.mark.parametrize(
        "field, value, rule",
        [
            ("ssid", "", "must be non-empty"),
            ("frequency", 0, "must be positive"),
            ("frequency", 2**53 + 1, "must be <= 2**53 Hz"),
            ("rssi", 1, "must be <= 0 dBm"),
            ("rssi", -2**53 - 1, "must be >= -2**53 dBm"),
        ],
        ids=["ssid-empty", "frequency-0", "frequency-above-2**53", "rssi-1", "rssi-below-2**53"],
    )
    def test_each_value_rule_names_the_field_the_rule_and_the_value(self, field, value, rule):
        fields = {"ssid": "Net", "frequency": 2437000000, "rssi": -58, field: value}
        with pytest.raises(ValueError, match=f"^{re.escape(f'{field} {rule}: {value!r}')}$"):
            BeaconObservation(**fields)

    def test_bad_bssid_rejected(self):
        for bssid in ("not-a-mac", "02:00:5e:00:00:00\n"):  # a regex's $ also matches before a final newline
            with pytest.raises(ValueError):
                BeaconObservation("Net", 2437000000, -58, bssid=bssid)


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

    def test_bad_rssi_names_row_and_column(self):
        text = HEADER + "\nRPI1,Net,2437000000,abc,Lab,authentic\n"
        with pytest.raises(RowParseError) as err:
            parse_dataset_csv(text.encode())
        assert err.value.row == 2
        assert err.value.column == "RSSI (dBm)"

    @pytest.mark.parametrize(
        "frequency, rssi, column, message",
        [
            (2**53 + 1, -58, "Frequency (Hz)", f"must be <= 2**53 Hz: {2**53 + 1}"),
            (2437000000, -2**53 - 1, "RSSI (dBm)", f"must be >= -2**53 dBm: {-2**53 - 1}"),
            (2437000000, -int("9" * 400), "RSSI (dBm)", "must be >= -2**53 dBm: -999"),
        ],
        ids=["frequency-above-2**53", "rssi-below-2**53", "rssi-400-digits"],
    )
    def test_value_float64_cannot_hold_names_column(self, frequency, rssi, column, message):
        text = HEADER + f"\nRPI1,Net,{frequency},{rssi},Lab,authentic\n"
        with pytest.raises(RowParseError) as err:
            parse_dataset_csv(text.encode())
        assert (err.value.row, err.value.column) == (2, column)
        assert f"({message}" in str(err.value)

    def test_range_ends(self):
        text = HEADER + f"\nRPI1,Net,{2**53},{-2**53},Lab,authentic\n"
        assert parse_dataset_csv(text.encode()).samples[0].observation == BeaconObservation("Net", 2**53, -2**53)
        for frequency, rssi, message in [(0, -58, "must be positive: 0"), (2437000000, 1, "must be <= 0 dBm: 1")]:
            text = HEADER + f"\nRPI1,Net,{frequency},{rssi},Lab,authentic\n"
            with pytest.raises(RowParseError, match=re.escape(f"({message})")):
                parse_dataset_csv(text.encode())

    def test_bad_frequency(self):
        text = HEADER + "\nRPI1,Net,fast,-58,Lab,authentic\n"
        with pytest.raises(RowParseError) as err:
            parse_dataset_csv(text.encode())
        assert err.value.column == "Frequency (Hz)"

    def test_empty_ssid(self):
        text = HEADER + "\nRPI1,,2437000000,-58,Lab,authentic\n"
        with pytest.raises(RowParseError) as err:
            parse_dataset_csv(text.encode())
        assert (err.value.row, err.value.column) == (2, "SSID")
        assert str(err.value).endswith("(must be non-empty: '')")

    @pytest.mark.parametrize(
        "ssid, frequency, rssi, column",
        [("", "fast", "-58", "SSID"), ("Net", "0", "x", "Frequency (Hz)")],
        ids=["empty-ssid-and-non-integer-frequency", "frequency-0-and-non-integer-rssi"],
    )
    def test_a_row_breaking_two_rules_reports_the_first(self, ssid, frequency, rssi, column):
        text = HEADER + f"\nRPI1,{ssid},{frequency},{rssi},Lab,authentic\n"
        with pytest.raises(RowParseError) as err:
            parse_dataset_csv(text.encode())
        assert (err.value.row, err.value.column) == (2, column)

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

    def test_non_utf8_input(self):
        with pytest.raises(MalformedHeader, match="not UTF-8"):
            parse_dataset_csv((HEADER + "\nRPI1,Caf\xe9,2437000000,-58,Lab,authentic\n").encode("latin-1"))

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

    def test_default_rpi_rule(self):
        text = HEADER + "\nRPI1,Net,2437000000,-58,Lab,authentic\nrpi-2,Net,2412000000,-61,Lab,unauthorized\n"
        ds = parse_dataset_csv(text.encode())
        assert [s.role for s in ds.samples] == [DeviceRole.MOBILE, DeviceRole.LOGIN]
        with pytest.raises(RowParseError) as err:
            parse_dataset_csv((HEADER + "\npi,Net,2437000000,-58,Lab,authentic\n").encode())
        assert (err.value.row, err.value.column) == (2, "RPI")


class TestCsvRoundTrip:
    def test_round_trip_identity(self):
        samples = (
            sample("Plain", 2412000000, -55),
            sample("With,Comma", 5180000000, -72, DeviceRole.LOGIN, "Desk 2", Label.UNAUTHORIZED),
            sample('Quo"ted', 2462000000, -81, DeviceRole.LOGIN, "", Label.AUTHENTIC),
        )
        ds = Dataset(samples)
        again = parse_dataset_csv(dataset_to_csv_bytes(ds))
        assert again == ds
        # a spreadsheet's "CSV UTF-8" export starts with a byte-order mark
        assert parse_dataset_csv(b"\xef\xbb\xbf" + dataset_to_csv_bytes(ds)) == ds

    def test_writer_emits_canonical_header(self):
        assert dataset_to_csv_bytes(Dataset((sample(),))).decode().splitlines()[0] == HEADER


class TestDataset:
    def test_label_counts_and_balance(self):
        samples = tuple(sample(label=Label.AUTHENTIC) for _ in range(2442)) + tuple(
            sample(label=Label.UNAUTHORIZED) for _ in range(2383)
        )
        ds = Dataset(samples)
        counts = ds.label_counts()
        assert counts[Label.AUTHENTIC] == 2442
        assert counts[Label.UNAUTHORIZED] == 2383
        assert ds.is_balanced()

    def test_unbalanced(self):
        samples = tuple(sample(label=Label.AUTHENTIC) for _ in range(100)) + tuple(
            sample(label=Label.UNAUTHORIZED) for _ in range(50)
        )
        assert not Dataset(samples).is_balanced()


def reference_row(encoder, role, obs):
    """The per-row encoder that encode_observations replaced, kept as the reference."""
    lo, hi = encoder.frequency_scale
    freq_norm = 0.5 if hi == lo else min(max((obs.frequency - lo) / (hi - lo), 0.0), 1.0)
    return np.array(
        [{DeviceRole.MOBILE: 0, DeviceRole.LOGIN: 1}[role], encoder.ssid_vocabulary.get(obs.ssid, 0), freq_norm, obs.rssi], dtype=np.float64
    )


class TestFeatureEncoder:
    def test_vocabulary_first_appearance_order(self):
        ds = Dataset(tuple(sample(ssid=s) for s in ["A", "B", "A", "C"]))
        enc = build_feature_encoder(ds)
        assert enc.ssid_vocabulary == {"A": 1, "B": 2, "C": 3}

    def test_collapsed_frequency_scale_encodes_half(self):
        ds = Dataset(tuple(sample() for _ in range(4)))
        enc = build_feature_encoder(ds)
        vec = encode_observations(enc, [(DeviceRole.MOBILE, ds.samples[0].observation)])[0]
        assert vec[2] == 0.5

    @pytest.mark.parametrize(
        "scale", [(float("nan"), float("nan")), (0.0, float("nan")), (0.0, float("inf")),
                  (float("-inf"), 1.0), (5.0, 1.0), (2437000001, 2437000000)]
    )
    def test_frequency_scale_must_be_finite_and_ordered(self, scale):
        with pytest.raises(ValueError, match="frequency_scale must be a finite"):
            FeatureEncoder({"A": 1}, scale)

    def test_collapsed_frequency_scale_is_legal(self):
        assert FeatureEncoder({"A": 1}, (5.0, 5.0)).frequency_scale == (5.0, 5.0)

    def test_empty_dataset_rejected(self):
        with pytest.raises(EmptyDataset):
            build_feature_encoder(Dataset(()))

    def test_ten_ssids_vocab_size_ten(self):
        ds = Dataset(tuple(sample(ssid=f"AP-{i:02d}") for i in range(10)))
        assert len(build_feature_encoder(ds).ssid_vocabulary) == 10

    def test_known_ssid_min_frequency(self):
        ds = Dataset(
            (sample("A", 2412000000, -50), sample("B", 5240000000, -60))
        )
        enc = build_feature_encoder(ds)
        vec = encode_observations(enc, [(DeviceRole.MOBILE, BeaconObservation("A", 2412000000, -50))])[0]
        assert vec.tolist() == [0.0, 1.0, 0.0, -50.0]

    def test_unseen_ssid_maps_to_zero(self):
        ds = Dataset((sample("A"),))
        enc = build_feature_encoder(ds)
        vec = encode_observations(enc, [(DeviceRole.MOBILE, BeaconObservation("Zzz", 2437000000, -50))])[0]
        assert vec[1] == 0.0

    def test_login_role_max_frequency(self):
        ds = Dataset(
            (sample("A", 2412000000, -50), sample("B", 5240000000, -60))
        )
        enc = build_feature_encoder(ds)
        vec = encode_observations(enc, [(DeviceRole.LOGIN, BeaconObservation("B", 5240000000, -61))])[0]
        assert vec.tolist() == [1.0, 2.0, 1.0, -61.0]

    def test_out_of_range_frequency_clamps(self):
        ds = Dataset(
            (sample("A", 2412000000, -50), sample("B", 2462000000, -60))
        )
        enc = build_feature_encoder(ds)
        low, high = encode_observations(
            enc, [(DeviceRole.MOBILE, BeaconObservation("A", f, -50)) for f in (1, 9999999999)]
        )
        assert low[2] == 0.0 and high[2] == 1.0

    def test_encoding_total_and_deterministic(self):
        rng = np.random.default_rng(5)
        ds = Dataset(
            tuple(sample(ssid=f"S{i}", freq=int(f), rssi=int(r))
                  for i, (f, r) in enumerate(zip(rng.integers(1, 6_000_000_000, 50),
                                                 rng.integers(-100, 1, 50))))
        )
        enc = build_feature_encoder(ds)
        pairs = [(s.role, s.observation) for s in ds.samples]
        X1 = encode_observations(enc, pairs)
        X2 = encode_observations(enc, pairs)
        assert X1.shape == (50, 4)
        assert np.all(np.isfinite(X1))
        assert np.array_equal(X1, X2)

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
        assert np.concatenate([encode_observations(enc, [pair]) for pair in pairs]).tobytes() == reference.tobytes()
        X_ds, y = encode_dataset(enc, Dataset(samples))
        assert X_ds.tobytes() == reference.tobytes()
        assert y.dtype == np.int8 and y.tolist() == [int(s.label is Label.AUTHENTIC) for s in samples]
        assert (X[:, 1] == 0).any()  # unknown SSIDs were drawn
        if scale[0] != scale[1]:
            assert (X[:, 2] == 0.0).any() and (X[:, 2] == 1.0).any()  # both clamps were hit
        assert encode_observations(enc, []).shape == (0, 4)
