"""Domain types for Wi-Fi beacon scans plus CSV ingestion and feature encoding.

The on-disk dataset format is a six-column CSV with the header

    RPI,SSID,Frequency (Hz),RSSI (dBm),Location,Label

Each row is one device's reading of one access point during one scan,
labeled ``authentic`` (devices were co-located) or ``unauthorized``. The
CSV is read from bytes and written to bytes, with one rule for the RPI column.
An observation's value rules (a non-empty SSID, a frequency in (0, 2**53] Hz,
an RSSI in [-2**53, 0] dBm) are one table that :class:`BeaconObservation`
and the CSV reader both apply, so a scan and a CSV row obey the same rules.
Observations are turned into numeric rows of the encoder's ``width``

    [role_code, ssid_index, frequency_normalized, rssi_dbm]

(role code 0 for the mobile device, 1 for the login device) for the
classifiers in :mod:`proxauth.colocation_ml`.
"""

from __future__ import annotations

import csv
import io
import math
import re
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .errors import EmptyDataset, MalformedHeader, RowParseError

__all__ = [
    "BeaconObservation",
    "DeviceRole",
    "ScanSnapshot",
    "Label",
    "LabeledSample",
    "Dataset",
    "FeatureEncoder",
    "CSV_COLUMNS",
    "parse_dataset_csv",
    "dataset_to_csv_bytes",
    "build_feature_encoder",
    "encode_observations",
    "encode_dataset",
]

#: Canonical CSV column names, in order.
CSV_COLUMNS = ("RPI", "SSID", "Frequency (Hz)", "RSSI (dBm)", "Location", "Label")

_BSSID_RE = re.compile(r"[0-9A-Fa-f]{2}(:[0-9A-Fa-f]{2}){5}")
_FLOAT64_EXACT = 2**53  # float64 holds every integer up to this; frequency and |RSSI| stay within it

# An observation's value rules, each written once as (field, CSV column, test, rule text);
# BeaconObservation and parse_dataset_csv apply them in this order.
_OBSERVATION_RULES = (
    ("ssid", "SSID", bool, "must be non-empty"),
    ("frequency", "Frequency (Hz)", lambda hz: hz > 0, "must be positive"),
    ("frequency", "Frequency (Hz)", lambda hz: hz <= _FLOAT64_EXACT, "must be <= 2**53 Hz"),
    ("rssi", "RSSI (dBm)", lambda dbm: dbm <= 0, "must be <= 0 dBm"),
    ("rssi", "RSSI (dBm)", lambda dbm: dbm >= -_FLOAT64_EXACT, "must be >= -2**53 dBm"),
)


class DeviceRole(Enum):
    MOBILE = "mobile"
    LOGIN = "login"


class Label(Enum):
    AUTHENTIC = "authentic"
    UNAUTHORIZED = "unauthorized"


@dataclass(frozen=True)
class BeaconObservation:
    """One device's reading of one access point.

    ``bssid`` is optional because the CSV dataset format does not carry it;
    live scans may include it for AP matching.
    """

    ssid: str
    frequency: int
    rssi: int
    bssid: str | None = None

    def __post_init__(self):
        for field, _column, test, rule in _OBSERVATION_RULES:
            value = getattr(self, field)
            if not test(value):
                raise ValueError(f"{field} {rule}: {value!r}")
        if self.bssid is not None and not _BSSID_RE.fullmatch(self.bssid):
            raise ValueError(f"bssid must be six colon-separated hex octets, got {self.bssid!r}")


@dataclass(frozen=True)
class ScanSnapshot:
    """A single device's scan of its surroundings at one instant.

    The observation list may be empty (the device saw no APs); decision
    logic downstream must handle that case explicitly rather than assume
    at least one reading.
    """

    device_id: str
    role: DeviceRole
    timestamp: int  # milliseconds since epoch
    observations: tuple[BeaconObservation, ...]
    location_tag: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "observations", tuple(self.observations))
        seen: set[tuple[str, str | None]] = set()
        for obs in self.observations:
            key = (obs.ssid, obs.bssid)
            if key in seen:
                raise ValueError(f"duplicate observation for (ssid, bssid)={key}")
            seen.add(key)


@dataclass(frozen=True)
class LabeledSample:
    """One labeled CSV row: a role, one observation, its location tag, and the label."""

    role: DeviceRole
    observation: BeaconObservation
    location_tag: str
    label: Label


@dataclass(frozen=True)
class Dataset:
    samples: tuple[LabeledSample, ...]

    def __post_init__(self):
        object.__setattr__(self, "samples", tuple(self.samples))

    def __len__(self) -> int:
        return len(self.samples)

    def label_counts(self) -> dict[Label, int]:
        counts = {Label.AUTHENTIC: 0, Label.UNAUTHORIZED: 0}
        for s in self.samples:
            counts[s.label] += 1
        return counts

    def is_balanced(self) -> bool:
        """True when the smaller class holds at least 0.9 of the larger."""
        counts = self.label_counts()
        lo, hi = min(counts.values()), max(counts.values())
        return hi > 0 and lo / hi >= 0.9


def _role_of_rpi(value: str) -> DeviceRole | None:
    """The RPI column: "1" in the value means the mobile device, "2" the
    login device. Returns None when neither applies."""
    if "1" in value:
        return DeviceRole.MOBILE
    if "2" in value:
        return DeviceRole.LOGIN
    return None


_ROLE_TO_RPI = {DeviceRole.MOBILE: "RPI1", DeviceRole.LOGIN: "RPI2"}


def _normalize_header_cell(cell: str) -> str:
    # tolerate surrounding quotes and unit parentheticals: 'Frequency (Hz)' -> 'frequency'
    cell = cell.strip().strip('"').strip()
    cell = re.sub(r"\s*\([^)]*\)\s*$", "", cell)
    return cell.lower()


_CANONICAL = tuple(_normalize_header_cell(c) for c in CSV_COLUMNS)


def parse_dataset_csv(raw: bytes) -> Dataset:
    """Parse the six-column beacon dataset CSV, as UTF-8 bytes (a leading
    byte-order mark is accepted), into a :class:`Dataset`.

    The header must contain exactly the six canonical columns (any order;
    quotes and unit parentheticals are tolerated). Raises
    :class:`MalformedHeader`, :class:`RowParseError` (with 1-based physical
    row numbers, header = row 1), or :class:`EmptyDataset`.
    """
    try:
        text = raw.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise MalformedHeader(f"input is not UTF-8 text: {exc}") from None

    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader)
    except StopIteration:
        raise MalformedHeader("input is empty; expected a header row") from None

    normalized = [_normalize_header_cell(c) for c in header]
    if sorted(normalized) != sorted(_CANONICAL):
        raise MalformedHeader(
            f"expected columns {list(CSV_COLUMNS)}, got {header}"
        )
    col = {name: normalized.index(name) for name in _CANONICAL}

    samples: list[LabeledSample] = []
    for row_number, row in enumerate(reader, start=2):
        if len(row) != 6:
            raise RowParseError(row_number, "row", f"expected 6 fields, got {len(row)}")

        rpi = row[col["rpi"]].strip()
        role = _role_of_rpi(rpi)
        if role is None:
            raise RowParseError(row_number, "RPI", f"cannot map value {rpi!r} to a device role")

        # col is keyed by the normalized column names, which are the observation's field names
        values = {"ssid": row[col["ssid"]]}
        for field, column, test, rule in _OBSERVATION_RULES:
            if field not in values:  # an integer cell, read just before its first rule
                try:
                    values[field] = int(row[col[field]].strip())
                except ValueError:
                    raise RowParseError(row_number, column, f"not an integer: {row[col[field]]!r}") from None
            if not test(values[field]):
                raise RowParseError(row_number, column, f"{rule}: {values[field]!r}")

        label_text = row[col["label"]].strip().lower()
        try:
            label = Label(label_text)
        except ValueError:
            raise RowParseError(row_number, "Label", f"unknown label {row[col['label']]!r}") from None

        obs = BeaconObservation(**values)
        samples.append(LabeledSample(role=role, observation=obs, location_tag=row[col["location"]], label=label))

    if not samples:
        raise EmptyDataset("CSV contained a header but no data rows")
    return Dataset(samples=tuple(samples))


def dataset_to_csv_bytes(dataset: Dataset) -> bytes:
    """``dataset`` as the UTF-8 CSV that :func:`parse_dataset_csv` reads back
    to an equal dataset (the format carries no BSSID)."""
    sink = io.StringIO()
    writer = csv.writer(sink, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for s in dataset.samples:
        writer.writerow(
            [
                _ROLE_TO_RPI[s.role],
                s.observation.ssid,
                s.observation.frequency,
                s.observation.rssi,
                s.location_tag,
                s.label.value,
            ]
        )
    return sink.getvalue().encode("utf-8")


@dataclass(frozen=True)
class FeatureEncoder:
    """Maps observations to numeric rows of ``width`` columns.

    ``ssid_vocabulary`` assigns dense indices 1..N in first-appearance order;
    index 0 is reserved for SSIDs unseen at fit time. ``frequency_scale`` is
    the (min, max) frequency observed in the training data, both finite; a
    collapsed scale (min == max) encodes every frequency as 0.5.
    """

    ssid_vocabulary: dict[str, int]
    frequency_scale: tuple[float, float]

    def __post_init__(self):
        indices = sorted(self.ssid_vocabulary.values())
        if indices != list(range(1, len(indices) + 1)):
            raise ValueError("ssid vocabulary indices must be dense 1..N")
        low, high = self.frequency_scale
        if not -math.inf < low <= high < math.inf:
            raise ValueError(f"frequency_scale must be a finite (min, max), got {self.frequency_scale}")

    @property
    def width(self) -> int:
        """The columns of an encoded row: role, SSID index, frequency, RSSI."""
        return 4


def build_feature_encoder(dataset: Dataset) -> FeatureEncoder:
    """Fit a :class:`FeatureEncoder` on a dataset (normally the training split)."""
    if len(dataset) == 0:
        raise EmptyDataset("cannot build an encoder from an empty dataset")
    vocab: dict[str, int] = {}
    freq_min = freq_max = float(dataset.samples[0].observation.frequency)
    for s in dataset.samples:
        ssid = s.observation.ssid
        if ssid not in vocab:
            vocab[ssid] = len(vocab) + 1
        f = float(s.observation.frequency)
        freq_min = min(freq_min, f)
        freq_max = max(freq_max, f)
    return FeatureEncoder(ssid_vocabulary=vocab, frequency_scale=(freq_min, freq_max))


def encode_observations(
    encoder: FeatureEncoder, pairs: Sequence[tuple[DeviceRole, BeaconObservation]]
) -> np.ndarray:
    """Encode ``(role, observation)`` pairs as an ``(n, encoder.width)``
    float64 array of ``[role_code, ssid_index, freq_norm, rssi]`` rows, the
    role code 1 for the login device and 0 for the mobile one.

    Total and deterministic: unknown SSIDs map to index 0 and frequencies
    outside the training range clamp into [0, 1].
    """
    vocab = encoder.ssid_vocabulary
    X = np.array(
        [(role is DeviceRole.LOGIN, vocab.get(obs.ssid, 0), obs.frequency, obs.rssi) for role, obs in pairs],
        dtype=np.float64,
    ).reshape(-1, encoder.width)
    lo, hi = encoder.frequency_scale
    X[:, 2] = 0.5 if hi == lo else np.clip((X[:, 2] - lo) / (hi - lo), 0.0, 1.0)
    return X


def encode_dataset(encoder: FeatureEncoder, dataset: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """Encode every sample; returns (X, y) with y holding 1 for Authentic, 0 otherwise."""
    samples = dataset.samples
    X = encode_observations(encoder, [(s.role, s.observation) for s in samples])
    y = np.fromiter((s.label is Label.AUTHENTIC for s in samples), dtype=np.int8, count=len(samples))
    return X, y
