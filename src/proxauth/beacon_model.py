"""Domain types for Wi-Fi beacon scans plus CSV ingestion and feature encoding.

The on-disk dataset format is a six-column CSV with the header

    RPI,SSID,Frequency (Hz),RSSI (dBm),Location,Label

Each row is one device's reading of one access point during one scan,
labeled ``authentic`` (devices were co-located) or ``unauthorized``.
Observations are turned into fixed-length numeric vectors

    [role_code, ssid_index, frequency_normalized, rssi_dbm]

for the classifiers in :mod:`proxauth.colocation_ml`.
"""

from __future__ import annotations

import csv
import io
import re
from dataclasses import dataclass
from enum import Enum
from typing import BinaryIO, Callable, Sequence

import numpy as np

from .errors import EmptyDataset, MalformedHeader, RowParseError

__all__ = [
    "BeaconObservation",
    "DeviceRole",
    "ScanSnapshot",
    "Label",
    "LabeledSample",
    "Provenance",
    "Dataset",
    "FeatureEncoder",
    "FEATURE_VECTOR_LENGTH",
    "CSV_COLUMNS",
    "parse_dataset_csv",
    "write_dataset_csv",
    "dataset_to_csv_bytes",
    "build_feature_encoder",
    "encode_observation",
    "encode_observations",
    "encode_dataset",
    "default_role_of_rpi",
]

FEATURE_VECTOR_LENGTH = 4

#: Canonical CSV column names, in order.
CSV_COLUMNS = ("RPI", "SSID", "Frequency (Hz)", "RSSI (dBm)", "Location", "Label")

_BSSID_RE = re.compile(r"^[0-9A-Fa-f]{2}(:[0-9A-Fa-f]{2}){5}$")


class DeviceRole(Enum):
    MOBILE = "mobile"
    LOGIN = "login"

    @property
    def code(self) -> int:
        """Numeric feature value: 0 for the mobile device, 1 for the login device."""
        return 0 if self is DeviceRole.MOBILE else 1


class Label(Enum):
    AUTHENTIC = "authentic"
    UNAUTHORIZED = "unauthorized"


class Provenance(Enum):
    REAL_CSV = "real_csv"
    SIMULATED = "simulated"


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
        if not self.ssid:
            raise ValueError("ssid must be non-empty")
        if self.frequency <= 0:
            raise ValueError(f"frequency must be positive, got {self.frequency}")
        if self.rssi > 0:
            raise ValueError(f"rssi must be <= 0 dBm, got {self.rssi}")
        if self.bssid is not None and not _BSSID_RE.match(self.bssid):
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
    provenance: Provenance

    def __post_init__(self):
        object.__setattr__(self, "samples", tuple(self.samples))

    def __len__(self) -> int:
        return len(self.samples)

    def label_counts(self) -> dict[Label, int]:
        counts = {Label.AUTHENTIC: 0, Label.UNAUTHORIZED: 0}
        for s in self.samples:
            counts[s.label] += 1
        return counts

    def is_balanced(self, min_ratio: float = 0.9) -> bool:
        """True when the smaller class holds at least ``min_ratio`` of the larger."""
        counts = self.label_counts()
        lo, hi = min(counts.values()), max(counts.values())
        return hi > 0 and lo / hi >= min_ratio


def default_role_of_rpi(value: str) -> DeviceRole | None:
    """Default mapping for the RPI column: "1" in the value means the mobile
    device, "2" the login device. Returns None when neither applies."""
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


def parse_dataset_csv(
    source: bytes | BinaryIO | io.TextIOBase | str,
    role_of_rpi: Callable[[str], DeviceRole | None] = default_role_of_rpi,
) -> Dataset:
    """Parse the six-column beacon dataset CSV into a :class:`Dataset`.

    ``source`` may be raw bytes, a binary or text file object, or a string of
    CSV text. The header must contain exactly the six canonical columns (any
    order; quotes and unit parentheticals are tolerated). Raises
    :class:`MalformedHeader`, :class:`RowParseError` (with 1-based physical
    row numbers, header = row 1), or :class:`EmptyDataset`.
    """
    if isinstance(source, bytes):
        raw = source
    elif isinstance(source, str):
        raw = source.encode("utf-8")
    elif isinstance(source, io.TextIOBase):
        raw = source.read().encode("utf-8")
    else:
        raw = source.read()
    try:
        text = raw.decode("utf-8")
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
        role = role_of_rpi(rpi)
        if role is None:
            raise RowParseError(row_number, "RPI", f"cannot map value {rpi!r} to a device role")

        ssid = row[col["ssid"]]
        if not ssid:
            raise RowParseError(row_number, "SSID", "empty SSID")

        try:
            frequency = int(row[col["frequency"]].strip())
        except ValueError:
            raise RowParseError(row_number, "Frequency (Hz)", f"not an integer: {row[col['frequency']]!r}") from None
        if frequency <= 0:
            raise RowParseError(row_number, "Frequency (Hz)", f"must be positive: {frequency}")

        try:
            rssi = int(row[col["rssi"]].strip())
        except ValueError:
            raise RowParseError(row_number, "RSSI (dBm)", f"not an integer: {row[col['rssi']]!r}") from None
        if rssi > 0:
            raise RowParseError(row_number, "RSSI (dBm)", f"must be <= 0 dBm: {rssi}")

        label_text = row[col["label"]].strip().lower()
        try:
            label = Label(label_text)
        except ValueError:
            raise RowParseError(row_number, "Label", f"unknown label {row[col['label']]!r}") from None

        obs = BeaconObservation(ssid=ssid, frequency=frequency, rssi=rssi)
        samples.append(LabeledSample(role=role, observation=obs, location_tag=row[col["location"]], label=label))

    if not samples:
        raise EmptyDataset("CSV contained a header but no data rows")
    return Dataset(samples=tuple(samples), provenance=Provenance.REAL_CSV)


def write_dataset_csv(dataset: Dataset, sink) -> None:
    """Write ``dataset`` in the exact CSV format read by :func:`parse_dataset_csv`.

    ``sink`` is a text file object. Round trip is lossless sample-for-sample.
    """
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


def dataset_to_csv_bytes(dataset: Dataset) -> bytes:
    buf = io.StringIO()
    write_dataset_csv(dataset, buf)
    return buf.getvalue().encode("utf-8")


@dataclass(frozen=True)
class FeatureEncoder:
    """Maps observations to fixed-length numeric vectors.

    ``ssid_vocabulary`` assigns dense indices 1..N in first-appearance order;
    index 0 is reserved for SSIDs unseen at fit time. ``frequency_scale`` is
    the (min, max) frequency observed in the training data; a collapsed scale
    (min == max) encodes every frequency as 0.5.
    """

    ssid_vocabulary: dict[str, int]
    frequency_scale: tuple[float, float]

    def __post_init__(self):
        indices = sorted(self.ssid_vocabulary.values())
        if indices != list(range(1, len(indices) + 1)):
            raise ValueError("ssid vocabulary indices must be dense 1..N")


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
    """Encode ``(role, observation)`` pairs as an ``(n, 4)`` float64 array of
    ``[role_code, ssid_index, freq_norm, rssi]`` rows.

    Total and deterministic: unknown SSIDs map to index 0 and frequencies
    outside the training range clamp into [0, 1].
    """
    vocab = encoder.ssid_vocabulary
    X = np.array(
        [(role.code, vocab.get(obs.ssid, 0), obs.frequency, obs.rssi) for role, obs in pairs],
        dtype=np.float64,
    ).reshape(-1, FEATURE_VECTOR_LENGTH)
    lo, hi = encoder.frequency_scale
    X[:, 2] = 0.5 if hi == lo else np.clip((X[:, 2] - lo) / (hi - lo), 0.0, 1.0)
    return X


def encode_observation(encoder: FeatureEncoder, role: DeviceRole, obs: BeaconObservation) -> np.ndarray:
    """Encode one observation: the one row of :func:`encode_observations`."""
    return encode_observations(encoder, [(role, obs)])[0]


def encode_dataset(encoder: FeatureEncoder, dataset: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """Encode every sample; returns (X, y) with y holding 1 for Authentic, 0 otherwise."""
    samples = dataset.samples
    X = encode_observations(encoder, [(s.role, s.observation) for s in samples])
    y = np.fromiter((s.label is Label.AUTHENTIC for s in samples), dtype=np.int8, count=len(samples))
    return X, y
