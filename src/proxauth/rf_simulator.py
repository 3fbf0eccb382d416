"""Synthetic regeneration of the beacon-scan data collection protocol.

Access points live in a square area; received power follows a log-distance
path-loss model with Gaussian shadowing, rounded to integer dBm and clamped
to a realistic receiver range. A device pair is either *authentic* (placed
within 7 ft of each other) or *unauthorized* (at least 7.5 ft apart); the
band between 7 and 7.5 ft is deliberately never generated.

Dataset generation mirrors the field protocol the data follows: each
synthetic location has a home spot where the legitimate device pair works,
and a separate intruder zone where unauthorized pairs operate. Sessions
jitter around those spots while the pair separation varies per scenario,
and every (zone, device, AP) combination carries a persistent shadowing
offset standing in for walls and multipath. Every per-zone fact is indexed by
zone: zone 0 is the home spot of authentic pairs, zone 1 the intruder zone.
This spot-based structure is what makes single observations (SSID + RSSI)
informative about the label; device pairs dropped uniformly at random would
produce statistically indistinguishable classes, so every session is drawn at
a location's geometry: there is no uniform placement mode.

The physics is array code with one path-loss formula: a session's readings
are one expression over its (device, AP) distances, a location's band gaps one
over its (zone, role, AP) bands. Everything is a pure function of (configs, seed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterator, Sequence

import numpy as np

from .beacon_model import (
    _FLOAT64_EXACT,
    BeaconObservation,
    Dataset,
    DeviceRole,
    Label,
    LabeledSample,
    ScanSnapshot,
)
from .colocation_ml import derived_rng
from .errors import ConfigurationError, NonPositiveDistance, NoVisibleAp
from .jsondoc import encode

__all__ = [
    "PathLossConfig",
    "EnvironmentConfig",
    "CampaignConfig",
    "Scenario",
    "AccessPoint",
    "LocationGeometry",
    "AUTHENTIC_MAX_SEPARATION_M",
    "UNAUTHORIZED_MIN_SEPARATION_M",
    "rssi_at_distance",
    "place_access_points",
    "location_geometry",
    "generate_session",
    "generate_dataset",
    "sessions_for_target_rows",
    "scenario_session",
    "simulation_metadata",
]

# 7 ft and 7.5 ft in meters: the co-location threshold and the start of the
# excluded gray band.
AUTHENTIC_MAX_SEPARATION_M = 2.1336
UNAUTHORIZED_MIN_SEPARATION_M = 2.286
AUTHENTIC_MIN_SEPARATION_M = 0.1
UNAUTHORIZED_MAX_SEPARATION_M = 10.0

_GEOMETRY_STREAM = 101
_SESSION_STREAM = 202
_PROBE_STREAM = 303
_ATTEMPT_STREAM = 404
_PROBE_SESSIONS_PER_CLASS = 30
# Config bounds that keep every float the simulator forms finite: lengths up
# to 1,000 km, and the path-loss exponent and every dB spread or gap up to
# 2**53, as the clamp's range is. A distance is never below 1 mm, nor d0_m.
_MIN_DISTANCE_M = 1e-3
_MAX_LENGTH_M = 1e6
# a BSSID holds 16 bits of its AP's index, so more APs would repeat BSSIDs
_MAX_APS = 65_536


@dataclass(frozen=True)
class PathLossConfig:
    """Log-distance path loss: p0 at d0, decaying 10*n*log10(d/d0) dB, plus
    zero-mean Gaussian noise, rounded to integer dBm and clamped."""

    p0_dbm: float = -40.0
    d0_m: float = 1.0
    exponent_n: float = 2.5
    noise_sigma_dbm: float = 2.0
    clamp_dbm: tuple[int, int] = (-100, -20)

    def __post_init__(self):
        if not _MIN_DISTANCE_M <= self.d0_m <= _MAX_LENGTH_M:
            raise ValueError(f"d0_m must lie within [1e-3, 1e6] m, got {self.d0_m!r}")
        if not 0 < self.exponent_n <= _FLOAT64_EXACT:
            raise ValueError(f"exponent_n must be positive and at most 2**53, got {self.exponent_n!r}")
        if not 0 <= self.noise_sigma_dbm <= _FLOAT64_EXACT:
            raise ValueError(f"noise_sigma_dbm must be >= 0 and at most 2**53 dB, got {self.noise_sigma_dbm!r}")
        if self.clamp_dbm[0] >= self.clamp_dbm[1]:
            raise ValueError("clamp min must be below clamp max")
        if self.clamp_dbm[0] < -_FLOAT64_EXACT or self.clamp_dbm[1] > 0:  # the range an RSSI may take
            raise ValueError(f"clamp_dbm must lie within [-2**53, 0] dBm, got {list(self.clamp_dbm)}")


@dataclass(frozen=True)
class EnvironmentConfig:
    n_aps: int = 10
    area_m: float = 30.0
    ssid_pattern: str = "AP-{i:02d}"
    frequency_set_hz: tuple[int, ...] = (
        2412000000,
        2437000000,
        2462000000,
        5180000000,
        5240000000,
    )
    detection_radius_m: float = 25.0

    def __post_init__(self):
        if not 1 <= self.n_aps <= _MAX_APS:
            raise ValueError(
                f"n_aps must be >= 1 and at most {_MAX_APS}, one BSSID per 16-bit index, got {self.n_aps!r}"
            )
        if not self.frequency_set_hz:
            raise ValueError("frequency_set_hz must be non-empty")
        if any(f <= 0 for f in self.frequency_set_hz):
            raise ValueError("frequencies must be positive")
        if any(f > _FLOAT64_EXACT for f in self.frequency_set_hz):
            raise ValueError("frequencies must be <= 2**53 Hz")
        if not (0 < self.area_m <= _MAX_LENGTH_M and 0 < self.detection_radius_m <= _MAX_LENGTH_M):
            raise ValueError("area and detection radius must be positive and at most 1e6 m")
        for i in range(self.n_aps):  # repeated SSIDs stay legal: many APs may share one network's name
            try:
                ssid = self.ssid_pattern.format(i=i)
            except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
                raise ValueError(f"ssid_pattern {self.ssid_pattern!r} must format with i alone: "
                                 f"{type(exc).__name__}: {exc}") from None
            if not ssid:
                raise ValueError(f"ssid_pattern {self.ssid_pattern!r} gives an empty SSID for AP {i}")


@dataclass(frozen=True)
class CampaignConfig:
    """Spot-based collection structure used by :func:`generate_dataset`.

    ``anchor_jitter_m`` is how far a session's pair midpoint wanders from its
    zone spot. ``intruder_offset_m`` bounds the distance between a location's
    home spot and its intruder zone. ``shadow_sigma_dbm`` is the std-dev of
    the persistent per-(zone, device, AP) shadowing offsets that stand in for
    walls; session-to-session noise stays in PathLossConfig.
    ``zone_visibility_margin_m`` shrinks the detection radius when choosing
    zone spots so that every session device still sees the location's full AP
    set after jitter and pair separation; this keeps the two classes' row
    counts symmetric. ``min_band_gap_dbm`` enforces a minimum contrast
    between the two zones' expected signal bands per (device, AP): distinct
    spots in a building rarely share an identical RF signature, and without
    that contrast single observations would carry no label information.
    """

    anchor_jitter_m: float = 0.5
    intruder_offset_m: tuple[float, float] = (5.0, 12.0)
    shadow_sigma_dbm: float = 6.0
    zone_visibility_margin_m: float = 5.5
    min_band_gap_dbm: float = 2.0

    def __post_init__(self):
        if not 0 <= self.anchor_jitter_m <= _MAX_LENGTH_M:
            raise ValueError(f"anchor_jitter_m must be >= 0 and at most 1e6 m, got {self.anchor_jitter_m!r}")
        if not 0 < self.intruder_offset_m[0] < self.intruder_offset_m[1] <= _MAX_LENGTH_M:
            raise ValueError("intruder_offset_m must be an increasing positive pair of at most 1e6 m")
        if not 0 <= self.shadow_sigma_dbm <= _FLOAT64_EXACT:
            raise ValueError(f"shadow_sigma_dbm must be >= 0 and at most 2**53 dB, got {self.shadow_sigma_dbm!r}")
        if self.zone_visibility_margin_m < 0:
            raise ValueError("zone_visibility_margin_m must be >= 0")
        if not 0 <= self.min_band_gap_dbm <= _FLOAT64_EXACT:
            raise ValueError(f"min_band_gap_dbm must be >= 0 and at most 2**53 dB, got {self.min_band_gap_dbm!r}")


@dataclass(frozen=True)
class Scenario:
    """Separation regime for a device pair; the defaults exclude the
    (7 ft, 7.5 ft) gray band by construction."""

    label: Label
    separation_range_m: tuple[float, float]

    def __post_init__(self):
        lo, hi = self.separation_range_m
        if not 0 < lo < hi:
            raise ValueError("separation range must be an increasing positive pair")

    @staticmethod
    def authentic() -> "Scenario":
        return Scenario(Label.AUTHENTIC, (AUTHENTIC_MIN_SEPARATION_M, AUTHENTIC_MAX_SEPARATION_M))

    @staticmethod
    def unauthorized() -> "Scenario":
        return Scenario(Label.UNAUTHORIZED, (UNAUTHORIZED_MIN_SEPARATION_M, UNAUTHORIZED_MAX_SEPARATION_M))

    def draw_separation(self, rng: np.random.Generator) -> float:
        return float(rng.uniform(*self.separation_range_m))


# the campaign's scenario in each zone: authentic pairs at home, intruders apart
_SCENARIOS = (Scenario.authentic(), Scenario.unauthorized())


@dataclass(frozen=True)
class AccessPoint:
    ssid: str
    frequency: int
    bssid: str
    x: float
    y: float


@dataclass(frozen=True)
class LocationGeometry:
    """Frozen per-location randomness: AP placement plus every per-zone fact,
    indexed by zone (0 = the home spot of authentic pairs, 1 = the intruder
    zone). ``spots`` and ``bearings`` hold each zone's spot and campaign
    movement bearing; ``shadows`` holds the persistent shadow offsets indexed
    [zone, role(0=mobile,1=login), ap]."""

    tag: str
    aps: tuple[AccessPoint, ...]
    spots: tuple[np.ndarray, np.ndarray]
    bearings: tuple[np.ndarray, np.ndarray]
    shadows: np.ndarray


def rssi_at_distance(
    cfg: PathLossConfig,
    distance_m: float,
    rng: np.random.Generator | None = None,
) -> int:
    """Integer dBm at a given transmitter distance: deterministic path loss
    plus Gaussian noise, rounded then clamped."""
    if not distance_m > 0:
        raise NonPositiveDistance(f"distance must be positive, got {distance_m}")
    return int(_read(cfg, _mean_rssi_dbm(cfg, distance_m), rng))


def _mean_rssi_dbm(loss: PathLossConfig, distance_m):
    """The log-distance path loss, before noise and shadowing, at a distance or an array of them."""
    return loss.p0_dbm - 10.0 * loss.exponent_n * np.log10(distance_m / loss.d0_m)


def _read(loss: PathLossConfig, mean_dbm, rng: np.random.Generator | None):
    """Read noise-free RSSI, one value or an array: a noise draw per value in order, rint, clamp."""
    if loss.noise_sigma_dbm > 0:
        if rng is None:
            raise ValueError("an rng is required when noise_sigma_dbm > 0")
        mean_dbm = mean_dbm + rng.normal(0.0, loss.noise_sigma_dbm, size=np.shape(mean_dbm))
    return np.rint(mean_dbm).clip(*loss.clamp_dbm)


def _coordinates(aps: Sequence[AccessPoint]) -> np.ndarray:
    return np.array([(ap.x, ap.y) for ap in aps])


def _length(offsets: np.ndarray) -> np.ndarray:
    """The length of each 2-d vector of a (..., 2) array, as a (...) array."""
    return np.hypot(offsets[..., 0], offsets[..., 1])


def _ap_identity(env: EnvironmentConfig, i: int) -> tuple[str, int, str]:
    if not 0 <= i < _MAX_APS:
        raise ValueError(f"an AP index must be in [0, {_MAX_APS}), one BSSID per 16-bit index, got {i!r}")
    ssid = env.ssid_pattern.format(i=i)
    frequency = env.frequency_set_hz[i % len(env.frequency_set_hz)]
    bssid = f"02:00:5e:00:{i >> 8:02x}:{i & 0xFF:02x}"
    return ssid, frequency, bssid


def place_access_points(
    env: EnvironmentConfig,
    rng: np.random.Generator,
    indices: Sequence[int],
) -> tuple[AccessPoint, ...]:
    """Place the APs with the given identity indices uniformly in the area."""
    indices = list(indices)
    xy = rng.uniform(0.0, env.area_m, size=(len(indices), 2))
    aps = []
    for (x, y), i in zip(xy, indices):
        ssid, freq, bssid = _ap_identity(env, i)
        aps.append(AccessPoint(ssid=ssid, frequency=freq, bssid=bssid, x=float(x), y=float(y)))
    return tuple(aps)


def _enforce_band_gaps(
    loss: PathLossConfig,
    campaign: CampaignConfig,
    ap_xy: np.ndarray,
    spots: tuple[np.ndarray, np.ndarray],
    bearings: tuple[np.ndarray, np.ndarray],
    shadows: np.ndarray,
) -> None:
    """Shift the intruder zone's shadow offsets so each (device, AP) signal
    band keeps at least ``min_band_gap_dbm`` of contrast with the home zone's
    band; ``spots`` and ``bearings`` are indexed by zone like ``shadows``.
    Position geometry alone leaves some AP/zone combinations nearly
    indistinguishable; a guaranteed contrast models the reality that two
    separate spots see each AP through different obstructions.

    A (zone, role, AP) band is the noise-free RSSI plus shadow offset along
    ``spot + t * bearing``, t over -sep/2 (mobile) or +sep/2 (login) for the
    zone scenario's separations, its distances widened by the anchor jitter."""
    half = np.array([s.separation_range_m for s in _SCENARIOS]) / 2.0  # (zone, lo|hi)
    t = np.stack([-half[:, ::-1], half], axis=1)  # (zone, role, segment end)
    ends = np.array(spots)[:, None, None] + t[..., None] * np.array(bearings)[:, None, None]  # (zone, role, end, 2)
    a, ab = ends[:, :, :1], ends[:, :, 1:] - ends[:, :, :1]
    along = np.clip(((ap_xy - a) * ab).sum(axis=-1) / (ab * ab).sum(axis=-1), 0.0, 1.0)  # (zone, role, AP)
    slop = campaign.anchor_jitter_m * math.sqrt(2.0)
    d_min = np.maximum(_length(ap_xy - (a + along[..., None] * ab)) - slop, _MIN_DISTANCE_M)
    d_max = _length(ends[..., None, :] - ap_xy).max(axis=2) + slop
    low, high = _mean_rssi_dbm(loss, d_max) + shadows, _mean_rssi_dbm(loss, d_min) + shadows
    above = low[1] - high[0]  # (role, AP): separation when the intruder band sits higher
    below = low[0] - high[1]
    gap = campaign.min_band_gap_dbm
    shadows[1] += np.where(above >= below, np.maximum(gap - above, 0.0), np.minimum(below - gap, 0.0))


def _pick_zone(
    rng: np.random.Generator,
    ap_xy: np.ndarray,
    env: EnvironmentConfig,
    strict_radius: float,
    propose,
) -> np.ndarray | None:
    """Draw zone candidates from ``propose``; prefer spots that keep the whole
    AP set in range, fall back to any spot that sees at least one AP."""
    fallback = None
    for _ in range(100):
        candidate = propose(rng)
        if not (0.0 <= candidate[0] <= env.area_m and 0.0 <= candidate[1] <= env.area_m):
            continue
        distances = _length(candidate - ap_xy)
        if (distances <= strict_radius).all():
            return candidate
        if fallback is None and (distances <= env.detection_radius_m).any():
            fallback = candidate
    return fallback


def location_geometry(
    env: EnvironmentConfig,
    loss: PathLossConfig,
    campaign: CampaignConfig,
    seed: int,
    location_index: int,
    n_locations: int,
) -> LocationGeometry:
    """Derive one synthetic location's geometry from (seed, location_index).

    The environment's APs are partitioned round-robin across locations, so a
    run with L locations spreads the same ``n_aps`` identities over L rooms.
    """
    if n_locations < 1:
        raise ConfigurationError("n_locations must be >= 1")
    if n_locations > env.n_aps:
        raise ConfigurationError(
            f"cannot spread {env.n_aps} APs over {n_locations} locations"
        )
    if not 0 <= location_index < n_locations:
        raise ConfigurationError(f"location_index must be in [0, {n_locations}), got {location_index}")
    rng = derived_rng(seed, _GEOMETRY_STREAM, location_index)
    indices = [i for i in range(env.n_aps) if i % n_locations == location_index]
    aps = place_access_points(env, rng, indices)
    ap_xy = _coordinates(aps)

    strict_radius = env.detection_radius_m - campaign.zone_visibility_margin_m
    if strict_radius <= 0:
        strict_radius = env.detection_radius_m

    home = _pick_zone(
        rng, ap_xy, env, strict_radius, lambda r: r.uniform(0.0, env.area_m, size=2)
    )
    if home is None:
        raise ConfigurationError("could not place a home spot that sees any AP")

    def propose_intruder(r: np.random.Generator) -> np.ndarray:
        radius = r.uniform(*campaign.intruder_offset_m)
        angle = r.uniform(0.0, 2.0 * math.pi)
        return home + radius * np.array([math.cos(angle), math.sin(angle)])

    intruder = _pick_zone(rng, ap_xy, env, strict_radius, propose_intruder)
    if intruder is None:
        raise ConfigurationError("could not place an intruder zone that sees any AP")

    spots = (home, intruder)
    angles = rng.uniform(0.0, 2.0 * math.pi, size=2)
    bearings = tuple(np.array([math.cos(a), math.sin(a)]) for a in angles)
    shadows = rng.normal(0.0, campaign.shadow_sigma_dbm, size=(2, 2, len(aps)))
    _enforce_band_gaps(loss, campaign, ap_xy, spots, bearings, shadows)
    return LocationGeometry(f"loc-{location_index}", aps, spots, bearings, shadows)


def generate_session(
    env: EnvironmentConfig,
    loss: PathLossConfig,
    scenario: Scenario,
    rng: np.random.Generator,
    geometry: LocationGeometry,
    campaign: CampaignConfig = CampaignConfig(),
    device_ids: tuple[str, str] = ("sim-mobile", "sim-login"),
    base_timestamp_ms: int | None = None,
) -> tuple[ScanSnapshot, ScanSnapshot, Label]:
    """Place one device pair at a location and scan.

    The pair midpoint jitters around the location's home spot (authentic) or
    intruder zone (unauthorized), the two devices sit the scenario's
    separation apart along that zone's campaign bearing, and each reading
    carries the zone's persistent shadow offset for its device and AP.

    A placement where either device sees no AP is drawn again, with a fresh
    separation and anchor, up to 101 draws in all; after the 101st such draw
    it raises :class:`NoVisibleAp`. Both snapshots share a timestamp within
    one second.
    """
    zone = 0 if scenario.label is Label.AUTHENTIC else 1
    bearing, ap_xy = geometry.bearings[zone], _coordinates(geometry.aps)
    for _ in range(101):  # the first draw plus 100 retries
        separation = scenario.draw_separation(rng)
        anchor = geometry.spots[zone] + rng.uniform(-campaign.anchor_jitter_m, campaign.anchor_jitter_m, size=2)
        offset = 0.5 * separation * bearing
        distances = _length(np.array([anchor - offset, anchor + offset])[:, None] - ap_xy)  # (role, AP)
        visible = distances <= env.detection_radius_m
        if all(map(any, visible.tolist())):
            break
    else:
        raise NoVisibleAp(f"101 placements each left a device with no AP within {env.detection_radius_m} m")

    if base_timestamp_ms is None:
        base_timestamp_ms = int(rng.integers(1_600_000_000_000, 1_900_000_000_000))
    login_delay_ms = int(rng.integers(0, 1001))

    # the visible (role, AP) cells in order, the mobile device's first: one reading each
    value = _mean_rssi_dbm(loss, np.maximum(distances[visible], _MIN_DISTANCE_M)) + geometry.shadows[zone][visible]
    readings = iter(_read(loss, value, rng).astype(np.int64).tolist())

    mobile, login = (
        ScanSnapshot(
            device_id=device_ids[role_idx],
            role=role,
            timestamp=base_timestamp_ms + (login_delay_ms if role is DeviceRole.LOGIN else 0),
            observations=tuple(
                BeaconObservation(ssid=ap.ssid, frequency=ap.frequency, rssi=next(readings), bssid=ap.bssid)
                for ap, seen in zip(geometry.aps, visible[role_idx]) if seen
            ),
            location_tag=geometry.tag,
        )
        for role_idx, role in enumerate((DeviceRole.MOBILE, DeviceRole.LOGIN))
    )
    return mobile, login, scenario.label


def _campaign_sessions(
    env: EnvironmentConfig,
    loss: PathLossConfig,
    campaign: CampaignConfig,
    seed: int,
    stream: int,
    per_location: Sequence[int],
) -> Iterator[tuple[ScanSnapshot, ScanSnapshot, Label]]:
    """Yield (mobile, login, label) for ``per_location[j]`` sessions
    of each class at location j of ``len(per_location)``; each (location,
    zone) pair draws from its own rng on ``stream``."""
    for j, count in enumerate(per_location):
        geo = location_geometry(env, loss, campaign, seed, j, len(per_location))
        for zone, scenario in enumerate(_SCENARIOS):
            rng = derived_rng(seed, stream, j, zone)
            for _ in range(count):
                yield generate_session(env, loss, scenario, rng, geo, campaign)


def _allocation(total: int, buckets: int) -> list[int]:
    base, extra = divmod(total, buckets)
    return [base + (1 if j < extra else 0) for j in range(buckets)]


def generate_dataset(
    env: EnvironmentConfig,
    loss: PathLossConfig,
    n_sessions_per_class: int,
    locations: int,
    seed: int,
    campaign: CampaignConfig = CampaignConfig(),
) -> Dataset:
    """Generate labeled rows following the collection protocol.

    Sessions of each class are spread as evenly as possible over the
    locations (give at least one session per class per location by using
    ``n_sessions_per_class >= locations``). Each session flattens to one row
    per device per observed AP, carrying the session's label and the
    location's tag. Deterministic for fixed configs and seed.
    """
    if n_sessions_per_class < 1:
        raise ValueError("n_sessions_per_class must be >= 1")
    if locations < 1:
        raise ValueError("locations must be >= 1")
    per_location = _allocation(n_sessions_per_class, locations)
    samples = [
        LabeledSample(
            role=snap.role,
            observation=replace(obs, bssid=None),
            location_tag=snap.location_tag,
            label=label,
        )
        for mobile, login, label in _campaign_sessions(
            env, loss, campaign, seed, _SESSION_STREAM, per_location
        )
        for snap in (mobile, login)
        for obs in snap.observations
    ]
    return Dataset(samples=tuple(samples))


def sessions_for_target_rows(
    env: EnvironmentConfig,
    loss: PathLossConfig,
    target_rows: int,
    locations: int,
    seed: int,
    campaign: CampaignConfig = CampaignConfig(),
) -> int:
    """Estimate the per-class session count that yields roughly ``target_rows``
    flattened rows, by probing the same geometries with a separate stream."""
    if target_rows < 1:
        raise ValueError("target_rows must be >= 1")
    if locations < 1:
        raise ValueError("locations must be >= 1")
    rows = [
        len(mobile.observations) + len(login.observations)
        for mobile, login, _ in _campaign_sessions(
            env, loss, campaign, seed, _PROBE_STREAM, [_PROBE_SESSIONS_PER_CLASS] * locations
        )
    ]
    mean_rows = sum(rows) / len(rows)
    return max(locations, int(math.floor(target_rows / (2.0 * mean_rows) + 0.5)))


def scenario_session(
    env: EnvironmentConfig,
    loss: PathLossConfig,
    scenario: Scenario,
    env_seed: int,
    locations: int,
    location_index: int,
    session_seed: int,
    campaign: CampaignConfig = CampaignConfig(),
    device_ids: tuple[str, str] = ("sim-mobile", "sim-login"),
    base_timestamp_ms: int | None = None,
) -> tuple[ScanSnapshot, ScanSnapshot]:
    """One fresh session at a location whose geometry is reconstructed from
    ``env_seed`` (the seed a training dataset was generated with). Used to
    drive live authentication attempts against a model trained on that
    dataset; the session randomness comes from ``session_seed`` alone."""
    geo = location_geometry(env, loss, campaign, env_seed, location_index, locations)
    rng = derived_rng(session_seed, _ATTEMPT_STREAM)
    return generate_session(env, loss, scenario, rng, geo, campaign, device_ids, base_timestamp_ms)[:2]


def simulation_metadata(
    env: EnvironmentConfig,
    loss: PathLossConfig,
    campaign: CampaignConfig,
    n_sessions_per_class: int,
    locations: int,
    seed: int,
    dataset: Dataset,
) -> dict:
    """Sidecar document describing how a simulated dataset was produced."""
    counts = dataset.label_counts()
    return {
        "generator": "proxauth.rf_simulator",
        "version": 1,
        "environment": encode(env),
        "path_loss": encode(loss),
        "campaign": encode(campaign),
        "n_sessions_per_class": n_sessions_per_class,
        "locations": locations,
        "seed": seed,
        "rows": len(dataset),
        "label_counts": {label.value: n for label, n in counts.items()},
    }
