import hashlib
import math

import numpy as np
import pytest

from proxauth.beacon_model import DeviceRole, Label, dataset_to_csv_bytes, parse_dataset_csv
from proxauth.colocation_ml import derived_rng
from proxauth.errors import ConfigurationError, NonPositiveDistance, NoVisibleAp
from proxauth.rf_simulator import (
    AUTHENTIC_MAX_SEPARATION_M,
    UNAUTHORIZED_MIN_SEPARATION_M,
    AccessPoint,
    CampaignConfig,
    EnvironmentConfig,
    LocationGeometry,
    PathLossConfig,
    Scenario,
    _GEOMETRY_STREAM,
    generate_dataset,
    generate_session,
    location_geometry,
    place_access_points,
    rssi_at_distance,
    scenario_session,
    sessions_for_target_rows,
    simulation_metadata,
)

ENV = EnvironmentConfig()
LOSS = PathLossConfig()
QUIET = PathLossConfig(noise_sigma_dbm=0.0)

# sha256 of the CSV of generate_dataset(SPARSE, LOSS, 60, 1, seed): seeds 2 and 3
# redraw 2 and 10 placements that left a device with no AP; taken with numpy 2.4.6
SPARSE = EnvironmentConfig(n_aps=3, detection_radius_m=9.0)
SPARSE_SHA256 = {
    2: "b35bb12b3f630e9de915b1170ddf4d98781330130f430e668dcc1f0d73108c9e",
    3: "5bfdc7d91aeecea34c9cdb28ad3c5c4619ac32e7450586b7f9e6c6d2f0abff8a",
}
# sha256 of the CSV that `proxauth simulate --seed S` writes with the defaults: 4,828 rows, whose
# path loss and distances go through numpy's log10 and hypot; taken with numpy 2.4.6
DEFAULT_SHA256 = {
    5: "02865be875eaefc5ca98f5252dcd7afacef15b70304d1536fc5e6b48fb3fc867",
    7: "a5212a9e2c539d7e562cf80123e9ab5f5dab6123c85fbe96c5ba44d6f14ff627",
    11: "8b7ee7f0e9ec74697e579777bd834f60017d706dc1ced74fe9f45b2cfc54b6cd",
    12: "c094bccd777d607d7813367c2f440d30d9ed8adc913fc6d8fe5ad11c184ab6f6",
    1010: "8f282c7b496b2be67e1c71067dd2608f5a84fefe5f4bf92bce078a10e3e9ee04",
}
SCENARIOS = (Scenario.authentic(), Scenario.unauthorized())


# A scalar reference for the simulator's array code: one (zone, role, AP) band
# at a time, every distance by math.hypot and every path loss by math.log10.
def mean_rssi(loss, distance_m):
    return loss.p0_dbm - 10.0 * loss.exponent_n * math.log10(distance_m / loss.d0_m)


def _point_segment_distance(p, a, b):
    ab = b - a
    denom = float(ab @ ab)  # > 0: callers pass the ends of a t range lo < hi along a unit bearing
    t = min(max(float((p - a) @ ab) / denom, 0.0), 1.0)
    return float(np.hypot(*(p - (a + t * ab))))


def _det_rssi_interval(loss, ap, anchor, bearing, t_range, jitter):
    """Deterministic (noise-free) RSSI interval a device sweeps while sliding
    along ``anchor + t * bearing`` for t in t_range, inflated by anchor jitter."""
    pos = np.array([ap.x, ap.y])
    a = anchor + t_range[0] * bearing
    b = anchor + t_range[1] * bearing
    slop = jitter * math.sqrt(2.0)
    d_min = max(_point_segment_distance(pos, a, b) - slop, 1e-3)
    d_max = max(math.hypot(*(pos - a)), math.hypot(*(pos - b))) + slop
    return mean_rssi(loss, d_max), mean_rssi(loss, d_min)


def _role_t_range(role_idx, separation_range):
    lo, hi = separation_range
    if role_idx == 0:  # mobile sits at anchor - sep/2 * bearing
        return (-hi / 2.0, -lo / 2.0)
    return (lo / 2.0, hi / 2.0)


def shadowed_bands(loss, camp, aps, spots, bearings, shadows, role_idx, k):
    """The (home, intruder) bands of one (role, AP): each zone's interval plus its shadow offset."""
    return tuple(
        np.add(
            _det_rssi_interval(
                loss, aps[k], spots[z], bearings[z],
                _role_t_range(role_idx, SCENARIOS[z].separation_range_m), camp.anchor_jitter_m,
            ),
            shadows[z, role_idx, k],
        )
        for z in (0, 1)
    )


def reference_geometry(env, loss, camp, seed, location_index, n_locations):
    """``location_geometry``'s spots, bearings and shadows, one AP and one band at a time."""
    rng = derived_rng(seed, _GEOMETRY_STREAM, location_index)
    aps = place_access_points(env, rng, range(location_index, env.n_aps, n_locations))
    strict_radius = env.detection_radius_m - camp.zone_visibility_margin_m
    if strict_radius <= 0:
        strict_radius = env.detection_radius_m

    def pick_zone(propose):
        fallback = None
        for _ in range(100):
            candidate = propose(rng)
            if not (0.0 <= candidate[0] <= env.area_m and 0.0 <= candidate[1] <= env.area_m):
                continue
            distances = [math.hypot(candidate[0] - ap.x, candidate[1] - ap.y) for ap in aps]
            if all(d <= strict_radius for d in distances):
                return candidate
            if fallback is None and any(d <= env.detection_radius_m for d in distances):
                fallback = candidate
        return fallback

    def propose_intruder(r):
        radius = r.uniform(*camp.intruder_offset_m)
        angle = r.uniform(0.0, 2.0 * math.pi)
        return home + radius * np.array([math.cos(angle), math.sin(angle)])

    home = pick_zone(lambda r: r.uniform(0.0, env.area_m, size=2))
    spots = (home, pick_zone(propose_intruder))
    bearings = tuple(np.array([math.cos(a), math.sin(a)]) for a in rng.uniform(0.0, 2.0 * math.pi, size=2))
    shadows = rng.normal(0.0, camp.shadow_sigma_dbm, size=(2, 2, len(aps)))
    for role_idx in (0, 1):
        for k in range(len(aps)):
            (a_lo, a_hi), (u_lo, u_hi) = shadowed_bands(loss, camp, aps, spots, bearings, shadows, role_idx, k)
            above = u_lo - a_hi  # separation when the intruder band sits higher
            below = a_lo - u_hi
            if max(above, below) >= camp.min_band_gap_dbm:
                continue
            if above >= below:
                shadows[1, role_idx, k] += camp.min_band_gap_dbm - above
            else:
                shadows[1, role_idx, k] -= camp.min_band_gap_dbm - below
    return spots, bearings, shadows


def center_geometry(n_aps=1, area=30.0, shadow=0.0):
    """A hand-built geometry: APs at the area center, zones nearby."""
    aps = tuple(
        AccessPoint(f"AP-{i:02d}", 2437000000, f"02:00:5e:00:00:{i:02x}", area / 2, area / 2)
        for i in range(n_aps)
    )
    return LocationGeometry(
        tag="loc-test",
        aps=aps,
        spots=(np.array([area / 2, area / 2]), np.array([area / 2 + 6.0, area / 2])),
        bearings=(np.array([1.0, 0.0]), np.array([0.0, 1.0])),
        shadows=np.full((2, 2, n_aps), shadow),
    )


class TestPathLoss:
    def test_reference_distance_gives_p0(self):
        assert rssi_at_distance(QUIET, 1.0) == -40

    def test_ten_meters(self):
        # one decade at exponent 2.5 costs exactly 25 dB
        assert rssi_at_distance(QUIET, 10.0) == -65

    def test_far_distance_clamps(self):
        # raw value -115 dBm clamps to the receiver floor
        assert rssi_at_distance(QUIET, 1000.0) == -100

    def test_near_clamp_ceiling(self):
        assert rssi_at_distance(QUIET, 0.001) == -20

    def test_nonpositive_distance(self):
        with pytest.raises(NonPositiveDistance):
            rssi_at_distance(QUIET, 0.0)
        with pytest.raises(NonPositiveDistance):
            rssi_at_distance(QUIET, -3.0)
        with pytest.raises(NonPositiveDistance):
            rssi_at_distance(QUIET, float("nan"))

    def test_noise_requires_rng(self):
        with pytest.raises(ValueError):
            rssi_at_distance(LOSS, 5.0)

    def test_monotone_noise_free(self):
        rng = np.random.default_rng(3)
        distances = np.sort(rng.uniform(0.5, 200.0, 1000))
        values = [rssi_at_distance(QUIET, d) for d in distances]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_noise_statistics(self):
        rng = derived_rng(99)
        draws = np.array([rssi_at_distance(LOSS, 10.0, rng) for _ in range(10_000)])
        assert abs(draws.mean() - (-65.0)) < 0.2
        assert 1.6 <= draws.std() <= 2.4

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PathLossConfig(d0_m=0.0)
        with pytest.raises(ValueError):
            PathLossConfig(noise_sigma_dbm=-1.0)
        with pytest.raises(ValueError):
            PathLossConfig(clamp_dbm=(-20, -100))

    @pytest.mark.parametrize(
        "cls, kwargs, message",
        [
            (PathLossConfig, {"exponent_n": 0.0}, "exponent_n must be positive"),
            (EnvironmentConfig, {"n_aps": 0}, "n_aps must be >= 1"),
            (EnvironmentConfig, {"n_aps": 65_537}, "at most 65536, one BSSID per 16-bit index, got 65537"),
            (EnvironmentConfig, {"frequency_set_hz": (2412000000, 0)}, "frequencies must be positive"),
            (EnvironmentConfig, {"area_m": 0.0}, "area and detection radius must be positive"),
            (EnvironmentConfig, {"detection_radius_m": -1.0}, "area and detection radius must be positive"),
            (CampaignConfig, {"anchor_jitter_m": -0.1}, "anchor_jitter_m must be >= 0"),
            (CampaignConfig, {"intruder_offset_m": (0.0, 12.0)}, "intruder_offset_m must be an increasing"),
            (CampaignConfig, {"intruder_offset_m": (12.0, 5.0)}, "intruder_offset_m must be an increasing"),
            (CampaignConfig, {"shadow_sigma_dbm": -1.0}, "shadow_sigma_dbm must be >= 0"),
            (CampaignConfig, {"zone_visibility_margin_m": -1.0}, "zone_visibility_margin_m must be >= 0"),
            (CampaignConfig, {"min_band_gap_dbm": -1.0}, "min_band_gap_dbm must be >= 0"),
            (Scenario, {"label": Label.AUTHENTIC, "separation_range_m": (0.0, 2.0)}, "separation range"),
            (Scenario, {"label": Label.AUTHENTIC, "separation_range_m": (2.0, 1.0)}, "separation range"),
        ],
    )
    def test_config_range_checks(self, cls, kwargs, message):
        with pytest.raises(ValueError, match=message):
            cls(**kwargs)


class TestScenario:
    def test_authentic_range(self):
        rng = derived_rng(1)
        s = Scenario.authentic()
        for _ in range(500):
            sep = s.draw_separation(rng)
            assert 0.1 <= sep <= AUTHENTIC_MAX_SEPARATION_M

    def test_unauthorized_range(self):
        rng = derived_rng(2)
        s = Scenario.unauthorized()
        for _ in range(500):
            sep = s.draw_separation(rng)
            assert UNAUTHORIZED_MIN_SEPARATION_M <= sep <= 10.0

    def test_gray_band_never_generated(self):
        rng = derived_rng(3)
        for s in (Scenario.authentic(), Scenario.unauthorized()):
            for _ in range(2000):
                sep = s.draw_separation(rng)
                assert not (AUTHENTIC_MAX_SEPARATION_M < sep < UNAUTHORIZED_MIN_SEPARATION_M)

    def test_labels(self):
        assert Scenario.authentic().label is Label.AUTHENTIC
        assert Scenario.unauthorized().label is Label.UNAUTHORIZED


class TestGenerateSession:
    def test_authentic_label(self):
        rng = derived_rng(10)
        _, _, label = generate_session(ENV, LOSS, Scenario.authentic(), rng, center_geometry())
        assert label is Label.AUTHENTIC

    def test_unauthorized_label(self):
        rng = derived_rng(11)
        _, _, label = generate_session(ENV, LOSS, Scenario.unauthorized(), rng, center_geometry())
        assert label is Label.UNAUTHORIZED

    def test_single_central_ap_seen_by_both(self):
        rng = derived_rng(12)
        geo = center_geometry(n_aps=1)
        mobile, login, _ = generate_session(
            ENV, LOSS, Scenario.authentic(), rng, geometry=geo, campaign=CampaignConfig()
        )
        assert len(mobile.observations) == 1
        assert len(login.observations) == 1
        assert mobile.observations[0].ssid == login.observations[0].ssid == "AP-00"

    def test_timestamps_within_one_second(self):
        rng = derived_rng(13)
        for _ in range(50):
            mobile, login, _ = generate_session(ENV, LOSS, Scenario.authentic(), rng, center_geometry())
            assert mobile.role is DeviceRole.MOBILE
            assert login.role is DeviceRole.LOGIN
            assert 0 <= login.timestamp - mobile.timestamp <= 1000

    def test_no_visible_ap_raises(self):
        rng = derived_rng(14)
        env = EnvironmentConfig(detection_radius_m=2.0)
        geo = center_geometry()
        far = LocationGeometry(
            tag=geo.tag,
            aps=geo.aps,
            spots=(np.array([0.0, 0.0]), geo.spots[1]),
            bearings=geo.bearings,
            shadows=geo.shadows,
        )
        with pytest.raises(NoVisibleAp):
            generate_session(env, LOSS, Scenario.authentic(), rng, geometry=far)

    def test_no_visible_ap_after_101_draws(self, monkeypatch):
        draws = []  # a 100 m separation puts both devices 50 m from the anchor, out of range
        monkeypatch.setattr(Scenario, "draw_separation", lambda self, rng: draws.append(1) or 100.0)
        env = EnvironmentConfig(detection_radius_m=2.0)
        with pytest.raises(NoVisibleAp):
            generate_session(env, LOSS, Scenario.authentic(), derived_rng(14), center_geometry())
        assert len(draws) == 101

    def test_base_timestamp_respected(self):
        rng = derived_rng(15)
        mobile, login, _ = generate_session(
            ENV, LOSS, Scenario.authentic(), rng, center_geometry(), base_timestamp_ms=123456
        )
        assert mobile.timestamp == 123456
        assert 123456 <= login.timestamp <= 124456

    def test_zone_follows_class(self):
        # zone 0 (the home spot, on top of the AP) hosts authentic pairs and
        # zone 1 (6 m away) hosts unauthorized ones, so without noise or
        # shadowing every authentic reading is the stronger
        rng = derived_rng(17)
        readings = {}
        for scenario in (Scenario.authentic(), Scenario.unauthorized()):
            readings[scenario.label] = [
                o.rssi
                for _ in range(50)
                for snapshot in generate_session(ENV, QUIET, scenario, rng, center_geometry())[:2]
                for o in snapshot.observations
            ]
        assert min(readings[Label.AUTHENTIC]) > max(readings[Label.UNAUTHORIZED])

    def test_device_ids(self):
        rng = derived_rng(16)
        mobile, login, _ = generate_session(
            ENV, LOSS, Scenario.authentic(), rng, center_geometry(), device_ids=("m-1", "l-1")
        )
        assert mobile.device_id == "m-1"
        assert login.device_id == "l-1"


class TestGeometry:
    def test_ap_partition_round_robin(self):
        camp = CampaignConfig()
        geos = [location_geometry(ENV, LOSS, camp, 5, j, 3) for j in range(3)]
        ssids = [tuple(ap.ssid for ap in g.aps) for g in geos]
        assert ssids[0] == ("AP-00", "AP-03", "AP-06", "AP-09")
        assert ssids[1] == ("AP-01", "AP-04", "AP-07")
        assert ssids[2] == ("AP-02", "AP-05", "AP-08")

    def test_deterministic(self):
        camp = CampaignConfig()
        a = location_geometry(ENV, LOSS, camp, 5, 0, 3)
        b = location_geometry(ENV, LOSS, camp, 5, 0, 3)
        assert np.array_equal(a.spots[0], b.spots[0])
        assert np.array_equal(a.shadows, b.shadows)
        assert a.aps == b.aps

    def test_intruder_offset_within_bounds(self):
        camp = CampaignConfig()
        for seed in range(8):
            geo = location_geometry(ENV, LOSS, camp, seed, 0, 2)
            offset = math.hypot(*(geo.spots[1] - geo.spots[0]))
            assert camp.intruder_offset_m[0] <= offset <= camp.intruder_offset_m[1]

    def test_too_many_locations_rejected(self):
        with pytest.raises(ConfigurationError):
            location_geometry(ENV, LOSS, CampaignConfig(), 1, 0, 11)
        with pytest.raises(ConfigurationError, match="n_locations must be >= 1"):
            location_geometry(ENV, LOSS, CampaignConfig(), 1, 0, 0)

    @pytest.mark.parametrize(
        "env, camp, zone",
        [
            (EnvironmentConfig(detection_radius_m=0.001), CampaignConfig(), "a home spot"),
            (ENV, CampaignConfig(intruder_offset_m=(1000.0, 2000.0)), "an intruder zone"),
        ],
        ids=["radius-1mm", "intruder-offset-past-the-area"],
    )
    def test_a_zone_that_sees_no_ap_is_refused(self, env, camp, zone):
        with pytest.raises(ConfigurationError, match=f"^could not place {zone} that sees any AP$"):
            location_geometry(env, LOSS, camp, 1, 0, 3)

    def test_margin_past_the_radius_falls_back_to_the_radius(self):
        # a margin that leaves no strict radius picks zones as a zero margin does
        wide = location_geometry(ENV, LOSS, CampaignConfig(zone_visibility_margin_m=ENV.detection_radius_m), 5, 0, 3)
        zero = location_geometry(ENV, LOSS, CampaignConfig(zone_visibility_margin_m=0.0), 5, 0, 3)
        assert all(np.array_equal(a, b) for a, b in zip(wide.spots, zero.spots))
        assert np.array_equal(wide.shadows, zero.shadows)

    @pytest.mark.parametrize("index", [-1, 3, 42])
    def test_out_of_range_location_index_rejected(self, index):
        with pytest.raises(ConfigurationError, match="location_index"):
            location_geometry(ENV, LOSS, CampaignConfig(), 1, index, 3)
        with pytest.raises(ConfigurationError, match="location_index"):
            scenario_session(ENV, LOSS, Scenario.authentic(), 1, 3, index, 5)

    def test_band_contrast_enforced(self):
        camp = CampaignConfig()
        loss = PathLossConfig(noise_sigma_dbm=0.0)
        for seed in range(5):
            geo = location_geometry(ENV, loss, camp, seed, 0, 2)
            for role_idx in (0, 1):
                for k, ap in enumerate(geo.aps):
                    home_rssi = (
                        loss.p0_dbm
                        - 25.0 * math.log10(max(math.hypot(*(geo.spots[0] - (ap.x, ap.y))), 1e-3))
                        + geo.shadows[0, role_idx, k]
                    )
                    intruder_rssi = (
                        loss.p0_dbm
                        - 25.0 * math.log10(max(math.hypot(*(geo.spots[1] - (ap.x, ap.y))), 1e-3))
                        + geo.shadows[1, role_idx, k]
                    )
                    # the zone spots' readings differ, but need not by min_band_gap_dbm:
                    # the guard keeps apart the bands of the positions each role takes,
                    # and the intruder spot is none of them (its devices sit 1.14 m or
                    # more either side of it, past the 0.71 m jitter slop)
                    assert abs(home_rssi - intruder_rssi) > 0.0

    @pytest.mark.parametrize("seed", range(20))
    def test_band_gap_holds_between_shadowed_intervals(self, seed):
        # the noise-free interval each zone's devices sweep, plus that zone's
        # shadow offset, keeps min_band_gap_dbm apart from the other zone's
        camp = CampaignConfig()
        for n_locations in (1, 2, 3):
            for j in range(n_locations):
                geo = location_geometry(ENV, LOSS, camp, seed, j, n_locations)
                for role_idx in (0, 1):
                    for k in range(len(geo.aps)):
                        (a_lo, a_hi), (u_lo, u_hi) = shadowed_bands(
                            LOSS, camp, geo.aps, geo.spots, geo.bearings, geo.shadows, role_idx, k
                        )
                        assert max(u_lo - a_hi, a_lo - u_hi) >= camp.min_band_gap_dbm - 1e-9

    @pytest.mark.parametrize("seed", range(20))
    def test_geometry_matches_the_scalar_reference(self, seed):
        # numpy's log10 and hypot may differ from math's in the last bit, so the
        # shadows agree to 1e-9 dB; the spots and bearings come out exactly
        camp = CampaignConfig()
        for n_locations in (1, 2, 3):
            for j in range(n_locations):
                geo = location_geometry(ENV, LOSS, camp, seed, j, n_locations)
                spots, bearings, shadows = reference_geometry(ENV, LOSS, camp, seed, j, n_locations)
                assert all(np.array_equal(a, b) for a, b in zip(geo.spots + geo.bearings, spots + bearings))
                np.testing.assert_allclose(geo.shadows, shadows, rtol=0.0, atol=1e-9)

    def test_place_access_points_identities(self):
        rng = derived_rng(30)
        aps = place_access_points(ENV, rng, range(ENV.n_aps))
        assert len(aps) == 10
        assert aps[0].frequency == 2412000000
        assert aps[5].frequency == 2412000000  # round-robin wraps at 5
        assert all(0 <= ap.x <= ENV.area_m and 0 <= ap.y <= ENV.area_m for ap in aps)
        assert len({ap.bssid for ap in aps}) == 10

    def test_the_last_of_65536_aps_has_its_own_bssid(self):
        env = EnvironmentConfig(n_aps=65_536)  # one more is refused: its BSSID would repeat AP 0's
        first, last = place_access_points(env, derived_rng(31), [0, 65_535])
        assert (first.bssid, last.bssid) == ("02:00:5e:00:00:00", "02:00:5e:00:ff:ff")
        for index in (65_536, -1):  # no BSSID of 16 bits names it
            with pytest.raises(ValueError, match=rf"\[0, 65536\), one BSSID per 16-bit index, got {index}$"):
                place_access_points(env, derived_rng(31), [index])


class TestGenerateDataset:
    def test_deterministic(self):
        a = generate_dataset(ENV, LOSS, 12, 3, seed=77)
        b = generate_dataset(ENV, LOSS, 12, 3, seed=77)
        assert a.samples == b.samples

    def test_locations_appear(self):
        ds = generate_dataset(ENV, LOSS, 9, 3, seed=5)
        assert {s.location_tag for s in ds.samples} == {"loc-0", "loc-1", "loc-2"}

    def test_provenance_and_row_invariants(self):
        ds = generate_dataset(ENV, LOSS, 10, 2, seed=6)
        assert parse_dataset_csv(dataset_to_csv_bytes(ds)) == ds  # a simulated dataset is its CSV
        for s in ds.samples:
            assert s.observation.rssi <= 0
            assert s.observation.frequency > 0
            assert s.observation.ssid
            assert s.observation.bssid is None  # dataset rows mirror the CSV

    @pytest.mark.parametrize("seed", list(SPARSE_SHA256))
    def test_redrawn_placements_write_pinned_bytes(self, seed):
        csv = dataset_to_csv_bytes(generate_dataset(SPARSE, LOSS, 60, 1, seed))
        assert hashlib.sha256(csv).hexdigest() == SPARSE_SHA256[seed], (
            f"seed {seed} bytes changed under numpy {np.__version__}; the digest was pinned with numpy 2.4.6"
        )

    @pytest.mark.parametrize("seed", list(DEFAULT_SHA256))
    def test_default_datasets_write_pinned_bytes(self, seed):
        n = sessions_for_target_rows(ENV, LOSS, 4825, 3, seed)
        csv = dataset_to_csv_bytes(generate_dataset(ENV, LOSS, n, 3, seed))
        assert hashlib.sha256(csv).hexdigest() == DEFAULT_SHA256[seed], (
            f"seed {seed} bytes changed under numpy {np.__version__}; the digest was pinned with numpy 2.4.6"
        )

    def test_balanced_labels(self):
        ds = generate_dataset(ENV, LOSS, 30, 3, seed=8)
        counts = ds.label_counts()
        assert counts[Label.AUTHENTIC] == counts[Label.UNAUTHORIZED]

    def test_target_row_calibration(self):
        n = sessions_for_target_rows(ENV, LOSS, 4825, 3, seed=21)
        ds = generate_dataset(ENV, LOSS, n, 3, seed=21)
        assert abs(len(ds) - 4825) <= 0.10 * 4825

    def test_bad_args(self):
        with pytest.raises(ValueError):
            generate_dataset(ENV, LOSS, 0, 3, seed=1)
        with pytest.raises(ValueError):
            generate_dataset(ENV, LOSS, 5, 0, seed=1)
        with pytest.raises(ValueError):
            sessions_for_target_rows(ENV, LOSS, 100, 0, seed=1)
        with pytest.raises(ValueError, match="target_rows must be >= 1"):
            sessions_for_target_rows(ENV, LOSS, 0, 3, seed=1)

    def test_metadata_document(self):
        ds = generate_dataset(ENV, LOSS, 6, 2, seed=4)
        meta = simulation_metadata(ENV, LOSS, CampaignConfig(), 6, 2, 4, ds)
        assert meta["rows"] == len(ds)
        assert meta["seed"] == 4
        assert meta["environment"]["n_aps"] == 10
        assert set(meta["label_counts"]) == {"authentic", "unauthorized"}


class TestScenarioSession:
    def test_deterministic_given_seeds(self):
        kwargs = dict(env_seed=42, locations=3, location_index=1, session_seed=9)
        a = scenario_session(ENV, LOSS, Scenario.authentic(), **kwargs)
        b = scenario_session(ENV, LOSS, Scenario.authentic(), **kwargs)
        assert a[0].observations == b[0].observations
        assert a[1].observations == b[1].observations

    def test_device_ids_and_roles(self):
        mobile, login = scenario_session(
            ENV,
            LOSS,
            Scenario.unauthorized(),
            env_seed=42,
            locations=3,
            location_index=0,
            session_seed=1,
            device_ids=("alice:mobile", "alice:login"),
        )
        assert mobile.device_id == "alice:mobile"
        assert login.device_id == "alice:login"
        assert mobile.role is DeviceRole.MOBILE
        assert login.role is DeviceRole.LOGIN

    def test_observations_come_from_location_subset(self):
        mobile, _ = scenario_session(
            ENV, LOSS, Scenario.authentic(),
            env_seed=42, locations=3, location_index=2, session_seed=5,
        )
        geo = location_geometry(ENV, LOSS, CampaignConfig(), 42, 2, 3)
        subset = {ap.ssid for ap in geo.aps}
        assert {o.ssid for o in mobile.observations} <= subset
