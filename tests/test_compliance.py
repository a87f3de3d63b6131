"""Safe-distance solver and sweep generation."""

import copy
import dataclasses
import math
import pickle
import random

import numpy as np
import pytest

import wearemf.exposure
from wearemf import (
    BUILTIN_LIMITS,
    COMPLIANT_EVERYWHERE,
    AntennaConfig,
    ComplianceLimit,
    DistanceSearch,
    ExposureResult,
    LimitUnreachableError,
    LinkScenario,
    PatternModel,
    QuadratureSpec,
    TissueProperties,
    db_to_linear,
    dbm_to_watts,
    fspl_db,
    gain_dbi,
    load_preset,
    min_safe_distance,
    power_density,
    shannon_rate_bps,
    sar_avg,
    sar_boundary,
    snr_db,
    sweep,
)

P60 = load_preset("wearable-60ghz")
P24 = load_preset("wearable-2.4ghz")


def test_builtin_limits_table():
    assert BUILTIN_LIMITS["ICNIRP"].sar_limit_w_per_kg == 2.0
    assert BUILTIN_LIMITS["FCC"].sar_limit_w_per_kg == 1.6
    assert "10-g" in BUILTIN_LIMITS["ICNIRP"].averaging_mass_note
    assert "1-g" in BUILTIN_LIMITS["FCC"].averaging_mass_note


def test_limit_validation():
    with pytest.raises(ValueError):
        ComplianceLimit("bogus", 0.0)
    with pytest.raises(ValueError):
        ComplianceLimit("", 1.0)
    with pytest.raises(ValueError):
        ComplianceLimit(5, 2.0)
    with pytest.raises(ValueError):
        ComplianceLimit("X", 2.0, None)
    for bad in (True, "1", None, 10**400):
        with pytest.raises(ValueError):
            ComplianceLimit("bogus", bad)


def test_search_validation():
    with pytest.raises(ValueError):
        DistanceSearch(d_lo_m=0.0)
    with pytest.raises(ValueError):
        DistanceSearch(d_lo_m=0.5, d_hi_m=0.1)
    with pytest.raises(ValueError):
        DistanceSearch(tol_m=0.0)
    for bad in (True, "1", None, 10**400):
        for kwargs in (dict(d_lo_m=bad, d_hi_m=2.0), dict(d_hi_m=bad), dict(tol_m=bad)):
            with pytest.raises(ValueError):
                DistanceSearch(**kwargs)


def test_solver_returns_a_compliant_distance():
    limit = BUILTIN_LIMITS["ICNIRP"]
    found = min_safe_distance(P60.scenario, P60.tissue, limit,
                              quadrature=P60.quadrature)
    assert isinstance(found, float)
    assert sar_avg(P60.scenario, P60.tissue, found, P60.quadrature) \
        <= limit.sar_limit_w_per_kg
    # just inside the bracket the limit is still exceeded
    tol = DistanceSearch().tol_m
    assert sar_avg(P60.scenario, P60.tissue, found - 2.0 * tol, P60.quadrature) \
        > limit.sar_limit_w_per_kg


def test_solver_is_antitone_in_the_limit():
    d_strict = min_safe_distance(P60.scenario, P60.tissue, BUILTIN_LIMITS["FCC"],
                                 quadrature=P60.quadrature)
    d_loose = min_safe_distance(P60.scenario, P60.tissue, BUILTIN_LIMITS["ICNIRP"],
                                quadrature=P60.quadrature)
    assert d_strict >= d_loose


def test_solver_detects_compliance_everywhere():
    quiet = LinkScenario(carrier_mhz=60000.0, bandwidth_hz=2.16e9,
                         tx_power_dbm=-40.0, tx_antenna=P60.scenario.tx_antenna)
    result = min_safe_distance(quiet, P60.tissue, BUILTIN_LIMITS["ICNIRP"],
                               quadrature=P60.quadrature)
    assert result == COMPLIANT_EVERYWHERE


def test_solver_reports_unreachable_limit():
    tiny = ComplianceLimit("trace", 1e-12)
    with pytest.raises(LimitUnreachableError):
        min_safe_distance(P60.scenario, P60.tissue, tiny, quadrature=P60.quadrature)


def test_bisection_iteration_bound(monkeypatch):
    calls = {"n": 0}
    true_sar_avg = wearemf.exposure._Chain.sar_avg

    def counting(*args, **kwargs):
        calls["n"] += 1
        return true_sar_avg(*args, **kwargs)

    monkeypatch.setattr(wearemf.exposure._Chain, "sar_avg", counting)
    search = DistanceSearch()
    min_safe_distance(P60.scenario, P60.tissue, BUILTIN_LIMITS["ICNIRP"], search,
                      P60.quadrature)
    bound = math.ceil(math.log2((search.d_hi_m - search.d_lo_m) / search.tol_m)) + 1
    # two bracket-end evaluations precede the bisection itself
    assert calls["n"] - 2 <= bound


@pytest.mark.parametrize("limit_name", ["ICNIRP", "FCC"])
@pytest.mark.parametrize("preset", [P60, P24], ids=["60ghz", "2.4ghz"])
def test_solver_returns_the_smallest_compliant_float(monkeypatch, preset, limit_name):
    calls = {"n": 0}
    true_sar_avg = wearemf.exposure._Chain.sar_avg

    def counting(*args, **kwargs):
        calls["n"] += 1
        return true_sar_avg(*args, **kwargs)

    monkeypatch.setattr(wearemf.exposure._Chain, "sar_avg", counting)
    limit = BUILTIN_LIMITS[limit_name]
    found = min_safe_distance(preset.scenario, preset.tissue, limit,
                              quadrature=preset.quadrature)
    assert calls["n"] <= 3
    below = math.nextafter(found, 0.0)
    assert sar_avg(preset.scenario, preset.tissue, found, preset.quadrature) \
        <= limit.sar_limit_w_per_kg \
        < sar_avg(preset.scenario, preset.tissue, below, preset.quadrature)


@pytest.mark.parametrize("limit_name", ["ICNIRP", "FCC"])
@pytest.mark.parametrize("preset", [P60, P24], ids=["60ghz", "2.4ghz"])
def test_solver_result_does_not_depend_on_the_bracket(preset, limit_name):
    limit = BUILTIN_LIMITS[limit_name]
    short, wide = (min_safe_distance(preset.scenario, preset.tissue, limit,
                                     DistanceSearch(d_hi_m=d_hi), preset.quadrature)
                   for d_hi in (1.0, 1e3))
    assert short == wide


@pytest.mark.parametrize("tx_power_dbm, d_lo_m, error", [
    # the averaged SAR at the near end overflows
    (10.0, 2e-156, OverflowError),
    # the square of the near end is subnormal, so the start is far off
    (-100.0, 2e-161, FloatingPointError),
])
def test_solver_refuses_a_near_end_beyond_double_precision(tx_power_dbm, d_lo_m, error):
    link = LinkScenario(carrier_mhz=60000.0, bandwidth_hz=2.16e9,
                        tx_power_dbm=tx_power_dbm, tx_antenna=P60.scenario.tx_antenna)
    with pytest.raises(error):
        min_safe_distance(link, P60.tissue, BUILTIN_LIMITS["ICNIRP"],
                          DistanceSearch(d_lo_m=d_lo_m), P60.quadrature)


def test_solver_stable_under_grid_refinement():
    search = DistanceSearch()
    fine = QuadratureSpec(samples_per_axis=721)
    d_coarse = min_safe_distance(P60.scenario, P60.tissue, BUILTIN_LIMITS["ICNIRP"],
                                 search, P60.quadrature)
    d_fine = min_safe_distance(P60.scenario, P60.tissue, BUILTIN_LIMITS["ICNIRP"],
                               search, fine)
    assert abs(d_fine - d_coarse) < 2.0 * search.tol_m


def test_sweep_empty_input_gives_empty_output():
    assert sweep(P60.scenario, P60.tissue, []) == []


def test_sweep_rejects_unordered_distances():
    for distances in ([0.02, 0.01], [0.01, 0.01], [-0.01, 0.02], [0.0, 0.01],
                      # not a real number, or beyond the double range
                      ["a"], [None], [10**400], [True, 2.0], [0.01, math.inf],
                      [0.01, math.nan]):
        with pytest.raises(ValueError, match="^distances must be positive and strictly "
                                             "increasing$"):
            sweep(P60.scenario, P60.tissue, distances)


@pytest.mark.parametrize("changes, message", [
    # k*T*B is finite, but B*log2(1 + SNR) overflows at a modest SNR
    (dict(bandwidth_hz=1.5e308, temperature_k=1e-300, tx_power_dbm=0.0),
     r"^SNR of 64\.\d+ dB at distance 1\.0 m is too large for the Shannon rate$"),
    # the budget and the noise floor lie so far apart that the SNR is -inf
    (dict(rx_gain_dbi=-1e308, noise_figure_db=1e308),
     r"^SNR overflows to -inf dB at distance 3\.0 m$"),
], ids=["rate-inf", "snr-minus-inf"])
def test_sweep_refuses_rows_that_would_not_be_finite(changes, message):
    scenario = dataclasses.replace(P60.scenario, **changes)
    with pytest.raises(OverflowError, match=message):
        sweep(scenario, P60.tissue, [1.0, 2.0, 3.0], P60.quadrature)


def test_sweep_rows_are_internally_consistent():
    rows = sweep(P60.scenario, P60.tissue, [0.002, 0.01, 0.05, 0.2],
                 P60.quadrature)
    for row in rows:
        recomputed = shannon_rate_bps(P60.scenario.bandwidth_hz, row.snr_db)
        assert abs(recomputed - row.rate_bps) / row.rate_bps < 1e-9
        assert row.boresight_sar_w_per_kg >= row.avg_sar_w_per_kg >= 0.0


def test_sweep_inverse_square_between_rows():
    rows = sweep(P60.scenario, P60.tissue, [0.004, 0.008], P60.quadrature)
    assert rows[0].avg_sar_w_per_kg == 4.0 * rows[1].avg_sar_w_per_kg
    assert rows[0].boresight_pd_w_per_m2 == 4.0 * rows[1].boresight_pd_w_per_m2


# the presets' depth * density is exactly 1.0, so a variant with another
# slab checks the SAR's association order too
P60_SLAB = dataclasses.replace(P60, tissue=dataclasses.replace(
    P60.tissue, mass_density_kg_per_m3=1090.0, penetration_depth_m=4.8e-4))


def _seeded_variant(preset, seed, omni_azimuth):
    """``preset`` with a seeded parabolic antenna off the grid's axes and a seeded
    Fresnel tissue (no override) whose depth * density is not 1."""
    rng = random.Random(seed)
    antenna = AntennaConfig(
        PatternModel.PARABOLIC_ENVELOPE, g_max_dbi=rng.uniform(-5.0, 20.0),
        theta_3db_deg=rng.uniform(30.0, 150.0), sidelobe_floor_db=rng.uniform(15.0, 35.0),
        boresight_elevation_deg=rng.uniform(-40.0, 40.0),
        boresight_azimuth_deg=rng.uniform(-40.0, 40.0), omni_azimuth=omni_azimuth)
    tissue = TissueProperties(complex(rng.uniform(5.0, 50.0), -rng.uniform(0.0, 30.0)),
                              rng.uniform(900.0, 1200.0), rng.uniform(2e-4, 5e-3))
    assert tissue.mass_density_kg_per_m3 * tissue.penetration_depth_m != 1.0
    return dataclasses.replace(
        preset, tissue=tissue, scenario=dataclasses.replace(
            preset.scenario, tx_antenna=antenna, tx_power_dbm=rng.uniform(-10.0, 25.0),
            rx_gain_dbi=rng.uniform(-5.0, 15.0)))


# the wide grid reaches distances whose square overflows, so that the
# power density underflows to 0.0
@pytest.mark.parametrize("preset, grid", [
    (P60, (1e-3, 10.0, 200)),
    (P24, (1e-3, 10.0, 200)),
    (P60, (1e-140, 1e160, 3001)),
    (P24, (1e-140, 1e160, 3001)),
    (P60_SLAB, (1e-3, 10.0, 200)),
    (_seeded_variant(P60, 5, omni_azimuth=False), (1e-3, 10.0, 200)),
    (_seeded_variant(P24, 6, omni_azimuth=True), (1e-3, 10.0, 200)),
], ids=["60ghz", "2.4ghz", "60ghz-wide", "2.4ghz-wide", "60ghz-slab", "seeded-2d",
        "seeded-omni"])
def test_sweep_rows_equal_the_scalar_chain(preset, grid):
    sc, tissue, quadrature = preset.scenario, preset.tissue, preset.quadrature
    antenna = sc.tx_antenna
    boresight_gain = db_to_linear(gain_dbi(antenna, antenna.boresight_elevation_deg,
                                           antenna.boresight_azimuth_deg))
    distances = [float(d) for d in np.geomspace(*grid)]
    for row, d in zip(sweep(sc, tissue, distances, quadrature), distances):
        snr = snr_db(sc, d)
        pd = power_density(dbm_to_watts(sc.tx_power_dbm), boresight_gain, d)
        assert row.distance_m == d
        assert row.path_loss_db == fspl_db(d, sc.carrier_mhz)
        assert row.snr_db == snr
        assert row.rate_bps == shannon_rate_bps(sc.bandwidth_hz, snr)
        assert row.boresight_pd_w_per_m2 == pd
        assert row.boresight_sar_w_per_kg == sar_boundary(pd, tissue)
        assert row.avg_sar_w_per_kg == sar_avg(sc, tissue, d, quadrature)


def test_sweep_single_distance_reference_rate():
    rows = sweep(P60.scenario, P60.tissue, [1.0], P60.quadrature)
    assert len(rows) == 1
    assert rows[0].rate_bps == pytest.approx(27.64e9, rel=1e-3)


def test_sweep_order_matches_input():
    distances = [0.003, 0.017, 0.4]
    rows = sweep(P24.scenario, P24.tissue, distances, P24.quadrature)
    assert [row.distance_m for row in rows] == distances


@pytest.mark.parametrize("preset", [P60, P24], ids=["60ghz", "2.4ghz"])
def test_sweep_rows_cannot_be_told_from_constructed_ones(preset):
    """``sweep`` fills each row's fields without the constructor; a row must
    behave as the record the constructor builds from the same values."""
    names = [field.name for field in dataclasses.fields(ExposureResult)]
    for row in sweep(preset.scenario, preset.tissue, [1e-3, 0.01, 0.1, 1.0],
                     preset.quadrature):
        built = ExposureResult(*[getattr(row, name) for name in names])
        assert type(row) is ExposureResult
        assert row == built and hash(row) == hash(built) and repr(row) == repr(built)
        assert list(vars(row)) == list(vars(built)) == names
        assert list(dataclasses.asdict(row).items()) == list(dataclasses.asdict(built).items())
        assert dataclasses.astuple(row) == dataclasses.astuple(built)
        assert pickle.dumps(row) == pickle.dumps(built)
        assert pickle.loads(pickle.dumps(row)) == row
        assert copy.copy(row) == row and list(vars(copy.copy(row))) == names
        with pytest.raises(dataclasses.FrozenInstanceError):
            row.snr_db = 0.0
        with pytest.raises(ValueError, match="^distance_m must be > 0$"):
            dataclasses.replace(row, distance_m=-1.0)


@pytest.mark.parametrize("distances", [
    [1, 2, 3], np.array([1, 2, 3]), np.array([1.0, 2.0, 3.0]),
    [np.int64(1), np.float32(2.0), np.float64(3.0)],
], ids=["ints", "numpy-ints", "numpy-floats", "numpy-scalars"])
def test_sweep_rows_hold_float_distances(distances):
    rows = sweep(P60.scenario, P60.tissue, distances, P60.quadrature)
    assert all(type(value) is float for row in rows for value in dataclasses.astuple(row))
    assert rows == sweep(P60.scenario, P60.tissue, [1.0, 2.0, 3.0], P60.quadrature)


def test_sweep_runs_no_record_checks(monkeypatch):
    calls = {"n": 0}
    true_post_init = ExposureResult.__post_init__

    def counting(self):
        calls["n"] += 1
        return true_post_init(self)

    monkeypatch.setattr(ExposureResult, "__post_init__", counting)
    ExposureResult(1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    assert calls["n"] == 1  # the counter sees the constructor
    rows = sweep(P60.scenario, P60.tissue, np.geomspace(1e-3, 1.0, 1000).tolist(),
                 P60.quadrature)
    assert len(rows) == 1000
    assert calls["n"] == 1
