"""Safe-distance solver and sweep generation."""

import copy
import dataclasses
import math
import pickle
import random

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

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


# the averaged SAR is non-increasing in d, so the smallest compliant double is well
# defined; the solver must return it on any link, limit and bracket
@given(preset=st.sampled_from([P60, P24]), tx_power_dbm=st.floats(-20.0, 30.0),
       log_limit=st.floats(-2.0, 2.0), log_lo=st.floats(-5.0, -2.0), log_hi=st.floats(0.0, 3.0))
@seed(3232)
@settings(max_examples=300, deadline=None)
def test_solver_returns_the_smallest_compliant_double_on_random_solves(
        preset, tx_power_dbm, log_limit, log_lo, log_hi):
    link = preset.scenario.replace(tx_power_dbm=tx_power_dbm)
    limit = ComplianceLimit("L", 10.0 ** log_limit)
    search = DistanceSearch(10.0 ** log_lo, 10.0 ** log_hi)
    try:
        found = min_safe_distance(link, preset.tissue, limit, search, preset.quadrature)
    except LimitUnreachableError:
        assert sar_avg(link, preset.tissue, search.d_hi_m, preset.quadrature) \
            > limit.sar_limit_w_per_kg
        return
    if found == COMPLIANT_EVERYWHERE:
        assert sar_avg(link, preset.tissue, search.d_lo_m, preset.quadrature) \
            <= limit.sar_limit_w_per_kg
        return
    assert search.d_lo_m < found <= search.d_hi_m
    assert sar_avg(link, preset.tissue, found, preset.quadrature) <= limit.sar_limit_w_per_kg
    below = math.nextafter(found, 0.0)
    if below > search.d_lo_m:
        assert limit.sar_limit_w_per_kg < sar_avg(link, preset.tissue, below, preset.quadrature)


@pytest.mark.parametrize("limit_name", ["ICNIRP", "FCC"])
@pytest.mark.parametrize("preset", [P60, P24], ids=["60ghz", "2.4ghz"])
def test_solver_result_does_not_depend_on_the_bracket(preset, limit_name):
    limit = BUILTIN_LIMITS[limit_name]
    short, wide = (min_safe_distance(preset.scenario, preset.tissue, limit,
                                     DistanceSearch(d_hi_m=d_hi), preset.quadrature)
                   for d_hi in (1.0, 1e3))
    assert short == wide


@pytest.mark.parametrize("tx_power_dbm, tissue, limit, search, error, message", [
    # the averaged SAR at the near end overflows
    pytest.param(10.0, P60.tissue, BUILTIN_LIMITS["ICNIRP"], DistanceSearch(d_lo_m=2e-156),
                 OverflowError, "^boundary SAR overflows", id="10.0-2e-156-OverflowError"),
    # the square of the near end is subnormal, so the start is far off
    pytest.param(-100.0, P60.tissue, BUILTIN_LIMITS["ICNIRP"], DistanceSearch(d_lo_m=2e-161),
                 FloatingPointError, "too imprecise to locate the ICNIRP crossing$",
                 id="-100.0-2e-161-FloatingPointError"),
    # the averaged SAR at the near end is finite, but the crossing lies
    # beyond the double range
    pytest.param(10.0, TissueProperties(7.98, 10.9, 1e-150, 1e-150, 0.7),
                 ComplianceLimit("x", 5e-324), DistanceSearch(1.0, 1e300), OverflowError,
                 r"^averaged SAR at the near end of the search range, 1\.0 m, is too large "
                 "to extrapolate to the x crossing$", id="1.0-crossing-beyond-doubles"),
])
def test_solver_refuses_a_near_end_beyond_double_precision(tx_power_dbm, tissue, limit, search,
                                                           error, message):
    link = LinkScenario(carrier_mhz=60000.0, bandwidth_hz=2.16e9,
                        tx_power_dbm=tx_power_dbm, tx_antenna=P60.scenario.tx_antenna)
    with pytest.raises(error, match=message):
        min_safe_distance(link, tissue, limit, search, P60.quadrature)


@pytest.mark.parametrize("d_lo_m", [1e-6, 1e-150])
def test_solver_extrapolates_where_the_sar_ratio_overflows(d_lo_m):
    # SAR(d_lo) / limit overflows a double, but the crossing does not
    limit = ComplianceLimit("tiny", 1e-300)
    found, from_1e_5 = (min_safe_distance(P60.scenario, P60.tissue, limit,
                                          DistanceSearch(lo, 1e160), P60.quadrature)
                        for lo in (d_lo_m, 1e-5))
    assert found == from_1e_5 == 2.2625283309059828e+148
    below = math.nextafter(found, 0.0)
    assert sar_avg(P60.scenario, P60.tissue, found, P60.quadrature) <= 1e-300 \
        < sar_avg(P60.scenario, P60.tissue, below, P60.quadrature)


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
    tissue = TissueProperties(rng.uniform(5.0, 50.0), rng.uniform(0.0, 30.0),
                              rng.uniform(900.0, 1200.0), rng.uniform(2e-4, 5e-3))
    assert tissue.mass_density_kg_per_m3 * tissue.penetration_depth_m != 1.0
    return dataclasses.replace(
        preset, tissue=tissue, scenario=dataclasses.replace(
            preset.scenario, tx_antenna=antenna, tx_power_dbm=rng.uniform(-10.0, 25.0),
            rx_gain_dbi=rng.uniform(-5.0, 15.0)))


def _scalar_row(sc, tissue, quadrature, d):
    """The row at ``d`` from the public scalar functions, by field name."""
    antenna = sc.tx_antenna
    gain = db_to_linear(gain_dbi(antenna, antenna.boresight_elevation_deg,
                                 antenna.boresight_azimuth_deg))
    snr = snr_db(sc, d)
    pd = power_density(dbm_to_watts(sc.tx_power_dbm), gain, d)
    return dict(distance_m=d, path_loss_db=fspl_db(d, sc.carrier_mhz), snr_db=snr,
                rate_bps=shannon_rate_bps(sc.bandwidth_hz, snr), boresight_pd_w_per_m2=pd,
                boresight_sar_w_per_kg=sar_boundary(pd, tissue),
                avg_sar_w_per_kg=sar_avg(sc, tissue, d, quadrature))


def _assert_rows_equal_the_scalar_chain(sc, tissue, quadrature, distances):
    rows = sweep(sc, tissue, distances, quadrature)
    assert len(rows) == len(distances)
    for row, d in zip(rows, distances):
        expected = _scalar_row(sc, tissue, quadrature, d)
        assert {name: getattr(row, name) for name in expected} == expected


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
    distances = [float(d) for d in np.geomspace(*grid)]
    _assert_rows_equal_the_scalar_chain(preset.scenario, preset.tissue, preset.quadrature,
                                        distances)


def _span(low, high):
    return st.floats(min_value=low, max_value=high)


# every row of a random link equals the scalar chain's, or the sweep refuses the link
@given(preset=st.sampled_from([P60, P24]), tx_power_dbm=_span(-300.0, 3000.0),
       rx_gain_dbi=_span(-1e3, 1e3), bandwidth_hz=_span(1.0, 1e300),
       noise_figure_db=_span(0.0, 100.0), temperature_k=_span(1e-3, 1e4),
       carrier_mhz=_span(1e-3, 1e12), eps=st.tuples(_span(1.0, 100.0), _span(0.0, 100.0)),
       density=_span(1e-150, 1e150), depth=_span(1e-150, 1e150),
       override=st.none() | _span(0.0, 0.99),
       distances=st.lists(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
                          min_size=1, max_size=6, unique=True).map(sorted))
@example(preset=P60, tx_power_dbm=3000.0, rx_gain_dbi=1e3, bandwidth_hz=1e300,
         noise_figure_db=0.0, temperature_k=1e-3, carrier_mhz=1e-3, eps=(1.0, 0.0),
         density=1e-150, depth=1e-150, override=None,
         distances=[5e-324, 1e-3, 1.7976931348623157e308])
@seed(2121)
@settings(max_examples=200, deadline=None)
def test_column_sweep_equals_the_scalar_chain_on_random_links(
        preset, tx_power_dbm, rx_gain_dbi, bandwidth_hz, noise_figure_db, temperature_k,
        carrier_mhz, eps, density, depth, override, distances):
    sc = dataclasses.replace(
        preset.scenario, tx_power_dbm=tx_power_dbm, rx_gain_dbi=rx_gain_dbi,
        bandwidth_hz=bandwidth_hz, noise_figure_db=noise_figure_db,
        temperature_k=temperature_k, carrier_mhz=carrier_mhz)
    tissue = TissueProperties(*eps, density, depth, override)
    quadrature = preset.quadrature
    try:
        nearest = _scalar_row(sc, tissue, quadrature, distances[0])
        overflows = not all(map(math.isfinite, nearest.values()))
    except OverflowError:
        overflows = True
    if overflows or snr_db(sc, distances[-1]) == -math.inf:
        with pytest.raises(OverflowError):
            sweep(sc, tissue, distances, quadrature)
        return
    _assert_rows_equal_the_scalar_chain(sc, tissue, quadrature, distances)


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
    """``sweep`` builds each row as a tuple without the constructor; a row must
    behave as the record the constructor builds from the same values."""
    names = ExposureResult._fields
    for row in sweep(preset.scenario, preset.tissue, [1e-3, 0.01, 0.1, 1.0],
                     preset.quadrature):
        built = ExposureResult(*[getattr(row, name) for name in names])
        assert type(row) is ExposureResult
        assert row == built and hash(row) == hash(built) and repr(row) == repr(built)
        assert list(row._asdict().items()) == list(built._asdict().items())
        assert tuple(row._asdict()) == names
        assert tuple(row) == tuple(built) and len(row) == 7
        assert row == tuple(row) and hash(row) == hash(tuple(row))
        assert pickle.dumps(row) == pickle.dumps(built)
        assert pickle.loads(pickle.dumps(row)) == row
        assert type(copy.copy(row)) is ExposureResult and copy.copy(row) == row
        with pytest.raises(AttributeError):
            row.snr_db = 0.0
        with pytest.raises(TypeError):
            vars(row)
        with pytest.raises(ValueError, match="^distance_m must be > 0$"):
            row._replace(distance_m=-1.0)
        with pytest.raises(ValueError, match="^Got unexpected field names"):
            row._replace(speed=1.0)


@pytest.mark.parametrize("distances", [
    [1, 2, 3], np.array([1, 2, 3]), np.array([1.0, 2.0, 3.0]),
    [np.int64(1), np.float32(2.0), np.float64(3.0)],
], ids=["ints", "numpy-ints", "numpy-floats", "numpy-scalars"])
def test_sweep_rows_hold_float_distances(distances):
    rows = sweep(P60.scenario, P60.tissue, distances, P60.quadrature)
    assert all(type(value) is float for row in rows for value in tuple(row))
    assert rows == sweep(P60.scenario, P60.tissue, [1.0, 2.0, 3.0], P60.quadrature)


def test_sweep_runs_no_record_checks(monkeypatch):
    calls = {"n": 0}
    true_new = ExposureResult.__new__

    def counting(cls, *args, **kwargs):
        calls["n"] += 1
        return true_new(cls, *args, **kwargs)

    monkeypatch.setattr(ExposureResult, "__new__", counting)
    ExposureResult(1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    assert calls["n"] == 1  # the counter sees the constructor
    rows = sweep(P60.scenario, P60.tissue, np.geomspace(1e-3, 1.0, 1000).tolist(),
                 P60.quadrature)
    assert len(rows) == 1000
    assert calls["n"] == 1
