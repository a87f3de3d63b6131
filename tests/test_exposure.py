"""Power density, reflection, boundary SAR, and the angle-averaged SAR."""

import bisect
import copy
import dataclasses
import itertools
import math
import pickle
import random
from fractions import Fraction

import numpy as np
import pytest

from wearemf import (
    AntennaConfig,
    ConvergenceError,
    ExposureResult,
    LinkScenario,
    PatternModel,
    QuadratureSpec,
    TissueProperties,
    db_to_linear,
    dbm_to_watts,
    gain_dbi,
    load_preset,
    power_density,
    reflection_coefficient,
    sar_avg,
    sar_boundary,
)
from wearemf import exposure
from wearemf.exposure import _grid, _linspace, _mean_gain, _pattern_means

ULA16 = AntennaConfig(model=PatternModel.LINEAR_ARRAY_FACTOR, g_max_dbi=11.9,
                      n_elements=16)
FLAT = AntennaConfig(model=PatternModel.LINEAR_ARRAY_FACTOR, g_max_dbi=11.9,
                     n_elements=1)
PATCH = AntennaConfig(model=PatternModel.PARABOLIC_ENVELOPE, g_max_dbi=10.1,
                      omni_azimuth=True)

def _scenario(antenna, tx_power_dbm=10.0):
    return LinkScenario(carrier_mhz=60000.0, bandwidth_hz=2.16e9,
                        tx_power_dbm=tx_power_dbm, tx_antenna=antenna)

SKIN = TissueProperties(rel_permittivity_real=7.98, rel_permittivity_imag=10.9)


def test_power_density_isotropic_reference():
    assert power_density(1.0, 1.0, 1.0) == pytest.approx(1.0 / (4.0 * math.pi),
                                                         rel=1e-15)


def test_power_density_close_range_reference():
    pd = power_density(0.01, db_to_linear(11.9), 0.012)
    assert pd == pytest.approx(85.59091001486031, rel=1e-12)
    assert pd == pytest.approx(85.6, abs=0.05)


def test_power_density_inverse_square_is_exact():
    for d in (0.003, 0.012, 0.3, 1.7):
        assert power_density(0.01, 15.0, 2.0 * d) == power_density(0.01, 15.0, d) / 4.0


def test_power_density_rejects_bad_inputs():
    for p, g, d in ((0.0, 1.0, 1.0), (1.0, 0.0, 1.0), (1.0, 1.0, 0.0),
                    (1.0, 1.0, -0.1), (math.nan, 1.0, 1.0), (True, 1.0, 1.0),
                    (1.0, "1", 1.0), (1.0, 1.0, None), (1.0, 1.0, 10**400)):
        with pytest.raises(ValueError):
            power_density(p, g, d)


def test_power_density_overflow_names_the_distance():
    # 1e-160 m overflows the quotient, 1e-170 m underflows d^2 to zero
    for d in (1e-160, 1e-170):
        with pytest.raises(OverflowError, match=repr(d)):
            power_density(1.0, 1.0, d)


def test_reflection_free_space_is_zero():
    assert reflection_coefficient(TissueProperties()) == 0.0


def test_reflection_lossless_quartz_like():
    tissue = TissueProperties(rel_permittivity_real=4.0)
    assert reflection_coefficient(tissue) == pytest.approx(1.0 / 3.0, rel=1e-12)


def test_reflection_conductor_limit():
    tissue = TissueProperties(rel_permittivity_real=1e8)
    assert 0.999 < reflection_coefficient(tissue) < 1.0


def test_reflection_skin_value_at_60ghz():
    assert reflection_coefficient(SKIN) == pytest.approx(0.6145, abs=2e-4)


def test_reflection_override_wins():
    tissue = TissueProperties(rel_permittivity_real=7.98, rel_permittivity_imag=10.9,
                              reflection_override=0.37)
    assert reflection_coefficient(tissue) == 0.37


def test_reflection_rejects_non_positive_real_part():
    with pytest.raises(ValueError):
        reflection_coefficient(TissueProperties(rel_permittivity_real=-2.0,
                                                rel_permittivity_imag=1.0))


def test_sar_boundary_unit_substitution_is_exact():
    tissue = TissueProperties(reflection_override=0.0)
    assert sar_boundary(1.0, tissue) == 2.0


def test_sar_boundary_overflow_raises():
    # 2 * PD * (1 - gamma^2) / (depth * density) exceeds the double range
    tissue = TissueProperties(mass_density_kg_per_m3=1e-6, penetration_depth_m=1e-6,
                              reflection_override=0.7)
    with pytest.raises(OverflowError, match="1e[+]300"):
        sar_boundary(1e300, tissue)


def test_sar_boundary_rejects_a_negative_power_density():
    with pytest.raises(ValueError, match="^pd_w_per_m2 must be >= 0$"):
        sar_boundary(-1.0, SKIN)


def test_sar_boundary_reference_value():
    tissue = TissueProperties(reflection_override=0.6)
    assert sar_boundary(85.6, tissue) == pytest.approx(109.568, rel=1e-12)


def test_sar_boundary_linear_in_power_density():
    tissue = TissueProperties(reflection_override=0.3)
    for pd in (0.5, 7.0, 123.0):
        assert sar_boundary(2.0 * pd, tissue) == 2.0 * sar_boundary(pd, tissue)


def test_sar_boundary_vanishes_toward_total_reflection():
    nearly_total = TissueProperties(reflection_override=1.0 - 1e-9)
    assert sar_boundary(100.0, nearly_total) < 1e-3
    with pytest.raises(ValueError):
        TissueProperties(reflection_override=1.0)


def test_sar_boundary_continuous_in_reflection():
    gammas = np.linspace(0.0, 0.999, 200)
    values = [sar_boundary(1.0, TissueProperties(reflection_override=float(g)))
              for g in gammas]
    steps = np.abs(np.diff(values))
    assert steps.max() < 0.03  # smooth, no jumps


def test_sar_avg_isotropic_equals_point_sar_exactly():
    scenario = _scenario(FLAT)
    for d in (0.005, 0.02, 0.4):
        pd_boresight = power_density(dbm_to_watts(scenario.tx_power_dbm),
                                     db_to_linear(FLAT.g_max_dbi), d)
        assert sar_avg(scenario, SKIN, d) == sar_boundary(pd_boresight, SKIN)


def test_sar_avg_inverse_square_is_exact():
    scenario = _scenario(ULA16)
    for d in (0.001, 0.0123, 0.25):
        assert sar_avg(scenario, SKIN, 2.0 * d) == sar_avg(scenario, SKIN, d) / 4.0


def test_sar_avg_strictly_decreasing():
    scenario = _scenario(ULA16)
    distances = np.geomspace(1e-3, 1.0, 40)
    values = [sar_avg(scenario, SKIN, float(d)) for d in distances]
    for earlier, later in zip(values, values[1:]):
        assert later < earlier


def test_sar_avg_never_exceeds_boresight_sar():
    for antenna in (ULA16, PATCH):
        scenario = _scenario(antenna)
        for d in (0.002, 0.05, 0.9):
            pd_boresight = power_density(dbm_to_watts(scenario.tx_power_dbm),
                                         db_to_linear(antenna.g_max_dbi), d)
            assert sar_avg(scenario, SKIN, d) <= sar_boundary(pd_boresight, SKIN)


def test_sar_avg_self_convergence_at_default_grid():
    default = QuadratureSpec()
    doubled = QuadratureSpec(samples_per_axis=2 * (default.samples_per_axis - 1) + 1)
    for antenna in (ULA16, PATCH):
        scenario = _scenario(antenna)
        coarse = sar_avg(scenario, SKIN, 0.01, default)
        fine = sar_avg(scenario, SKIN, 0.01, doubled)
        assert abs(fine - coarse) / fine < 1e-3


def test_sar_avg_reports_non_convergence():
    # two points per axis cannot resolve the envelope pattern
    scenario = _scenario(AntennaConfig(model=PatternModel.PARABOLIC_ENVELOPE,
                                       g_max_dbi=11.9))
    with pytest.raises(ConvergenceError):
        sar_avg(scenario, SKIN, 0.01, QuadratureSpec(samples_per_axis=2))


def test_sar_avg_rejects_bad_distance():
    scenario = _scenario(ULA16)
    for d in (0.0, -0.01, math.nan, True, "0.01", None, 10**400):
        with pytest.raises(ValueError):
            sar_avg(scenario, SKIN, d)


@pytest.mark.parametrize("kwargs", [
    dict(samples_per_axis=1),
    dict(samples_per_axis=0),
    dict(convergence_tol=0.0),
    dict(convergence_tol=-1e-3),
    dict(samples_per_axis=360.5),
    dict(samples_per_axis=True),
    dict(samples_per_axis=math.inf),
    dict(samples_per_axis=math.nan),
    dict(samples_per_axis=65537),
    dict(samples_per_axis=None),
    *[dict(convergence_tol=bad) for bad in (True, "1", None, 10**400)],
])
def test_quadrature_spec_validation(kwargs):
    with pytest.raises(ValueError):
        QuadratureSpec(**kwargs)


def test_quadrature_spec_stores_an_integral_float_as_int():
    spec = QuadratureSpec(samples_per_axis=361.0)
    assert type(spec.samples_per_axis) is int
    assert spec == QuadratureSpec(samples_per_axis=361)
    scenario = _scenario(ULA16)
    assert sar_avg(scenario, SKIN, 0.01, spec) == sar_avg(scenario, SKIN, 0.01)


# The 2-D numpy quadrature that the elevation-only average replaced; it
# stays here as the reference both averages are checked against.
def _reference_attenuation_db(config, theta_rad, phi_rad):
    def wrap(angle_rad):
        return (angle_rad + math.pi) % (2.0 * math.pi) - math.pi

    dtheta = wrap(np.asarray(theta_rad, dtype=float)
                  - math.radians(config.boresight_elevation_deg))
    floor_db = config.sidelobe_floor_db
    if config.model is PatternModel.PARABOLIC_ENVELOPE:
        theta_3db = math.radians(config.theta_3db_deg)
        att = 12.0 * (dtheta / theta_3db) ** 2
        if not config.omni_azimuth:
            dphi = wrap(np.asarray(phi_rad, dtype=float)
                        - math.radians(config.boresight_azimuth_deg))
            att = att + 12.0 * (dphi / theta_3db) ** 2
        return np.minimum(att, floor_db)
    n = config.n_elements
    x = math.pi * config.element_spacing_wavelengths * np.sin(dtheta)
    num = np.sin(n * x)
    den = np.sin(x)
    singular = np.abs(den) < 1e-12
    ratio = np.where(singular, float(n), num / np.where(singular, 1.0, den))
    rel_amp = np.clip(np.abs(ratio) / n, 10.0 ** (-floor_db / 20.0), 1.0)
    return np.minimum(-20.0 * np.log10(rel_amp), floor_db)


def _reference_mean_power_ratio(antenna, samples):
    grid = np.linspace(0.0, 2.0 * math.pi, samples)
    att = _reference_attenuation_db(antenna, grid[:, None], grid[None, :])
    ratio = np.broadcast_to(10.0 ** (-att / 10.0), (samples, samples))
    weights = np.ones(samples)
    weights[0] = weights[-1] = 0.5
    total = float(np.sum(ratio * (weights[:, None] * weights[None, :])))
    panels = samples - 1
    return total / (panels * panels)


def _design(rng, kind):
    elevation = rng.uniform(-90.0, 90.0)
    if kind == "array":
        return AntennaConfig(model=PatternModel.LINEAR_ARRAY_FACTOR, g_max_dbi=12.0,
                             n_elements=rng.randint(1, 32),
                             element_spacing_wavelengths=rng.uniform(0.1, 1.2),
                             sidelobe_floor_db=rng.uniform(10.0, 40.0),
                             boresight_elevation_deg=elevation)
    return AntennaConfig(model=PatternModel.PARABOLIC_ENVELOPE, g_max_dbi=8.0,
                         theta_3db_deg=rng.uniform(5.0, 180.0),
                         sidelobe_floor_db=rng.uniform(10.0, 40.0),
                         boresight_elevation_deg=elevation,
                         boresight_azimuth_deg=rng.uniform(-90.0, 90.0),
                         omni_azimuth=kind == "omni")


@pytest.mark.parametrize("samples", [361, 721, 1441])
@pytest.mark.parametrize("kind", ["array", "omni", "2d"])
def test_mean_power_ratio_matches_the_2d_reference(kind, samples):
    rng = random.Random(f"{kind}-{samples}")
    for _ in range(6):
        antenna = _design(rng, kind)
        got, _ = _pattern_means(antenna, samples)
        want = _reference_mean_power_ratio(antenna, samples)
        # both averages round differently from the one 2-D numpy sum; 8 ulps
        # is the bound fixed before either was written
        assert abs(got - want) <= 8 * math.ulp(want), antenna


def test_the_doubled_grid_holds_the_grid_at_its_even_points():
    rng = random.Random(11)
    for n in [*range(2, 1501), *(rng.randint(1501, 65536) for _ in range(4)), 65536]:
        assert _linspace(0.0, 2.0 * math.pi, n) == \
            _linspace(0.0, 2.0 * math.pi, 2 * n - 1)[::2], n


def test_the_shared_grid_is_the_linspace_grid():
    rng = random.Random(11)
    for n in [*range(2, 1501), *(rng.randint(1501, 65536) for _ in range(4)), 65536]:
        for points in (n, 2 * n - 1):
            assert _grid(points) == tuple(_linspace(0.0, 2.0 * math.pi, points)), points


def test_each_grid_size_is_built_once_and_the_cache_is_bounded():
    assert _grid(2 * 361 - 1) is _grid(2 * 361 - 1)
    # at 2^16 samples per axis one fine grid holds 131071 floats, about 4.2 MB
    assert _grid.cache_info().maxsize == 4


@pytest.mark.parametrize("kind", ["array", "omni", "2d"])
def test_the_refined_mean_is_the_mean_on_the_doubled_grid(kind):
    antenna = _design(random.Random(f"doubled-{kind}"), kind)
    for samples in (2, 181, 361):
        _, refined = _pattern_means(antenna, samples)
        assert refined == _pattern_means(antenna, 2 * samples - 1)[0], samples


@pytest.mark.parametrize("kind", ["array", "omni", "2d"])
def test_the_mean_gain_evaluates_the_pattern_once_on_the_doubled_grid(kind, monkeypatch):
    calls = []
    array_factor, parabolic_dbs = exposure._array_factor, exposure._parabolic_dbs

    def counted_array_factor(config, thetas_rad, **kwargs):
        calls.append(("array factor", list(thetas_rad)))
        return array_factor(config, thetas_rad, **kwargs)

    def counted_parabolic_dbs(angles_rad, *axis):
        calls.append((axis, list(angles_rad)))
        return parabolic_dbs(angles_rad, *axis)

    monkeypatch.setattr(exposure, "_array_factor", counted_array_factor)
    monkeypatch.setattr(exposure, "_parabolic_dbs", counted_parabolic_dbs)
    # a design no other test uses, so that the pattern cache misses, and its
    # narrower variant, whose main lobe leaves points on the floor
    design = _design(random.Random(f"once-{kind}"), kind)
    assert design.boresight_elevation_deg != design.boresight_azimuth_deg
    # the count is under test, not the accuracy of a random design
    quadrature = QuadratureSpec(samples_per_axis=181, convergence_tol=1.0)
    grid = _linspace(0.0, 2.0 * math.pi, 2 * 181 - 1)
    for antenna in (design, design.replace(theta_3db_deg=60.0)):
        calls.clear()
        first = _mean_gain(antenna, quadrature)
        assert {angle for _, angles in calls for angle in angles} <= set(grid)
        axes = {}
        for axis, angles in calls:
            axes.setdefault(axis, []).append(angles)
        assert len(axes) == (2 if kind == "2d" else 1)  # 2-D: one pass per axis
        for axis, (*probes, window) in axes.items():
            # each axis is evaluated in one pass, no point twice; a parabolic axis
            # only at its end point and in its main-lobe window, after at most
            # three single-point probes per edge of that window
            assert len(set(window)) == len(window)
            if kind == "array":
                assert window == grid and not probes
            else:
                assert all(len(probe) == 1 for probe in probes) and len(probes) <= 2 * 3
                assert set(window) == {grid[-1], *(
                    angle for angle in grid[:-1]
                    if _parabolic_db(antenna, angle, axis[0]) < antenna.sidelobe_floor_db)}
        evaluated = len(calls)
        assert _mean_gain(antenna, quadrature) == first
        assert len(calls) == evaluated


# The scalar pattern helpers as first written, kept as the byte-level
# reference for the grid kernels and the gain: every term must be equal.
def _wrap_rad(angle_rad):
    return (angle_rad + math.pi) % (2.0 * math.pi) - math.pi


def _parabolic_db(config, angle_rad, boresight_deg):
    ratio = _wrap_rad(angle_rad - math.radians(boresight_deg)) / math.radians(
        config.theta_3db_deg)
    return 12.0 * (ratio * ratio)


def _attenuation_db(config, theta_rad, phi_rad):
    floor_db = config.sidelobe_floor_db
    if config.model is PatternModel.PARABOLIC_ENVELOPE:
        att = _parabolic_db(config, theta_rad, config.boresight_elevation_deg)
        if not config.omni_azimuth:
            att = att + _parabolic_db(config, phi_rad, config.boresight_azimuth_deg)
        return min(att, floor_db)
    dtheta = _wrap_rad(theta_rad - math.radians(config.boresight_elevation_deg))
    n = config.n_elements
    x = math.pi * config.element_spacing_wavelengths * math.sin(dtheta)
    den = math.sin(x)
    ratio = float(n) if abs(den) < 1e-12 else math.sin(n * x) / den
    rel_amp = min(max(abs(ratio) / n, 10.0 ** (-floor_db / 20.0)), 1.0)
    return min(-20.0 * math.log10(rel_amp), floor_db)


def _power_ratio(config, theta_rad, phi_rad):
    return 10.0 ** (-_attenuation_db(config, theta_rad, phi_rad) / 10.0)


# The clipped 2-D mean as first written, index-sorted with every row bisected,
# kept as the byte-level reference for the sorted-row version.
def _reference_running_sums(values):
    sums = [0.0]
    total = lost = 0.0
    for value in values:
        step = total + value
        lost += (total - step) + value if total >= value else (value - step) + total
        total = step
        sums.append(total + lost)
    return sums


def _reference_clipped_mean(elevation, azimuth, floor_db):
    last = len(azimuth) - 1
    order = sorted(range(last + 1), key=azimuth.__getitem__)
    ascending = [azimuth[j] for j in order]
    weights = [0.5 if j in (0, last) else 1.0 for j in order]
    ratio_sums = _reference_running_sums(
        [w * 10.0 ** (-a / 10.0) for w, a in zip(weights, ascending)])
    weight_sums = [0.0, *itertools.accumulate(weights)]
    total_weight = weight_sums[-1]
    floor_ratio = 10.0 ** (-floor_db / 10.0)
    bounds = [bisect.bisect_left(ascending, floor_db - e) for e in elevation]
    row_weights = [0.5, *[1.0] * (last - 1), 0.5]
    rows = [w * 10.0 ** (-e / 10.0) * ratio_sums[k]
            for w, e, k in zip(row_weights, elevation, bounds)]
    rows += [w * floor_ratio * (total_weight - weight_sums[k])
             for w, k in zip(row_weights, bounds)]
    return math.fsum(rows) / (last * last)


def _reference_means(antenna, samples):
    """``_pattern_means`` with every pattern term taken from the scalar reference."""
    fine = _linspace(0.0, 2.0 * math.pi, 2 * samples - 1)
    if antenna.model is PatternModel.LINEAR_ARRAY_FACTOR or antenna.omni_azimuth:
        ratios = [_power_ratio(antenna, theta, 0.0) for theta in fine]
        return exposure._trapezoid_mean(ratios[::2]), exposure._trapezoid_mean(ratios)
    elevation = [_parabolic_db(antenna, theta, antenna.boresight_elevation_deg)
                 for theta in fine]
    azimuth = [_parabolic_db(antenna, phi, antenna.boresight_azimuth_deg) for phi in fine]
    floor_db = antenna.sidelobe_floor_db
    return (_reference_clipped_mean(elevation[::2], azimuth[::2], floor_db),
            _reference_clipped_mean(elevation, azimuth, floor_db))


def _edge_designs(rng, count):
    """Seeded designs of all three kinds that reach the pattern's edge cases."""
    designs = [
        # one element, and elements at one point: every direction is boresight
        AntennaConfig(model=PatternModel.LINEAR_ARRAY_FACTOR, g_max_dbi=3.0, n_elements=1),
        AntennaConfig(model=PatternModel.LINEAR_ARRAY_FACTOR, g_max_dbi=3.0, n_elements=8,
                      element_spacing_wavelengths=0.0),
        # one wavelength apart: grating lobes where sin(x) vanishes
        AntennaConfig(model=PatternModel.LINEAR_ARRAY_FACTOR, g_max_dbi=3.0, n_elements=8,
                      element_spacing_wavelengths=1.0, boresight_elevation_deg=-270.0),
    ]
    while len(designs) < count:
        kind = rng.choice(["array", "omni", "2d"])
        floor_db = rng.choice([rng.uniform(0.01, 1.0), rng.uniform(1.0, 60.0)])
        elevation, azimuth = rng.uniform(-540.0, 540.0), rng.uniform(-540.0, 540.0)
        if kind == "array":
            designs.append(AntennaConfig(
                model=PatternModel.LINEAR_ARRAY_FACTOR, g_max_dbi=12.0,
                n_elements=rng.randint(1, 64),
                element_spacing_wavelengths=rng.choice([0.0, 0.5, 1.0, rng.uniform(0.0, 2.0)]),
                sidelobe_floor_db=floor_db, boresight_elevation_deg=elevation))
        else:
            designs.append(AntennaConfig(
                model=PatternModel.PARABOLIC_ENVELOPE, g_max_dbi=8.0,
                theta_3db_deg=rng.uniform(1.0, 180.0), sidelobe_floor_db=floor_db,
                boresight_elevation_deg=elevation, boresight_azimuth_deg=azimuth,
                omni_azimuth=kind == "omni"))
    return designs


def test_the_grating_lobe_designs_reach_the_vanishing_denominator():
    antenna = _edge_designs(random.Random(0), 3)[2]
    fine = _linspace(0.0, 2.0 * math.pi, 2 * 181 - 1)
    boresight = math.radians(antenna.boresight_elevation_deg)
    assert any(abs(math.sin(math.pi * math.sin(_wrap_rad(theta - boresight)))) < 1e-12
               for theta in fine)


@pytest.mark.parametrize("samples", [2, 3, 17, 181, 361])
def test_means_and_gains_equal_the_scalar_reference(samples):
    rng = random.Random(f"scalar-{samples}")
    for antenna in _edge_designs(rng, 40):
        assert _pattern_means(antenna, samples) == _reference_means(antenna, samples), antenna
        for _ in range(10):
            theta = rng.choice([rng.uniform(-720.0, 720.0), antenna.boresight_elevation_deg,
                                antenna.boresight_elevation_deg + 90.0])
            phi = rng.choice([rng.uniform(-720.0, 720.0), antenna.boresight_azimuth_deg])
            want = antenna.g_max_dbi - _attenuation_db(antenna, math.radians(theta),
                                                       math.radians(phi))
            assert gain_dbi(antenna, theta, phi) == want, (antenna, theta, phi)


def _row_classes(antenna, samples):
    """Which cases of the clipped 2-D mean ``antenna`` reaches on ``samples`` points:
    tied end columns, every inner row clipped in every pair, and every inner row
    clipped in none."""
    grid = _linspace(0.0, 2.0 * math.pi, samples)
    elevation = [_parabolic_db(antenna, theta, antenna.boresight_elevation_deg)
                 for theta in grid]
    azimuth = [_parabolic_db(antenna, phi, antenna.boresight_azimuth_deg) for phi in grid]
    floor_db, inner = antenna.sidelobe_floor_db, elevation[1:-1]
    return (azimuth[0] == azimuth[-1],
            bool(inner) and all(floor_db - e <= min(azimuth) for e in inner),
            bool(inner) and all(floor_db - e > max(azimuth) for e in inner))


@pytest.mark.parametrize("samples", [2, 3, 17, 181])
def test_the_sorted_row_mean_equals_the_index_sorted_reference(samples):
    rng = random.Random(f"rows-{samples}")
    reached = []
    for azimuth in (0.0, 180.0, 360.0, -180.0, rng.uniform(-540.0, 540.0)):
        for floor_db, theta_3db in ((0.01, rng.uniform(1.0, 180.0)),  # every row clipped
                                    (1.0e6, 180.0),  # no row clipped
                                    (rng.uniform(0.01, 60.0), rng.uniform(1.0, 180.0))):
            antenna = AntennaConfig(
                model=PatternModel.PARABOLIC_ENVELOPE, g_max_dbi=8.0,
                theta_3db_deg=theta_3db, sidelobe_floor_db=floor_db,
                boresight_elevation_deg=rng.choice([0.0, 180.0, rng.uniform(-540.0, 540.0)]),
                boresight_azimuth_deg=azimuth)
            assert _pattern_means(antenna, samples) == _reference_means(antenna, samples), \
                antenna
            reached += [_row_classes(antenna, samples), _row_classes(antenna, 2 * samples - 1)]
        # a row whose threshold floor - e is exactly the largest a, so its bisection
        # stops at the last column rather than past it
        grid = _linspace(0.0, 2.0 * math.pi, 2 * samples - 1)
        largest = max(_parabolic_db(antenna, phi, azimuth) for phi in grid)
        for theta in grid[1:-1]:
            e = _parabolic_db(antenna, theta, antenna.boresight_elevation_deg)
            if 0.0 < e + largest and (e + largest) - e == largest:
                antenna = dataclasses.replace(antenna, sidelobe_floor_db=e + largest)
                assert _pattern_means(antenna, samples) == \
                    _reference_means(antenna, samples), antenna
                break
    for case in range(3):
        assert any(classes[case] for classes in reached), case


@pytest.mark.parametrize("samples", [721, 1441])
def test_the_clipped_mean_equals_the_bisected_reference_at_design_scan_sizes(samples):
    rng = random.Random(f"scan-{samples}")
    # drawn as the benchmark's design-scan draws 2-D designs, then a few far boresights
    for bound in [10.0] * 12 + [540.0] * 3:
        antenna = AntennaConfig(
            model=PatternModel.PARABOLIC_ENVELOPE, g_max_dbi=rng.uniform(3.0, 12.0),
            theta_3db_deg=rng.uniform(40.0, 120.0), sidelobe_floor_db=rng.uniform(20.0, 35.0),
            boresight_elevation_deg=rng.uniform(-bound, bound),
            boresight_azimuth_deg=rng.uniform(-bound, bound))
        assert _pattern_means(antenna, samples) == _reference_means(antenna, samples), antenna


def _walk_cases(antenna, samples):
    """Which edges of the walk over the partly clipped inner rows ``antenna``
    reaches on ``samples`` points: a threshold floor - e exactly equal to an a
    strictly between the smallest and the largest, a threshold exactly the
    smallest a beside rows that the walk visits, equal e among the partly
    clipped inner rows, and no row above the floor in any pair (the walk
    starts at 0)."""
    grid = _linspace(0.0, 2.0 * math.pi, samples)
    elevation = [_parabolic_db(antenna, theta, antenna.boresight_elevation_deg)
                 for theta in grid]
    azimuth = [_parabolic_db(antenna, phi, antenna.boresight_azimuth_deg) for phi in grid]
    floor_db, lowest, highest = antenna.sidelobe_floor_db, min(azimuth), max(azimuth)
    values, inner = set(azimuth), elevation[1:-1]
    thresholds = [floor_db - e for e in inner]
    partial = [e for e, t in zip(inner, thresholds) if t > lowest]
    return (any(lowest < t < highest and t in values for t in thresholds),
            lowest in thresholds and bool(partial),
            len(set(partial)) < len(partial),
            floor_db - min(elevation) <= lowest)


@pytest.mark.parametrize("samples", [3, 5, 17, 181])
def test_the_row_walk_equals_the_bisected_reference_at_its_edges(samples):
    rng = random.Random(f"walk-{samples}")
    reached = []
    # boresight elevations 0 and 180 degrees mirror the rows into runs of equal e;
    # a boresight azimuth of 0 puts the smallest a at exactly 0
    boresights = [(0.0, rng.uniform(-540.0, 540.0)), (180.0, 0.0),
                  (rng.uniform(-540.0, 540.0), 0.0),
                  (rng.uniform(-540.0, 540.0), rng.uniform(-540.0, 540.0))]
    for elevation_deg, azimuth_deg in 3 * boresights:
        antenna = AntennaConfig(
            model=PatternModel.PARABOLIC_ENVELOPE, g_max_dbi=8.0,
            theta_3db_deg=rng.uniform(20.0, 180.0), sidelobe_floor_db=rng.uniform(5.0, 40.0),
            boresight_elevation_deg=elevation_deg, boresight_azimuth_deg=azimuth_deg)
        variants = [antenna]
        grid = _linspace(0.0, 2.0 * math.pi, 2 * samples - 1)
        elevation = [_parabolic_db(antenna, theta, elevation_deg) for theta in grid]
        azimuth = sorted(_parabolic_db(antenna, phi, antenna.boresight_azimuth_deg)
                         for phi in grid)
        # floors that put a middle inner row's threshold floor - e exactly on the
        # smallest a (the edge of the clipped split) or on an a inside the walk; a
        # tie moves one pair's term by about an ulp, so take several
        inner = sorted(elevation[1:-1])
        for a in (azimuth[0], *azimuth[1:-1:max(1, len(azimuth) // 8)]):
            for e in inner[len(inner) // 2:]:
                if 0.0 < e + a and (e + a) - e == a:
                    variants.append(dataclasses.replace(antenna, sidelobe_floor_db=e + a))
                    break
        # a floor whose lowest row's threshold is the smallest a: no row reaches a pair
        lowest = min(elevation)
        if 0.0 < lowest + azimuth[0] and (lowest + azimuth[0]) - lowest == azimuth[0]:
            variants.append(dataclasses.replace(antenna, sidelobe_floor_db=lowest + azimuth[0]))
        for variant in variants:
            assert _pattern_means(variant, samples) == _reference_means(variant, samples), \
                variant
            reached += [_walk_cases(variant, samples), _walk_cases(variant, 2 * samples - 1)]
    for case in range(4):
        assert any(classes[case] for classes in reached), case


def _parabolic_boresights(antenna):
    if antenna.omni_azimuth:
        return [antenna.boresight_elevation_deg]
    return [antenna.boresight_elevation_deg, antenna.boresight_azimuth_deg]


def _window_cases(antenna, samples):
    """Which edges of the main-lobe windows ``antenna`` reaches on ``samples`` points,
    on either parabolic axis: a window that holds the first and the last point of
    the cycle (the grid less its end point) but not every point, a window that
    holds every point, a window that holds none, and a floor equal to one point's
    attenuation."""
    grid = _linspace(0.0, 2.0 * math.pi, samples)
    floor_db = antenna.sidelobe_floor_db
    cases = []
    for boresight in _parabolic_boresights(antenna):
        atts = [_parabolic_db(antenna, angle, boresight) for angle in grid]
        below = [att < floor_db for att in atts[:-1]]
        cases.append((below[0] and below[-1] and not all(below), all(below), not any(below),
                      floor_db in atts))
    return [any(axis[case] for axis in cases) for case in range(4)]


def _assert_main_lobes(antenna, samples):
    """On the doubled grid, ``_main_lobe`` keeps the end point and exactly the
    points of the cycle below the floor, at the scalar reference's attenuations."""
    grid = _grid(2 * samples - 1)
    floor_db = antenna.sidelobe_floor_db
    for boresight in _parabolic_boresights(antenna):
        w, lo, atts = exposure._main_lobe(grid, boresight, antenna.theta_3db_deg, floor_db)
        kept = [*range(w), *range(lo, lo + len(atts) - w - 1), len(grid) - 1]
        want = [_parabolic_db(antenna, angle, boresight) for angle in grid]
        assert kept == [i for i, att in enumerate(want[:-1]) if att < floor_db] + \
            [len(grid) - 1], (antenna, boresight)
        assert atts == [want[i] for i in kept]


@pytest.mark.parametrize("samples", [181, 721, 1441])
def test_the_main_lobe_windows_equal_the_scalar_reference_at_their_edges(samples):
    rng = random.Random(f"lobe-{samples}")
    step_deg = 360.0 / (2 * samples - 2)  # of the doubled grid
    reached = []
    # 0 puts the window across the first and the last point, +-180 puts it across
    # the middle with the wrap of the offset at the ends, +-540 the same after a turn
    for boresight in (0.0, 180.0, -180.0, 540.0, -540.0):
        for omni in (True, False):
            designs = [
                (rng.uniform(20.0, 120.0), rng.uniform(5.0, 40.0)),
                (180.0, 1.0e6),  # nothing clipped: the window holds every point
                # a lobe narrower than half a step, half a step off the grid: no point survives
                (1.0, 0.01, boresight + 0.5 * step_deg),
            ]
            for theta_3db, floor_db, *off_grid in designs:
                antenna = AntennaConfig(
                    model=PatternModel.PARABOLIC_ENVELOPE, g_max_dbi=8.0,
                    theta_3db_deg=theta_3db, sidelobe_floor_db=floor_db,
                    boresight_elevation_deg=off_grid[0] if off_grid else boresight,
                    boresight_azimuth_deg=off_grid[0] if off_grid else -boresight,
                    omni_azimuth=omni)
                variants = [antenna]
                # floors on a point's attenuation inside the lobe, which puts that
                # point just outside the window, and one double above, just inside
                grid = _linspace(0.0, 2.0 * math.pi, 2 * samples - 1)
                atts = sorted(_parabolic_db(antenna, angle, antenna.boresight_elevation_deg)
                              for angle in grid)
                lobe = [att for att in atts if 0.0 < att < 40.0]
                for att in {*lobe[len(lobe) // 3:len(lobe) // 3 + 1], *lobe[-1:]}:
                    variants += [antenna.replace(sidelobe_floor_db=floor_db)
                                 for floor_db in (att, math.nextafter(att, math.inf))]
                for variant in variants:
                    assert _pattern_means(variant, samples) == \
                        _reference_means(variant, samples), variant
                    _assert_main_lobes(variant, samples)
                    reached += [_window_cases(variant, samples),
                                _window_cases(variant, 2 * samples - 1)]
    for case in range(4):
        assert any(cases[case] for cases in reached), case


def test_a_boresight_too_large_for_the_window_keeps_every_point():
    # near 1e18 degrees the wrapped offsets round to steps coarser than the grid,
    # so they no longer rise along it and the window's edges cannot be stepped to
    antenna = AntennaConfig(
        model=PatternModel.PARABOLIC_ENVELOPE, g_max_dbi=5.0,
        theta_3db_deg=40.335320041450004, sidelobe_floor_db=15.087165336993655,
        boresight_elevation_deg=1.4595923309994278e+18)
    assert _pattern_means(antenna, 361) == _reference_means(antenna, 361)


def test_the_kernels_equal_the_scalar_reference_at_every_point():
    rng = random.Random("kernels")
    angles = [*_linspace(0.0, 2.0 * math.pi, 721), *(rng.uniform(-20.0, 20.0) for _ in range(200))]
    for antenna in _edge_designs(rng, 60):
        if antenna.model is PatternModel.LINEAR_ARRAY_FACTOR or antenna.omni_azimuth:
            assert exposure._elevation_dbs(antenna, angles) == \
                [_attenuation_db(antenna, theta, 0.0) for theta in angles], antenna
        for boresight in (antenna.boresight_elevation_deg, antenna.boresight_azimuth_deg):
            assert exposure._parabolic_dbs(angles, boresight, antenna.theta_3db_deg) == \
                [_parabolic_db(antenna, angle, boresight) for angle in angles], antenna


def _closed_form_mean(antenna):
    """Exact mean of the clipped parabolic envelope over [0, 2*pi]^2, by erf.

    With c = 1.2*ln(10)/theta_3db^2 the unclipped ratio is exp(-c*delta^2),
    and the floor clips it beyond delta_c = theta_3db*sqrt(F/12).
    """
    theta_3db = math.radians(antenna.theta_3db_deg)
    floor_db = antenna.sidelobe_floor_db
    c = 1.2 * math.log(10.0) / (theta_3db * theta_3db)
    delta_c = theta_3db * math.sqrt(floor_db / 12.0)
    floor_ratio = 10.0 ** (-floor_db / 10.0)
    if antenna.omni_azimuth:
        assert delta_c < math.pi
        return (math.sqrt(math.pi / c) * math.erf(math.sqrt(c) * delta_c)
                + 2.0 * (math.pi - delta_c) * floor_ratio) / (2.0 * math.pi)
    # equal beamwidths: the unclipped region is a disc of radius delta_c
    assert delta_c <= math.pi
    area = 4.0 * math.pi ** 2
    return ((math.pi / c) * (1.0 - math.exp(-c * delta_c * delta_c))
            + floor_ratio * (area - math.pi * delta_c * delta_c)) / area


@pytest.mark.parametrize("kind", ["omni", "2d"])
def test_the_default_grid_meets_its_tolerance_against_the_closed_form(kind):
    default = QuadratureSpec()
    rng = random.Random(f"erf-{kind}")
    checked = 0
    while checked < 40:
        theta_3db, floor_db = rng.uniform(5.0, 180.0), rng.uniform(0.5, 60.0)
        if math.radians(theta_3db) * math.sqrt(floor_db / 12.0) >= math.pi:
            continue  # the floor would not clip within a turn
        antenna = AntennaConfig(
            model=PatternModel.PARABOLIC_ENVELOPE, g_max_dbi=8.0, theta_3db_deg=theta_3db,
            sidelobe_floor_db=floor_db, boresight_elevation_deg=rng.uniform(-540.0, 540.0),
            boresight_azimuth_deg=rng.uniform(-540.0, 540.0), omni_azimuth=kind == "omni")
        exact = _closed_form_mean(antenna)
        got, _ = _pattern_means(antenna, default.samples_per_axis)
        assert abs(got - exact) <= default.convergence_tol * exact, antenna
        checked += 1


def test_the_true_error_of_the_default_grid_is_pinned():
    antenna = load_preset("wearable-2.4ghz").scenario.tx_antenna
    exact = _closed_form_mean(antenna)
    assert (_pattern_means(antenna, 361)[0] - exact) / exact == pytest.approx(-1.169e-7, rel=1e-3)
    antenna = AntennaConfig(model=PatternModel.PARABOLIC_ENVELOPE, g_max_dbi=8.0,
                            theta_3db_deg=60.0, sidelobe_floor_db=25.0)
    exact = _closed_form_mean(antenna)
    assert (_pattern_means(antenna, 361)[0] - exact) / exact == pytest.approx(2.199e-7, rel=1e-3)


def _array_factor_mean(antenna):
    """True mean of the clipped array-factor power over a turn, by mpmath.quad.

    The clipped power max((sin(n*x) / (n*sin(x)))^2, 10^(-F/10)), with
    x = pi*s*sin(theta - b), is smooth between the angles where a lobe
    crosses the floor; those are found by bisection from a fine sampling,
    and each piece above the floor is integrated on its own.
    """
    mpmath = pytest.importorskip("mpmath")
    n, b = antenna.n_elements, math.radians(antenna.boresight_elevation_deg)
    phase = math.pi * antenna.element_spacing_wavelengths
    floor_ratio = 10.0 ** (-antenna.sidelobe_floor_db / 10.0)

    def above(theta):
        x = phase * math.sin(theta - b)
        return (1.0 if x == 0.0 else (math.sin(n * x) / (n * math.sin(x))) ** 2) > floor_ratio

    def power(theta):
        x = phase * mpmath.sin(theta - b)
        return 1 if x == 0 else (mpmath.sin(n * x) / (n * mpmath.sin(x))) ** 2

    two_pi = 2.0 * math.pi
    grid = [two_pi * i / 8192 for i in range(8193)]
    breaks = [0.0]
    for lo, hi in zip(grid, grid[1:]):
        side = above(lo)
        if above(hi) != side:
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                lo, hi = (mid, hi) if above(mid) == side else (lo, mid)
            breaks.append(0.5 * (lo + hi))
    breaks.append(two_pi)
    total = mpmath.fsum(mpmath.quad(power, [lo, hi]) if above(0.5 * (lo + hi))
                        else floor_ratio * (hi - lo) for lo, hi in zip(breaks, breaks[1:]))
    return float(total / two_pi)


def test_the_array_factor_oracle_equals_the_bessel_series():
    # with the floor far below every sidelobe the mean is
    # 1/n + (2/n^2) * sum_k (n - k) * J0(2*pi*s*k)
    mpmath = pytest.importorskip("mpmath")
    for n, spacing in ((4, 0.5), (9, 0.3)):
        antenna = AntennaConfig(model=PatternModel.LINEAR_ARRAY_FACTOR, g_max_dbi=12.0,
                                n_elements=n, element_spacing_wavelengths=spacing,
                                sidelobe_floor_db=300.0, boresight_elevation_deg=7.0)
        series = 1.0 / n + 2.0 / n**2 * float(mpmath.fsum(
            (n - k) * mpmath.besselj(0, 2.0 * math.pi * spacing * k) for k in range(1, n)))
        assert _array_factor_mean(antenna) == pytest.approx(series, rel=1e-9, abs=0.0)


def test_the_default_grid_meets_its_tolerance_against_the_array_factor_oracle():
    default = QuadratureSpec()
    rng = random.Random("array-oracle")
    for _ in range(10):
        # within design-scan's array designs on the default grid
        antenna = AntennaConfig(
            model=PatternModel.LINEAR_ARRAY_FACTOR, g_max_dbi=12.0,
            n_elements=rng.randint(2, 16), element_spacing_wavelengths=rng.uniform(0.25, 0.5),
            sidelobe_floor_db=rng.uniform(20.0, 35.0),
            boresight_elevation_deg=rng.uniform(-10.0, 10.0))
        exact = _array_factor_mean(antenna)
        got, _ = _pattern_means(antenna, default.samples_per_axis)
        assert abs(got - exact) <= default.convergence_tol * exact, antenna
    antenna = load_preset("wearable-60ghz").scenario.tx_antenna
    exact = _array_factor_mean(antenna)
    assert (_pattern_means(antenna, 361)[0] - exact) / exact == pytest.approx(-2.281e-4, rel=1e-3)


def test_linspace_matches_numpy():
    rng = random.Random(5)
    cases = [(0.0, 2.0 * math.pi, 361), (0.001, 0.05, 1), (0.001, 0.05, 2),
             (-3.0, 7.0, 2), (5e-324, 1e-323, 3)]
    for _ in range(200):
        scale = 10.0 ** rng.uniform(-300.0, 300.0)
        start, stop = sorted(rng.uniform(-scale, scale) for _ in range(2))
        cases.append((start, stop, rng.randint(1, 3000)))
    for start, stop, num in cases:
        assert _linspace(start, stop, num) == np.linspace(start, stop, num).tolist(), \
            (start, stop, num)


@pytest.mark.parametrize("kwargs", [
    dict(mass_density_kg_per_m3=0.0),
    dict(penetration_depth_m=0.0),
    dict(reflection_override=-0.1),
    dict(reflection_override=1.0),
    dict(rel_permittivity_real=math.nan),
    # the product underflows to zero, so sar_boundary would divide by it
    dict(penetration_depth_m=1e-200, mass_density_kg_per_m3=1e-200),
    # Fresnel reflection needs a positive real part when nothing overrides it
    dict(rel_permittivity_real=0.0, rel_permittivity_imag=1.0),
    # not a number, or beyond the double range; True is no override either
    *[{field: bad} for field in ("mass_density_kg_per_m3", "penetration_depth_m",
                                 "rel_permittivity_real", "rel_permittivity_imag")
      for bad in (True, "1", None, 10**400)],
    *[dict(reflection_override=bad) for bad in ("1", 10**400)],
    # eps' - j*eps'' with a loss term eps'' >= 0
    dict(rel_permittivity_real=38.0, rel_permittivity_imag=-10.6),
])
def test_tissue_validation(kwargs):
    with pytest.raises(ValueError):
        TissueProperties(**kwargs)


_ROW = dict(distance_m=0.01, path_loss_db=60.0, snr_db=20.0, rate_bps=1e9,
            boresight_pd_w_per_m2=10.0, boresight_sar_w_per_kg=5.0, avg_sar_w_per_kg=1.0)


@pytest.mark.parametrize("kwargs", [
    dict(distance_m=0.0),
    dict(rate_bps=-1.0),
    dict(boresight_pd_w_per_m2=-0.1),
    dict(boresight_sar_w_per_kg=-0.1),
    dict(avg_sar_w_per_kg=-0.1),
])
def test_exposure_result_validation(kwargs):
    with pytest.raises(ValueError, match=f"^{next(iter(kwargs))} must be >=? 0$"):
        ExposureResult(**{**_ROW, **kwargs})


@pytest.mark.parametrize("field, value", [
    ("path_loss_db", "x"),
    ("snr_db", None),
    ("distance_m", True),
    ("rate_bps", complex(1.0, 0.0)),
    ("avg_sar_w_per_kg", 10**400),
    ("path_loss_db", -10**400),
    ("snr_db", Fraction(10**400, 3)),
    ("snr_db", np.float64(math.nan)),
    *[(field, value) for field in _ROW for value in (math.inf, -math.inf, math.nan)],
])
def test_exposure_result_refuses_values_emission_cannot_print(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be a finite number$"):
        ExposureResult(**{**_ROW, field: value})
    with pytest.raises(ValueError, match=f"^{field} must be a finite number$"):
        ExposureResult(**_ROW)._replace(**{field: value})
    with pytest.raises(ValueError, match=f"^{field} must be a finite number$"):
        ExposureResult._make({**_ROW, field: value}.values())


def test_exposure_result_stores_floats():
    values = (np.float64(0.01), 10**20, Fraction(1, 3), np.int64(5), np.float32(0.5), 0,
              2.0**1023)
    row = ExposureResult(*values)
    assert all(type(value) is float for value in tuple(row))
    assert tuple(row) == tuple(float(value) for value in values)


def test_exposure_result_unpickles_and_copies_through_its_checks():
    forged = tuple.__new__(ExposureResult, (-1.0, *tuple(_ROW.values())[1:]))
    for rebuild in (lambda: pickle.loads(pickle.dumps(forged)), lambda: copy.copy(forged)):
        with pytest.raises(ValueError, match="^distance_m must be > 0$"):
            rebuild()
