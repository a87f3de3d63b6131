"""Gain pattern behavior: bounds, symmetry, lobe shapes, validation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wearemf import AntennaConfig, PatternModel, gain_dbi

ULA16 = AntennaConfig(model=PatternModel.LINEAR_ARRAY_FACTOR, g_max_dbi=11.9,
                      n_elements=16)
ULA4 = AntennaConfig(model=PatternModel.LINEAR_ARRAY_FACTOR, g_max_dbi=10.1,
                     n_elements=4)
PATCH = AntennaConfig(model=PatternModel.PARABOLIC_ENVELOPE, g_max_dbi=10.1,
                      omni_azimuth=True)
PENCIL = AntennaConfig(model=PatternModel.PARABOLIC_ENVELOPE, g_max_dbi=11.9)

ALL_CONFIGS = (ULA16, ULA4, PATCH, PENCIL)

angles = st.floats(min_value=-720.0, max_value=720.0,
                   allow_nan=False, allow_infinity=False)


def test_boresight_gain_is_exactly_g_max():
    for config in ALL_CONFIGS:
        assert gain_dbi(config, 0.0, 0.0) == config.g_max_dbi


def test_floor_region_hits_g_max_minus_floor_exactly():
    # 180 degrees off boresight is deep in the floor for the envelope model
    assert gain_dbi(PENCIL, 180.0, 0.0) == PENCIL.g_max_dbi - PENCIL.sidelobe_floor_db
    assert gain_dbi(PENCIL, 180.0, 0.0) == pytest.approx(11.9 - 30.0)
    # the array's first null region is floored as well
    nulled = gain_dbi(ULA16, 7.18, 0.0)
    assert nulled == ULA16.g_max_dbi - ULA16.sidelobe_floor_db


def test_half_power_offset_gives_3_db_drop():
    config = PENCIL
    offset = config.theta_3db_deg / 2.0
    assert gain_dbi(config, offset, 0.0) == pytest.approx(config.g_max_dbi - 3.0,
                                                          abs=1e-12)
    # azimuth contributes the same quadratic term when not omni
    assert gain_dbi(config, 0.0, offset) == pytest.approx(config.g_max_dbi - 3.0,
                                                          abs=1e-12)


def test_omni_azimuth_ignores_phi():
    for phi in (0.0, 45.0, 90.0, 180.0, 270.0):
        assert gain_dbi(PATCH, 10.0, phi) == gain_dbi(PATCH, 10.0, 0.0)


def test_single_element_array_is_flat_at_g_max():
    config = AntennaConfig(model=PatternModel.LINEAR_ARRAY_FACTOR, g_max_dbi=5.0,
                           n_elements=1)
    for theta in (0.0, 10.0, 37.0, 90.0, 133.0, 180.0):
        assert gain_dbi(config, theta, 0.0) == config.g_max_dbi


def test_parabola_monotone_until_floor():
    offsets = np.linspace(0.0, 180.0, 721)
    gains = [gain_dbi(PENCIL, float(t), 0.0) for t in offsets]
    for earlier, later in zip(gains, gains[1:]):
        assert later <= earlier + 1e-12


def test_main_lobe_narrows_with_more_elements():
    def width_3db(config):
        for theta in np.linspace(0.0, 90.0, 9001):
            if gain_dbi(config, float(theta), 0.0) <= config.g_max_dbi - 3.0:
                return theta
        raise AssertionError("no 3 dB point found")

    assert width_3db(ULA16) < width_3db(ULA4)


def test_grating_lobe_singularity_is_finite():
    # full-wavelength spacing puts sin(x) through zero away from boresight
    config = AntennaConfig(model=PatternModel.LINEAR_ARRAY_FACTOR, g_max_dbi=0.0,
                           n_elements=8, element_spacing_wavelengths=1.0)
    assert gain_dbi(config, 90.0, 0.0) == config.g_max_dbi


@given(theta=angles, phi=angles)
@settings(max_examples=200, deadline=None)
def test_gain_bounded_between_floor_and_peak(theta, phi):
    for config in ALL_CONFIGS:
        gain = gain_dbi(config, theta, phi)
        assert config.g_max_dbi - config.sidelobe_floor_db <= gain <= config.g_max_dbi


@given(theta=angles)
@settings(max_examples=200, deadline=None)
def test_gain_symmetric_about_boresight(theta):
    for config in ALL_CONFIGS:
        assert gain_dbi(config, theta, 0.0) == pytest.approx(
            gain_dbi(config, -theta, 0.0), abs=1e-9)


@given(theta=st.floats(min_value=-180.0, max_value=180.0,
                       allow_nan=False, allow_infinity=False))
@settings(max_examples=100, deadline=None)
def test_gain_periodic_over_full_turn(theta):
    for config in (ULA16, PENCIL):
        assert gain_dbi(config, theta + 360.0, 0.0) == pytest.approx(
            gain_dbi(config, theta, 0.0), abs=1e-9)


def test_shifted_boresight_moves_the_peak():
    config = AntennaConfig(model=PatternModel.PARABOLIC_ENVELOPE, g_max_dbi=6.0,
                           boresight_elevation_deg=30.0, boresight_azimuth_deg=-45.0)
    assert gain_dbi(config, 30.0, -45.0) == config.g_max_dbi
    assert gain_dbi(config, 0.0, 0.0) < config.g_max_dbi


def test_rejects_non_finite_angles():
    with pytest.raises(ValueError):
        gain_dbi(PENCIL, math.nan, 0.0)
    with pytest.raises(ValueError):
        gain_dbi(PENCIL, 0.0, math.inf)
    for bad in (True, "1", None, 10**400):
        with pytest.raises(ValueError):
            gain_dbi(PENCIL, bad, 0.0)


@pytest.mark.parametrize("kwargs", [
    dict(g_max_dbi=math.inf),
    dict(n_elements=0),
    dict(n_elements=-3),
    dict(element_spacing_wavelengths=-0.5),
    dict(theta_3db_deg=0.0),
    dict(theta_3db_deg=181.0),
    # positive in degrees, but 0.0 in radians
    dict(theta_3db_deg=5.0e-324),
    dict(sidelobe_floor_db=0.0),
    dict(sidelobe_floor_db=-1.0),
    dict(boresight_elevation_deg=math.nan),
    dict(n_elements=True),
    dict(n_elements=2.5),
    dict(n_elements=math.inf),
    dict(n_elements=math.nan),
    # not a real number, or beyond the double range
    *[{field: bad} for field in ("g_max_dbi", "element_spacing_wavelengths", "theta_3db_deg",
                                 "sidelobe_floor_db", "boresight_elevation_deg",
                                 "boresight_azimuth_deg")
      for bad in (True, "1", None, 10**400)],
    # finite in dB, but 0 or beyond the double range as a linear gain
    dict(g_max_dbi=1.0e10),
    dict(g_max_dbi=-1.0e10),
    # beyond the double range, and beyond the 2^16 cap of every count
    dict(n_elements=10**400),
    dict(n_elements=65537),
    # n * pi * spacing beyond the double range: the array factor's phase
    dict(element_spacing_wavelengths=1.0e308),
    dict(element_spacing_wavelengths=1.0e304, n_elements=65536),
    # only a bool selects the azimuth-flat envelope
    dict(omni_azimuth="no"),
    dict(omni_azimuth=1),
    dict(omni_azimuth=None),
])
def test_rejects_invalid_configs(kwargs):
    base = dict(model=PatternModel.LINEAR_ARRAY_FACTOR, g_max_dbi=10.0)
    base.update(kwargs)
    with pytest.raises(ValueError):
        AntennaConfig(**base)


def test_only_the_array_factor_bounds_its_phase_by_the_spacing():
    # the envelope never reads the spacing
    AntennaConfig(PatternModel.PARABOLIC_ENVELOPE, g_max_dbi=10.0,
                  element_spacing_wavelengths=1.0e308)


def test_integral_float_element_count_is_stored_as_int():
    config = AntennaConfig(PatternModel.LINEAR_ARRAY_FACTOR, g_max_dbi=10.0, n_elements=4.0)
    assert type(config.n_elements) is int
    assert config == AntennaConfig(PatternModel.LINEAR_ARRAY_FACTOR, g_max_dbi=10.0,
                                   n_elements=4)


def test_rejects_non_enum_model():
    with pytest.raises(ValueError):
        AntennaConfig(model="linear-array-factor", g_max_dbi=10.0)
