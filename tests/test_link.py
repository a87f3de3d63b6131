"""Link budget chain: FSPL, noise floor, SNR, Shannon rate, dB helpers."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wearemf import (
    AntennaConfig,
    LinkScenario,
    PatternModel,
    db_to_linear,
    dbm_to_watts,
    fspl_db,
    linear_to_db,
    noise_power_dbm,
    shannon_rate_bps,
    snr_db,
    watts_to_dbm,
)

MMWAVE = LinkScenario(
    carrier_mhz=60000.0, bandwidth_hz=2.16e9, tx_power_dbm=10.0,
    tx_antenna=AntennaConfig(model=PatternModel.LINEAR_ARRAY_FACTOR,
                             g_max_dbi=11.9, n_elements=16),
    rx_gain_dbi=10.0, noise_figure_db=6.0, temperature_k=290.0)

ISM = LinkScenario(
    carrier_mhz=2400.0, bandwidth_hz=93e6, tx_power_dbm=2.0,
    tx_antenna=AntennaConfig(model=PatternModel.PARABOLIC_ENVELOPE,
                             g_max_dbi=10.1, omni_azimuth=True),
    rx_gain_dbi=10.0, noise_figure_db=6.0, temperature_k=290.0)


def test_fspl_reference_values():
    assert fspl_db(1.0, 2400.0) == pytest.approx(40.054224834232116, abs=1e-12)
    assert fspl_db(1.0, 60000.0) == pytest.approx(68.01302500767288, abs=1e-12)


@given(distance=st.floats(min_value=1e-4, max_value=1e4,
                          allow_nan=False, allow_infinity=False))
@settings(max_examples=100, deadline=None)
def test_fspl_doubling_adds_six_db(distance):
    delta = fspl_db(2.0 * distance, 915.0) - fspl_db(distance, 915.0)
    assert delta == pytest.approx(20.0 * math.log10(2.0), abs=1e-9)


def test_fspl_rejects_bad_inputs():
    for d, f in ((0.0, 2400.0), (-1.0, 2400.0), (1.0, 0.0), (1.0, -5.0),
                 (math.nan, 2400.0), (1.0, math.inf), (True, 2400.0), (1.0, "2400"),
                 (None, 2400.0), (10**400, 2400.0)):
        with pytest.raises(ValueError):
            fspl_db(d, f)


def test_noise_floor_reference_values():
    assert noise_power_dbm(1.0, 0.0, 290.0) == pytest.approx(-173.97518719422808,
                                                             abs=1e-10)
    assert noise_power_dbm(2.16e9, 6.0, 290.0) == pytest.approx(-74.6306496827188,
                                                                abs=1e-10)
    assert noise_power_dbm(93e6, 6.0, 290.0) == pytest.approx(-88.29035770868876,
                                                              abs=1e-10)


def test_noise_rejects_bad_inputs():
    with pytest.raises(ValueError):
        noise_power_dbm(0.0, 0.0, 290.0)
    with pytest.raises(ValueError):
        noise_power_dbm(1e6, 0.0, 0.0)
    with pytest.raises(ValueError):
        noise_power_dbm(1e6, math.nan, 290.0)
    for bad in (True, "1", None, 10**400):
        with pytest.raises(ValueError):
            noise_power_dbm(1e6, 0.0, bad)
    # k*T*B overflows to inf or underflows to 0.0
    for extreme in (1e308, 1e-300):
        with pytest.raises(ValueError, match=r"^the noise power k\*temperature_k\*bandwidth_hz "
                                             "must be a positive, finite double$"):
            noise_power_dbm(extreme, 0.0, extreme)


def test_snr_chain_reference_values():
    assert snr_db(MMWAVE, 1.0) == pytest.approx(38.517624675045916, abs=1e-12)
    assert snr_db(ISM, 1.0) == pytest.approx(70.33613287445664, abs=1e-12)


def test_snr_drops_six_db_per_doubling():
    for d in (0.05, 0.2, 1.0):
        drop = snr_db(MMWAVE, d) - snr_db(MMWAVE, 2.0 * d)
        assert drop == pytest.approx(20.0 * math.log10(2.0), abs=1e-9)


def test_snr_off_boresight_is_lower():
    assert snr_db(MMWAVE, 1.0, theta_deg=30.0) < snr_db(MMWAVE, 1.0)


def test_shannon_rate_basics():
    assert shannon_rate_bps(1.0, 0.0) == pytest.approx(1.0, rel=1e-12)
    assert shannon_rate_bps(5e6, -math.inf) == 0.0
    # linear in bandwidth
    assert shannon_rate_bps(2e6, 13.0) == pytest.approx(
        2.0 * shannon_rate_bps(1e6, 13.0), rel=1e-12)


def test_shannon_rate_reference_value():
    rate = shannon_rate_bps(MMWAVE.bandwidth_hz, snr_db(MMWAVE, 1.0))
    assert rate == pytest.approx(27.638238748572445e9, rel=1e-9)


@given(low=st.floats(min_value=-50.0, max_value=49.0,
                     allow_nan=False, allow_infinity=False),
       bump=st.floats(min_value=0.1, max_value=30.0,
                      allow_nan=False, allow_infinity=False))
@settings(max_examples=100, deadline=None)
def test_shannon_rate_increases_with_snr(low, bump):
    assert shannon_rate_bps(1e6, low + bump) > shannon_rate_bps(1e6, low)


def test_shannon_rejects_bad_inputs():
    with pytest.raises(ValueError):
        shannon_rate_bps(0.0, 10.0)
    with pytest.raises(ValueError):
        shannon_rate_bps(1e6, math.nan)
    with pytest.raises(ValueError):
        shannon_rate_bps(1e6, math.inf)
    for bad in (True, "1", None, 10**400):
        with pytest.raises(ValueError):
            shannon_rate_bps(bad, 10.0)
        with pytest.raises(ValueError):
            shannon_rate_bps(1e6, bad)
    # B*log2(1 + SNR) overflows, or 10^(SNR/10) alone does
    for bandwidth_hz, snr in ((1.5e308, 64.0), (1e6, 4000.0)):
        with pytest.raises(OverflowError, match=f"^SNR of {snr!r} dB is too large for the "
                                                "Shannon rate$"):
            shannon_rate_bps(bandwidth_hz, snr)


@given(value_db=st.floats(min_value=-300.0, max_value=300.0,
                          allow_nan=False, allow_infinity=False))
@settings(max_examples=200, deadline=None)
def test_db_round_trip_is_tight(value_db):
    assert linear_to_db(db_to_linear(value_db)) == pytest.approx(value_db,
                                                                 abs=1e-12)


@given(ratio=st.floats(min_value=1e-12, max_value=1e12,
                       allow_nan=False, allow_infinity=False))
@settings(max_examples=200, deadline=None)
def test_linear_round_trip_is_tight(ratio):
    assert db_to_linear(linear_to_db(ratio)) == pytest.approx(ratio, rel=1e-12)


@given(power_dbm=st.floats(min_value=-100.0, max_value=100.0,
                           allow_nan=False, allow_infinity=False))
@settings(max_examples=200, deadline=None)
def test_dbm_round_trip_is_tight(power_dbm):
    assert watts_to_dbm(dbm_to_watts(power_dbm)) == pytest.approx(power_dbm,
                                                                  abs=1e-12)


def test_dbm_to_watts_reference():
    assert dbm_to_watts(10.0) == pytest.approx(0.01, rel=1e-15)
    assert dbm_to_watts(30.0) == pytest.approx(1.0, rel=1e-15)


def test_db_helpers_refuse_what_is_not_a_finite_number_and_name_an_overflow():
    not_numbers = (math.nan, math.inf, -math.inf, True, "x", None, 10**400)
    for helper, name in ((db_to_linear, "value_db"), (dbm_to_watts, "power_dbm")):
        for bad in not_numbers:
            with pytest.raises(ValueError, match=f"^{name} must be a finite number$"):
                helper(bad)
    for helper, name in ((linear_to_db, "ratio"), (watts_to_dbm, "power_w")):
        for bad in (*not_numbers, 0.0, -1.0):
            with pytest.raises(ValueError, match=f"^{name} must be a finite number > 0$"):
                helper(bad)
    with pytest.raises(OverflowError, match=r"^4000\.0 dB is too large for a power ratio$"):
        db_to_linear(4000.0)
    with pytest.raises(OverflowError, match=r"^4000\.0 dBm is too large for a power in watts$"):
        dbm_to_watts(4000)
    # just inside the double range, and ints, give the float results
    assert db_to_linear(3080) == 10.0 ** 308.0 and dbm_to_watts(3110.0) == 10.0 ** 308.0
    assert linear_to_db(100) == 20.0 and watts_to_dbm(1) == 30.0


@pytest.mark.parametrize("kwargs", [
    dict(carrier_mhz=0.0),
    dict(bandwidth_hz=-1.0),
    dict(temperature_k=0.0),
    dict(noise_figure_db=-0.5),
    dict(tx_power_dbm=math.inf),
    dict(rx_gain_dbi=math.nan),
    # not a real number, or beyond the double range
    *[{field: bad} for field in ("carrier_mhz", "bandwidth_hz", "tx_power_dbm", "rx_gain_dbi",
                                 "noise_figure_db", "temperature_k")
      for bad in (True, "1", None, 10**400)],
    # finite, but 0 or beyond the double range in watts
    dict(tx_power_dbm=1.0e10),
    dict(tx_power_dbm=-1.0e10),
    # k*T*B underflows to zero
    dict(bandwidth_hz=1.0e-320),
    dict(label=5),
    dict(label=None),
])
def test_scenario_rejects_invalid_fields(kwargs):
    base = dict(carrier_mhz=2400.0, bandwidth_hz=1e6, tx_power_dbm=0.0,
                tx_antenna=ISM.tx_antenna)
    base.update(kwargs)
    with pytest.raises(ValueError):
        LinkScenario(**base)


def test_scenario_requires_antenna_config():
    with pytest.raises(ValueError):
        LinkScenario(carrier_mhz=2400.0, bandwidth_hz=1e6, tx_power_dbm=0.0,
                     tx_antenna=None)
