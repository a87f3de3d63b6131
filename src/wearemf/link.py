"""Path loss, noise, SNR, and Shannon-rate evaluation for a wearable link.

All internal arithmetic is linear SI (watts, meters, hertz); decibel
quantities exist only at the API boundary.  The conversion helpers
here are shared by the exposure and compliance layers so dB handling
lives in exactly one place.
"""

from __future__ import annotations

import math

from .antenna import AntennaConfig, _FrozenRecord, _linear, _real, gain_dbi

__all__ = [
    "BOLTZMANN_J_PER_K",
    "LinkScenario",
    "db_to_linear",
    "linear_to_db",
    "dbm_to_watts",
    "watts_to_dbm",
    "fspl_db",
    "noise_power_dbm",
    "snr_db",
    "shannon_rate_bps",
]

BOLTZMANN_J_PER_K = 1.380649e-23  # exact by definition since the 2019 SI revision

_LN2 = math.log(2.0)


class LinkScenario(_FrozenRecord):
    """One transmitter/receiver pair with its radio parameters.

    The receiver is a fixed scalar gain; only the transmit side
    carries a directional pattern.  ``label`` is free text for
    placement metadata and has no numerical effect.
    """

    def __init__(self, carrier_mhz: float, bandwidth_hz: float, tx_power_dbm: float,
                 tx_antenna: AntennaConfig, rx_gain_dbi: float = 0.0,
                 noise_figure_db: float = 0.0, temperature_k: float = 290.0,
                 label: str = "") -> None:
        self._store(locals())
        if not isinstance(self.tx_antenna, AntennaConfig):
            raise ValueError("tx_antenna must be an AntennaConfig")
        if not isinstance(self.label, str):
            raise ValueError("label must be a string")
        for name, above in (("carrier_mhz", 0), ("bandwidth_hz", 0), ("temperature_k", 0),
                            ("tx_power_dbm", None), ("rx_gain_dbi", None),
                            ("noise_figure_db", None)):
            object.__setattr__(self, name, _real(getattr(self, name), name, above))
        if self.noise_figure_db < 0.0:
            raise ValueError("noise_figure_db must be >= 0")
        if not 0.0 < _linear(self.tx_power_dbm - 30.0) < math.inf:
            raise ValueError("tx_power_dbm in watts must be a positive, finite double")
        noise_power_dbm(self.bandwidth_hz, self.noise_figure_db, self.temperature_k)


def db_to_linear(value_db: float) -> float:
    """Power ratio from decibels.

    Raises OverflowError, naming the value, when the ratio is too large
    for a double.
    """
    value_db = _real(value_db, "value_db")
    ratio = _linear(value_db)
    if ratio == math.inf:
        raise OverflowError(f"{value_db!r} dB is too large for a power ratio")
    return ratio


def linear_to_db(ratio: float) -> float:
    """Decibels from a positive power ratio."""
    return 10.0 * math.log10(_real(ratio, "ratio", 0))


def dbm_to_watts(power_dbm: float) -> float:
    """Watts from dBm.

    Raises OverflowError, naming the power, when the result is too large
    for a double.
    """
    power_dbm = _real(power_dbm, "power_dbm")
    watts = _linear(power_dbm - 30.0)
    if watts == math.inf:
        raise OverflowError(f"{power_dbm!r} dBm is too large for a power in watts")
    return watts


def watts_to_dbm(power_w: float) -> float:
    """dBm from watts."""
    return 10.0 * math.log10(_real(power_w, "power_w", 0)) + 30.0


def fspl_db(distance_m: float, carrier_mhz: float) -> float:
    """Free-space path loss in dB for a distance in meters and carrier in MHz.

    Evaluates 20*log10(d) + 20*log10(f) - 27.55.  The formula diverges
    as d -> 0, so non-positive distances are rejected rather than
    returning a huge negative loss.
    """
    return (20.0 * math.log10(_real(distance_m, "distance_m", 0))
            + 20.0 * math.log10(_real(carrier_mhz, "carrier_mhz", 0)) - 27.55)


def noise_power_dbm(bandwidth_hz: float, noise_figure_db: float = 0.0,
                    temperature_k: float = 290.0) -> float:
    """Thermal noise power k*T*B referred to 1 mW, plus the noise figure."""
    bandwidth_hz = _real(bandwidth_hz, "bandwidth_hz", 0)
    kTB_w = BOLTZMANN_J_PER_K * _real(temperature_k, "temperature_k", 0) * bandwidth_hz
    if not 0.0 < kTB_w < math.inf:
        raise ValueError("the noise power k*temperature_k*bandwidth_hz must be a "
                         "positive, finite double")
    return watts_to_dbm(kTB_w) + _real(noise_figure_db, "noise_figure_db")


def snr_db(scenario: LinkScenario, distance_m: float,
           theta_deg: float | None = None, phi_deg: float | None = None) -> float:
    """Received SNR in dB at a given distance and transmit direction.

    Chains transmit power, both antenna gains, free-space path loss,
    and the thermal noise floor.  Angles default to the transmit
    boresight, the configuration used for rate curves.
    """
    antenna = scenario.tx_antenna
    if theta_deg is None:
        theta_deg = antenna.boresight_elevation_deg
    if phi_deg is None:
        phi_deg = antenna.boresight_azimuth_deg
    rx_power_dbm = (scenario.tx_power_dbm
                    + gain_dbi(antenna, theta_deg, phi_deg)
                    + scenario.rx_gain_dbi
                    - fspl_db(distance_m, scenario.carrier_mhz))
    noise_dbm = noise_power_dbm(scenario.bandwidth_hz, scenario.noise_figure_db,
                                scenario.temperature_k)
    return rx_power_dbm - noise_dbm


def shannon_rate_bps(bandwidth_hz: float, snr_db: float) -> float:
    """Shannon capacity B*log2(1 + SNR) in bit/s.

    snr_db must be finite or -inf (zero SNR, zero rate).  Raises
    OverflowError, naming the SNR, when the rate is too large for a double.
    """
    bandwidth_hz = _real(bandwidth_hz, "bandwidth_hz", 0)
    if snr_db != -math.inf:
        snr_db = _real(snr_db, "snr_db")
    rate = bandwidth_hz * math.log1p(_linear(snr_db)) / _LN2
    if rate == math.inf:
        raise OverflowError(f"SNR of {snr_db!r} dB is too large for the Shannon rate")
    return rate
