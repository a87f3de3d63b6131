"""Regulatory SAR limits, minimum safe-distance solving, distance sweeps."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

from .antenna import _real, gain_dbi
from .exposure import (
    _FOUR_PI,
    ExposureResult,
    QuadratureSpec,
    TissueProperties,
    _mean_gain,
    power_density,
    reflection_coefficient,
    sar_avg,
    sar_boundary,
)
from .link import (_LN2, LinkScenario, db_to_linear, dbm_to_watts, fspl_db, noise_power_dbm,
                   shannon_rate_bps)

__all__ = [
    "ComplianceLimit",
    "BUILTIN_LIMITS",
    "COMPLIANT_EVERYWHERE",
    "DistanceSearch",
    "LimitUnreachableError",
    "min_safe_distance",
    "sweep",
]

# the whole search range already complies; there is no crossing to find
COMPLIANT_EVERYWHERE = "compliant-everywhere"


class LimitUnreachableError(RuntimeError):
    """Raised when even the far end of the search range exceeds the limit."""


@dataclass(frozen=True)
class ComplianceLimit:
    """A named regulatory SAR threshold."""

    name: str
    sar_limit_w_per_kg: float
    averaging_mass_note: str = ""

    def __post_init__(self) -> None:
        if not (isinstance(self.name, str) and self.name):
            raise ValueError("name must be a non-empty string")
        if not isinstance(self.averaging_mass_note, str):
            raise ValueError("averaging_mass_note must be a string")
        object.__setattr__(self, "sar_limit_w_per_kg",
                           _real(self.sar_limit_w_per_kg, "sar_limit_w_per_kg", 0))


BUILTIN_LIMITS = {
    "ICNIRP": ComplianceLimit("ICNIRP", 2.0, "10-g average"),
    "FCC": ComplianceLimit("FCC", 1.6, "1-g average"),
}


@dataclass(frozen=True)
class DistanceSearch:
    """Search range for the safe distance, and the accuracy ``tol_m``
    that callers may check its result against."""

    d_lo_m: float = 1e-3
    d_hi_m: float = 1.0
    tol_m: float = 1e-5

    def __post_init__(self) -> None:
        for name in ("d_lo_m", "tol_m"):
            object.__setattr__(self, name, _real(getattr(self, name), name, 0))
        object.__setattr__(self, "d_hi_m", _real(self.d_hi_m, "d_hi_m", self.d_lo_m))


# rounding puts the closed-form start within a few float steps of the
# crossing, unless the square of the near end is a subnormal double
_MAX_STEPS = 64


def min_safe_distance(
    scenario: LinkScenario,
    tissue: TissueProperties,
    limit: ComplianceLimit,
    search: DistanceSearch = DistanceSearch(),
    quadrature: QuadratureSpec = QuadratureSpec(),
) -> Union[float, str]:
    """Smallest compliant separation in [d_lo_m, d_hi_m].

    The averaged SAR is K/d^2, so the limit is crossed at
    d_lo_m * sqrt(SAR(d_lo_m) / limit).  The solve starts there and
    steps up one float at a time until the averaged SAR complies: the
    returned distance always complies and lies within a few float
    steps of the smallest one that does.  Returns COMPLIANT_EVERYWHERE
    when the near end of the range already complies, and raises
    LimitUnreachableError when the far end does not.  Raises
    OverflowError or FloatingPointError when the averaged SAR at the
    near end is too large or too imprecise to extrapolate from.
    """
    threshold = limit.sar_limit_w_per_kg
    lo = search.d_lo_m
    hi = search.d_hi_m
    # the far end first: an unreachable limit outranks a near end too
    # close to evaluate
    if sar_avg(scenario, tissue, hi, quadrature) > threshold:
        raise LimitUnreachableError(
            f"averaged SAR still exceeds {threshold} W/kg ({limit.name}) "
            f"at the far end of the search range, {hi} m")
    sar_lo = sar_avg(scenario, tissue, lo, quadrature)
    if sar_lo <= threshold:
        return COMPLIANT_EVERYWHERE
    d = lo * math.sqrt(sar_lo / threshold)
    if math.isinf(d):
        raise OverflowError(
            f"averaged SAR at the near end of the search range, {lo} m, is too "
            f"large to extrapolate to the {limit.name} crossing")
    d = min(hi, d)
    for _ in range(_MAX_STEPS):
        if sar_avg(scenario, tissue, d, quadrature) <= threshold:
            return d
        d = math.nextafter(d, hi)
    raise FloatingPointError(
        f"averaged SAR at the near end of the search range, {lo} m, is too "
        f"imprecise to locate the {limit.name} crossing")


def _check_distances(distances: Sequence[float], name: str) -> None:
    """Raise ValueError naming ``name`` unless ``distances`` suit ``sweep``."""
    previous = 0.0
    for d in distances:
        if not (math.isfinite(d) and d > previous):
            raise ValueError(f"{name} must be positive and strictly increasing")
        previous = d


def sweep(
    scenario: LinkScenario,
    tissue: TissueProperties,
    distances: Sequence[float],
    quadrature: QuadratureSpec = QuadratureSpec(),
) -> list[ExposureResult]:
    """One ExposureResult per distance, boresight link plus averaged SAR.

    Distances must be strictly increasing and positive; an empty
    sequence yields an empty list.  Row order matches input order.
    Rows equal fspl_db, snr_db, shannon_rate_bps, power_density,
    sar_boundary and sar_avg at their distance, bit for bit.

    Every column is monotone in the distance, so only the first row
    can overflow, underflow or divide by zero.  That row alone runs
    through the scalar chain's checks first, and an overflow there
    raises OverflowError naming its distance; the rows are then plain
    float arithmetic on per-scenario constants, in the scalar chain's
    operation order.
    """
    _check_distances(distances, "distances")
    antenna = scenario.tx_antenna
    boresight_gain_db = gain_dbi(antenna, antenna.boresight_elevation_deg,
                                 antenna.boresight_azimuth_deg)
    boresight_gain = db_to_linear(boresight_gain_db)
    tx_power_w = dbm_to_watts(scenario.tx_power_dbm)
    # summed in snr_db's order, so each row's SNR is bit-identical to it
    budget_dbm = scenario.tx_power_dbm + boresight_gain_db + scenario.rx_gain_dbi
    noise_dbm = noise_power_dbm(scenario.bandwidth_hz, scenario.noise_figure_db,
                                scenario.temperature_k)
    mean_gain = _mean_gain(antenna, quadrature)

    bandwidth = scenario.bandwidth_hz
    # the nearest row alone can overflow; check it through the scalar chain
    for d in distances[:1]:
        snr = budget_dbm - fspl_db(d, scenario.carrier_mhz) - noise_dbm
        pd_boresight = power_density(tx_power_w, boresight_gain, d)
        pd_mean = power_density(tx_power_w, mean_gain, d)
        try:
            shannon_rate_bps(bandwidth, snr)
        except OverflowError as exc:
            raise OverflowError(f"SNR of {snr!r} dB at distance {d!r} m is too large "
                                "for the Shannon rate") from exc
        try:
            sar_boundary(pd_boresight, tissue)
            sar_boundary(pd_mean, tissue)
        except OverflowError as exc:
            raise OverflowError(f"{exc} at distance {d!r} m") from None

    carrier_db = 20.0 * math.log10(scenario.carrier_mhz)
    pg_boresight = tx_power_w * boresight_gain
    pg_mean = tx_power_w * mean_gain
    gamma = reflection_coefficient(tissue)
    transmitted = 1.0 - gamma * gamma
    slab = tissue.penetration_depth_m * tissue.mass_density_kg_per_m3
    rows: list[ExposureResult] = []
    for d in distances:
        loss = 20.0 * math.log10(d) + carrier_db - 27.55
        snr = budget_dbm - loss - noise_dbm
        area = _FOUR_PI * (d * d)
        pd_boresight = pg_boresight / area
        rows.append(ExposureResult(
            d, loss, snr, bandwidth * math.log1p(10.0 ** (snr / 10.0)) / _LN2, pd_boresight,
            2.0 * pd_boresight * transmitted / slab,
            2.0 * (pg_mean / area) * transmitted / slab))
    return rows
