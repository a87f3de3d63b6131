"""Regulatory SAR limits, minimum safe-distance solving, distance sweeps."""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence

from .antenna import _FrozenRecord, _real
from .exposure import (_FOUR_PI, ExposureResult, QuadratureSpec, TissueProperties, _Chain,
                       _boundary_sar, _power_density)
from .link import _LN2, LinkScenario, noise_power_dbm, shannon_rate_bps

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


class ComplianceLimit(_FrozenRecord):
    """A named regulatory SAR threshold."""

    def __init__(self, name: str, sar_limit_w_per_kg: float,
                 averaging_mass_note: str = "") -> None:
        self._store(locals())
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


class DistanceSearch(_FrozenRecord):
    """Search range for the safe distance, and the accuracy ``tol_m``
    that callers may check its result against."""

    def __init__(self, d_lo_m: float = 1e-3, d_hi_m: float = 1.0, tol_m: float = 1e-5) -> None:
        self._store(locals())
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
) -> float | str:
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

    The chain's constants are computed once per solve, so each
    evaluation of the averaged SAR is a few float operations, equal to
    ``sar_avg`` at that distance bit for bit.
    """
    threshold = limit.sar_limit_w_per_kg
    lo = search.d_lo_m
    hi = search.d_hi_m
    chain = _Chain(scenario, tissue, quadrature)
    # the far end first: an unreachable limit outranks a near end too
    # close to evaluate
    if chain.sar_avg(hi) > threshold:
        raise LimitUnreachableError(
            f"averaged SAR still exceeds {threshold} W/kg ({limit.name}) "
            f"at the far end of the search range, {hi} m")
    sar_lo = chain.sar_avg(lo)
    if sar_lo <= threshold:
        return COMPLIANT_EVERYWHERE
    d = lo * math.sqrt(sar_lo / threshold)
    if math.isinf(d):  # the ratio may overflow where the crossing does not
        d = lo * math.sqrt(sar_lo) / math.sqrt(threshold)
    if math.isinf(d):
        raise OverflowError(
            f"averaged SAR at the near end of the search range, {lo} m, is too "
            f"large to extrapolate to the {limit.name} crossing")
    d = min(hi, d)
    for _ in range(_MAX_STEPS):
        if chain.sar_avg(d) <= threshold:
            return d
        d = math.nextafter(d, hi)
    raise FloatingPointError(
        f"averaged SAR at the near end of the search range, {lo} m, is too "
        f"imprecise to locate the {limit.name} crossing")


def _check_distances(distances: Sequence[float], name: str) -> list[float]:
    """``distances`` as floats, if they suit ``sweep``; else a ValueError naming ``name``."""
    checked: list[float] = []
    previous = 0.0
    try:
        for d in distances:
            previous = _real(d, name, previous)
            checked.append(previous)
    except ValueError:
        raise ValueError(f"{name} must be positive and strictly increasing") from None
    return checked


def sweep(
    scenario: LinkScenario,
    tissue: TissueProperties,
    distances: Sequence[float],
    quadrature: QuadratureSpec = QuadratureSpec(),
) -> list[ExposureResult]:
    """One ExposureResult per distance, boresight link plus averaged SAR.

    Distances must be strictly increasing, positive, finite real
    numbers, and the rows hold them as floats; an empty sequence yields
    an empty list.  Row order matches input order.  Rows equal fspl_db,
    snr_db, shannon_rate_bps, power_density, sar_boundary and sar_avg at
    their distance, bit for bit.

    Every column is monotone in the distance, so only the first row
    can overflow, underflow or divide by zero, and only the last row's
    SNR can fall to -inf.  The first row is checked in the scalar
    chain's order: both power densities, then the Shannon rate, then
    both SARs; then the last row's SNR.  Each overflow raises
    OverflowError naming its distance.  The columns are then plain
    float arithmetic on the chain's per-scenario constants, in the
    scalar chain's operation order, and its rows are built as tuples
    from the columns: ExposureResult's checks cannot fail on them, and
    they equal the records its constructor builds.
    """
    distances = _check_distances(distances, "distances")
    chain = _Chain(scenario, tissue, quadrature)
    # summed in snr_db's order, with gain_dbi's boresight value g_max_dbi: equal SNRs
    budget_dbm = scenario.tx_power_dbm + scenario.tx_antenna.g_max_dbi + scenario.rx_gain_dbi
    noise_dbm = noise_power_dbm(scenario.bandwidth_hz, scenario.noise_figure_db,
                                scenario.temperature_k)
    carrier_db = 20.0 * math.log10(scenario.carrier_mhz)
    pg_boresight, pg_mean = chain.pg_boresight, chain.pg_mean
    transmitted, slab = chain.transmitted, chain.slab

    bandwidth = scenario.bandwidth_hz
    log10, log1p = math.log10, math.log1p
    losses = [20.0 * log10(d) + carrier_db - 27.55 for d in distances]
    snrs = [budget_dbm - loss - noise_dbm for loss in losses]
    # the nearest row alone can overflow; check it in the scalar chain's order
    for d, snr in zip(distances[:1], snrs):
        pds = [_power_density(pg, d) for pg in (pg_boresight, pg_mean)]
        try:
            shannon_rate_bps(bandwidth, snr)
        except OverflowError:
            raise OverflowError(f"SNR of {snr!r} dB at distance {d!r} m is too large "
                                "for the Shannon rate") from None
        for pd in pds:
            _boundary_sar(pd, transmitted, slab, d)
    # the farthest row alone can have an SNR of -inf
    if snrs and snrs[-1] == -math.inf:
        raise OverflowError(f"SNR overflows to -inf dB at distance {distances[-1]!r} m")

    # ExposureResult's checks cannot fail here: the distances are checked floats,
    # the checks above keep every column finite, and every column but the first
    # three is B*log1p(>= 0)/ln 2 or a product or quotient of positive constants
    rates = [bandwidth * log1p(10.0 ** (snr / 10.0)) / _LN2 for snr in snrs]
    areas = [_FOUR_PI * (d * d) for d in distances]
    pds = [pg_boresight / area for area in areas]
    sars = [2.0 * pd * transmitted / slab for pd in pds]
    avg_sars = [2.0 * (pg_mean / area) * transmitted / slab for area in areas]
    return list(map(functools.partial(tuple.__new__, ExposureResult),
                    zip(distances, losses, snrs, rates, pds, sars, avg_sars)))
