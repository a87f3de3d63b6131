"""Incident power density, air-skin reflection, and SAR evaluation.

The angle-averaged SAR integrates the transmit pattern over both
angles on [0, 2*pi] with composite trapezoidal quadrature and a
1/(2*pi)^2 normalization.  Distance factors out of that integral, so
the pattern average is computed once per antenna and grid, cached,
and reused; this keeps dense distance scans cheap and makes the
inverse-square behavior of the result exact in floating point.  The
grid points themselves do not depend on the antenna: each grid size is
built once per process and shared by every antenna averaged on it.
Four sizes are kept; at the largest ``samples_per_axis`` (2^16) a fine
grid is 131071 floats, about 4.2 MB, so the grids never hold more than
about 17 MB.
"""

from __future__ import annotations

import cmath
import math
from bisect import bisect_left, bisect_right
from collections import namedtuple
from functools import lru_cache
from itertools import accumulate

from .antenna import (AntennaConfig, PatternModel, _FrozenRecord, _elevation_dbs,
                      _parabolic_dbs, _real, _whole_number)
from .link import LinkScenario, db_to_linear, dbm_to_watts

__all__ = [
    "QuadratureSpec",
    "TissueProperties",
    "ExposureResult",
    "ConvergenceError",
    "power_density",
    "reflection_coefficient",
    "sar_boundary",
    "sar_avg",
]

_TWO_PI = 2.0 * math.pi
_FOUR_PI = 4.0 * math.pi


class ConvergenceError(RuntimeError):
    """Raised when grid refinement moves the quadrature beyond tolerance."""


class QuadratureSpec(_FrozenRecord):
    """Grid size and self-convergence tolerance for the angular average.

    ``samples_per_axis`` counts points including both endpoints of
    [0, 2*pi], at most 2^16 so that the work of one average stays
    bounded.  Every evaluation is checked against a doubled grid;
    a relative shift above ``convergence_tol`` raises
    ConvergenceError instead of returning a suspect value.
    """

    def __init__(self, samples_per_axis: int = 361, convergence_tol: float = 1e-3) -> None:
        self._store(locals())
        object.__setattr__(self, "samples_per_axis",
                           _whole_number(self.samples_per_axis, "samples_per_axis", 2))
        object.__setattr__(self, "convergence_tol",
                           _real(self.convergence_tol, "convergence_tol", 0))


class TissueProperties(_FrozenRecord):
    """Dielectric and geometric skin parameters at the carrier frequency.

    The relative permittivity eps' - j*eps'' is held as its two parts:
    ``rel_permittivity_real`` is eps' and ``rel_permittivity_imag`` the
    loss term eps'' >= 0; ``rel_permittivity`` is the complex value.
    When ``reflection_override`` is set it replaces the Fresnel value in
    every boundary calculation; leave it None to derive the reflection
    coefficient from the permittivity, which then needs eps' > 0.
    """

    def __init__(self, rel_permittivity_real: float = 1.0, rel_permittivity_imag: float = 0.0,
                 mass_density_kg_per_m3: float = 1000.0, penetration_depth_m: float = 1e-3,
                 reflection_override: float | None = None) -> None:
        self._store(locals())
        for name in ("rel_permittivity_real", "rel_permittivity_imag"):
            object.__setattr__(self, name, _real(getattr(self, name), name))
        if self.rel_permittivity_imag < 0.0:
            raise ValueError("rel_permittivity_imag must be >= 0")
        for name in ("mass_density_kg_per_m3", "penetration_depth_m"):
            object.__setattr__(self, name, _real(getattr(self, name), name, 0))
        if not 0.0 < self.penetration_depth_m * self.mass_density_kg_per_m3 < math.inf:
            raise ValueError("penetration_depth_m * mass_density_kg_per_m3 must be a "
                             "positive, finite double")
        if self.reflection_override is not None:
            object.__setattr__(self, "reflection_override",
                               _real(self.reflection_override, "reflection_override"))
            if not 0.0 <= self.reflection_override < 1.0:
                raise ValueError("reflection_override must lie in [0, 1)")
        elif self.rel_permittivity_real <= 0.0:
            raise ValueError("rel_permittivity_real must be > 0 unless reflection_override "
                             "is set")

    @property
    def rel_permittivity(self) -> complex:
        """The complex relative permittivity eps' - j*eps''."""
        return complex(self.rel_permittivity_real, -self.rel_permittivity_imag)


class ExposureResult(namedtuple("ExposureResult", (
        "distance_m", "path_loss_db", "snr_db", "rate_bps", "boresight_pd_w_per_m2",
        "boresight_sar_w_per_kg", "avg_sar_w_per_kg"))):
    """One distance sample of link and exposure quantities, each a finite float."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):  # unpickling and copy.copy build through it too
        values = tuple(map(_real, super().__new__(cls, *args, **kwargs), cls._fields))
        if not values[0] > 0.0:
            raise ValueError("distance_m must be > 0")
        for name, value in zip(cls._fields[3:], values[3:]):
            if value < 0.0:
                raise ValueError(f"{name} must be >= 0")
        return tuple.__new__(cls, values)

    @classmethod
    def _make(cls, iterable):  # namedtuple's _replace builds through it too
        return cls(*iterable)


def power_density(tx_power_w: float, gain_linear: float, distance_m: float) -> float:
    """Far-field power density P*G / (4*pi*d^2) in W/m^2.

    Raises OverflowError, naming the distance, when the result is too
    large for a double.
    """
    tx_power_w = _real(tx_power_w, "tx_power_w", 0)
    gain_linear = _real(gain_linear, "gain_linear", 0)
    return _power_density(tx_power_w * gain_linear, _real(distance_m, "distance_m", 0))


def _power_density(pg: float, distance_m: float) -> float:
    """``power_density`` of a product P*G, at a valid distance."""
    area = _FOUR_PI * (distance_m * distance_m)
    pd = pg / area if area else math.inf  # d^2 underflowed to zero
    if pd == math.inf:
        raise OverflowError(
            f"power density P*G/(4*pi*d^2) overflows at distance {distance_m!r} m")
    return pd


def reflection_coefficient(tissue: TissueProperties) -> float:
    """Field reflection magnitude at the air-skin boundary, in [0, 1).

    Uses the override when present, otherwise the normal-incidence
    Fresnel expression |(sqrt(eps) - 1) / (sqrt(eps) + 1)| with the
    principal complex square root.
    """
    if tissue.reflection_override is not None:
        return tissue.reflection_override
    root = cmath.sqrt(tissue.rel_permittivity)
    return abs((root - 1.0) / (root + 1.0))


def sar_boundary(pd_w_per_m2: float, tissue: TissueProperties) -> float:
    """SAR at the air-skin boundary for an incident power density.

    The transmitted fraction (1 - gamma^2) of the incident power is
    taken as deposited across one penetration depth of tissue:
    2 * PD * (1 - gamma^2) / (depth * density).  Raises OverflowError
    when the result is too large for a double.
    """
    pd_w_per_m2 = _real(pd_w_per_m2, "pd_w_per_m2")
    if pd_w_per_m2 < 0.0:
        raise ValueError("pd_w_per_m2 must be >= 0")
    gamma = reflection_coefficient(tissue)
    return _boundary_sar(pd_w_per_m2, 1.0 - gamma * gamma,
                         tissue.penetration_depth_m * tissue.mass_density_kg_per_m3)


def _boundary_sar(pd_w_per_m2: float, transmitted: float, slab: float,
                  distance_m: float | None = None) -> float:
    """``sar_boundary`` for 1 - gamma^2 and depth * density; an overflow names
    ``distance_m`` when it is given."""
    sar = 2.0 * pd_w_per_m2 * transmitted / slab
    if sar == math.inf:
        where = "" if distance_m is None else f" at distance {distance_m!r} m"
        raise OverflowError(
            f"boundary SAR overflows at power density {pd_w_per_m2!r} W/m^2{where}")
    return sar


def _linspace(start: float, stop: float, num: int) -> list[float]:
    """The points of ``numpy.linspace(start, stop, num)``, computed as numpy does."""
    div = num - 1
    delta = stop - start
    if div <= 0:
        return [i * delta + start for i in range(num)]
    step = delta / div
    if step == 0.0:
        # a subnormal span: numpy scales by the span after dividing
        points = [i / div * delta + start for i in range(num)]
    else:
        points = [i * step + start for i in range(num)]
    points[-1] = stop
    return points


def _trapezoid_mean(ratios: list[float]) -> float:
    """Trapezoid mean of samples spanning [0, 2*pi], exactly summed.

    Endpoint weights are halved; with uniform spacing the weighted mean
    equals the normalized integral.
    """
    return math.fsum([0.5 * ratios[0], *ratios[1:-1], 0.5 * ratios[-1]]) / (len(ratios) - 1)


def _running_sums(values) -> list[float]:
    """``[0, v0, v0 + v1, ...]`` of non-negative values, Neumaier-compensated."""
    sums = [0.0]
    total = lost = 0.0
    for value in values:
        step = total + value
        # keep the low bits that the smaller addend lost; both are >= 0, so no abs()
        lost += (total - step) + value if total >= value else (value - step) + total
        total = step
        sums.append(total + lost)
    return sums


def _clipped_mean(elevation: list[float], azimuth: list[float], floor_db: float) -> float:
    """Trapezoid mean of 10^(-min(e_i + a_j, floor_db)/10) over [0, 2*pi]^2.

    Sorted by a_j, the pairs of row i that stay above the floor are a
    prefix, the a_j below floor_db - e_i; so one bisect into prefix sums
    of w_j * 10^(-a_j/10) and of w_j gives the row.  The inner rows, all
    of weight 1, are sorted by e_i too, and one bisection splits off the
    rows clipped in every pair, which each add the floor times the total
    weight.  The bounds of the other inner rows never increase with e_i,
    so one walk down the sorted a_j finds them all; only the two
    half-weight end rows are bisected.  The sorts take O(n log n) time
    and the walk O(n); memory is O(n), and the row terms are summed
    exactly.
    """
    last = len(azimuth) - 1
    ascending = sorted(azimuth)
    # a stable sort by a_j puts the half-weight end columns j = 0 first and
    # j = last last among equal values
    halves = (bisect_left(ascending, azimuth[0]), bisect_right(ascending, azimuth[last]) - 1)
    # no row reaches beyond the threshold of the lowest elevation
    reach = bisect_left(ascending, floor_db - min(elevation))
    ratios = [10.0 ** (-a / 10.0) for a in ascending[:reach]]
    weights = [1.0] * reach
    for j in halves:
        if j < reach:
            ratios[j] *= 0.5
            weights[j] = 0.5
    ratio_sums = _running_sums(ratios)
    weight_sums = [0.0, *accumulate(weights)]  # halves and ones: exact
    total_weight = float(last)
    floor_ratio = 10.0 ** (-floor_db / 10.0)
    inner = sorted(elevation[1:last])
    # e - floor_db is exactly -(floor_db - e) and rises with e: the rows clipped in
    # every pair come last
    clipped = bisect_left(inner, -ascending[0], key=lambda e: e - floor_db)
    rows = [floor_ratio * total_weight] * (last - 1 - clipped)
    for e in (elevation[0], elevation[last]):
        k = bisect_left(ascending, floor_db - e)
        rows += (0.5 * 10.0 ** (-e / 10.0) * ratio_sums[k],
                 0.5 * floor_ratio * (total_weight - weight_sums[k]))
    # floor_db - e falls as e rises, so the bounds never increase and none exceeds
    # reach; each threshold lies above ascending[0], so k stays >= 1
    k = reach
    for e in inner[:clipped]:
        threshold = floor_db - e
        while ascending[k - 1] >= threshold:
            k -= 1
        rows.append(10.0 ** (-e / 10.0) * ratio_sums[k])
        rows.append(floor_ratio * (total_weight - weight_sums[k]))
    return math.fsum(rows) / (last * last)


@lru_cache(maxsize=4)
def _grid(points: int) -> tuple[float, ...]:
    """``points`` points spanning [0, 2*pi], the same for every antenna."""
    return tuple(_linspace(0.0, _TWO_PI, points))


@lru_cache(maxsize=64)
def _pattern_means(antenna: AntennaConfig, samples: int) -> tuple[float, float]:
    """Pattern means over [0, 2*pi]^2 on ``samples`` and ``2*samples - 1`` points per axis.

    The pattern is evaluated once, on the finer grid, whose even-indexed
    points are exactly the coarser grid; the coarse mean is taken from
    that slice.  The azimuth weights sum to the panel count exactly, so
    a pattern that ignores azimuth is averaged over elevation alone.
    Every sum is exactly rounded or in a fixed order, so repeated calls
    are bit-identical.
    """
    fine = _grid(2 * samples - 1)
    if antenna.model is PatternModel.LINEAR_ARRAY_FACTOR or antenna.omni_azimuth:
        ratios = [10.0 ** (-att / 10.0) for att in _elevation_dbs(antenna, fine)]
        return _trapezoid_mean(ratios[::2]), _trapezoid_mean(ratios)
    elevation = _parabolic_dbs(fine, antenna.boresight_elevation_deg, antenna.theta_3db_deg)
    azimuth = _parabolic_dbs(fine, antenna.boresight_azimuth_deg, antenna.theta_3db_deg)
    floor_db = antenna.sidelobe_floor_db
    return (_clipped_mean(elevation[::2], azimuth[::2], floor_db),
            _clipped_mean(elevation, azimuth, floor_db))


def _mean_gain(antenna: AntennaConfig, quadrature: QuadratureSpec) -> float:
    """Linear gain averaged over both angles, validated on a doubled grid."""
    samples = quadrature.samples_per_axis
    mean_ratio, refined = _pattern_means(antenna, samples)
    if abs(refined - mean_ratio) > quadrature.convergence_tol * abs(refined):
        raise ConvergenceError(
            f"pattern average moved from {mean_ratio!r} to {refined!r} on grid "
            f"doubling ({samples} to {2 * samples - 1} samples per axis), "
            f"beyond relative tolerance {quadrature.convergence_tol!r}")
    # a pattern whose every grid sample lies below the double range averages to 0.0
    gain = db_to_linear(antenna.g_max_dbi) * mean_ratio
    if not gain > 0.0:
        raise ValueError(f"the antenna's pattern average underflows to 0.0 on the "
                         f"{samples}-sample grid")
    return gain


class _Chain:
    """The chain's constants for one (scenario, tissue, quadrature): the averaged
    SAR is K/d^2, and K's factors are kept apart so that each distance is
    evaluated in the scalar chain's operation order."""

    __slots__ = ("pg_boresight", "pg_mean", "transmitted", "slab")

    def __init__(self, scenario: LinkScenario, tissue: TissueProperties,
                 quadrature: QuadratureSpec) -> None:
        tx_power_w = dbm_to_watts(scenario.tx_power_dbm)
        # gain_dbi at boresight is g_max_dbi exactly
        self.pg_boresight = tx_power_w * db_to_linear(scenario.tx_antenna.g_max_dbi)
        self.pg_mean = tx_power_w * _mean_gain(scenario.tx_antenna, quadrature)
        gamma = reflection_coefficient(tissue)
        self.transmitted = 1.0 - gamma * gamma
        self.slab = tissue.penetration_depth_m * tissue.mass_density_kg_per_m3

    def sar_avg(self, distance_m: float) -> float:
        """Averaged SAR at a valid distance, checked as ``sar_avg`` checks it."""
        return _boundary_sar(_power_density(self.pg_mean, distance_m), self.transmitted,
                             self.slab, distance_m)


def sar_avg(scenario: LinkScenario, tissue: TissueProperties, distance_m: float,
            quadrature: QuadratureSpec = QuadratureSpec()) -> float:
    """Angle-averaged boundary SAR at one distance, in W/kg.

    Averages the transmit pattern over both angles on [0, 2*pi]^2
    with a 1/(2*pi)^2 normalization, then applies the boundary SAR
    model to the resulting mean power density.  The pattern average
    is validated against a grid with doubled resolution; a relative
    drift above the configured tolerance raises ConvergenceError.
    """
    distance_m = _real(distance_m, "distance_m", 0)
    return _Chain(scenario, tissue, quadrature).sar_avg(distance_m)
