"""Directional gain models for wearable transmit antennas.

Two pattern families cover the device archetypes of interest: a
parabolic main-lobe envelope with a sidelobe floor, suited to
patch-style radiators, and a uniform linear array factor for
end-fire element arrays.  Angles are degrees at the API boundary
and radians internally; offsets from boresight are wrapped to the
principal range so every pattern is periodic over a full turn.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass

__all__ = ["PatternModel", "AntennaConfig", "gain_dbi"]

_TWO_PI = 2.0 * math.pi
# denominators below this magnitude are treated as array-factor singularities
_SIN_EPS = 1e-12


class PatternModel(enum.Enum):
    """Selector for the concrete gain pattern realization."""

    PARABOLIC_ENVELOPE = "parabolic-envelope"
    LINEAR_ARRAY_FACTOR = "linear-array-factor"


@dataclass(frozen=True)
class AntennaConfig:
    """Immutable description of one transmit antenna.

    theta is elevation, phi is azimuth, both in degrees.  With
    ``omni_azimuth`` set, the parabolic envelope drops its azimuth
    term so gain varies with elevation only; the array factor is
    azimuth-flat by construction.  ``sidelobe_floor_db`` is the
    maximum attenuation below boresight, so gain is always inside
    [g_max_dbi - sidelobe_floor_db, g_max_dbi].
    """

    model: PatternModel
    g_max_dbi: float
    n_elements: int = 1
    element_spacing_wavelengths: float = 0.5
    theta_3db_deg: float = 93.0
    sidelobe_floor_db: float = 30.0
    boresight_elevation_deg: float = 0.0
    boresight_azimuth_deg: float = 0.0
    omni_azimuth: bool = False

    def __post_init__(self) -> None:
        if not isinstance(self.model, PatternModel):
            raise ValueError(f"model must be a PatternModel member, got {self.model!r}")
        for name, above in (("g_max_dbi", None), ("element_spacing_wavelengths", None),
                            ("theta_3db_deg", None), ("sidelobe_floor_db", 0),
                            ("boresight_elevation_deg", None), ("boresight_azimuth_deg", None)):
            object.__setattr__(self, name, _real(getattr(self, name), name, above))
        object.__setattr__(self, "n_elements",
                           _whole_number(self.n_elements, "n_elements", 1, _MAX_SAMPLES))
        if not isinstance(self.omni_azimuth, bool):
            raise ValueError("omni_azimuth must be a boolean")
        if self.element_spacing_wavelengths < 0.0:
            raise ValueError("element_spacing_wavelengths must be >= 0")
        # the array factor takes sin() of phases up to n * (pi * spacing)
        phase = math.pi * self.element_spacing_wavelengths
        if self.model is PatternModel.LINEAR_ARRAY_FACTOR and \
                not math.isfinite(self.n_elements * phase):
            raise ValueError("element_spacing_wavelengths must keep n_elements * pi * "
                             "element_spacing_wavelengths a finite double")
        if not 0.0 < self.theta_3db_deg <= 180.0:
            raise ValueError("theta_3db_deg must lie in (0, 180]")
        if math.radians(self.theta_3db_deg) == 0.0:  # the pattern divides by it
            raise ValueError("theta_3db_deg must not underflow to 0.0 in radians")
        if not 0.0 < _linear(self.g_max_dbi) < math.inf:
            raise ValueError("g_max_dbi as a linear gain must be a positive, finite double")


def _is_real(value) -> bool:
    """Whether ``value`` is an int or a float (numpy scalars too), not a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _real(value, name: str, above: float | None = None) -> float:
    """``value`` as a float, if it is a finite real number (``_is_real``) greater
    than ``above`` when that is given; else a ValueError naming the field."""
    if type(value) is not float:
        try:
            value = float(value) if _is_real(value) else math.nan
        except OverflowError:  # an int or a Fraction beyond the double range
            value = math.nan
    if not (math.isfinite(value) and (above is None or value > above)):
        bound = "" if above is None else f" > {above!r}"
        raise ValueError(f"{name} must be a finite number{bound}")
    return value


def _linear(value_db: float) -> float:
    """The power ratio 10^(value_db/10), inf where that overflows a double."""
    try:
        return 10.0 ** (value_db / 10.0)
    except OverflowError:
        return math.inf


# the largest count a record accepts, so that no count asks for unbounded work
_MAX_SAMPLES = 2**16


def _whole_number(value, name: str, minimum: int, maximum: int | None = None) -> int:
    """``value`` as an int, if it is a real number (see ``_is_real``) with a
    whole value in [``minimum``, ``maximum``].

    An integral float such as 4.0 is accepted and returned as 4; inf
    and nan raise the same ValueError as any other bad count.
    """
    if maximum is None:
        message = f"{name} must be an integer >= {minimum}"
    else:
        message = f"{name} must be an integer in [{minimum}, {maximum}]"
    if not _is_real(value):
        raise ValueError(message)
    try:
        whole = int(value)
    except (OverflowError, ValueError):  # inf, nan
        raise ValueError(message) from None
    if whole != value or whole < minimum or (maximum is not None and whole > maximum):
        raise ValueError(message)
    return whole


def _parabolic_dbs(angles_rad, boresight_deg: float, theta_3db_deg: float) -> list[float]:
    """One axis's parabolic attenuation 12*(delta/theta_3db)^2 in dB, unclipped,
    at each of ``angles_rad``.

    ``delta`` is the offset of the angle from ``boresight_deg``, wrapped
    to [-pi, pi).  The gain and the pattern average share it, so both
    see the same terms.
    """
    pi, two_pi = math.pi, _TWO_PI
    boresight, theta_3db = math.radians(boresight_deg), math.radians(theta_3db_deg)
    return [12.0 * ((ratio := ((angle - boresight + pi) % two_pi - pi) / theta_3db) * ratio)
            for angle in angles_rad]


def _elevation_dbs(config: AntennaConfig, thetas_rad) -> list[float]:
    """Attenuation below boresight in dB, clipped to [0, sidelobe_floor_db], at
    each elevation of ``thetas_rad``, for a pattern that ignores azimuth: the
    array factor, or the parabolic envelope with ``omni_azimuth`` set.
    """
    floor_db = config.sidelobe_floor_db
    if config.model is PatternModel.PARABOLIC_ENVELOPE:
        return [floor_db if floor_db < att else att for att in _parabolic_dbs(
            thetas_rad, config.boresight_elevation_deg, config.theta_3db_deg)]
    pi, two_pi, sin, log10, eps = math.pi, _TWO_PI, math.sin, math.log10, _SIN_EPS
    boresight = math.radians(config.boresight_elevation_deg)
    phase = pi * config.element_spacing_wavelengths
    n = float(config.n_elements)
    amp_floor = 10.0 ** (-floor_db / 20.0)
    atts = []
    for theta in thetas_rad:
        x = phase * sin((theta - boresight + pi) % two_pi - pi)
        den = sin(x)
        # sin(n*x)/sin(x) -> +-n wherever sin(x) vanishes (main and grating lobes)
        rel_amp = abs(n if -eps < den < eps else sin(n * x) / den) / n
        rel_amp = amp_floor if rel_amp < amp_floor else 1.0 if rel_amp > 1.0 else rel_amp
        att = -20.0 * log10(rel_amp)
        atts.append(floor_db if floor_db < att else att)
    return atts


def gain_dbi(config: AntennaConfig, theta_deg: float, phi_deg: float = 0.0) -> float:
    """Gain toward (theta_deg, phi_deg) in dBi.

    Boresight returns g_max_dbi exactly; every other direction is
    attenuated by the selected pattern, never by more than the
    sidelobe floor.
    """
    thetas = [math.radians(_real(theta_deg, "theta_deg"))]
    phis = [math.radians(_real(phi_deg, "phi_deg"))]
    if config.model is PatternModel.LINEAR_ARRAY_FACTOR or config.omni_azimuth:
        att = _elevation_dbs(config, thetas)[0]
    else:
        att = min(_parabolic_dbs(thetas, config.boresight_elevation_deg, config.theta_3db_deg)[0]
                  + _parabolic_dbs(phis, config.boresight_azimuth_deg, config.theta_3db_deg)[0],
                  config.sidelobe_floor_db)
    return config.g_max_dbi - att
