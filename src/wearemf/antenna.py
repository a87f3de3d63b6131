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
import sys
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
        if not 0.0 < self.theta_3db_deg <= 180.0:
            raise ValueError("theta_3db_deg must lie in (0, 180]")
        if not 0.0 < _linear(self.g_max_dbi) < math.inf:
            raise ValueError("g_max_dbi as a linear gain must be a positive, finite double")


def _is_real(value) -> bool:
    """Whether ``value`` is an int or a float (numpy scalars too), not a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _real(value, name: str, above: float | None = None) -> float:
    """``value`` as a float, if it is a finite real number (``_is_real``) greater
    than ``above`` when that is given; else a ValueError naming the field."""
    if type(value) is not float:
        value = float(value) if _is_real(value) and abs(value) <= sys.float_info.max else math.nan
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


def _wrap_rad(angle_rad: float) -> float:
    # principal offset in [-pi, pi)
    return (angle_rad + math.pi) % _TWO_PI - math.pi


def _parabolic_db(config: AntennaConfig, angle_rad: float, boresight_deg: float) -> float:
    """One axis's parabolic attenuation 12*(delta/theta_3db)^2 in dB, unclipped.

    ``delta`` is the wrapped offset of ``angle_rad`` from
    ``boresight_deg``.  The gain and the pattern average share it, so
    both see the same terms.
    """
    ratio = _wrap_rad(angle_rad - math.radians(boresight_deg)) / math.radians(
        config.theta_3db_deg)
    return 12.0 * (ratio * ratio)


def _attenuation_db(config: AntennaConfig, theta_rad: float, phi_rad: float) -> float:
    """Attenuation below boresight in dB, clipped to [0, sidelobe_floor_db].

    Takes absolute angles in radians; a pattern that ignores an axis
    ignores its angle.
    """
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
    # sin(n*x)/sin(x) -> +-n wherever sin(x) vanishes (main and grating lobes)
    ratio = float(n) if abs(den) < _SIN_EPS else math.sin(n * x) / den
    rel_amp = min(max(abs(ratio) / n, 10.0 ** (-floor_db / 20.0)), 1.0)
    return min(-20.0 * math.log10(rel_amp), floor_db)


def _power_ratio(config: AntennaConfig, theta_rad: float, phi_rad: float) -> float:
    """Linear power gain relative to boresight, in [10^(-floor/10), 1]."""
    return 10.0 ** (-_attenuation_db(config, theta_rad, phi_rad) / 10.0)


def gain_dbi(config: AntennaConfig, theta_deg: float, phi_deg: float = 0.0) -> float:
    """Gain toward (theta_deg, phi_deg) in dBi.

    Boresight returns g_max_dbi exactly; every other direction is
    attenuated by the selected pattern, never by more than the
    sidelobe floor.
    """
    att = _attenuation_db(config, math.radians(_real(theta_deg, "theta_deg")),
                          math.radians(_real(phi_deg, "phi_deg")))
    return config.g_max_dbi - att
