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
from operator import attrgetter

__all__ = ["PatternModel", "AntennaConfig", "gain_dbi"]

_TWO_PI = 2.0 * math.pi
# denominators below this magnitude are treated as array-factor singularities
_SIN_EPS = 1e-12


class PatternModel(enum.Enum):
    """Selector for the concrete gain pattern realization."""

    PARABOLIC_ENVELOPE = "parabolic-envelope"
    LINEAR_ARRAY_FACTOR = "linear-array-factor"


def _real(value, name: str, above: float | None = None) -> float:
    """``value`` as a float, if it is a finite real number (an int or a float,
    numpy scalars too, not a bool) greater than ``above`` when that is given;
    else a ValueError naming the field."""
    if type(value) is not float:
        try:
            value = (float(value) if isinstance(value, numbers.Real)
                     and not isinstance(value, bool) else math.nan)
        except OverflowError:  # an int or a Fraction beyond the double range
            value = math.nan
    if not (math.isfinite(value) and (above is None or value > above)):
        bound = "" if above is None else f" > {above!r}"
        raise ValueError(f"{name} must be a finite number{bound}")
    return value


class _DataclassFields:
    """The ``__dataclass_fields__`` of a record class, read by the ``dataclasses``
    functions: the first read declares the class a dataclass whose fields are
    its ``__init__``'s parameters, which stores the real table on the class."""

    def __get__(self, record, cls):
        if cls is _FrozenRecord:
            raise AttributeError("__dataclass_fields__")
        import dataclasses

        cls.__annotations__ = {name: kind for name, kind in cls.__init__.__annotations__.items()
                               if name != "return"}
        dataclasses.dataclass(cls, init=False, repr=False, eq=False)
        return vars(cls)["__dataclass_fields__"]


class _FrozenRecord:
    """The base of the frozen records: it holds their field table, ``replace``,
    equality, hash, repr and the refusal to assign or delete a field.

    A record's ``__init__`` is its field table: a parameter per field, with the
    field's default.  Python binds the arguments, so a misused call raises
    CPython's own ``TypeError``; the body stores them with ``_store(locals())``
    and then checks them.  The defaults are also class attributes.
    Records are equal when they are of one class with equal fields, hash as
    the tuple of their fields and print as a dataclass does; assigning or
    deleting an attribute raises ``dataclasses.FrozenInstanceError``.  The
    ``dataclasses`` functions accept every record, and a record class is
    declared a dataclass when one of them first reads it; this package
    imports neither ``dataclasses`` nor ``inspect`` itself.
    """

    __dataclass_fields__ = _DataclassFields()

    def __init_subclass__(cls) -> None:
        init = vars(cls).get("__init__")
        if init is None:  # a plain subclass keeps its parent's fields
            return
        code, defaults = init.__code__, init.__defaults__ or ()
        cls._fields = code.co_varnames[1:code.co_argcount]
        for name, default in zip(cls._fields[len(cls._fields) - len(defaults):], defaults):
            setattr(cls, name, default)
        # the tuple of the field values, built in C: AntennaConfig keys a cache
        # (every record has two fields or more, so this is always a tuple)
        cls._values = attrgetter(*cls._fields)

    def _store(self, values: dict) -> None:
        """Set each field to its entry in ``values``, the ``locals()`` of ``__init__``."""
        for name in self._fields:
            object.__setattr__(self, name, values[name])

    def replace(self, **changes):
        """A copy with ``changes`` to its fields, built by the record's constructor."""
        return type(self)(**{name: changes.pop(name, getattr(self, name))
                             for name in self._fields}, **changes)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")


class AntennaConfig(_FrozenRecord):
    """Immutable description of one transmit antenna.

    theta is elevation, phi is azimuth, both in degrees.  With
    ``omni_azimuth`` set, the parabolic envelope drops its azimuth
    term so gain varies with elevation only; the array factor is
    azimuth-flat by construction.  ``sidelobe_floor_db`` is the
    maximum attenuation below boresight, so gain is always inside
    [g_max_dbi - sidelobe_floor_db, g_max_dbi].
    """

    def __init__(self, model: PatternModel, g_max_dbi: float, n_elements: int = 1,
                 element_spacing_wavelengths: float = 0.5, theta_3db_deg: float = 93.0,
                 sidelobe_floor_db: float = 30.0, boresight_elevation_deg: float = 0.0,
                 boresight_azimuth_deg: float = 0.0, omni_azimuth: bool = False) -> None:
        self._store(locals())
        if not isinstance(self.model, PatternModel):
            raise ValueError(f"model must be a PatternModel member, got {self.model!r}")
        for name, above in (("g_max_dbi", None), ("element_spacing_wavelengths", None),
                            ("theta_3db_deg", None), ("sidelobe_floor_db", 0),
                            ("boresight_elevation_deg", None), ("boresight_azimuth_deg", None)):
            object.__setattr__(self, name, _real(getattr(self, name), name, above))
        object.__setattr__(self, "n_elements",
                           _whole_number(self.n_elements, "n_elements", 1))
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


def _linear(value_db: float) -> float:
    """The power ratio 10^(value_db/10), inf where that overflows a double."""
    try:
        return 10.0 ** (value_db / 10.0)
    except OverflowError:
        return math.inf


# the largest count a record accepts, so that no count asks for unbounded work
_MAX_SAMPLES = 2**16


def _whole_number(value, name: str, minimum: int) -> int:
    """``value`` as an int, if it passes ``_real`` and equals a whole number in
    [``minimum``, 2^16]; else a ValueError giving that range.

    An integral float such as 4.0 is accepted and returned as 4.
    """
    message = f"{name} must be an integer in [{minimum}, {_MAX_SAMPLES}]"
    try:
        whole = int(_real(value, name))
    except ValueError:
        raise ValueError(message) from None
    if whole != value or not minimum <= whole <= _MAX_SAMPLES:
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
