"""Scenario file ingestion, built-in presets, and result emission.

Scenario files are YAML with nested key-value sections (documented in
the README).  Each section's keys are the fields of the record it
builds, with the fields' defaults.  Loading is strict: unknown keys
are rejected by name, an explicit null is refused, and the record a
value lands in checks it.  ``load_scenario`` reads a file and
``parse_scenario`` text, both with PyYAML, and ``serialize_scenario``
writes the text back.  The shipped presets are written in YAML's
JSON-compatible form and read with the standard library's ``json``,
to the same document.
"""

from __future__ import annotations

import functools
import itertools
import os
import re
from collections.abc import Sequence

from .antenna import AntennaConfig, PatternModel, _FrozenRecord, _real, _whole_number
from .compliance import BUILTIN_LIMITS, ComplianceLimit, _check_distances
from .exposure import ExposureResult, QuadratureSpec, TissueProperties, _linspace
from .link import LinkScenario

__all__ = [
    "CSV_FIELDS",
    "ScenarioError",
    "SweepGrid",
    "ScenarioFile",
    "load_scenario",
    "parse_scenario",
    "serialize_scenario",
    "preset_names",
    "load_preset",
    "emit_results",
]

CSV_FIELDS = (
    "distance_m",
    "path_loss_db",
    "snr_db",
    "rate_bps",
    "boresight_pd_w_m2",
    "boresight_sar_w_kg",
    "avg_sar_w_kg",
)


class ScenarioError(ValueError):
    """Malformed or invalid scenario input."""


class SweepGrid(_FrozenRecord):
    """Distance grid, either linear (start/stop/points, at most 2^16 points)
    or explicit; it holds to the rule of ``sweep``'s distances."""

    def __init__(self, start_m: float | None = None, stop_m: float | None = None,
                 points: int | None = None, distances_m: tuple[float, ...] | None = None) -> None:
        self._store(locals())
        linear = (self.start_m, self.stop_m, self.points)
        if self.distances_m is not None:
            if any(v is not None for v in linear):
                raise ValueError("give either start/stop/points or distances_m, not both")
            if not isinstance(self.distances_m, (list, tuple)):
                raise ValueError("distances_m must be a list or tuple of numbers")
            distances = tuple(_check_distances(self.distances_m, "distances_m"))
            if not distances:
                raise ValueError("distances_m must hold at least one distance")
            object.__setattr__(self, "distances_m", distances)
            return
        if any(v is None for v in linear):
            raise ValueError("start_m, stop_m, and points are all required for a linear grid")
        object.__setattr__(self, "start_m", _real(self.start_m, "start_m", 0))
        object.__setattr__(self, "stop_m", _real(self.stop_m, "stop_m", self.start_m))
        object.__setattr__(self, "points", _whole_number(self.points, "points", 1))
        _check_distances(self.resolve(), f"the {self.points} grid points from "
                         f"{self.start_m!r} m to {self.stop_m!r} m")

    def resolve(self) -> tuple[float, ...]:
        """Concrete strictly increasing distance list in meters."""
        if self.distances_m is not None:
            return self.distances_m
        return tuple(_linspace(self.start_m, self.stop_m, self.points))


class ScenarioFile(_FrozenRecord):
    """A fully validated scenario: link, tissue, quadrature, limits, grid."""

    def __init__(self, scenario: LinkScenario, tissue: TissueProperties,
                 quadrature: QuadratureSpec, limits: tuple[ComplianceLimit, ...],
                 sweep_grid: SweepGrid | None = None) -> None:
        self._store(locals())
        if not isinstance(self.scenario, LinkScenario):
            raise ValueError("scenario must be a LinkScenario")
        if not isinstance(self.tissue, TissueProperties):
            raise ValueError("tissue must be a TissueProperties")
        if not isinstance(self.quadrature, QuadratureSpec):
            raise ValueError("quadrature must be a QuadratureSpec")
        if not (isinstance(self.limits, (list, tuple))
                and all(isinstance(entry, ComplianceLimit) for entry in self.limits)):
            raise ValueError("limits must be a list or tuple of ComplianceLimit records")
        object.__setattr__(self, "limits", tuple(self.limits))
        names = [limit.name for limit in self.limits]
        for at, name in enumerate(names):
            if name in names[:at]:
                raise ValueError(f"limits holds two entries named {name!r}")
        if self.sweep_grid is not None and not isinstance(self.sweep_grid, SweepGrid):
            raise ValueError("sweep_grid must be a SweepGrid")


def _value(section: str, name: str, value):
    """``value`` for the field ``name``: a model by its name, and no null."""
    if value is None:
        raise ScenarioError(f"{section}: {name} must not be null")
    try:
        return PatternModel(value) if name == "model" else value
    except ValueError:
        options = ", ".join(m.value for m in PatternModel)
        raise ScenarioError(f"{section}: {name} must be one of: {options}") from None


def _label(section: str, key) -> str:
    return f"{section}.{key}" if section else str(key)


def _mapping(section: str, raw) -> dict:
    if raw is None:
        return {}
    if not isinstance(raw, dict):
        raise ScenarioError(f"{section or 'the scenario document'} must be a mapping")
    return dict(raw)


def _no_leftovers(section: str, raw: dict) -> None:
    # the first in document order: YAML keys need not be comparable
    if raw:
        raise ScenarioError(f"unknown key '{_label(section, next(iter(raw)))}'")


def _record(record, section: str, raw, **given):
    """Build ``record`` from the keys of ``raw`` named after its fields.

    Fields passed in ``given`` are not read from ``raw``.  A present key
    passes through ``_value`` to the record, an absent one keeps the
    field default, and a field without a default is required.
    """
    raw = _mapping(section, raw)
    values = dict(given)
    for name in record._fields:
        if name in given:
            continue
        if name in raw:
            values[name] = _value(section, name, raw.pop(name))
        elif not hasattr(record, name):
            raise ScenarioError(f"missing required key '{_label(section, name)}'")
    try:
        built = record(**values)
    except ValueError as exc:
        raise ScenarioError(f"{section}: {exc}") from exc
    _no_leftovers(section, raw)
    return built


def _parse_limits(raw) -> tuple[ComplianceLimit, ...]:
    if raw is None:
        return (BUILTIN_LIMITS["ICNIRP"], BUILTIN_LIMITS["FCC"])
    if not isinstance(raw, list):
        raise ScenarioError("'limits' must be a list")
    return tuple(_record(ComplianceLimit, f"limits[{index}]", entry)
                 for index, entry in enumerate(raw))


def _parse_document(doc) -> ScenarioFile:
    top = _mapping("", doc)
    link = top.pop("link", None)
    if link is None:
        raise ScenarioError("missing required section 'link'")
    link = _mapping("link", link)
    antenna = top.pop("antenna", None)
    if antenna is None:
        raise ScenarioError("missing required section 'antenna'")
    # label is a top-level key, set apart so that its message names no section
    scenario = _record(LinkScenario, "link", link, label=LinkScenario.label,
                       tx_antenna=_record(AntennaConfig, "antenna", antenna))
    try:
        scenario = scenario.replace(label=top.pop("label", scenario.label))
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc
    tissue = _record(TissueProperties, "tissue", top.pop("tissue", None))
    quadrature = _record(QuadratureSpec, "quadrature", top.pop("quadrature", None))
    limits = _parse_limits(top.pop("limits", None))
    sweep = top.pop("sweep", None)
    sweep_grid = None if sweep is None else _record(SweepGrid, "sweep", sweep)
    _no_leftovers("", top)
    try:
        return ScenarioFile(scenario=scenario, tissue=tissue, quadrature=quadrature,
                            limits=limits, sweep_grid=sweep_grid)
    except ValueError as exc:  # a rule across sections, so no section names it
        raise ScenarioError(str(exc)) from exc


def load_scenario(path: str | os.PathLike) -> ScenarioFile:
    """Load and validate the scenario in the UTF-8 YAML file at ``path``."""
    return parse_scenario(_read_text(path))


# YAML 1.2's decimal exponent forms and signed forms with no digit before the
# dot; YAML 1.1 reads an exponent form as a float only with a dot in the
# mantissa and a sign in the exponent (2.4e+9, but not 2.4e9), and signs only
# a leading digit (-0.5, but not -.5)
_EXPONENT_FLOAT = r"[-+]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)[eE][-+]?[0-9]+$|[-+]\.[0-9]+$"


@functools.lru_cache(maxsize=None)
def _yaml_classes():
    """PyYAML's safe loader and dumper, each also resolving the forms of
    ``_EXPONENT_FLOAT`` as floats, so that a string such as '1e3' or '-.5'
    is dumped quoted."""
    import yaml

    classes = (type("Loader", (yaml.SafeLoader,), {}), type("Dumper", (yaml.SafeDumper,), {}))
    for cls in classes:
        cls.add_implicit_resolver("tag:yaml.org,2002:float", re.compile(_EXPONENT_FLOAT),
                                  list("-+0123456789."))
    return classes


def parse_scenario(text: str) -> ScenarioFile:
    """Parse and validate the scenario in YAML ``text``, the inverse of
    ``serialize_scenario``."""
    import yaml

    try:
        doc = yaml.load(text, _yaml_classes()[0])
    # PyYAML lets ValueError out of its scalar constructors (2020-13-45, !!int x)
    except (yaml.YAMLError, ValueError) as exc:
        raise ScenarioError(_parse_error_text(exc, text)) from exc
    except RecursionError:  # PyYAML composes nested collections recursively
        raise ScenarioError("scenario parse error: collections nested too deeply") from None
    return _parse_document(doc)


def _read_text(path: str | os.PathLike) -> str:
    """The text of a UTF-8 file; otherwise a ScenarioError names the file
    and the line and column of the first byte that is not UTF-8."""
    with open(path, "rb") as file:
        data = file.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        before = data[:exc.start].decode("utf-8")
        raise ScenarioError(
            f"scenario file {os.fspath(path)!r} is not UTF-8{_at_offset(before, len(before))}: "
            f"byte 0x{data[exc.start]:02x}, {exc.reason}") from None


# the line breaks of YAML 1.1, which PyYAML's marks count
_LINE_BREAK = re.compile("\r\n|[\r\n\x85\u2028\u2029]")


def _at(mark) -> str:
    return f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""


def _at_offset(text: str, offset: int) -> str:
    """``_at`` for a character offset into ``text``."""
    line = line_start = 0
    for line, found in enumerate(_LINE_BREAK.finditer(text, 0, offset), 1):
        line_start = found.end()
    return f" at line {line + 1}, column {offset - line_start + 1}"


def _parse_error_text(exc: Exception, parsed) -> str:
    """One line for a YAML or scalar-construction error in ``parsed``.

    PyYAML's own text quotes the source lines under every position;
    this keeps the problem, its position, and the construct it arose in.
    """
    import yaml

    if isinstance(exc, yaml.reader.ReaderError) and isinstance(parsed, str):
        # a ReaderError gives a character offset, on a second line
        problem = str(exc).splitlines()[0]
        return f"scenario parse error{_at_offset(parsed, exc.position)}: {problem}"
    if not isinstance(exc, yaml.MarkedYAMLError):
        text = " ".join(line.strip() for line in str(exc).splitlines())
        return f"scenario parse error: {text}"
    text = f"scenario parse error{_at(exc.problem_mark)}: {exc.problem}"
    if exc.context is None:
        return text
    return f"{text} ({exc.context}{_at(exc.context_mark)})"


def _dump(record, *skip: str) -> dict:
    # field order is key order; None means "absent" and is left out
    doc = {}
    for name in record._fields:
        value = getattr(record, name)
        if name not in skip and value is not None:
            doc[name] = list(value) if isinstance(value, tuple) else value
    return doc


def serialize_scenario(scenario_file: ScenarioFile) -> str:
    """YAML text that loads back to an identical ScenarioFile."""
    import yaml

    sc = scenario_file.scenario
    doc: dict = {}
    if sc.label:
        doc["label"] = sc.label
    doc["link"] = _dump(sc, "tx_antenna", "label")
    doc["antenna"] = {"model": sc.tx_antenna.model.value, **_dump(sc.tx_antenna, "model")}
    doc["tissue"] = _dump(scenario_file.tissue)
    doc["quadrature"] = _dump(scenario_file.quadrature)
    doc["limits"] = [_dump(limit) for limit in scenario_file.limits]
    if scenario_file.sweep_grid is not None:
        doc["sweep"] = _dump(scenario_file.sweep_grid)
    return yaml.dump(doc, Dumper=_yaml_classes()[1], sort_keys=False, default_flow_style=False)


_PRESET_DIR = os.path.join(os.path.dirname(__file__), "presets")


def preset_names() -> list[str]:
    """Names of the built-in scenario presets."""
    return sorted(entry[:-5] for entry in os.listdir(_PRESET_DIR) if entry.endswith(".yaml"))


def load_preset(name: str) -> ScenarioFile:
    """Load a built-in preset by a name that ``preset_names`` lists.

    The preset files are YAML in its JSON-compatible form, so they are
    read with ``json`` rather than PyYAML, which this never imports.
    """
    import json

    known = preset_names()
    if name not in known:
        raise ScenarioError(f"unknown preset '{name}' (available: {', '.join(known)})")
    return _parse_document(json.loads(_read_text(os.path.join(_PRESET_DIR, f"{name}.yaml"))))


_CSV_HEADER = ",".join(CSV_FIELDS) + "\n"
_CSV_LINE = ",".join(["%.8e"] * len(CSV_FIELDS)) + "\n"
# one array element in json.dumps(..., indent=2)'s layout
_JSON_OBJECT = "  {\n" + ",\n".join(f'    "{name}": %s' for name in CSV_FIELDS) + "\n  }"


def emit_results(rows: Sequence[ExposureResult], fmt: str = "csv") -> bytes:
    """Serialize sweep rows as CSV or JSON bytes.

    CSV carries one row per distance with the fixed header in
    CSV_FIELDS and values in scientific notation with 9 significant
    digits; JSON is an array of objects with the same field names, the
    bytes of ``json.dumps(payload, indent=2) + "\n"``.  Rows hold finite
    floats, so JSON never meets inf or nan.  Output is bit-identical
    across runs for identical inputs.  An item that is not an
    ExposureResult raises ValueError naming its index and type.

    The rows' values are flattened into one tuple, and the whole output
    is one ``%`` operation on a template with a slot per value, ``%s``
    printing each float as ``float.__repr__`` does.
    """
    if fmt not in ("csv", "json"):
        raise ValueError(f"fmt must be 'csv' or 'json', got {fmt!r}")
    rows = list(rows)
    if not set(map(type, rows)) <= {ExposureResult}:
        index, row = next((i, row) for i, row in enumerate(rows) if type(row) is not ExposureResult)
        raise ValueError(f"row {index} is a {type(row).__name__}, not an ExposureResult")
    values = tuple(itertools.chain.from_iterable(rows))
    if fmt == "csv":
        return (_CSV_HEADER + _CSV_LINE * len(rows) % values).encode("ascii")
    if not rows:
        return b"[]\n"
    template = "[\n" + ",\n".join([_JSON_OBJECT] * len(rows)) + "\n]\n"
    return (template % values).encode("ascii")
