"""Scenario file ingestion, built-in presets, and result emission.

Scenario files are YAML with nested key-value sections (documented in
the README).  Loading is strict: unknown keys are rejected by name,
missing optional keys fall back to documented defaults, and every
value passes the invariants of the record it lands in.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Sequence, Union

import numpy as np
import yaml

from .antenna import AntennaConfig, PatternModel
from .compliance import BUILTIN_LIMITS, ComplianceLimit
from .exposure import ExposureResult, QuadratureSpec, TissueProperties
from .link import LinkScenario

__all__ = [
    "CSV_FIELDS",
    "ScenarioError",
    "SweepGrid",
    "ScenarioFile",
    "load_scenario",
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


@dataclass(frozen=True)
class SweepGrid:
    """Distance grid, either linear (start/stop/points) or explicit."""

    start_m: float | None = None
    stop_m: float | None = None
    points: int | None = None
    distances_m: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        linear = (self.start_m, self.stop_m, self.points)
        if self.distances_m is not None:
            if any(v is not None for v in linear):
                raise ValueError("give either start/stop/points or distances_m, not both")
            object.__setattr__(self, "distances_m", tuple(float(d) for d in self.distances_m))
            previous = 0.0
            for d in self.distances_m:
                if not (math.isfinite(d) and d > previous):
                    raise ValueError("distances_m must be positive and strictly increasing")
                previous = d
            if not self.distances_m:
                raise ValueError("distances_m must hold at least one distance")
            return
        if any(v is None for v in linear):
            raise ValueError("start_m, stop_m, and points are all required for a linear grid")
        if not (math.isfinite(self.start_m) and self.start_m > 0.0):
            raise ValueError("start_m must be > 0")
        if not (math.isfinite(self.stop_m) and self.stop_m > self.start_m):
            raise ValueError("stop_m must exceed start_m")
        if int(self.points) != self.points or self.points < 1:
            raise ValueError("points must be an integer >= 1")

    def resolve(self) -> tuple[float, ...]:
        """Concrete strictly increasing distance list in meters."""
        if self.distances_m is not None:
            return self.distances_m
        return tuple(float(d) for d in np.linspace(self.start_m, self.stop_m, self.points))


@dataclass(frozen=True)
class ScenarioFile:
    """A fully validated scenario: link, tissue, quadrature, limits, grid."""

    scenario: LinkScenario
    tissue: TissueProperties
    quadrature: QuadratureSpec
    limits: tuple[ComplianceLimit, ...]
    sweep_grid: SweepGrid | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.scenario, LinkScenario):
            raise ValueError("scenario must be a LinkScenario")
        if not isinstance(self.tissue, TissueProperties):
            raise ValueError("tissue must be a TissueProperties")
        if not isinstance(self.quadrature, QuadratureSpec):
            raise ValueError("quadrature must be a QuadratureSpec")
        object.__setattr__(self, "limits", tuple(self.limits))
        for entry in self.limits:
            if not isinstance(entry, ComplianceLimit):
                raise ValueError("limits entries must be ComplianceLimit records")
        if self.sweep_grid is not None and not isinstance(self.sweep_grid, SweepGrid):
            raise ValueError("sweep_grid must be a SweepGrid")


_MISSING = object()


def _number_hint(value) -> str:
    # YAML 1.1 reads '2.16e9' as a string: the exponent needs a sign
    if not isinstance(value, str):
        return ""
    try:
        float(value)
    except ValueError:
        return ""
    return (f" (YAML reads {value!r} as a string; write the exponent with "
            "a sign, e.g. 2.16e+9, or spell the number out)")


def _coerce(label: str, value, kind: str):
    if kind == "float":
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ScenarioError(f"'{label}' must be a number{_number_hint(value)}")
        return float(value)
    if kind == "int":
        if isinstance(value, bool) or not isinstance(value, int):
            if isinstance(value, float) and value.is_integer():
                return int(value)
            raise ScenarioError(f"'{label}' must be an integer{_number_hint(value)}")
        return int(value)
    if kind == "bool":
        if not isinstance(value, bool):
            raise ScenarioError(f"'{label}' must be a boolean")
        return value
    if kind == "str":
        if not isinstance(value, str):
            raise ScenarioError(f"'{label}' must be a string")
        return value
    raise AssertionError(kind)


class _Section:
    """One mapping node; tracks consumed keys so leftovers can be named."""

    def __init__(self, name: str, raw) -> None:
        if raw is None:
            raw = {}
        if not isinstance(raw, dict):
            where = name if name else "the scenario document"
            raise ScenarioError(f"{where} must be a mapping")
        self.name = name
        self.raw = dict(raw)

    def _label(self, key: str) -> str:
        return f"{self.name}.{key}" if self.name else key

    def take(self, key: str, kind: str, default=_MISSING):
        if key not in self.raw:
            if default is _MISSING:
                raise ScenarioError(f"missing required key '{self._label(key)}'")
            return default
        return _coerce(self._label(key), self.raw.pop(key), kind)

    def take_node(self, key: str):
        return self.raw.pop(key, None)

    def has(self, key: str) -> bool:
        return key in self.raw

    def finish(self) -> None:
        if self.raw:
            key = sorted(self.raw)[0]
            raise ScenarioError(f"unknown key '{self._label(key)}'")


def _build(section: str, factory, **kwargs):
    try:
        return factory(**kwargs)
    except ValueError as exc:
        raise ScenarioError(f"{section}: {exc}") from exc


def _parse_antenna(raw) -> AntennaConfig:
    section = _Section("antenna", raw)
    model_name = section.take("model", "str")
    try:
        model = PatternModel(model_name)
    except ValueError:
        options = ", ".join(m.value for m in PatternModel)
        raise ScenarioError(f"'antenna.model' must be one of: {options}") from None
    config = _build(
        "antenna", AntennaConfig,
        model=model,
        g_max_dbi=section.take("g_max_dbi", "float"),
        n_elements=section.take("n_elements", "int", 1),
        element_spacing_wavelengths=section.take("element_spacing_wavelengths", "float", 0.5),
        theta_3db_deg=section.take("theta_3db_deg", "float", 93.0),
        sidelobe_floor_db=section.take("sidelobe_floor_db", "float", 30.0),
        boresight_elevation_deg=section.take("boresight_elevation_deg", "float", 0.0),
        boresight_azimuth_deg=section.take("boresight_azimuth_deg", "float", 0.0),
        omni_azimuth=section.take("omni_azimuth", "bool", False),
    )
    section.finish()
    return config


def _parse_tissue(raw) -> TissueProperties:
    section = _Section("tissue", raw)
    eps_real = section.take("rel_permittivity_real", "float", 1.0)
    eps_imag = section.take("rel_permittivity_imag", "float", 0.0)
    if eps_imag < 0.0:
        raise ScenarioError("'tissue.rel_permittivity_imag' is the loss term and must be >= 0")
    override = section.take("reflection_override", "float", None)
    tissue = _build(
        "tissue", TissueProperties,
        rel_permittivity=complex(eps_real, -eps_imag),
        mass_density_kg_per_m3=section.take("mass_density_kg_per_m3", "float", 1000.0),
        penetration_depth_m=section.take("penetration_depth_m", "float", 1e-3),
        reflection_override=override,
    )
    section.finish()
    return tissue


def _parse_quadrature(raw) -> QuadratureSpec:
    section = _Section("quadrature", raw)
    spec = _build(
        "quadrature", QuadratureSpec,
        samples_per_axis=section.take("samples_per_axis", "int", 361),
        convergence_tol=section.take("convergence_tol", "float", 1e-3),
    )
    section.finish()
    return spec


def _parse_limits(raw) -> tuple[ComplianceLimit, ...]:
    if raw is None:
        return (BUILTIN_LIMITS["ICNIRP"], BUILTIN_LIMITS["FCC"])
    if not isinstance(raw, list):
        raise ScenarioError("'limits' must be a list")
    limits = []
    for index, entry in enumerate(raw):
        section = _Section(f"limits[{index}]", entry)
        limits.append(_build(
            f"limits[{index}]", ComplianceLimit,
            name=section.take("name", "str"),
            sar_limit_w_per_kg=section.take("sar_limit_w_per_kg", "float"),
            averaging_mass_note=section.take("averaging_mass_note", "str", ""),
        ))
        section.finish()
    return tuple(limits)


def _parse_sweep(raw) -> SweepGrid | None:
    if raw is None:
        return None
    section = _Section("sweep", raw)
    if section.has("distances_m"):
        values = section.take_node("distances_m")
        if not isinstance(values, list):
            raise ScenarioError("'sweep.distances_m' must be a list of numbers")
        distances = tuple(
            _coerce(f"sweep.distances_m[{i}]", v, "float") for i, v in enumerate(values))
        grid = _build("sweep", SweepGrid, distances_m=distances)
    else:
        grid = _build(
            "sweep", SweepGrid,
            start_m=section.take("start_m", "float"),
            stop_m=section.take("stop_m", "float"),
            points=section.take("points", "int"),
        )
    section.finish()
    return grid


def _parse_document(doc) -> ScenarioFile:
    top = _Section("", doc)
    label = top.take("label", "str", "")

    link_raw = top.take_node("link")
    if link_raw is None:
        raise ScenarioError("missing required section 'link'")
    link = _Section("link", link_raw)
    antenna_raw = top.take_node("antenna")
    if antenna_raw is None:
        raise ScenarioError("missing required section 'antenna'")
    antenna = _parse_antenna(antenna_raw)

    scenario = _build(
        "link", LinkScenario,
        carrier_mhz=link.take("carrier_mhz", "float"),
        bandwidth_hz=link.take("bandwidth_hz", "float"),
        tx_power_dbm=link.take("tx_power_dbm", "float"),
        tx_antenna=antenna,
        rx_gain_dbi=link.take("rx_gain_dbi", "float", 0.0),
        noise_figure_db=link.take("noise_figure_db", "float", 0.0),
        temperature_k=link.take("temperature_k", "float", 290.0),
        label=label,
    )
    link.finish()

    tissue = _parse_tissue(top.take_node("tissue"))
    quadrature = _parse_quadrature(top.take_node("quadrature"))
    limits = _parse_limits(top.take_node("limits"))
    sweep_grid = _parse_sweep(top.take_node("sweep"))
    top.finish()
    return ScenarioFile(scenario=scenario, tissue=tissue, quadrature=quadrature,
                        limits=limits, sweep_grid=sweep_grid)


def load_scenario(source: Union[str, os.PathLike]) -> ScenarioFile:
    """Load and validate a scenario from a file path or YAML text.

    A path-like object, or a string without newlines, names a file;
    a string containing newlines is parsed directly as YAML.
    """
    if isinstance(source, os.PathLike):
        text = Path(source).read_text(encoding="utf-8")
    elif isinstance(source, str) and "\n" not in source:
        text = Path(source).read_text(encoding="utf-8")
    else:
        text = source
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        raise ScenarioError(f"scenario parse error{where}: {exc}") from exc
    return _parse_document(doc)


def serialize_scenario(scenario_file: ScenarioFile) -> str:
    """YAML text that loads back to an identical ScenarioFile."""
    sc = scenario_file.scenario
    ant = sc.tx_antenna
    tissue = scenario_file.tissue
    doc: dict = {}
    if sc.label:
        doc["label"] = sc.label
    doc["link"] = {
        "carrier_mhz": sc.carrier_mhz,
        "bandwidth_hz": sc.bandwidth_hz,
        "tx_power_dbm": sc.tx_power_dbm,
        "rx_gain_dbi": sc.rx_gain_dbi,
        "noise_figure_db": sc.noise_figure_db,
        "temperature_k": sc.temperature_k,
    }
    doc["antenna"] = {
        "model": ant.model.value,
        "g_max_dbi": ant.g_max_dbi,
        "n_elements": ant.n_elements,
        "element_spacing_wavelengths": ant.element_spacing_wavelengths,
        "theta_3db_deg": ant.theta_3db_deg,
        "sidelobe_floor_db": ant.sidelobe_floor_db,
        "boresight_elevation_deg": ant.boresight_elevation_deg,
        "boresight_azimuth_deg": ant.boresight_azimuth_deg,
        "omni_azimuth": ant.omni_azimuth,
    }
    eps = complex(tissue.rel_permittivity)
    tissue_doc = {
        "rel_permittivity_real": eps.real,
        "rel_permittivity_imag": -eps.imag,
        "mass_density_kg_per_m3": tissue.mass_density_kg_per_m3,
        "penetration_depth_m": tissue.penetration_depth_m,
    }
    if tissue.reflection_override is not None:
        tissue_doc["reflection_override"] = tissue.reflection_override
    doc["tissue"] = tissue_doc
    doc["quadrature"] = {
        "samples_per_axis": scenario_file.quadrature.samples_per_axis,
        "convergence_tol": scenario_file.quadrature.convergence_tol,
    }
    doc["limits"] = [
        {
            "name": limit.name,
            "sar_limit_w_per_kg": limit.sar_limit_w_per_kg,
            "averaging_mass_note": limit.averaging_mass_note,
        }
        for limit in scenario_file.limits
    ]
    grid = scenario_file.sweep_grid
    if grid is not None:
        if grid.distances_m is not None:
            doc["sweep"] = {"distances_m": list(grid.distances_m)}
        else:
            doc["sweep"] = {
                "start_m": grid.start_m,
                "stop_m": grid.stop_m,
                "points": grid.points,
            }
    return yaml.safe_dump(doc, sort_keys=False, default_flow_style=False)


def _preset_dir():
    return resources.files(__package__) / "presets"


def preset_names() -> list[str]:
    """Names of the built-in scenario presets."""
    return sorted(entry.name[:-5] for entry in _preset_dir().iterdir()
                  if entry.name.endswith(".yaml"))


def load_preset(name: str) -> ScenarioFile:
    """Load a built-in preset by name."""
    candidate = _preset_dir() / f"{name}.yaml"
    if not candidate.is_file():
        known = ", ".join(preset_names())
        raise ScenarioError(f"unknown preset '{name}' (available: {known})")
    return load_scenario(candidate.read_text(encoding="utf-8"))


def emit_results(rows: Sequence[ExposureResult], fmt: str = "csv") -> bytes:
    """Serialize sweep rows as CSV or JSON bytes.

    CSV carries one row per distance with the fixed header in
    CSV_FIELDS and values in scientific notation with 9 significant
    digits; JSON is an array of objects with the same field names, and
    a non-finite value raises ValueError rather than emit invalid JSON.
    Output is bit-identical across runs for identical inputs.
    """
    if fmt not in ("csv", "json"):
        raise ValueError(f"fmt must be 'csv' or 'json', got {fmt!r}")
    records = [
        (row.distance_m, row.path_loss_db, row.snr_db, row.rate_bps,
         row.boresight_pd_w_per_m2, row.boresight_sar_w_per_kg, row.avg_sar_w_per_kg)
        for row in rows
    ]
    if fmt == "csv":
        lines = [",".join(CSV_FIELDS)]
        lines.extend(",".join(f"{value:.8e}" for value in record) for record in records)
        return ("\n".join(lines) + "\n").encode("ascii")
    payload = [dict(zip(CSV_FIELDS, record)) for record in records]
    return (json.dumps(payload, indent=2, allow_nan=False) + "\n").encode("ascii")
