"""Scenario file grammar, presets, serialization, and result emission."""

import ast
import copy
import dataclasses
import inspect
import json
import math
import os
import pickle
import re
import subprocess
import sys
import types
from fractions import Fraction

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

import wearemf
from wearemf import (
    CSV_FIELDS,
    AntennaConfig,
    ComplianceLimit,
    DistanceSearch,
    ExposureResult,
    LinkScenario,
    PatternModel,
    QuadratureSpec,
    ScenarioError,
    ScenarioFile,
    SweepGrid,
    TissueProperties,
    emit_results,
    load_preset,
    load_scenario,
    parse_scenario,
    preset_names,
    serialize_scenario,
    sweep,
)
from wearemf.scenario import _PRESET_DIR, _parse_document, _yaml_classes

MINIMAL = """
link:
  carrier_mhz: 2400.0
  bandwidth_hz: 1000000.0
  tx_power_dbm: 0.0
antenna:
  model: parabolic-envelope
  g_max_dbi: 3.0
"""


def test_preset_names_lists_both():
    assert preset_names() == ["wearable-2.4ghz", "wearable-60ghz"]


def test_60ghz_preset_fields():
    loaded = load_preset("wearable-60ghz")
    sc = loaded.scenario
    assert sc.carrier_mhz == 60000.0
    assert sc.bandwidth_hz == 2.16e9
    assert sc.tx_power_dbm == 10.0
    assert sc.rx_gain_dbi == 10.0
    assert sc.noise_figure_db == 6.0
    assert sc.temperature_k == 290.0
    ant = sc.tx_antenna
    assert ant.model is PatternModel.LINEAR_ARRAY_FACTOR
    assert ant.g_max_dbi == 11.9
    assert ant.n_elements == 16
    assert ant.element_spacing_wavelengths == 0.5
    assert ant.theta_3db_deg == 93.0
    assert ant.sidelobe_floor_db == 30.0
    assert not ant.omni_azimuth
    assert loaded.tissue.reflection_override == 0.7
    assert loaded.quadrature.samples_per_axis == 361
    assert [lim.name for lim in loaded.limits] == ["ICNIRP", "FCC"]


def test_24ghz_preset_fields():
    loaded = load_preset("wearable-2.4ghz")
    sc = loaded.scenario
    assert sc.carrier_mhz == 2400.0
    assert sc.bandwidth_hz == 93e6
    assert sc.tx_power_dbm == 2.0
    assert sc.rx_gain_dbi == 10.0
    assert sc.noise_figure_db == 6.0
    assert sc.temperature_k == 290.0
    ant = sc.tx_antenna
    assert ant.model is PatternModel.PARABOLIC_ENVELOPE
    assert ant.g_max_dbi == 10.1
    assert ant.n_elements == 4
    assert ant.omni_azimuth
    assert loaded.tissue.reflection_override is None
    assert loaded.tissue.penetration_depth_m == 1e-3
    assert loaded.tissue.mass_density_kg_per_m3 == 1000.0


def test_unknown_preset_names_the_alternatives():
    with pytest.raises(ScenarioError, match="wearable-60ghz"):
        load_preset("no-such-thing")


@pytest.mark.parametrize("name", preset_names())
def test_json_and_pyyaml_read_each_preset_alike(name):
    # load_preset reads a preset with json, and --scenario reads a copy with PyYAML
    with open(f"{_PRESET_DIR}/{name}.yaml", encoding="utf-8") as file:
        text = file.read()
    by_yaml = yaml.load(text, _yaml_classes()[0])
    # json.dumps tells 361 from 361.0 and true from 1, so the types must agree too
    assert json.dumps(json.loads(text)) == json.dumps(by_yaml)
    assert _parse_document(by_yaml) == load_preset(name)


def test_load_from_text_and_from_path(tmp_path):
    from_text = parse_scenario(MINIMAL)
    path = tmp_path / "minimal.yaml"
    path.write_text(MINIMAL)
    assert load_scenario(path) == from_text
    assert load_scenario(str(path)) == from_text


def test_one_line_yaml_is_text_to_parse_and_a_path_to_load(tmp_path):
    text = ("{link: {carrier_mhz: 2400.0, bandwidth_hz: 1.0e+6, tx_power_dbm: 0.0},"
            " antenna: {model: parabolic-envelope, g_max_dbi: 3.0}}")
    assert parse_scenario(text) == parse_scenario(MINIMAL)
    path = tmp_path / "one-line.yaml"
    path.write_text(text)
    assert load_scenario(path) == parse_scenario(MINIMAL)
    with pytest.raises(FileNotFoundError):
        load_scenario(str(tmp_path / "label: x"))


def test_defaults_fill_missing_optional_fields():
    loaded = parse_scenario(MINIMAL)
    sc = loaded.scenario
    assert sc.rx_gain_dbi == 0.0
    assert sc.noise_figure_db == 0.0
    assert sc.temperature_k == 290.0
    assert sc.label == ""
    ant = sc.tx_antenna
    assert ant.n_elements == 1
    assert ant.element_spacing_wavelengths == 0.5
    assert ant.theta_3db_deg == 93.0
    assert ant.sidelobe_floor_db == 30.0
    assert not ant.omni_azimuth
    assert loaded.tissue.rel_permittivity == complex(1.0, 0.0)
    assert loaded.tissue.reflection_override is None
    assert loaded.quadrature.samples_per_axis == 361
    assert loaded.quadrature.convergence_tol == 1e-3
    assert [lim.name for lim in loaded.limits] == ["ICNIRP", "FCC"]
    assert loaded.sweep_grid is None


@pytest.mark.parametrize("snippet, named_key", [
    (MINIMAL + "bogus: 1\n", "bogus"),
    (MINIMAL.replace("tx_power_dbm: 0.0", "tx_power_dbm: 0.0\n  eirp: 3"),
     "link.eirp"),
    (MINIMAL.replace("g_max_dbi: 3.0", "g_max_dbi: 3.0\n  taper: hann"),
     "antenna.taper"),
    (MINIMAL + "tissue:\n  wetness: high\n", "tissue.wetness"),
    # conductivity duplicated the loss term of the permittivity and was dropped
    (MINIMAL + "tissue:\n  conductivity_s_per_m: 36.38\n",
     "tissue.conductivity_s_per_m"),
    (MINIMAL + "sweep:\n  start_m: 0.01\n  stop_m: 0.1\n  points: 5\n  step: 2\n",
     "sweep.step"),
    (MINIMAL + "limits:\n  - name: X\n    sar_limit_w_per_kg: 1.0\n    body: arm\n",
     "limits[0].body"),
    # keys of mixed types cannot be sorted; the first in the document is named
    (MINIMAL + "1: 2\nb: 3\n", "1"),
    (MINIMAL + "tissue:\n  1: 2\n  b: 3\n", "tissue.1"),
    # the label is a top-level key
    (MINIMAL.replace("tx_power_dbm: 0.0", "tx_power_dbm: 0.0\n  label: x"), "link.label"),
])
def test_unknown_keys_are_named(snippet, named_key):
    with pytest.raises(ScenarioError, match=re.escape(f"unknown key '{named_key}'")):
        parse_scenario(snippet)


def test_missing_required_keys_are_named():
    with pytest.raises(ScenarioError, match="link"):
        parse_scenario("antenna:\n  model: parabolic-envelope\n  g_max_dbi: 1.0\n")
    with pytest.raises(ScenarioError, match="link.carrier_mhz"):
        parse_scenario(MINIMAL.replace("  carrier_mhz: 2400.0\n", ""))
    with pytest.raises(ScenarioError, match="antenna.model"):
        parse_scenario(MINIMAL.replace("  model: parabolic-envelope\n", ""))


def test_wrong_value_types_are_rejected():
    with pytest.raises(ScenarioError, match="^link: carrier_mhz must be a finite number"):
        parse_scenario(MINIMAL.replace("carrier_mhz: 2400.0", "carrier_mhz: fast"))
    with pytest.raises(ScenarioError, match="^link: carrier_mhz must be a finite number"):
        parse_scenario(MINIMAL.replace("carrier_mhz: 2400.0", "carrier_mhz: true"))
    with pytest.raises(ScenarioError, match="omni_azimuth"):
        parse_scenario(MINIMAL + "  omni_azimuth: 3\n")
    # an integer beyond the double range
    with pytest.raises(ScenarioError, match="^antenna: g_max_dbi must be a finite number"):
        parse_scenario(MINIMAL.replace("g_max_dbi: 3.0", "g_max_dbi: 1" + "0" * 400))
    for snippet, message in [
        (MINIMAL + "label: 5\n", "^label must be a string$"),
        (MINIMAL + "limits:\n  - name: 5\n    sar_limit_w_per_kg: 2.0\n",
         r"^limits\[0\]: name must be a non-empty string$"),
        (MINIMAL + "sweep:\n  distances_m: 0.01\n", "^sweep: distances_m must be a list"),
        (MINIMAL + "limits: 5\n", "^'limits' must be a list$"),
        # two limits of one name, which `safe-distance --limit X` could not tell apart
        (MINIMAL + "limits:\n  - {name: X, sar_limit_w_per_kg: 1}\n"
         "  - {name: X, sar_limit_w_per_kg: 2}\n", "^limits holds two entries named 'X'$"),
        (MINIMAL.replace("model: parabolic-envelope", "model: [1]"),
         "^antenna: model must be one of: parabolic-envelope, linear-array-factor$"),
        # null would read as the absent key's default
        (MINIMAL + "tissue:\n  reflection_override: null\n",
         "^tissue: reflection_override must not be null$"),
        (MINIMAL + "tissue:\n  rel_permittivity_imag: null\n",
         "^tissue: rel_permittivity_imag must not be null$"),
        (MINIMAL + "tissue:\n  rel_permittivity_real: 1" + "0" * 399 + "\n",
         "^tissue: rel_permittivity_real must be a finite number$"),
    ]:
        with pytest.raises(ScenarioError, match=message):
            parse_scenario(snippet)


def test_exponent_forms_load_as_floats():
    # YAML 1.1 reads 2.4e3 as a string; it needs a dot and a signed exponent
    for written in ("2.4e3", "2.4e+3", "24e2", "24E+2", ".24e4"):
        loaded = parse_scenario(MINIMAL.replace("carrier_mhz: 2400.0", f"carrier_mhz: {written}"))
        assert loaded.scenario.carrier_mhz == 2400.0


def test_bad_model_lists_the_options():
    bad = MINIMAL.replace("parabolic-envelope", "dish")
    with pytest.raises(ScenarioError, match="linear-array-factor"):
        parse_scenario(bad)


def test_invariant_violations_carry_the_section_name():
    with pytest.raises(ScenarioError, match="link"):
        parse_scenario(MINIMAL.replace("carrier_mhz: 2400.0", "carrier_mhz: -1.0"))
    with pytest.raises(ScenarioError, match="tissue"):
        parse_scenario(MINIMAL + "tissue:\n  mass_density_kg_per_m3: 0.0\n")
    # each value is valid alone; the product underflows to zero
    with pytest.raises(ScenarioError, match="^tissue: "):
        parse_scenario(MINIMAL + "tissue:\n  mass_density_kg_per_m3: 1.0e-200\n"
                      "  penetration_depth_m: 1.0e-200\n")
    # Fresnel reflection needs a positive real part when nothing overrides it
    with pytest.raises(ScenarioError, match="^tissue: rel_permittivity_real must be > 0 "):
        parse_scenario(MINIMAL + "tissue:\n  rel_permittivity_real: -1.0\n")
    # the grid size is capped, so no file can ask for unbounded work
    with pytest.raises(ScenarioError, match=r"^quadrature: .*in \[2, 65536\]$"):
        parse_scenario(MINIMAL + "quadrature:\n  samples_per_axis: 100000000\n")


def test_parse_errors_carry_a_line_number():
    with pytest.raises(ScenarioError, match="line"):
        parse_scenario("link: [unclosed\nantenna: {\n")


@pytest.mark.parametrize("bad", ["2020-13-45", "!!int x", "1" + "0" * 5000],
                         ids=["bad-date", "bad-int-tag", "int-beyond-str-limit"])
def test_unconstructible_scalars_are_parse_errors(bad):
    # PyYAML resolves these scalars but raises ValueError building them
    with pytest.raises(ScenarioError, match="parse error"):
        parse_scenario(MINIMAL + f"label: {bad}\n")


def test_negative_permittivity_loss_is_rejected():
    with pytest.raises(ScenarioError, match="^tissue: rel_permittivity_imag must be >= 0$"):
        parse_scenario(MINIMAL + "tissue:\n  rel_permittivity_imag: -1.0\n")


def test_round_trip_identity_for_presets():
    for name in preset_names():
        loaded = load_preset(name)
        # and with a tissue built in code, whose default loss term is written 0.0
        built = dataclasses.replace(loaded, tissue=TissueProperties())
        for scenario_file in (loaded, built):
            text = serialize_scenario(scenario_file)
            again = parse_scenario(text)
            assert again == scenario_file
            assert serialize_scenario(again) == text
        assert "\n  rel_permittivity_imag: 0.0\n" in serialize_scenario(built)


def test_round_trip_preserves_explicit_distances():
    source = MINIMAL + "sweep:\n  distances_m: [0.001, 0.002, 0.03]\n"
    loaded = parse_scenario(source)
    assert loaded.sweep_grid.resolve() == (0.001, 0.002, 0.03)
    assert parse_scenario(serialize_scenario(loaded)) == loaded


def test_sweep_grid_forms_are_exclusive():
    with pytest.raises(ValueError):
        SweepGrid(start_m=0.001, stop_m=0.01, points=5, distances_m=(0.001,))
    with pytest.raises(ValueError):
        SweepGrid(start_m=0.001, stop_m=0.01)  # points missing
    with pytest.raises(ValueError):
        SweepGrid(distances_m=())
    with pytest.raises(ValueError):
        SweepGrid(distances_m=(0.002, 0.001))
    with pytest.raises(ValueError):
        SweepGrid(start_m=0.01, stop_m=0.001, points=5)
    for points in (True, 4.5, 0, math.inf, math.nan):
        with pytest.raises(ValueError, match=r"^points must be an integer in \[1, 65536\]$"):
            SweepGrid(start_m=0.001, stop_m=0.01, points=points)
    # not numbers at all: a ValueError like every other bad grid, not a TypeError
    with pytest.raises(ValueError):
        SweepGrid(distances_m=(None,))
    with pytest.raises(ValueError):
        SweepGrid(distances_m=5)
    with pytest.raises(ValueError):
        SweepGrid(start_m="a", stop_m=0.1, points=3)
    # not coerced: a string is no sequence of distances, True is no distance
    with pytest.raises(ValueError):
        SweepGrid(distances_m="123")
    with pytest.raises(ValueError):
        SweepGrid(start_m=True, stop_m=2, points=2)
    # a grid that builds is a grid that sweep takes: these points repeat
    with pytest.raises(ValueError, match="grid points"):
        SweepGrid(start_m=1.0, stop_m=1.0000000000000004, points=5)
    # the grid is bounded like every other count
    with pytest.raises(ValueError, match=r"^points must be an integer in \[1, 65536\]$"):
        SweepGrid(start_m=0.001, stop_m=0.01, points=65537)


def test_sweep_grid_resolution_endpoints():
    grid = SweepGrid(start_m=0.001, stop_m=0.05, points=50)
    distances = grid.resolve()
    assert len(distances) == 50
    assert distances[0] == 0.001
    assert distances[-1] == 0.05
    assert all(b > a for a, b in zip(distances, distances[1:]))


def test_sweep_grid_stores_integral_float_points_as_int():
    grid = SweepGrid(start_m=0.001, stop_m=0.05, points=50.0)
    assert type(grid.points) is int
    assert grid.resolve() == SweepGrid(start_m=0.001, stop_m=0.05, points=50).resolve()


_RECORDS = (LinkScenario, AntennaConfig, TissueProperties, QuadratureSpec,
            ComplianceLimit, SweepGrid)
_SCHEMA_KEYS = sorted(
    {"label", "link", "antenna", "tissue", "quadrature", "limits", "sweep"}
    | {field.name for record in _RECORDS for field in dataclasses.fields(record)})
_keys = st.one_of(st.sampled_from(_SCHEMA_KEYS), st.text(max_size=6),
                  st.integers(), st.none())
_leaves = st.one_of(
    st.none(), st.booleans(),
    # the second range reaches integers no double can hold
    st.integers(), st.integers(min_value=-10**400, max_value=10**400),
    st.floats(), st.text(max_size=8), st.sampled_from([m.value for m in PatternModel]))
_values = st.recursive(
    _leaves, lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_keys, inner, max_size=4),
    max_leaves=12)


_PRESETS = [load_preset(name) for name in preset_names()]
_PRESET_TEXTS = [serialize_scenario(loaded) for loaded in _PRESETS]


@st.composite
def _documents(draw):
    # a preset with a few keys dropped or replaced, so that some documents load
    doc = yaml.safe_load(draw(st.sampled_from(_PRESET_TEXTS)))
    for _ in range(draw(st.integers(1, 3))):
        section = doc[draw(st.sampled_from(list(doc)))]
        target = section if isinstance(section, dict) and draw(st.booleans()) else doc
        key = draw(st.one_of(st.sampled_from(list(target)), _keys) if target else _keys)
        if draw(st.booleans()):
            target.pop(key, None)
        else:
            target[key] = draw(_values)
    return doc


def _like(value):
    """Values of ``value``'s kind near it, which the field that holds ``value`` mostly accepts."""
    if isinstance(value, bool):
        return st.booleans()
    if isinstance(value, int):
        return st.integers(2, 64)
    if isinstance(value, float):
        return st.floats(0.5, 2.0).map(value.__mul__) if value else st.floats(-1.0, 1.0)
    models = [m.value for m in PatternModel]
    return st.sampled_from(models) if value in models else st.text(min_size=1, max_size=8)


@st.composite
def _accepted_edits(draw):
    # a preset with a few values redrawn as their fields accept, so that most documents load
    doc = yaml.safe_load(draw(st.sampled_from(_PRESET_TEXTS)))
    for _ in range(draw(st.integers(1, 3))):
        section = doc[draw(st.sampled_from([key for key in doc if isinstance(doc[key], dict)]))]
        key = draw(st.sampled_from(sorted(section)))
        section[key] = draw(_like(section[key]))
    return doc


@given(doc=st.one_of(_documents(), _accepted_edits(),
                     st.dictionaries(_keys, _values, max_size=6)))
@settings(max_examples=300, deadline=None)
def test_loader_returns_a_scenario_or_raises_scenario_error(doc):
    text = yaml.safe_dump(doc)
    try:
        loaded = parse_scenario(text)
    except ScenarioError:
        return
    assert isinstance(loaded, ScenarioFile)
    assert parse_scenario(serialize_scenario(loaded)) == loaded


def _replace_field(record, target, name, value):
    """``record`` rebuilt with field ``name`` of each ``target`` record in it set to ``value``."""
    if isinstance(record, target):
        return dataclasses.replace(record, **{name: value})
    if isinstance(record, tuple):
        return tuple(_replace_field(entry, target, name, value) for entry in record)
    if dataclasses.is_dataclass(record):
        return dataclasses.replace(record, **{
            field.name: _replace_field(getattr(record, field.name), target, name, value)
            for field in dataclasses.fields(record)})
    return record


@st.composite
def _one_field(draw):
    """A record type, one of its fields and a value for it."""
    target = draw(st.sampled_from((ScenarioFile, *_RECORDS)))
    name = draw(st.sampled_from([field.name for field in dataclasses.fields(target)]))
    return target, name, draw(st.one_of(_leaves, st.builds(object)))


# a record that builds is a file that loads: the records hold every rule the loader needs
@given(loaded=st.sampled_from(_PRESETS), change=_one_field())
@example(loaded=_PRESETS[0], change=(LinkScenario, "label", 5))
@example(loaded=_PRESETS[0], change=(AntennaConfig, "omni_azimuth", 1))
@example(loaded=_PRESETS[0], change=(ComplianceLimit, "averaging_mass_note", None))
# strings that the loader would read as floats, were they dumped unquoted
@example(loaded=_PRESETS[0], change=(LinkScenario, "label", "1e3"))
@example(loaded=_PRESETS[0], change=(ComplianceLimit, "name", "2E-5"))
@example(loaded=_PRESETS[0], change=(LinkScenario, "label", "-.5"))
@settings(max_examples=300, deadline=None)
def test_a_record_that_builds_is_a_file_that_loads(loaded, change):
    try:
        built = _replace_field(loaded, *change)
    except ValueError:
        return
    assert parse_scenario(serialize_scenario(built)) == built


# both presets' records built from literals, their reprs, and their constructor
# signatures, whose parameters the records have had since they were generated
# dataclasses
_LIMITS = (ComplianceLimit("ICNIRP", 2.0, "10-g average"),
           ComplianceLimit("FCC", 1.6, "1-g average"))
_LITERAL_PRESETS = {
    "wearable-2.4ghz": ScenarioFile(
        LinkScenario(2400.0, 93e6, 2.0, AntennaConfig(PatternModel.PARABOLIC_ENVELOPE, 10.1, 4,
                                                      0.5, 93.0, 30.0, 0.0, 0.0, True),
                     10.0, 6.0, 290.0, "wearable-2.4ghz"),
        TissueProperties(38.0, 10.6, 1000.0, 0.001, None), QuadratureSpec(361, 0.001),
        _LIMITS, SweepGrid(0.001, 0.05, 50, None)),
    "wearable-60ghz": ScenarioFile(
        LinkScenario(60000.0, 2.16e9, 10.0, AntennaConfig(PatternModel.LINEAR_ARRAY_FACTOR, 11.9,
                                                          16, 0.5, 93.0, 30.0, 0.0, 0.0, False),
                     10.0, 6.0, 290.0, "wearable-60ghz"),
        TissueProperties(7.98, 10.9, 1000.0, 0.001, 0.7), QuadratureSpec(361, 0.001),
        _LIMITS, SweepGrid(0.001, 0.05, 50, None)),
}
_TAIL_REPR = (
    "quadrature=QuadratureSpec(samples_per_axis=361, convergence_tol=0.001), "
    "limits=(ComplianceLimit(name='ICNIRP', sar_limit_w_per_kg=2.0, averaging_mass_note="
    "'10-g average'), ComplianceLimit(name='FCC', sar_limit_w_per_kg=1.6, averaging_mass_note="
    "'1-g average')), sweep_grid=SweepGrid(start_m=0.001, stop_m=0.05, points=50, "
    "distances_m=None))")
_PRESET_REPRS = {
    "wearable-2.4ghz": (
        "ScenarioFile(scenario=LinkScenario(carrier_mhz=2400.0, bandwidth_hz=93000000.0, "
        "tx_power_dbm=2.0, tx_antenna=AntennaConfig(model=<PatternModel.PARABOLIC_ENVELOPE: "
        "'parabolic-envelope'>, g_max_dbi=10.1, n_elements=4, element_spacing_wavelengths=0.5, "
        "theta_3db_deg=93.0, sidelobe_floor_db=30.0, boresight_elevation_deg=0.0, "
        "boresight_azimuth_deg=0.0, omni_azimuth=True), rx_gain_dbi=10.0, noise_figure_db=6.0, "
        "temperature_k=290.0, label='wearable-2.4ghz'), tissue=TissueProperties("
        "rel_permittivity_real=38.0, rel_permittivity_imag=10.6, mass_density_kg_per_m3=1000.0, "
        "penetration_depth_m=0.001, reflection_override=None), " + _TAIL_REPR),
    "wearable-60ghz": (
        "ScenarioFile(scenario=LinkScenario(carrier_mhz=60000.0, bandwidth_hz=2160000000.0, "
        "tx_power_dbm=10.0, tx_antenna=AntennaConfig(model=<PatternModel.LINEAR_ARRAY_FACTOR: "
        "'linear-array-factor'>, g_max_dbi=11.9, n_elements=16, element_spacing_wavelengths=0.5, "
        "theta_3db_deg=93.0, sidelobe_floor_db=30.0, boresight_elevation_deg=0.0, "
        "boresight_azimuth_deg=0.0, omni_azimuth=False), rx_gain_dbi=10.0, noise_figure_db=6.0, "
        "temperature_k=290.0, label='wearable-60ghz'), tissue=TissueProperties("
        "rel_permittivity_real=7.98, rel_permittivity_imag=10.9, mass_density_kg_per_m3=1000.0, "
        "penetration_depth_m=0.001, reflection_override=0.7), " + _TAIL_REPR),
}
_SIGNATURES = {
    AntennaConfig: "(model: 'PatternModel', g_max_dbi: 'float', n_elements: 'int' = 1, "
                   "element_spacing_wavelengths: 'float' = 0.5, theta_3db_deg: 'float' = 93.0, "
                   "sidelobe_floor_db: 'float' = 30.0, boresight_elevation_deg: 'float' = 0.0, "
                   "boresight_azimuth_deg: 'float' = 0.0, omni_azimuth: 'bool' = False) -> 'None'",
    LinkScenario: "(carrier_mhz: 'float', bandwidth_hz: 'float', tx_power_dbm: 'float', "
                  "tx_antenna: 'AntennaConfig', rx_gain_dbi: 'float' = 0.0, noise_figure_db: "
                  "'float' = 0.0, temperature_k: 'float' = 290.0, label: 'str' = '') -> 'None'",
    TissueProperties: "(rel_permittivity_real: 'float' = 1.0, rel_permittivity_imag: 'float' = "
                      "0.0, mass_density_kg_per_m3: 'float' = 1000.0, penetration_depth_m: "
                      "'float' = 0.001, reflection_override: 'float | None' = None) -> 'None'",
    QuadratureSpec: "(samples_per_axis: 'int' = 361, convergence_tol: 'float' = 0.001) -> 'None'",
    ComplianceLimit: "(name: 'str', sar_limit_w_per_kg: 'float', averaging_mass_note: 'str' = "
                     "'') -> 'None'",
    DistanceSearch: "(d_lo_m: 'float' = 0.001, d_hi_m: 'float' = 1.0, tol_m: 'float' = 1e-05) "
                    "-> 'None'",
    SweepGrid: "(start_m: 'float | None' = None, stop_m: 'float | None' = None, points: "
               "'int | None' = None, distances_m: 'tuple[float, ...] | None' = None) -> 'None'",
    ScenarioFile: "(scenario: 'LinkScenario', tissue: 'TissueProperties', quadrature: "
                  "'QuadratureSpec', limits: 'tuple[ComplianceLimit, ...]', sweep_grid: "
                  "'SweepGrid | None' = None) -> 'None'",
}


# CPython's refusals of a misused constructor: too many positional arguments,
# a name given twice and, where the record has a required field, none given
_MISUSES = {
    AntennaConfig: ("takes from 3 to 10 positional arguments but 11 were given",
                    "got multiple values for argument 'model'",
                    "missing 2 required positional arguments: 'model' and 'g_max_dbi'"),
    LinkScenario: ("takes from 5 to 9 positional arguments but 10 were given",
                   "got multiple values for argument 'carrier_mhz'",
                   "missing 4 required positional arguments: 'carrier_mhz', 'bandwidth_hz', "
                   "'tx_power_dbm', and 'tx_antenna'"),
    TissueProperties: ("takes from 1 to 6 positional arguments but 7 were given",
                       "got multiple values for argument 'rel_permittivity_real'"),
    QuadratureSpec: ("takes from 1 to 3 positional arguments but 4 were given",
                     "got multiple values for argument 'samples_per_axis'"),
    ComplianceLimit: ("takes from 3 to 4 positional arguments but 5 were given",
                      "got multiple values for argument 'name'",
                      "missing 2 required positional arguments: 'name' and 'sar_limit_w_per_kg'"),
    DistanceSearch: ("takes from 1 to 4 positional arguments but 5 were given",
                     "got multiple values for argument 'd_lo_m'"),
    SweepGrid: ("takes from 1 to 5 positional arguments but 6 were given",
                "got multiple values for argument 'start_m'"),
    ScenarioFile: ("takes from 5 to 6 positional arguments but 7 were given",
                   "got multiple values for argument 'scenario'",
                   "missing 4 required positional arguments: 'scenario', 'tissue', 'quadrature', "
                   "and 'limits'"),
}


def _records(loaded):
    """The eight kinds of record: those of a preset, and a search range."""
    return [loaded, loaded.scenario, loaded.scenario.tx_antenna, loaded.tissue,
            loaded.quadrature, *loaded.limits, loaded.sweep_grid, DistanceSearch(0.002, 0.5)]


@pytest.mark.parametrize("name", preset_names())
def test_records_equal_hash_and_print_as_their_literals(name):
    loaded = load_preset(name)
    assert repr(loaded) == _PRESET_REPRS[name]
    assert repr(DistanceSearch(0.002, 0.5)) == "DistanceSearch(d_lo_m=0.002, d_hi_m=0.5, tol_m=1e-05)"
    records = _records(loaded)
    # every record of the preset prints as it does inside the whole file's repr
    assert all(repr(record) in _PRESET_REPRS[name] for record in records[:-1])
    for record, literal in zip(records, _records(_LITERAL_PRESETS[name]), strict=True):
        assert type(record) is type(literal) and record == literal and not record != literal
        assert repr(record) == repr(literal)
        values = tuple(getattr(record, field.name) for field in dataclasses.fields(record))
        assert hash(record) == hash(literal) == hash(values)
        # equal only to a record of its own class
        assert record != values and record != object()
    assert loaded.scenario != dataclasses.replace(loaded.scenario, tx_power_dbm=3.0)
    assert {loaded.tissue: 1}[_LITERAL_PRESETS[name].tissue] == 1


@pytest.mark.parametrize("name", preset_names())
def test_records_refuse_assignment_and_deletion(name):
    for record in _records(load_preset(name)):
        for field in [*dataclasses.fields(record), None]:
            attribute = "not_a_field" if field is None else field.name
            with pytest.raises(dataclasses.FrozenInstanceError,
                               match=f"^cannot assign to field {attribute!r}$"):
                setattr(record, attribute, 1.0)
            with pytest.raises(dataclasses.FrozenInstanceError,
                               match=f"^cannot delete field {attribute!r}$"):
                delattr(record, attribute)


@pytest.mark.parametrize("name", preset_names())
def test_records_pickle_copy_and_work_with_dataclasses_functions(name):
    for record in _records(load_preset(name)):
        for twin in (pickle.loads(pickle.dumps(record)), copy.copy(record),
                     copy.deepcopy(record), dataclasses.replace(record), record.replace()):
            assert type(twin) is type(record) and twin == record and repr(twin) == repr(record)
        assert dataclasses.is_dataclass(record)
        names = [field.name for field in dataclasses.fields(record)]
        assert names == list(inspect.signature(type(record)).parameters)
        assert list(dataclasses.asdict(record)) == names
        assert len(dataclasses.astuple(record)) == len(names)
    loaded = load_preset(name)
    assert dataclasses.astuple(loaded.quadrature) == (361, 0.001)
    assert dataclasses.asdict(loaded)["limits"][1] == {
        "name": "FCC", "sar_limit_w_per_kg": 1.6, "averaging_mass_note": "1-g average"}
    changed = dataclasses.replace(loaded.quadrature, samples_per_axis=721)
    assert changed == QuadratureSpec(721, loaded.quadrature.convergence_tol)
    with pytest.raises(ValueError, match=r"^samples_per_axis must be an integer in \[2, 65536\]$"):
        dataclasses.replace(loaded.quadrature, samples_per_axis=1)
    with pytest.raises(ValueError, match=r"^samples_per_axis must be an integer in \[2, 65536\]$"):
        loaded.quadrature.replace(samples_per_axis=1)


@pytest.mark.parametrize("record", list(_SIGNATURES), ids=lambda record: record.__name__)
def test_record_constructors_keep_their_signatures(record):
    assert str(inspect.signature(record)) == _SIGNATURES[record]
    parameters = inspect.signature(record).parameters
    # too many positional arguments, a duplicate name, an unknown keyword, and
    # (where the record has a required field) a missing one
    shapes = [([None] * (len(parameters) + 1), {}), ([None], {next(iter(parameters)): None}),
              ([], {"not_a_field": None})]
    if any(p.default is p.empty for p in parameters.values()):
        shapes.append(([], {}))
    too_many, twice, *missing = _MISUSES[record]
    texts = [too_many, twice, "got an unexpected keyword argument 'not_a_field'", *missing]
    # the record and a plain subclass refuse each call alike, naming the record's __init__
    for built in (record, type("Finer", (record,), {})):
        for (args, kwargs), text in zip(shapes, texts, strict=True):
            with pytest.raises(TypeError) as raised:
                built(*args, **kwargs)
            assert str(raised.value) == f"{record.__name__}.__init__() {text}", (args, kwargs)


@pytest.mark.parametrize("record", list(_SIGNATURES), ids=lambda record: record.__name__)
def test_records_share_one_set_of_methods(record):
    # the shared base holds them
    for method in ("__eq__", "__hash__", "__repr__", "__setattr__", "__delattr__"):
        assert method not in vars(record), method
    # and no record compiles code from a string: each of its functions is its module's
    functions = [value for value in vars(record).values() if isinstance(value, types.FunctionType)]
    assert "__init__" in {function.__name__ for function in functions}
    for function in functions:
        assert function.__code__.co_filename == sys.modules[record.__module__].__file__


def test_a_plain_subclass_of_a_record_builds_as_its_parent():
    class Finer(QuadratureSpec):
        pass

    finer = Finer(721)
    assert repr(finer).endswith("Finer(samples_per_axis=721, convergence_tol=0.001)")
    assert str(inspect.signature(Finer)) == _SIGNATURES[QuadratureSpec]
    assert finer != QuadratureSpec(721) and finer == Finer(721)
    assert type(finer.replace()) is Finer and finer.replace(samples_per_axis=181) == Finer(181)
    with pytest.raises(TypeError, match="unexpected keyword argument 'samples'"):
        finer.replace(samples=181)


# a fresh interpreter, which meets the dataclasses functions only after it has
# built records, as a benchmark or script that imports wearemf first does
_LAZY_REGISTRATION = """
import sys

from wearemf import QuadratureSpec, load_preset

loaded = load_preset("wearable-60ghz")


class Finer(QuadratureSpec):
    pass


finer = Finer(721)
assert "dataclasses" not in sys.modules and "inspect" not in sys.modules
assert "__dataclass_fields__" not in vars(QuadratureSpec)
import dataclasses

# the subclass first, so that its parent is registered through it
assert dataclasses.is_dataclass(finer) and dataclasses.is_dataclass(Finer)
assert "__dataclass_fields__" in vars(QuadratureSpec)
assert [field.name for field in dataclasses.fields(finer)] == [
    "samples_per_axis", "convergence_tol"]
assert dataclasses.asdict(finer) == {"samples_per_axis": 721, "convergence_tol": 0.001}
assert dataclasses.replace(finer, samples_per_axis=181) == Finer(181)
for record in (loaded, loaded.scenario, loaded.scenario.tx_antenna, loaded.tissue,
               loaded.quadrature, *loaded.limits, loaded.sweep_grid):
    assert dataclasses.is_dataclass(record)
    names = [field.name for field in dataclasses.fields(record)]
    assert names == list(record._fields) == list(dataclasses.asdict(record))
    assert dataclasses.replace(record) == record
assert dataclasses.replace(loaded, quadrature=finer).quadrature is finer
assert dataclasses.replace(loaded.scenario, tx_power_dbm=3.0) == loaded.scenario.replace(
    tx_power_dbm=3.0)
print("registered")
"""


def test_records_register_with_dataclasses_when_first_read():
    done = subprocess.run([sys.executable, "-S", "-c", _LAZY_REGISTRATION], capture_output=True,
                          env={**os.environ, "PYTHONPATH": os.path.dirname(
                              os.path.dirname(wearemf.__file__))})
    assert (done.returncode, done.stdout) == (0, b"registered\n"), done.stderr.decode()


def test_only_the_record_base_knows_the_records_are_dataclasses():
    package = os.path.dirname(wearemf.__file__)
    naming = set()
    for entry in os.listdir(package):
        if entry.endswith(".py"):
            with open(os.path.join(package, entry), encoding="utf-8") as file:
                tree = ast.parse(file.read())
            for node in ast.walk(tree):
                if (isinstance(node, ast.Name) and node.id == "dataclasses"
                        or isinstance(node, ast.alias) and node.name == "dataclasses"
                        or isinstance(node, ast.ImportFrom) and node.module == "dataclasses"):
                    naming.add(entry)
    assert naming == {"antenna.py"}


def _rows():
    return [
        ExposureResult(distance_m=0.012, path_loss_db=29.6, snr_db=76.9,
                       rate_bps=5.5e10, boresight_pd_w_per_m2=85.6,
                       boresight_sar_w_per_kg=87.3, avg_sar_w_per_kg=3.55),
        ExposureResult(distance_m=0.024, path_loss_db=35.6, snr_db=70.9,
                       rate_bps=5.1e10, boresight_pd_w_per_m2=21.4,
                       boresight_sar_w_per_kg=21.8, avg_sar_w_per_kg=0.89),
    ]


def test_csv_header_and_shape():
    data = emit_results([], "csv")
    assert data == (",".join(CSV_FIELDS) + "\n").encode()
    data = emit_results(_rows(), "csv")
    lines = data.decode().strip().split("\n")
    assert len(lines) == 3
    assert lines[0] == ",".join(CSV_FIELDS)
    assert all(len(line.split(",")) == 7 for line in lines[1:])


def test_csv_values_round_trip_to_nine_digits():
    rows = _rows()
    lines = emit_results(rows, "csv").decode().strip().split("\n")[1:]
    for row, line in zip(rows, lines):
        parsed = [float(cell) for cell in line.split(",")]
        source = [row.distance_m, row.path_loss_db, row.snr_db, row.rate_bps,
                  row.boresight_pd_w_per_m2, row.boresight_sar_w_per_kg,
                  row.avg_sar_w_per_kg]
        for read, original in zip(parsed, source):
            assert read == pytest.approx(original, rel=1e-8)


def test_json_mirrors_csv_fields():
    payload = json.loads(emit_results(_rows(), "json"))
    assert isinstance(payload, list) and len(payload) == 2
    assert list(payload[0].keys()) == list(CSV_FIELDS)
    assert payload[0]["distance_m"] == pytest.approx(0.012)


def test_emission_is_deterministic():
    rows = _rows()
    assert emit_results(rows, "csv") == emit_results(rows, "csv")
    assert emit_results(rows, "json") == emit_results(rows, "json")


def test_emit_rejects_unknown_format():
    with pytest.raises(ValueError):
        emit_results(_rows(), "xml")


@pytest.mark.parametrize("item, kind", [
    ((1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0), "tuple"),
    (tuple("abcdefg"), "tuple"),
    (dict(zip(CSV_FIELDS, (1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0))), "dict"),
    ((1.0, 2.0, 3.0, 4.0, 5.0, 6.0), "tuple"),
], ids=["float-7-tuple", "str-7-tuple", "dict", "6-tuple"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_emit_refuses_items_that_are_not_rows(item, kind, fmt):
    with pytest.raises(ValueError, match=f"^row 1 is a {kind}, not an ExposureResult$"):
        emit_results(iter([_rows()[0], item]), fmt)


def test_json_prints_every_value_as_a_float():
    rows = [_rows()[0]._replace(distance_m=5, snr_db=np.int64(5))]
    data = emit_results(rows, "json")
    assert data == _reference_emission(rows, "json")
    assert b'"distance_m": 5.0,' in data and b'"snr_db": 5.0,' in data


positive = st.floats(min_value=1e-6, max_value=1e9, allow_nan=False,
                     allow_infinity=False)
anyreal = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False,
                    allow_infinity=False)


@given(distance=positive, loss=anyreal, snr=anyreal, rate=positive,
       pd=positive, sar=positive, avg=positive)
@settings(max_examples=100, deadline=None)
def test_csv_precision_holds_for_arbitrary_rows(distance, loss, snr, rate,
                                                pd, sar, avg):
    row = ExposureResult(distance_m=distance, path_loss_db=loss, snr_db=snr,
                         rate_bps=rate, boresight_pd_w_per_m2=pd,
                         boresight_sar_w_per_kg=sar, avg_sar_w_per_kg=avg)
    line = emit_results([row], "csv").decode().strip().split("\n")[1]
    values = [float(cell) for cell in line.split(",")]
    originals = [distance, loss, snr, rate, pd, sar, avg]
    for read, original in zip(values, originals):
        assert read == pytest.approx(original, rel=1e-8, abs=1e-8)


# the emitters as they were first written, kept as the byte-level reference
def _reference_emission(rows, fmt):
    records = [tuple(getattr(row, name) for name in ExposureResult._fields) for row in rows]
    if fmt == "csv":
        lines = [",".join(CSV_FIELDS)]
        lines.extend(",".join(f"{value:.8e}" for value in record) for record in records)
        return ("\n".join(lines) + "\n").encode("ascii")
    payload = [dict(zip(CSV_FIELDS, record)) for record in records]
    return (json.dumps(payload, indent=2, allow_nan=False) + "\n").encode("ascii")


_EDGE_FLOATS = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
                -1.7976931348623157e308, 1e16, 1e-5, 0.1]


def _numbers(lowest):
    """Floats, ints and numpy.float64 values the field's check accepts.

    ``lowest`` is the smallest value allowed: 0.0 excluded for a
    distance, -0.0 included for the non-negative fields, None for any.
    """
    if lowest is None:
        floats = st.floats(allow_nan=False, allow_infinity=False)
        edges = _EDGE_FLOATS
        ints = st.integers(-10**20, 10**20)
    else:
        floats = st.floats(min_value=lowest, exclude_min=lowest == 0.0,
                           allow_nan=False, allow_infinity=False)
        edges = [v for v in _EDGE_FLOATS if v > 0.0 or (v == 0.0 and lowest < 0.0)]
        ints = st.integers(1 if lowest == 0.0 else 0, 10**20)
    return st.one_of(floats, st.sampled_from(edges), ints, floats.map(np.float64))


_result_rows = st.builds(
    ExposureResult, distance_m=_numbers(0.0), path_loss_db=_numbers(None),
    snr_db=_numbers(None), rate_bps=_numbers(-0.0), boresight_pd_w_per_m2=_numbers(-0.0),
    boresight_sar_w_per_kg=_numbers(-0.0), avg_sar_w_per_kg=_numbers(-0.0))


_P60 = load_preset("wearable-60ghz")


# int distances are legal, and rows hold them as floats
@given(rows=st.lists(_result_rows, max_size=4))
@example(rows=sweep(_P60.scenario, _P60.tissue, [1, 2, 3], _P60.quadrature))
@settings(max_examples=300, deadline=None)
def test_emission_bytes_equal_the_format_and_json_dumps_reference(rows):
    for fmt in ("csv", "json"):
        assert emit_results(rows, fmt) == _reference_emission(rows, fmt)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("name", preset_names())
def test_emission_of_long_sweeps_equals_the_reference(name, fmt):
    preset = load_preset(name)
    rows = sweep(preset.scenario, preset.tissue, np.geomspace(1e-3, 1.0, 10_000).tolist(),
                 preset.quadrature)
    assert emit_results(rows, fmt) == _reference_emission(rows, fmt)


def test_json_of_numpy_values_does_not_follow_numpy_print_options():
    # str(numpy.float64(0.1 + 0.2)) is "0.3" under the legacy print options
    rows = sweep(_P60.scenario, _P60.tissue, np.geomspace(1e-3, 1.0, 5) + 0.1 + 0.2,
                 _P60.quadrature)
    built = [ExposureResult(*map(np.float64, row)) for row in rows]
    assert built == rows
    assert all(type(value) is float for row in rows + built for value in row)
    with np.printoptions(legacy="1.13"):
        assert emit_results(rows, "json") == _reference_emission(rows, "json")
        assert emit_results(built, "json") == _reference_emission(rows, "json")


# values of every kind a caller might put in a row, most of which the record refuses
_ANY_VALUE = st.one_of(
    st.floats(), st.integers(-10**400, 10**400), st.fractions(), st.booleans(), st.none(),
    st.text(max_size=2), st.sampled_from([10**400, 2**1024, Fraction(10**400, 3), Fraction(1, 3)]),
    st.floats().map(np.float64), st.floats(width=32).map(np.float32),
    st.integers(-2**63, 2**63 - 1).map(np.int64))


# a row that builds is a row that emits, each value as the float it converts to
@given(changes=st.lists(st.dictionaries(
    st.sampled_from(ExposureResult._fields), _ANY_VALUE),
    min_size=1, max_size=3))
@example(changes=[{"distance_m": np.int64(5), "snr_db": Fraction(1, 3)}])
@example(changes=[{"path_loss_db": 10**400}])
@settings(max_examples=300, deadline=None)
def test_every_row_that_builds_emits(changes):
    rows, built_from = [], []
    for change in changes:
        try:
            rows.append(_rows()[0]._replace(**change))
        except ValueError:
            continue
        built_from.append({**_rows()[0]._asdict(), **change}.values())
    assert len(emit_results(rows, "csv").decode().splitlines()) == len(rows) + 1
    assert [list(printed.values()) for printed in json.loads(emit_results(rows, "json"))] == [
        [float(value) for value in values] for values in built_from]
