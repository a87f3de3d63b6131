"""Command-line behavior: subcommands, flags, exit codes, output files."""

import contextlib
import io
import json
import os
import re
import subprocess
import sys

import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

import wearemf
from wearemf import (
    BUILTIN_LIMITS,
    CSV_FIELDS,
    DistanceSearch,
    ScenarioError,
    cli,
    load_preset,
    min_safe_distance,
    preset_names,
    serialize_scenario,
)


def run_cli(*args, cwd=None):
    completed = subprocess.run(
        [sys.executable, "-m", "wearemf", *args],
        capture_output=True, cwd=cwd)
    return completed.returncode, completed.stdout, completed.stderr


def test_presets_subcommand_lists_builtins():
    code, out, _ = run_cli("presets")
    assert code == 0
    assert out.decode().split() == ["wearable-2.4ghz", "wearable-60ghz"]


def test_a_preset_name_cannot_reach_a_file_outside_the_package(tmp_path):
    (tmp_path / "outside.yaml").write_text(serialize_scenario(load_preset("wearable-60ghz")))
    presets = os.path.join(os.path.dirname(wearemf.__file__), "presets")
    name = os.path.relpath(tmp_path / "outside", presets)
    code, out, err = run_cli("safe-distance", "--preset", name, "--limit", "ICNIRP")
    assert (code, out, err.decode()) == (
        1, b"", f"error: unknown preset '{name}' (available: wearable-2.4ghz, wearable-60ghz)\n")
    with pytest.raises(ScenarioError, match="^unknown preset"):
        load_preset(name)


def test_safe_distance_prints_a_distance():
    code, out, _ = run_cli("safe-distance", "--preset", "wearable-60ghz",
                           "--limit", "ICNIRP")
    assert code == 0
    value = float(out.decode().strip())
    assert 0.0 < value < 1.0


def test_safe_distance_accepts_numeric_limit():
    code, out, _ = run_cli("safe-distance", "--preset", "wearable-60ghz",
                           "--limit", "2.0")
    assert code == 0
    named_code, named_out, _ = run_cli("safe-distance", "--preset",
                                       "wearable-60ghz", "--limit", "ICNIRP")
    assert named_code == 0
    assert out == named_out


def test_safe_distance_reports_blanket_compliance():
    code, out, _ = run_cli("safe-distance", "--preset", "wearable-60ghz",
                           "--limit", "1000000")
    assert code == 0
    assert out.decode().strip() == "compliant-everywhere"


def test_safe_distance_unreachable_limit_exits_2():
    code, _, err = run_cli("safe-distance", "--preset", "wearable-60ghz",
                           "--limit", "1e-9", "--to", "0.002")
    assert code == 2
    assert b"error" in err


@pytest.mark.parametrize("argv", [
    ("sweep", "--preset", "wearable-60ghz", "--from", "1e-160", "--to", "1e-159",
     "--points", "2"),
    ("sweep", "--preset", "wearable-60ghz", "--from", "1e-170", "--to", "1e-169",
     "--points", "2"),
    ("safe-distance", "--preset", "wearable-60ghz", "--limit", "ICNIRP",
     "--from", "1e-170"),
    # P*G/(4*pi*d^2) overflows
    ("safe-distance", "--preset", "wearable-60ghz", "--limit", "ICNIRP",
     "--from", "1e-160"),
    # the linear SNR overflows
    ("sweep", "--preset", "wearable-60ghz", "--from", "1e-153", "--to", "1e-152",
     "--points", "2"),
])
def test_floating_point_failures_exit_2(argv):
    code, _, err = run_cli(*argv)
    assert code == 2
    assert len(err.decode().splitlines()) == 1
    assert b"Traceback" not in err
    # the message names the distance it failed at
    assert argv[argv.index("--from") + 1].encode() in err


def test_sweep_checks_its_first_row_in_the_scalar_chains_order():
    # P*G/(4*pi*d^2) is finite here, but the SARs and the linear SNR overflow:
    # the power densities, then the Shannon rate, then the SARs are checked
    code, out, err = run_cli("sweep", "--preset", "wearable-60ghz", "--from", "8.9e-156",
                             "--to", "1e-100", "--points", "2")
    assert (code, out) == (2, b"")
    assert err.decode() == ("error: SNR of 3139.529824542148 dB at distance 8.9e-156 m is "
                            "too large for the Shannon rate\n")


def write_scenario(path, section="tissue", preset="wearable-60ghz", **values):
    """A preset with some keys of one section replaced, written to path."""
    doc = yaml.safe_load(serialize_scenario(load_preset(preset)))
    doc[section].update(values)
    path.write_text(yaml.safe_dump(doc))
    return path


@pytest.mark.parametrize("section, key, value", [
    ("link", "tx_power_dbm", 1.0e10),
    ("link", "tx_power_dbm", -1.0e10),
    ("antenna", "g_max_dbi", 1.0e10),
    ("antenna", "g_max_dbi", -1.0e10),
    # k*T*B underflows to zero
    ("link", "bandwidth_hz", 1.0e-320),
    pytest.param("antenna", "n_elements", 10**400, id="antenna-n_elements-10**400"),
    # the array factor's phase n * pi * spacing overflows
    ("antenna", "element_spacing_wavelengths", 1.0e308),
    # the pattern divides by theta_3db in radians, which underflows to 0.0
    ("antenna", "theta_3db_deg", 5.0e-324),
])
def test_db_values_beyond_the_double_range_name_their_key(tmp_path, section, key, value):
    scenario = write_scenario(tmp_path / "edge.yaml", section, **{key: value})
    for argv in (("sweep",), ("safe-distance", "--limit", "ICNIRP")):
        code, out, err = run_cli(*argv, "--scenario", str(scenario))
        assert code == 1
        assert out == b""
        lines = err.decode().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"error: {section}: ")
        assert key in lines[0]


def test_a_pattern_average_that_underflows_to_zero_is_named(tmp_path):
    # the main lobe falls between the grid's samples, and the floor lies beyond
    # the double range, so every sample of the pattern is 0.0
    scenario = write_scenario(tmp_path / "narrow.yaml", "antenna", "wearable-2.4ghz",
                              theta_3db_deg=0.01, sidelobe_floor_db=1.0e6,
                              boresight_elevation_deg=0.3, boresight_azimuth_deg=0.3)
    for argv in (("sweep",), ("safe-distance", "--limit", "ICNIRP")):
        code, out, err = run_cli(*argv, "--scenario", str(scenario))
        assert (code, out) == (1, b"")
        assert err == (b"error: the antenna's pattern average underflows to 0.0 on the "
                       b"361-sample grid\n")


def test_a_sweep_whose_shannon_rate_overflows_exits_2(tmp_path):
    # k*T*B is finite, but B*log2(1 + SNR) is not: no row prints inf
    scenario = write_scenario(tmp_path / "wide.yaml", "link", bandwidth_hz=1.5e308,
                              temperature_k=1e-300, tx_power_dbm=0.0)
    for fmt in ("csv", "json"):
        code, out, err = run_cli("sweep", "--scenario", str(scenario), "--format", fmt)
        assert (code, out) == (2, b"")
        assert re.fullmatch(rb"error: SNR of \S+ dB at distance \S+ m is too large for "
                            rb"the Shannon rate\n", err)


@pytest.mark.parametrize("value, same_as", [
    # decimal exponent forms are floats, with or without a dot in the mantissa
    # or a sign in the exponent
    ("2e+9", "2.0e+9"), ("2e9", "2.0e+9"), ("2.16e9", "2.16e+9"),
    # strings, which no exponent form mends; nor is a quoted float a number
    ("nan", None), ("inf", None), ("'2.16e+9'", None),
])
def test_exponent_forms_sweep_as_floats_and_strings_are_refused(tmp_path, value, same_as):
    text = serialize_scenario(load_preset("wearable-60ghz"))
    assert "bandwidth_hz: 2160000000.0\n" in text

    def sweep_with(bandwidth):
        scenario = tmp_path / "bandwidth.yaml"
        scenario.write_text(text.replace("bandwidth_hz: 2160000000.0",
                                         f"bandwidth_hz: {bandwidth}"))
        return run_cli("sweep", "--scenario", str(scenario))

    if same_as is None:
        assert sweep_with(value) == (
            1, b"", b"error: link: bandwidth_hz must be a finite number > 0\n")
    else:
        expected = sweep_with(same_as)
        assert expected[0] == 0
        assert sweep_with(value) == expected


@pytest.mark.parametrize("value, same_as", [("-.5", "-0.5"), ("+.5", "0.5")])
def test_a_signed_number_with_no_digit_before_the_dot_sweeps_as_a_float(
        tmp_path, value, same_as):
    text = serialize_scenario(load_preset("wearable-60ghz"))
    assert "boresight_elevation_deg: 0.0\n" in text

    def sweep_with(elevation):
        scenario = tmp_path / "elevation.yaml"
        scenario.write_text(text.replace("boresight_elevation_deg: 0.0",
                                         f"boresight_elevation_deg: {elevation}"))
        return run_cli("sweep", "--scenario", str(scenario))

    expected = sweep_with(same_as)
    assert expected[0] == 0
    assert sweep_with(value) == expected


def test_a_file_that_is_not_utf8_is_named_with_the_position(tmp_path):
    bad = tmp_path / "latin1.yaml"
    bad.write_bytes(b"label: x\n\xff\n")
    code, out, err = run_cli("sweep", "--scenario", str(bad))
    assert code == 1
    assert out == b""
    lines = err.decode().splitlines()
    assert len(lines) == 1
    assert str(bad) in lines[0]
    assert "not UTF-8 at line 2, column 1" in lines[0]


@pytest.mark.parametrize("argv, named", [
    (("sweep", "--from", "1e-151", "--to", "1e-150", "--points", "2"), b"1e-151 m"),
    (("sweep", "--from", "1e-151", "--to", "1e-150", "--points", "2", "--format", "json"),
     b"1e-151 m"),
    # FCC is out of reach even at 1 m, and the solver says so first
    (("safe-distance", "--limit", "FCC", "--from", "1e-151"), b"1.0 m"),
    (("safe-distance", "--limit", "1e12", "--from", "1e-151"), b"1e-151 m"),
])
def test_boundary_sar_overflow_exits_2(tmp_path, argv, named):
    # the power density stays finite; dividing by 1e-12 kg/m^2 does not
    scenario = write_scenario(tmp_path / "thin.yaml", mass_density_kg_per_m3=1.0e-6,
                              penetration_depth_m=1.0e-6)
    code, out, err = run_cli(*argv, "--scenario", str(scenario))
    assert code == 2
    assert out == b""
    assert len(err.decode().splitlines()) == 1
    assert named in err


@pytest.mark.parametrize("flag, bracket", [
    (("--to", "0.5"), dict(d_hi_m=0.5)),
    (("--from", "0.002"), dict(d_lo_m=0.002)),
])
def test_safe_distance_fills_the_other_bracket_end(flag, bracket):
    code, out, _ = run_cli("safe-distance", "--preset", "wearable-60ghz",
                           "--limit", "FCC", *flag)
    assert code == 0
    loaded = load_preset("wearable-60ghz")
    d = min_safe_distance(loaded.scenario, loaded.tissue, BUILTIN_LIMITS["FCC"],
                          DistanceSearch(**bracket), loaded.quadrature)
    assert out.decode() == f"{d:.8e}\n"


def test_unknown_limit_name_exits_1():
    code, _, err = run_cli("safe-distance", "--preset", "wearable-60ghz",
                           "--limit", "OSHA")
    assert code == 1
    assert b"unknown limit" in err


def test_a_scenario_limit_name_names_one_limit(tmp_path):
    doc = yaml.safe_load(serialize_scenario(load_preset("wearable-60ghz")))
    scenario = tmp_path / "limits.yaml"
    # two entries named X: --limit X could use either, so the file is refused
    doc["limits"] = [{"name": "X", "sar_limit_w_per_kg": 1.0},
                     {"name": "X", "sar_limit_w_per_kg": 2.0}]
    scenario.write_text(yaml.safe_dump(doc))
    assert run_cli("safe-distance", "--scenario", str(scenario), "--limit", "X") == (
        1, b"", b"error: limits holds two entries named 'X'\n")
    # one entry named as a built-in limit replaces it
    doc["limits"] = [{"name": "ICNIRP", "sar_limit_w_per_kg": 1.0}]
    scenario.write_text(yaml.safe_dump(doc))
    code, out, _ = run_cli("safe-distance", "--scenario", str(scenario), "--limit", "ICNIRP")
    assert (code, out) == run_cli("safe-distance", "--scenario", str(scenario),
                                  "--limit", "1.0")[:2]
    assert code == 0


def test_sweep_writes_csv_file(tmp_path):
    target = tmp_path / "rows.csv"
    code, _, _ = run_cli("sweep", "--preset", "wearable-60ghz",
                         "--from", "0.01", "--to", "0.02", "--points", "3",
                         "--output", str(target))
    assert code == 0
    lines = target.read_text().strip().split("\n")
    assert lines[0] == ",".join(CSV_FIELDS)
    assert len(lines) == 4


def test_sweep_json_to_stdout():
    code, out, _ = run_cli("sweep", "--preset", "wearable-2.4ghz",
                           "--from", "0.01", "--to", "0.05", "--points", "5",
                           "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload) == 5
    assert list(payload[0].keys()) == list(CSV_FIELDS)


def test_sweep_uses_scenario_grid_by_default():
    code, out, _ = run_cli("sweep", "--preset", "wearable-60ghz")
    assert code == 0
    assert len(out.decode().strip().split("\n")) == 51  # header + 50 points


@pytest.mark.parametrize("grid", [
    # the points repeat: 1.0 and 1.0000000000000004 are two float steps apart
    ("--from", "1", "--to", "1.0000000000000004", "--points", "5"),
    ("--from", "1", "--to", "2", "--points", "65537"),
])
def test_a_grid_that_sweep_cannot_take_is_refused_as_a_grid(grid):
    code, out, err = run_cli("sweep", "--preset", "wearable-60ghz", *grid)
    assert code == 1
    assert out == b""
    lines = err.decode().splitlines()
    assert len(lines) == 1
    assert "points" in lines[0]
    assert "distances must" not in lines[0]


def test_sweep_partial_grid_flags_exit_1():
    code, _, err = run_cli("sweep", "--preset", "wearable-60ghz",
                           "--from", "0.01", "--points", "5")
    assert code == 1
    assert b"--to" in err


def test_a_scenario_without_a_sweep_section_needs_the_grid_flags(tmp_path):
    doc = yaml.safe_load(serialize_scenario(load_preset("wearable-60ghz")))
    del doc["sweep"]
    scenario = tmp_path / "no-sweep.yaml"
    scenario.write_text(yaml.safe_dump(doc))
    assert run_cli("sweep", "--scenario", str(scenario)) == (
        1, b"", b"error: the scenario has no sweep section; pass --from, --to, and --points\n")


@pytest.mark.parametrize("argv", [
    ["presets"], ["sweep", "--preset", "wearable-60ghz"],
    ["safe-distance", "--preset", "wearable-60ghz", "--limit", "FCC"]])
def test_a_closed_stdout_is_one_error_line(monkeypatch, argv):
    # a process started with its stdout closed (`wearemf presets >&-`) has no sys.stdout
    monkeypatch.setattr(sys, "stdout", None)
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        assert cli.main(argv) == 1
    assert stderr.getvalue() == "error: standard output is closed\n"


def test_scenario_file_is_loadable(tmp_path):
    scenario = tmp_path / "custom.yaml"
    scenario.write_text(
        "link:\n"
        "  carrier_mhz: 60000.0\n"
        "  bandwidth_hz: 2160000000.0\n"
        "  tx_power_dbm: 10.0\n"
        "antenna:\n"
        "  model: linear-array-factor\n"
        "  g_max_dbi: 11.9\n"
        "  n_elements: 16\n")
    code, out, _ = run_cli("sweep", "--scenario", str(scenario),
                           "--from", "0.01", "--to", "0.02", "--points", "2")
    assert code == 0
    assert len(out.decode().strip().split("\n")) == 3


def test_missing_scenario_file_exits_1(tmp_path):
    code, _, err = run_cli("sweep", "--scenario", str(tmp_path / "nope.yaml"),
                           "--from", "0.01", "--to", "0.02", "--points", "2")
    assert code == 1
    assert err


def test_malformed_scenario_exits_1(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("link: [unclosed\n")
    code, _, err = run_cli("sweep", "--scenario", str(bad),
                           "--from", "0.01", "--to", "0.02", "--points", "2")
    assert code == 1
    assert b"error" in err


@pytest.mark.parametrize("text, where", [
    ("link: [1, 2\n", "at line 2, column 1"),
    ("link: {carrier_mhz: 2400.0\n", "at line 2, column 1"),
    ('label: "unterminated\n', "at line 2, column 1"),
    ("\tlink: {}\n", "at line 1, column 1"),
    ("link: *undefined\n", "at line 1, column 7"),
    # PyYAML's reader gives a character offset, turned into a line and column
    ("label: \x07\n", "at line 1, column 8"),
    # PyYAML composes recursively; nesting this deep has no position to give
    ("[" * 10000, ": collections nested too deeply"),
], ids=["flow-sequence", "flow-mapping", "quote", "leading-tab", "undefined-alias",
        "control-character", "deep-nesting"])
def test_yaml_parse_errors_print_one_line_with_the_position(tmp_path, text, where):
    bad = tmp_path / "bad.yaml"
    bad.write_text(text)
    code, out, err = run_cli("sweep", "--scenario", str(bad),
                             "--from", "0.01", "--to", "0.02", "--points", "2")
    assert code == 1
    assert out == b""
    lines = err.decode().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: scenario parse error")
    assert where in lines[0]


def test_scenario_and_preset_are_mutually_exclusive(tmp_path):
    code, _, _ = run_cli("sweep", "--preset", "wearable-60ghz",
                         "--scenario", "x.yaml")
    assert code == 1


def test_unknown_flag_exits_1():
    code, _, _ = run_cli("sweep", "--preset", "wearable-60ghz", "--turbo")
    assert code == 1


def test_no_subcommand_exits_1():
    code, _, _ = run_cli()
    assert code == 1


def test_help_exits_0():
    code, out, _ = run_cli("--help")
    assert code == 0
    assert b"sweep" in out and b"safe-distance" in out


def test_quadrature_samples_override_is_accepted():
    code, out, _ = run_cli("safe-distance", "--preset", "wearable-60ghz",
                           "--limit", "ICNIRP", "--quadrature-samples", "181")
    assert code == 0
    default_code, default_out, _ = run_cli("safe-distance", "--preset",
                                           "wearable-60ghz", "--limit", "ICNIRP")
    assert default_code == 0
    coarse = float(out.decode())
    default = float(default_out.decode())
    assert coarse == pytest.approx(default, rel=1e-2)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("cli-fuzz")
    write_scenario(directory / "thin.yaml", mass_density_kg_per_m3=1.0e-6,
                   penetration_depth_m=1.0e-6)
    write_scenario(directory / "underflow.yaml", mass_density_kg_per_m3=1.0e-200,
                   penetration_depth_m=1.0e-200)
    return directory


distances = st.one_of(
    st.sampled_from([-1.0, 0.0, -0.0, 5e-324, 2.2e-308, 1e-160, 1e-151, 1e-150,
                     1e-3, 0.5, 1.0, 1e308, float("inf"), float("-inf"), float("nan")]),
    st.floats(allow_nan=True, allow_infinity=True),
)


@given(command=st.sampled_from(["sweep", "safe-distance", "presets"]),
       source=st.sampled_from([("--preset", name) for name in preset_names()]
                              + [("--scenario", "thin.yaml"),
                                 ("--scenario", "underflow.yaml")]),
       start=st.none() | distances, stop=st.none() | distances,
       # counts outside [1, 65536] are rejected before the grid is built
       points=st.none() | st.integers(1, 50) | st.integers(max_value=0)
       | st.integers(min_value=65537),
       limit=st.sampled_from([*BUILTIN_LIMITS, "2.0", "1e-300", "0", "-1", "nan", "inf"])
       | st.text(max_size=8),
       fmt=st.none() | st.sampled_from(["csv", "json"]),
       # counts outside [2, 65536] are rejected before any work is done
       samples=st.none() | st.integers(2, 400) | st.integers(max_value=1)
       | st.integers(min_value=65537),
       to_file=st.booleans())
@example(command="sweep", source=("--scenario", "thin.yaml"), start=1e-151, stop=1e-150,
         points=2, limit="FCC", fmt="csv", samples=None, to_file=False)
@settings(max_examples=150, deadline=None)
def test_cli_exits_0_1_or_2_with_one_error_line(fuzz_dir, command, source, start, stop,
                                               points, limit, fmt, samples, to_file):
    argv = [command]
    if command != "presets":
        flag, value = source
        argv += [flag, str(fuzz_dir / value) if flag == "--scenario" else value]
        # the "--flag=value" form keeps values that start with "-" whole
        argv += [f"--from={start!r}"] if start is not None else []
        argv += [f"--to={stop!r}"] if stop is not None else []
        if samples is not None:
            argv.append(f"--quadrature-samples={samples}")
        if to_file:
            argv.append(f"--output={fuzz_dir / 'out'}")
    if command == "sweep":
        argv += [f"--points={points}"] if points is not None else []
        argv += [f"--format={fmt}"] if fmt is not None else []
    if command == "safe-distance":
        argv.append(f"--limit={limit}")

    (fuzz_dir / "out").unlink(missing_ok=True)
    stdout = io.TextIOWrapper(io.BytesIO(), encoding="ascii")
    stderr = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)

    assert code in (0, 1, 2)
    errors = stderr.getvalue().splitlines()
    if code != 0:
        assert len(errors) == 1 and errors[0].startswith("error: "), errors
    if code == 0 and command == "sweep":
        written = (fuzz_dir / "out").read_bytes() if to_file else stdout.buffer.getvalue()
        assert b"inf" not in written.lower() and b"nan" not in written.lower()


# Run in a fresh interpreter in which numpy cannot be imported at all, as if
# it were not installed; this test process imports numpy itself.
NUMPY_FREE_CALLS = """
import json, sys
sys.modules["numpy"] = None
import wearemf
from wearemf import cli

scenario, out = sys.argv[1:]
calls = [["presets"]]
for source in [["--preset", name] for name in wearemf.preset_names()] + [["--scenario", scenario]]:
    calls += [["sweep", *source, "--output", out],
              ["sweep", *source, "--format", "json", "--output", out],
              ["safe-distance", *source, "--limit", "ICNIRP", "--output", out],
              ["safe-distance", *source, "--limit", "FCC", "--output", out]]
codes = [cli.main(argv) for argv in calls]
print(json.dumps({"codes": codes, "numpy": sys.modules["numpy"]}))
"""


# the presets are read with json, so no preset call needs PyYAML
YAML_FREE_CALLS = """
import json, sys
sys.modules["yaml"] = None
import wearemf
from wearemf import cli

out = sys.argv[1]
loaded = [wearemf.load_preset(name) for name in wearemf.preset_names()]
calls = [["presets"]]
for name in wearemf.preset_names():
    calls += [["sweep", "--preset", name, "--output", out],
              ["sweep", "--preset", name, "--format", "json", "--output", out],
              ["safe-distance", "--preset", name, "--limit", "ICNIRP", "--output", out],
              ["safe-distance", "--preset", name, "--limit", "FCC", "--output", out]]
codes = [cli.main(argv) for argv in calls]
print(json.dumps({"loaded": len(loaded), "codes": codes}))
"""


def run_python(code, *args):
    done = subprocess.run([sys.executable, "-c", code, *args], capture_output=True)
    assert done.returncode == 0, done.stderr.decode()
    return json.loads(done.stdout.decode().splitlines()[-1])


def test_preset_calls_never_import_yaml(tmp_path):
    result = run_python(YAML_FREE_CALLS, str(tmp_path / "out"))
    assert result == {"loaded": 2, "codes": [0] * 9}


@pytest.mark.parametrize("argv", [
    ["presets"], ["safe-distance", "--preset", "wearable-60ghz", "--limit", "FCC"],
    ["sweep", "--preset", "wearable-60ghz"],
    ["sweep", "--scenario", os.path.join(os.path.dirname(__file__), "golden", "distances.yaml")]])
def test_preset_calls_import_no_path_or_resource_layer(argv):
    # -S: no site, whose imports would hide the CLI's own; PyYAML through PYTHONPATH
    path = os.pathsep.join(os.path.dirname(os.path.dirname(module.__file__))
                           for module in (wearemf, yaml))
    done = subprocess.run([sys.executable, "-S", "-X", "importtime", "-m", "wearemf", *argv],
                          capture_output=True, env={**os.environ, "PYTHONPATH": path})
    assert done.returncode == 0, done.stderr.decode()
    imported = {line.rpartition("|")[2].strip() for line in done.stderr.decode().splitlines()
                if line.startswith("import time:")}
    assert "wearemf.cli" in imported
    assert imported & {"importlib.resources", "pathlib", "tempfile", "typing",
                       "dataclasses", "inspect"} == set()


def test_cli_on_the_presets_never_imports_numpy(tmp_path):
    # a pattern that varies with azimuth is averaged over both angles
    doc = yaml.safe_load(serialize_scenario(load_preset("wearable-2.4ghz")))
    doc["antenna"]["omni_azimuth"] = False
    pencil = tmp_path / "pencil.yaml"
    pencil.write_text(yaml.safe_dump(doc))
    out = tmp_path / "out"
    result = run_python(NUMPY_FREE_CALLS, str(pencil), str(out))
    assert result == {"codes": [0] * 13, "numpy": None}
    # the last call was the FCC safe distance of the azimuth-dependent pattern
    assert cli.main(["safe-distance", "--scenario", str(pencil), "--limit", "FCC",
                     "--output", str(tmp_path / "here")]) == 0
    assert out.read_bytes() == (tmp_path / "here").read_bytes()
