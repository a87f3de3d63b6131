"""Command-line behavior: subcommands, flags, exit codes, output files."""

import json
import subprocess
import sys

import pytest

from wearemf import CSV_FIELDS


def run_cli(*args, cwd=None):
    completed = subprocess.run(
        [sys.executable, "-m", "wearemf", *args],
        capture_output=True, cwd=cwd)
    return completed.returncode, completed.stdout, completed.stderr


def test_presets_subcommand_lists_builtins():
    code, out, _ = run_cli("presets")
    assert code == 0
    assert out.decode().split() == ["wearable-2.4ghz", "wearable-60ghz"]


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


def test_unknown_limit_name_exits_1():
    code, _, err = run_cli("safe-distance", "--preset", "wearable-60ghz",
                           "--limit", "OSHA")
    assert code == 1
    assert b"unknown limit" in err


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


def test_sweep_partial_grid_flags_exit_1():
    code, _, err = run_cli("sweep", "--preset", "wearable-60ghz",
                           "--from", "0.01", "--points", "5")
    assert code == 1
    assert b"--to" in err


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
