"""End-to-end acceptance checks.

Each test exercises one shipped guarantee, records a single PASS/FAIL
line for the scoreboard that conftest prints in the terminal summary,
then asserts.
"""

import subprocess
import sys
import time

import conftest
import numpy as np
import pytest

import wearemf.exposure
from wearemf import (
    BUILTIN_LIMITS,
    AntennaConfig,
    DistanceSearch,
    LinkScenario,
    PatternModel,
    QuadratureSpec,
    TissueProperties,
    db_to_linear,
    dbm_to_watts,
    emit_results,
    fspl_db,
    gain_dbi,
    load_preset,
    min_safe_distance,
    noise_power_dbm,
    power_density,
    sar_avg,
    sar_boundary,
    sweep,
)

P60 = load_preset("wearable-60ghz")
P24 = load_preset("wearable-2.4ghz")


def _report(index: int, name: str, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    line = f"acceptance {index}/7 {name}: {verdict} ({detail})"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line)


def _cli(*args):
    return subprocess.run([sys.executable, "-m", "wearemf", *args],
                          capture_output=True, check=False)


def test_1_safe_distance_reproduction():
    started = time.perf_counter()
    out_icnirp = _cli("safe-distance", "--preset", "wearable-60ghz",
                      "--limit", "ICNIRP")
    out_fcc = _cli("safe-distance", "--preset", "wearable-60ghz",
                   "--limit", "FCC")
    elapsed = time.perf_counter() - started
    d_icnirp = float(out_icnirp.stdout)
    d_fcc = float(out_fcc.stdout)
    ok = (abs(d_icnirp - 0.012) <= 0.005
          and abs(d_fcc - 0.015) <= 0.005
          and d_fcc > d_icnirp
          and elapsed < 10.0)
    _report(1, "safe-distance reproduction", ok,
            f"ICNIRP {d_icnirp * 1e3:.2f} mm in 12+-5, "
            f"FCC {d_fcc * 1e3:.2f} mm in 15+-5, FCC > ICNIRP, {elapsed:.1f} s")
    assert ok


def test_2_low_band_compliance():
    started = time.perf_counter()
    distances = np.geomspace(1e-3, 1.0, 100)
    values = [sar_avg(P24.scenario, P24.tissue, float(d), P24.quadrature)
              for d in distances]
    elapsed = time.perf_counter() - started
    worst = max(values)
    worst_at = float(distances[int(np.argmax(values))])
    ok = worst < 1.6 and elapsed < 10.0
    _report(2, "2.4 GHz compliance", ok,
            f"max avg SAR {worst:.2f} W/kg at {worst_at * 1e3:.1f} mm "
            f"vs 1.6 W/kg, {elapsed:.1f} s")
    assert ok


def test_3_rate_ordering():
    started = time.perf_counter()
    distances = [float(d) for d in np.linspace(0.1, 5.0, 50)]
    rows60 = sweep(P60.scenario, P60.tissue, distances, P60.quadrature)
    rows24 = sweep(P24.scenario, P24.tissue, distances, P24.quadrature)
    ratios = [a.rate_bps / b.rate_bps for a, b in zip(rows60, rows24)]
    elapsed = time.perf_counter() - started
    print("distance_m  rate60_bps    rate24_bps    ratio")
    for d, a, b, r in zip(distances, rows60, rows24, ratios):
        print(f"{d:10.3f}  {a.rate_bps:.4e}  {b.rate_bps:.4e}  {r:6.2f}")
    every_point = all(a.rate_bps > b.rate_bps for a, b in zip(rows60, rows24))
    ok = every_point and min(ratios) >= 3.0 and elapsed < 5.0
    _report(3, "rate ordering", ok,
            f"ratio range [{min(ratios):.2f}, {max(ratios):.2f}] >= 3 "
            f"over [0.1, 5] m, {elapsed:.1f} s")
    assert ok


def test_4_closed_form_oracles():
    fspl = fspl_db(1.0, 2400.0)
    noise = noise_power_dbm(2.16e9, 6.0, 290.0)
    boundary = sar_boundary(1.0, TissueProperties(reflection_override=0.0,
                                                  penetration_depth_m=1e-3,
                                                  mass_density_kg_per_m3=1000.0))
    ok = (abs(fspl - 40.05) <= 0.01
          and abs(noise - (-74.63)) <= 0.01
          and abs(boundary - 2.0) <= 2.0 * 1e-12)
    _report(4, "closed-form oracles", ok,
            f"fspl {fspl:.4f} dB, noise {noise:.4f} dBm, boundary {boundary!r} W/kg")
    assert ok


def test_5_property_suite():
    checks: dict[str, bool] = {}

    pd_pairs = [(power_density(0.01, 15.0, 2.0 * d), power_density(0.01, 15.0, d))
                for d in (0.001, 0.02, 0.7)]
    checks["pd-inverse-square"] = all(
        abs(far - near / 4.0) <= 1e-10 * (near / 4.0) for far, near in pd_pairs)

    sar_pairs = [(sar_avg(P60.scenario, P60.tissue, 2.0 * d, P60.quadrature),
                  sar_avg(P60.scenario, P60.tissue, d, P60.quadrature))
                 for d in (0.001, 0.02, 0.4)]
    checks["sar-inverse-square"] = all(
        abs(far - near / 4.0) <= 1e-10 * (near / 4.0) for far, near in sar_pairs)

    grid = np.geomspace(1e-3, 1.0, 30)
    for name, preset in (("60", P60), ("24", P24)):
        series = [sar_avg(preset.scenario, preset.tissue, float(d),
                          preset.quadrature) for d in grid]
        checks[f"sar-decreasing-{name}"] = all(
            b < a for a, b in zip(series, series[1:]))

    rng = np.random.default_rng(20260819)
    bounded = True
    for antenna in (P60.scenario.tx_antenna, P24.scenario.tx_antenna):
        for theta, phi in rng.uniform(-360.0, 360.0, size=(500, 2)):
            g = gain_dbi(antenna, float(theta), float(phi))
            low = antenna.g_max_dbi - antenna.sidelobe_floor_db
            bounded = bounded and low <= g <= antenna.g_max_dbi
    checks["gain-bounded"] = bounded

    flat = AntennaConfig(model=PatternModel.LINEAR_ARRAY_FACTOR,
                         g_max_dbi=11.9, n_elements=1)
    iso = LinkScenario(carrier_mhz=60000.0, bandwidth_hz=2.16e9,
                       tx_power_dbm=10.0, tx_antenna=flat)
    pd_iso = power_density(dbm_to_watts(10.0), db_to_linear(11.9), 0.012)
    checks["isotropic-equals-point"] = (
        sar_avg(iso, P60.tissue, 0.012) == sar_boundary(pd_iso, P60.tissue))

    convergent = True
    for preset in (P60, P24):
        coarse = sar_avg(preset.scenario, preset.tissue, 0.01, QuadratureSpec())
        fine = sar_avg(preset.scenario, preset.tissue, 0.01, QuadratureSpec(721))
        convergent = convergent and abs(fine - coarse) / fine < 1e-3
    checks["quadrature-self-convergence"] = convergent

    calls = {"n": 0}
    true_sar_avg = wearemf.exposure._Chain.sar_avg

    def counting(*args, **kwargs):
        calls["n"] += 1
        return true_sar_avg(*args, **kwargs)

    search = DistanceSearch()
    wearemf.exposure._Chain.sar_avg = counting
    try:
        min_safe_distance(P60.scenario, P60.tissue, BUILTIN_LIMITS["ICNIRP"],
                          search, P60.quadrature)
    finally:
        wearemf.exposure._Chain.sar_avg = true_sar_avg
    checks["solver-evaluation-bound"] = calls["n"] <= 3

    ok = all(checks.values())
    detail = ", ".join(f"{name} {'ok' if good else 'BAD'}"
                       for name, good in checks.items())
    _report(5, "property suite", ok, detail)
    assert ok


def test_6_brute_force_solver_oracle():
    started = time.perf_counter()
    grid = np.linspace(1e-3, 1.0, 100000)
    step = float(grid[1] - grid[0])
    search = DistanceSearch(d_lo_m=1e-3, d_hi_m=1.0)
    outcomes = []
    ok = True
    for label, preset in (("60ghz", P60), ("2.4ghz", P24)):
        values = np.array([sar_avg(preset.scenario, preset.tissue, float(d),
                                   preset.quadrature) for d in grid])
        for limit_name in ("ICNIRP", "FCC"):
            limit = BUILTIN_LIMITS[limit_name]
            compliant = values <= limit.sar_limit_w_per_kg
            assert compliant.any() and not compliant[0]
            first_grid = float(grid[int(np.argmax(compliant))])
            solved = min_safe_distance(preset.scenario, preset.tissue, limit,
                                       search, preset.quadrature)
            gap = abs(solved - first_grid)
            ok = ok and gap <= step
            outcomes.append(f"{label}/{limit_name} gap {gap * 1e6:.2f} um")
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 60.0
    _report(6, "brute-force solver oracle", ok,
            f"{'; '.join(outcomes)}; step {step * 1e6:.2f} um, {elapsed:.1f} s")
    assert ok


def test_7_determinism(tmp_path):
    first = tmp_path / "first.csv"
    second = tmp_path / "second.csv"
    for target in (first, second):
        result = _cli("sweep", "--preset", "wearable-60ghz",
                      "--output", str(target))
        assert result.returncode == 0
    identical_cli = first.read_bytes() == second.read_bytes()

    rows = sweep(P60.scenario, P60.tissue, [0.005, 0.01, 0.02], P60.quadrature)
    identical_lib = emit_results(rows, "csv") == emit_results(rows, "csv")

    ok = identical_cli and identical_lib
    _report(7, "determinism", ok,
            f"CLI bytes identical: {identical_cli}, "
            f"library bytes identical: {identical_lib}")
    assert ok
