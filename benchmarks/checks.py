"""Correctness checks the benchmark applies to every operation's output.

Sweep rows are recomputed from the closed forms of the link budget and the
boundary SAR model (free-space path loss, kTB noise, Shannon rate,
P*G/(4*pi*d^2)); the angle-averaged SAR is checked through the inverse-square
law and the bounds of the pattern mean; safe distances are checked by the
solver's contract.  Every check raises CheckError on a mismatch.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass

BOLTZMANN_J_PER_K = 1.380649e-23

# emitted values carry 9 significant digits, so a printed value sits within
# 5e-9 of the exact one; the tolerances leave room for that rounding
PRINTED_REL = 1e-8
VALUE_REL = 2e-8
DB_ABS = 1e-6


class CheckError(AssertionError):
    """An operation's output disagrees with what the benchmark expects."""


def require(condition: bool, message: str) -> None:
    """Raise CheckError with ``message`` unless ``condition`` holds."""
    if not condition:
        raise CheckError(message)


@dataclass(frozen=True)
class Expected:
    """The scenario inputs the closed forms need, read from a ScenarioFile."""

    carrier_mhz: float
    bandwidth_hz: float
    tx_power_dbm: float
    g_max_dbi: float
    rx_gain_dbi: float
    noise_figure_db: float
    temperature_k: float
    gamma: float
    depth_m: float
    density_kg_per_m3: float
    floor_db: float

    @classmethod
    def of(cls, scenario_file) -> "Expected":
        link = scenario_file.scenario
        antenna = link.tx_antenna
        tissue = scenario_file.tissue
        gamma = tissue.reflection_override
        if gamma is None:
            root = cmath.sqrt(complex(tissue.rel_permittivity))
            gamma = abs((root - 1.0) / (root + 1.0))
        return cls(link.carrier_mhz, link.bandwidth_hz, link.tx_power_dbm, antenna.g_max_dbi,
                   link.rx_gain_dbi, link.noise_figure_db, link.temperature_k, gamma,
                   tissue.penetration_depth_m, tissue.mass_density_kg_per_m3,
                   antenna.sidelobe_floor_db)

    def boresight_pd(self, distance_m):
        """Far-field power density P*G/(4*pi*d^2) along boresight, W/m^2."""
        tx_w = 10.0 ** ((self.tx_power_dbm - 30.0) / 10.0)
        return tx_w * 10.0 ** (self.g_max_dbi / 10.0) / (4.0 * math.pi * distance_m ** 2)

    def boundary_sar(self, pd_w_per_m2):
        """SAR at the skin boundary: 2*PD*(1 - gamma^2) / (depth * density), W/kg."""
        return 2.0 * pd_w_per_m2 * (1.0 - self.gamma ** 2) / (self.depth_m * self.density_kg_per_m3)


def _close(actual, expected, rel: float, abs_tol: float = 0.0) -> bool:
    import numpy as np

    return bool(np.all(np.abs(actual - expected) <= rel * np.abs(expected) + abs_tol))


def parse_rows(data: bytes, fmt: str, fields) -> "np.ndarray":
    """Emitted CSV or JSON as an array with one row per distance."""
    import numpy as np

    if fmt == "csv":
        lines = data.decode("ascii").split("\n")
        require(lines[0] == ",".join(fields), f"CSV header is {lines[0]!r}")
        require(lines[-1] == "", "CSV does not end with a newline")
        body = lines[1:-1]
        cells = ",".join(body).split(",") if body else []
        require(len(cells) == len(body) * len(fields), "CSV rows have the wrong field count")
        return np.array(cells, dtype=float).reshape(len(body), len(fields))
    records = json.loads(data)
    require(isinstance(records, list), "JSON output is not an array")
    for record in records:
        require(list(record) == list(fields), f"JSON record keys are {list(record)}")
    return np.array([[record[f] for f in fields] for record in records],
                    dtype=float).reshape(len(records), len(fields))


def sweep_output(data: bytes, fmt: str, distances, expected: Expected, fields) -> int:
    """Check emitted sweep rows against the closed forms; returns the row count."""
    import numpy as np

    values = parse_rows(data, fmt, fields)
    d = np.asarray(distances, dtype=float)
    require(values.shape[0] == d.size, f"{values.shape[0]} rows for {d.size} distances")
    e = expected
    fspl = 20.0 * np.log10(d) + 20.0 * math.log10(e.carrier_mhz) - 27.55
    noise_dbm = (10.0 * math.log10(BOLTZMANN_J_PER_K * e.temperature_k * e.bandwidth_hz)
                 + 30.0 + e.noise_figure_db)
    snr = e.tx_power_dbm + e.g_max_dbi + e.rx_gain_dbi - fspl - noise_dbm
    rate = e.bandwidth_hz * np.log1p(10.0 ** (snr / 10.0)) / math.log(2.0)
    pd = e.boresight_pd(d)
    sar_b = e.boundary_sar(pd)
    got_d, got_fspl, got_snr, got_rate, got_pd, got_sar_b, got_avg = values.T
    require(_close(got_d, d, PRINTED_REL), "distances differ from the requested grid")
    require(_close(got_fspl, fspl, VALUE_REL, DB_ABS), "path loss differs from FSPL")
    require(_close(got_snr, snr, VALUE_REL, DB_ABS), "SNR differs from the link budget")
    require(_close(got_rate, rate, VALUE_REL), "rate differs from B*log2(1+SNR)")
    require(_close(got_pd, pd, VALUE_REL), "power density differs from P*G/(4*pi*d^2)")
    require(_close(got_sar_b, sar_b, VALUE_REL), "boresight SAR differs from the boundary model")
    # the averaged SAR is K/d^2 with K = boresight SAR * d^2 * pattern mean
    k = got_avg * got_d ** 2
    require(_close(k, np.full_like(k, np.median(k)), 4 * VALUE_REL),
            "avg_sar * d^2 is not constant across rows")
    mean = got_avg / got_sar_b
    floor = 10.0 ** (-e.floor_db / 10.0)
    require(bool(np.all((mean >= floor * (1 - VALUE_REL)) & (mean <= 1 + VALUE_REL))),
            "averaged SAR lies outside [floor, 1] times the boresight SAR")
    return int(d.size)


def avg_sar_bounds(value: float, distance_m: float, expected: Expected) -> None:
    """The pattern mean behind an averaged SAR lies in [sidelobe floor, 1]."""
    mean = value / expected.boundary_sar(expected.boresight_pd(distance_m))
    floor = 10.0 ** (-expected.floor_db / 10.0)
    require(floor * (1 - VALUE_REL) <= mean <= 1 + VALUE_REL,
            f"averaged SAR {value!r} implies a pattern mean of {mean!r}")


def safe_distance(result, sar_at, limit_w_per_kg: float, search, printed: bool = False) -> None:
    """The solver's contract: the result complies and one tolerance less does not.

    ``sar_at`` evaluates the averaged SAR at a distance; ``printed`` widens the
    check by the rounding of a distance printed with 9 significant digits.
    """
    if result == "compliant-everywhere":
        require(sar_at(search.d_lo_m) <= limit_w_per_kg,
                "compliant-everywhere, but the near end exceeds the limit")
        return
    d = float(result)
    rel = PRINTED_REL if printed else 0.0
    require(search.d_lo_m <= d <= search.d_hi_m, f"distance {d!r} outside the search range")
    require(sar_at(d * (1 + rel)) <= limit_w_per_kg, f"distance {d!r} does not comply")
    below = d * (1 - rel) - search.tol_m
    if below > search.d_lo_m:
        require(sar_at(below) > limit_w_per_kg,
                f"distance {d!r} is more than tol_m beyond the smallest compliant one")
