"""wearemf benchmark: three closed-loop workloads over the pattern -> SAR ->
sweep/solve -> emit chain, with a traced run that splits the cost by module.

Run from the root of a wearemf checkout:

    python3 benchmarks/run.py --workload dense-sweep --seed 1 --seconds 36 --trace 0

The program is imported from ``src/`` of that checkout and driven only through
its public API and its CLI.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones.  A readable summary goes to standard error.  See benchmarks/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import math
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import Callable, Iterator

import checks
import spans

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = BENCH_DIR / "_work"

P60 = "wearable-60ghz"
P24 = "wearable-2.4ghz"
PRESETS = (P60, P24)
LIMITS = ("ICNIRP", "FCC")
FORMATS = ("csv", "json")

SETUP_SAMPLES = 5        # set-ups per run; setup_s is their median
RUN_LIMIT_S = 170        # a run that takes longer is stopped with exit code 3
DENSE_ROWS = 10_000      # distances per dense-sweep op
SCAN_DISTANCE_M = 0.01   # where design-scan evaluates sar_avg
# (pattern kind, samples_per_axis) of the designs: design-scan cycles through
# them in this order, so every run has the same mix, and the layer probe times
# each cold; with an odd count the median op falls inside one class
DESIGN_CLASSES = tuple((kind, n) for n in (361, 721, 1441) for kind in ("af", "omni", "2d"))
PROBE_REPS = 5           # repeats of each call in the layer probe
COLD_REPS = 3            # fresh designs per cold class in the layer probe
PROBE_ROWS = 1_000       # distances per probe sweep
START_REPS = 7           # interpreter start-up and import samples

E2E_UNITS = {
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "rows_per_s": "rows/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
CLI_COMMANDS = ("presets", "safe-distance", "sweep")
LAYER_UNITS = {
    "python.start_ms": "ms",
    "wearemf.import_ms": "ms",
    **{f"cli.main_ms.{command}": "ms" for command in CLI_COMMANDS},
    "scenario.load_preset_ms": "ms",
    "scenario.load_scenario_ms": "ms",
    "scenario.emit_csv_us_per_row": "us/row",
    "scenario.emit_json_us_per_row": "us/row",
    "scenario.emit_bytes_per_row.csv": "B/row",
    "scenario.emit_bytes_per_row.json": "B/row",
    "compliance.sweep_self_us_per_row": "us/row",
    "compliance.solve_ms": "ms",
    "compliance.sar_avg_calls_per_solve": "calls/solve",
    **{f"exposure.sar_avg_cold_ms.n{n}.{kind}": "ms" for kind, n in DESIGN_CLASSES},
    "exposure.sar_avg_warm_us": "us",
    "exposure.sar_avg_calls_per_row": "calls/row",
    "link.self_us_per_row": "us/row",
    "link.calls_per_row": "calls/row",
    "antenna.gain_dbi_us": "us",
    "antenna.gain_dbi_calls_per_row": "calls/row",
    "trace.overhead_ms": "ms",
}


class RunTimeout(BaseException):
    """The run exceeded RUN_LIMIT_S; not an Exception, so op handlers let it pass."""


def _on_alarm(signum, frame):
    raise RunTimeout


@dataclasses.dataclass
class Op:
    """One timed operation: ``run(traced)`` returns ((cpu s, wall s), output)
    and ``check(output)`` returns the rows delivered or raises CheckError."""

    label: str
    run: Callable[[bool], tuple[tuple[float, float], object]]
    check: Callable[[object], int]


@dataclasses.dataclass
class Loop:
    """What a closed-loop run measured; index True holds the traced ops."""

    cpu: dict = dataclasses.field(default_factory=lambda: {False: [], True: []})
    wall: dict = dataclasses.field(default_factory=lambda: {False: [], True: []})
    cycle: dict = dataclasses.field(default_factory=lambda: {False: [], True: []})
    rows: dict = dataclasses.field(default_factory=lambda: {False: 0, True: 0})
    # host reference CPU s, taken before the first cycle and after every cycle
    reference: list = dataclasses.field(default_factory=list)
    attempted: int = 0
    failed: int = 0


def timed(fn: Callable[[], object]) -> tuple[tuple[float, float], object]:
    """((cpu s, wall s), result) of one in-process call."""
    wall, cpu = time.perf_counter(), time.process_time()
    result = fn()
    return (time.process_time() - cpu, time.perf_counter() - wall), result


def run_child(command: list[str], stdout, stderr) -> tuple[tuple[float, float], int, int]:
    """Run a child process to the end: ((cpu s, wall s), exit code, peak RSS in kB).

    The CPU time and peak RSS come from the child's own rusage (os.wait4).
    """
    start = time.perf_counter()
    proc = subprocess.Popen(command, stdout=stdout, stderr=stderr, env=child_env(), cwd=ROOT)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (usage.ru_utime + usage.ru_stime, wall), proc.returncode, usage.ru_maxrss


def measure(cycle: Callable[[int], Iterator[Op]], reference: Callable[[], float] | None,
            seconds: float, tracer: spans.Tracer | None,
            stats: spans.LayerStats | None) -> Loop:
    """Run whole op cycles, one client, until ``seconds`` have passed.

    With a tracer, odd cycles run traced and even ones untraced, so the two
    halves see the same inputs and the same drift of the machine.  Outputs
    are checked after the timed region and outside the tracer.  The host
    reference, if any, runs before the first cycle and after every cycle.
    """
    loop = Loop()
    if reference:
        loop.reference.append(reference())
    min_cycles = 1 if tracer is None else 2
    start = time.perf_counter()
    index = 0
    while index < min_cycles or time.perf_counter() - start < seconds:
        traced = tracer is not None and index % 2 == 1
        for op in cycle(index):
            loop.attempted += 1
            try:
                with tracer if traced else contextlib.nullcontext():
                    (cpu, wall), output = op.run(traced)
                rows = op.check(output)
            except Exception:
                loop.failed += 1
                print(f"op {op.label} failed:\n{traceback.format_exc()}", file=sys.stderr)
                continue
            finally:
                if traced:
                    stats.fold(tracer.spans)
                    tracer.spans.clear()
            loop.cpu[traced].append(cpu)
            loop.wall[traced].append(wall)
            loop.cycle[traced].append(index)
            loop.rows[traced] += rows
        if reference:
            loop.reference.append(reference())
        index += 1
    return loop


# Host-speed references.  On a shared host the CPU time of the same work
# swings by up to 40 % within minutes, as neighbours load the cores, and
# swings differently for interpreter-bound and numpy-bound code.  The
# in-process workloads therefore time a fixed piece of work like the one that
# dominates their ops around every cycle, and scale each op's CPU time by the
# nominal reference time over the reference measured around its cycle.
# cli-calls has none: process start-up and import swing least, and a noisy
# per-cycle `python -c pass` made its spread wider, not narrower.
def python_reference() -> float:
    """CPU seconds of fixed interpreter-bound work: a scalar float loop."""
    start = time.process_time()
    total = 0.0
    for i in range(1, 50_001):
        total += math.log10(i)
    return time.process_time() - start


def numpy_reference() -> float:
    """CPU seconds of fixed numpy-bound work: elementwise math on 2**20 doubles."""
    import numpy as np

    start = time.process_time()
    grid = np.linspace(0.0, 1.0, 1 << 20)
    float(np.exp(-grid * grid).sum() + np.sqrt(grid).sum())
    return time.process_time() - start


# workload -> (host reference, its nominal CPU ms); never change a nominal
# value, or results stop being comparable across commits
REFERENCES = {
    "cli-calls": (None, None),
    "dense-sweep": (python_reference, 4.3),
    "design-scan": (numpy_reference, 17.3),
}


def normalized(loop: Loop, traced: bool, nominal_ms: float | None) -> list[float]:
    """Op CPU times scaled to the nominal host speed, cycle by cycle.

    Cycle k lies between references k and k+1; its scale uses the median of
    references k-1 to k+2, which follows a change of host speed within a
    cycle or two while damping the noise of single references.
    """
    reference = loop.reference
    if not reference:
        return list(loop.cpu[traced])
    scale = [nominal_ms / 1e3 / statistics.median(reference[max(0, k - 1):k + 3])
             for k in range(len(reference) - 1)]
    return [cpu * scale[index] for cpu, index in zip(loop.cpu[traced], loop.cycle[traced])]


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


# numpy is imported on first use, so that the in-process set-up timing
# includes its import
def geomspace(lo: float, hi: float, count: int) -> list[float]:
    import numpy as np

    return np.geomspace(lo, hi, count).tolist()


def linspace(lo: float, hi: float, count: int) -> list[float]:
    import numpy as np

    return np.linspace(lo, hi, count).tolist()


def inprocess_setup() -> tuple[float, dict]:
    """Import wearemf, load both presets and warm the quadrature cache;
    returns the CPU seconds this took and the presets."""
    start = time.process_time()
    import wearemf

    presets = {name: wearemf.load_preset(name) for name in PRESETS}
    for loaded in presets.values():
        wearemf.sar_avg(loaded.scenario, loaded.tissue, SCAN_DISTANCE_M, loaded.quadrature)
    return time.process_time() - start, presets


def setup_child(args) -> float:
    """In-process set-up CPU time measured in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", "1", "--trace", "0", "--setup-only"],
        capture_output=True, check=True, timeout=60, cwd=ROOT)
    return float(done.stdout.decode().split()[-1])


def make_design(wm, rng: random.Random, kind: str, samples: int, presets: dict):
    """A ScenarioFile around one new seeded antenna.

    Array factors get the 60 GHz link and tissue, patches the 2.4 GHz ones.
    Element spacing stays at or below half a wavelength, and arrays on the
    361 grid keep to 16 elements: the quadrature of larger or wider arrays
    drifts past the default convergence_tol there.
    """
    if kind == "af":
        base = presets[P60]
        antenna = wm.AntennaConfig(
            wm.PatternModel.LINEAR_ARRAY_FACTOR, g_max_dbi=rng.uniform(6.0, 18.0),
            n_elements=rng.randint(2, 16 if samples < 721 else 32),
            element_spacing_wavelengths=rng.uniform(0.25, 0.5),
            sidelobe_floor_db=rng.uniform(20.0, 35.0),
            boresight_elevation_deg=rng.uniform(-10.0, 10.0))
    else:
        base = presets[P24]
        antenna = wm.AntennaConfig(
            wm.PatternModel.PARABOLIC_ENVELOPE, g_max_dbi=rng.uniform(3.0, 12.0),
            theta_3db_deg=rng.uniform(40.0, 120.0),
            sidelobe_floor_db=rng.uniform(20.0, 35.0),
            boresight_elevation_deg=rng.uniform(-10.0, 10.0),
            boresight_azimuth_deg=rng.uniform(-10.0, 10.0),
            omni_azimuth=kind == "omni")
    link = dataclasses.replace(base.scenario, tx_power_dbm=rng.uniform(0.0, 12.0),
                               tx_antenna=antenna)
    quadrature = wm.QuadratureSpec(samples, base.quadrature.convergence_tol)
    return dataclasses.replace(base, scenario=link, quadrature=quadrature)


def dense_sweep_cycle(wm, presets: dict, rng: random.Random):
    fields = wm.CSV_FIELDS
    expected = {name: checks.Expected.of(loaded) for name, loaded in presets.items()}

    def op(name: str, fmt: str, distances: list[float]) -> Op:
        loaded = presets[name]

        def run(traced):
            return timed(lambda: wm.emit_results(
                wm.sweep(loaded.scenario, loaded.tissue, distances, loaded.quadrature), fmt))

        def check(data):
            return checks.sweep_output(data, fmt, distances, expected[name], fields)

        return Op(f"{name}/{fmt}", run, check)

    def cycle(index):
        for name in PRESETS:
            for fmt in FORMATS:
                lo = 1e-3 * (1.0 + 0.1 * rng.random())
                hi = 1.0 - 0.1 * rng.random()
                yield op(name, fmt, geomspace(lo, hi, DENSE_ROWS))

    return cycle


def design_scan_cycle(wm, presets: dict, rng: random.Random):
    limits = [wm.BUILTIN_LIMITS[name] for name in LIMITS]
    search = wm.DistanceSearch()

    def op(kind: str, samples: int, design) -> Op:
        link, tissue, quadrature = design.scenario, design.tissue, design.quadrature

        def evaluate():
            sar = wm.sar_avg(link, tissue, SCAN_DISTANCE_M, quadrature)
            solved = [wm.min_safe_distance(link, tissue, limit, search, quadrature)
                      for limit in limits]
            return sar, solved

        def run(traced):
            return timed(evaluate)

        def check(output):
            sar, solved = output
            checks.avg_sar_bounds(sar, SCAN_DISTANCE_M, checks.Expected.of(design))

            def sar_at(d):
                return wm.sar_avg(link, tissue, d, quadrature)

            for limit, result in zip(limits, solved):
                checks.safe_distance(result, sar_at, limit.sar_limit_w_per_kg, search)
            if all(isinstance(d, float) for d in solved):
                checks.require(solved[1] >= solved[0], "FCC distance below the ICNIRP one")
            return 1

        return Op(f"{kind}/n{samples}", run, check)

    def cycle(index):
        for kind, samples in DESIGN_CLASSES:
            yield op(kind, samples, make_design(wm, rng, kind, samples, presets))

    return cycle


class CliRunner:
    """Runs one wearemf CLI process per call and keeps the children's peak RSS."""

    def __init__(self, work: Path) -> None:
        self.out_path = work / "cli.stdout"
        self.err_path = work / "cli.stderr"
        self.peak_kb = 0

    def call(self, argv: list[str], traced: bool) -> tuple[tuple[float, float], int, bytes, bytes]:
        """((cpu s, wall s), exit code, stdout, stderr) of one CLI process."""
        prefix = [sys.executable, str(BENCH_DIR / "spans.py")] if traced else \
            [sys.executable, "-m", "wearemf"]
        with open(self.out_path, "wb") as out, open(self.err_path, "wb") as err:
            timing, code, peak_kb = run_child(prefix + argv, out, err)
        self.peak_kb = max(self.peak_kb, peak_kb)
        return timing, code, self.out_path.read_bytes(), self.err_path.read_bytes()


def cli_cycle(wm, presets: dict, runner: CliRunner, scenario_path: Path, scenario_file):
    fields = wm.CSV_FIELDS
    search = wm.DistanceSearch()
    preset_list = "".join(f"{path.stem}\n" for path in
                          sorted((SRC / "wearemf" / "presets").glob("*.yaml")))

    def op(argv: list[str], check_stdout: Callable[[bytes], int]) -> Op:
        def run(traced):
            timing, code, out, err = runner.call(argv, traced)
            return timing, (code, out, err)

        def check(output):
            code, out, err = output
            checks.require(code == 0, f"exit code {code}: {err.decode(errors='replace')}")
            checks.require(b"Traceback" not in err, err.decode(errors="replace"))
            return check_stdout(out)

        return Op(" ".join(argv), run, check)

    def presets_out(out):
        checks.require(out.decode() == preset_list, f"presets printed {out!r}")
        return preset_list.count("\n")

    def safe_distance(name, limit):
        loaded = presets[name]

        def check(out):
            lines = out.decode().splitlines()
            checks.require(len(lines) == 1, f"safe-distance printed {out!r}")

            def sar_at(d):
                return wm.sar_avg(loaded.scenario, loaded.tissue, d, loaded.quadrature)

            checks.safe_distance(lines[0], sar_at, wm.BUILTIN_LIMITS[limit].sar_limit_w_per_kg,
                                 search, printed=True)
            return 1

        return op(["safe-distance", "--preset", name, "--limit", limit], check)

    def sweep(argv, loaded, fmt):
        expected = checks.Expected.of(loaded)
        grid = loaded.sweep_grid
        distances = linspace(grid.start_m, grid.stop_m, grid.points)
        return op(argv, lambda out: checks.sweep_output(out, fmt, distances, expected, fields))

    # sweeps are spread through the mix so each part of a cycle has similar cost
    ops = [
        op(["presets"], presets_out),
        sweep(["sweep", "--preset", P60], presets[P60], "csv"),
        safe_distance(P60, "ICNIRP"),
        safe_distance(P60, "FCC"),
        sweep(["sweep", "--preset", P24, "--format", "json"], presets[P24], "json"),
        safe_distance(P24, "ICNIRP"),
        safe_distance(P24, "FCC"),
        sweep(["sweep", "--scenario", str(scenario_path)], scenario_file, "csv"),
    ]
    return lambda index: iter(ops)


def cli_scenario(wm, base, rng: random.Random):
    """The scenario file `sweep --scenario` reads: the 60 GHz preset with a
    seeded transmit power and sweep grid."""
    link = dataclasses.replace(base.scenario, tx_power_dbm=rng.uniform(5.0, 12.0))
    grid = wm.SweepGrid(start_m=1e-3 * (1.0 + rng.random()),
                        stop_m=0.05 * (1.0 - 0.2 * rng.random()), points=50)
    return dataclasses.replace(base, scenario=link, sweep_grid=grid)


def child_cpu(code: str) -> float:
    """CPU seconds of one `python -c CODE` child."""
    (seconds, _), status, _ = run_child([sys.executable, "-c", code],
                                        subprocess.DEVNULL, subprocess.DEVNULL)
    checks.require(status == 0, f"python -c {code!r} exited with {status}")
    return seconds


def interpreter_probe() -> tuple[float, float]:
    """Median CPU ms of `python -c pass`, and of `import wearemf` above that."""
    bare, imported = [], []
    for _ in range(START_REPS):
        bare.append(child_cpu("pass"))
        imported.append(child_cpu("import wearemf"))
    start_s = statistics.median(bare)
    return 1e3 * start_s, 1e3 * (statistics.median(imported) - start_s)


def layer_probe(wm, tracer: spans.Tracer, stats: spans.LayerStats, presets: dict,
                scenario_path: Path, work: Path, rng: random.Random) -> None:
    """Traced calls into every layer, the same on every workload, so each
    per-layer metric has samples even where the workload does not reach it."""
    from wearemf import cli

    out_path = str(work / "probe.out")
    commands = {
        "presets": ["presets"],
        "safe-distance": ["safe-distance", "--preset", P60, "--limit", "FCC",
                          "--output", out_path],
        "sweep": ["sweep", "--preset", P60, "--output", out_path],
    }
    sink = io.TextIOWrapper(io.BytesIO(), encoding="ascii")
    codes = []
    sweeps = []
    with tracer:
        for _ in range(PROBE_REPS):
            for command, argv in commands.items():
                with tracer.region(spans.CLI_REGION + command), contextlib.redirect_stdout(sink):
                    codes.append(cli.main(argv))
            for name in PRESETS:
                wm.load_preset(name)
            wm.load_scenario(scenario_path)
        for name, loaded in presets.items():
            distances = geomspace(1e-3, 1.0, PROBE_ROWS)
            rows = wm.sweep(loaded.scenario, loaded.tissue, distances, loaded.quadrature)
            sweeps += [(name, fmt, distances, wm.emit_results(rows, fmt)) for fmt in FORMATS]
            for limit in LIMITS:
                wm.min_safe_distance(loaded.scenario, loaded.tissue, wm.BUILTIN_LIMITS[limit],
                                     wm.DistanceSearch(), loaded.quadrature)
        for kind, samples in DESIGN_CLASSES:
            for _ in range(COLD_REPS):
                design = make_design(wm, rng, kind, samples, presets)
                with tracer.region(f"{spans.COLD_REGION}n{samples}.{kind}"):
                    wm.sar_avg(design.scenario, design.tissue, SCAN_DISTANCE_M,
                               design.quadrature)
    stats.fold(tracer.spans)
    tracer.spans.clear()
    checks.require(codes == [0] * len(codes), f"cli.main exit codes {codes}")
    for name, fmt, distances, data in sweeps:
        checks.sweep_output(data, fmt, distances, checks.Expected.of(presets[name]), wm.CSV_FIELDS)


def percentile(values: list[float], fraction: float) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[round(100 * fraction) - 1]


def run_workload(args, work: Path) -> dict:
    rng = random.Random(args.seed)
    scenario_path = work / "scenario.yaml"
    if args.workload == "cli-calls":
        import wearemf as wm

        presets = {name: wm.load_preset(name) for name in PRESETS}
        scenario_file = cli_scenario(wm, presets[P60], rng)
        runner = CliRunner(work)
        setup = []
        for _ in range(SETUP_SAMPLES):
            start = time.process_time()
            scenario_path.write_text(wm.serialize_scenario(scenario_file))
            (call_cpu, _), *_ = runner.call(["sweep", "--scenario", str(scenario_path)],
                                            traced=False)
            setup.append(time.process_time() - start + call_cpu)
        runner.peak_kb = 0
        cycle = cli_cycle(wm, presets, runner, scenario_path, scenario_file)
    else:
        own_setup, presets = inprocess_setup()
        import wearemf as wm

        scenario_file = cli_scenario(wm, presets[P60], rng)
        scenario_path.write_text(wm.serialize_scenario(scenario_file))
        setup = [own_setup] + [setup_child(args) for _ in range(SETUP_SAMPLES - 1)]
        make_cycle = dense_sweep_cycle if args.workload == "dense-sweep" else design_scan_cycle
        cycle = make_cycle(wm, presets, rng)

    tracer = stats = None
    if args.trace:
        tracer, stats = spans.Tracer(), spans.LayerStats()
    reference, nominal_ms = REFERENCES[args.workload]
    loop = measure(cycle, reference, args.seconds, tracer, stats)
    raw, wall = loop.cpu[False], loop.wall[False]
    plain = normalized(loop, False, nominal_ms)
    # set-up runs before the loop, so it is scaled by the run's median reference
    setup_scale = nominal_ms / (1e3 * statistics.median(loop.reference)) if reference else 1.0
    summary = (f"{args.workload} seed {args.seed}: {loop.attempted} ops, {loop.failed} failed "
               f"(fail_frac {loop.failed / loop.attempted:.4f}), {len(plain)} untraced; "
               f"raw CPU ms p50 {1e3 * statistics.median(raw):.6g} "
               f"p90 {1e3 * percentile(raw, 0.9):.6g}; "
               f"wall ms p50 {1e3 * statistics.median(wall):.6g} "
               f"p90 {1e3 * percentile(wall, 0.9):.6g}; host speed scale {setup_scale:.4f}")

    if args.trace:
        layer_probe(wm, tracer, stats, presets, scenario_path, work, rng)
        values = stats.metrics(CLI_COMMANDS, DESIGN_CLASSES)
        values["python.start_ms"], values["wearemf.import_ms"] = interpreter_probe()
        traced = normalized(loop, True, nominal_ms)
        values["trace.overhead_ms"] = 1e3 * (statistics.median(traced)
                                             - statistics.median(plain))
        units = LAYER_UNITS
        print(stats.table(), file=sys.stderr)
    else:
        if args.workload == "cli-calls":
            peak_kb = runner.peak_kb
        else:
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        values = {
            "op_ms_p50": 1e3 * statistics.median(plain),
            "op_ms_p90": 1e3 * percentile(plain, 0.9),
            "rows_per_s": loop.rows[False] / sum(plain),
            "setup_s": statistics.median(setup) * setup_scale,
            "peak_rss_mb": peak_kb / 1024.0,
        }
        units = E2E_UNITS
        summary += f"; {sum(t > values['op_ms_p90'] / 1e3 for t in plain)} ops beyond CPU p90"
    print(summary, file=sys.stderr)
    for name, unit in units.items():
        print(f"  {name:<40} {values[name]:>14.6g} {unit}", file=sys.stderr)
    return {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("cli-calls", "dense-sweep", "design-scan"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long the timed loop runs; whole cycles are completed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 runs the traced run and reports per-layer metrics")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "wearemf" / "__init__.py").is_file():
        print(f"error: no wearemf sources under {SRC}; run from a wearemf checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(RUN_LIMIT_S)
    if args.setup_only:
        print(inprocess_setup()[0])
        return 0
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK_ROOT))
    try:
        result = run_workload(args, work)
    except RunTimeout:
        print(f"error: the run took longer than {RUN_LIMIT_S} s", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
