"""Command-line interface: distance sweeps, safe-distance solving, presets."""

from __future__ import annotations

import argparse
import sys

from .compliance import (
    BUILTIN_LIMITS,
    ComplianceLimit,
    DistanceSearch,
    LimitUnreachableError,
    min_safe_distance,
    sweep,
)
from .exposure import ConvergenceError
from .scenario import (
    ScenarioError,
    ScenarioFile,
    SweepGrid,
    emit_results,
    load_preset,
    load_scenario,
    preset_names,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wearemf",
        description="Link rate and RF exposure calculations for on-body wearable radios.")
    sub = parser.add_subparsers(dest="command", required=True)

    sweep_cmd = sub.add_parser(
        "sweep", help="evaluate a distance sweep and emit CSV or JSON")
    _add_scenario_options(sweep_cmd)
    sweep_cmd.add_argument("--from", dest="start_m", type=float, metavar="METERS",
                           help="sweep start distance (overrides the scenario grid)")
    sweep_cmd.add_argument("--to", dest="stop_m", type=float, metavar="METERS",
                           help="sweep stop distance")
    sweep_cmd.add_argument("--points", type=int, help="number of sweep points")
    sweep_cmd.add_argument("--format", dest="fmt", choices=("csv", "json"), default="csv")
    sweep_cmd.set_defaults(func=_run_sweep)

    safe_cmd = sub.add_parser(
        "safe-distance", help="solve the minimum compliant antenna-skin separation")
    _add_scenario_options(safe_cmd)
    safe_cmd.add_argument("--limit", required=True,
                          help="limit name (e.g. ICNIRP, FCC) or a SAR value in W/kg")
    safe_cmd.add_argument("--from", dest="d_lo_m", type=float, metavar="METERS",
                          default=DistanceSearch.d_lo_m,
                          help="search bracket lower end (default %(default)s)")
    safe_cmd.add_argument("--to", dest="d_hi_m", type=float, metavar="METERS",
                          default=DistanceSearch.d_hi_m,
                          help="search bracket upper end (default %(default)s)")
    safe_cmd.set_defaults(func=_run_safe_distance)

    presets_cmd = sub.add_parser("presets", help="list built-in scenario presets")
    presets_cmd.set_defaults(func=_run_presets)
    return parser


def _add_scenario_options(cmd: argparse.ArgumentParser) -> None:
    group = cmd.add_mutually_exclusive_group(required=True)
    group.add_argument("--scenario", metavar="PATH", help="scenario file to load")
    group.add_argument("--preset", metavar="NAME", help="built-in preset to load")
    cmd.add_argument("--quadrature-samples", dest="quadrature_samples", type=int,
                     metavar="N", help="override samples per quadrature axis")
    cmd.add_argument("--output", default="stdout", metavar="PATH|stdout")


def _load(args: argparse.Namespace) -> ScenarioFile:
    if args.scenario is not None:
        loaded = load_scenario(args.scenario)
    else:
        loaded = load_preset(args.preset)
    if args.quadrature_samples is not None:
        loaded = loaded.replace(quadrature=loaded.quadrature.replace(
            samples_per_axis=args.quadrature_samples))
    return loaded


def _write(output: str, data: bytes) -> None:
    if output in ("stdout", "-"):
        stream = sys.stdout
        if stream is None:  # the process was started with stdout closed
            raise OSError("standard output is closed")
        if hasattr(stream, "buffer"):
            stream = stream.buffer
        else:  # a text stream such as io.StringIO
            data = data.decode("ascii")
        stream.write(data)
        stream.flush()
    else:
        with open(output, "wb") as file:
            file.write(data)


def _run_sweep(args: argparse.Namespace) -> int:
    loaded = _load(args)
    overrides = (args.start_m, args.stop_m, args.points)
    if any(v is not None for v in overrides):
        if any(v is None for v in overrides):
            raise ScenarioError("--from, --to, and --points must be given together")
        grid = SweepGrid(start_m=args.start_m, stop_m=args.stop_m, points=args.points)
    elif loaded.sweep_grid is not None:
        grid = loaded.sweep_grid
    else:
        raise ScenarioError(
            "the scenario has no sweep section; pass --from, --to, and --points")
    rows = sweep(loaded.scenario, loaded.tissue, grid.resolve(), loaded.quadrature)
    _write(args.output, emit_results(rows, args.fmt))
    return 0


def _resolve_limit(spec: str, loaded: ScenarioFile) -> ComplianceLimit:
    try:
        value = float(spec)
    except ValueError:
        by_name = {limit.name: limit for limit in loaded.limits}
        by_name.update({name: lim for name, lim in BUILTIN_LIMITS.items()
                        if name not in by_name})
        if spec in by_name:
            return by_name[spec]
        known = ", ".join(sorted(by_name))
        raise ScenarioError(f"unknown limit {spec!r} (known: {known}, "
                            "or pass a SAR value in W/kg)") from None
    return ComplianceLimit(f"custom-{spec}", value, "user supplied")


def _run_safe_distance(args: argparse.Namespace) -> int:
    loaded = _load(args)
    limit = _resolve_limit(args.limit, loaded)
    result = min_safe_distance(loaded.scenario, loaded.tissue, limit,
                               DistanceSearch(args.d_lo_m, args.d_hi_m), loaded.quadrature)
    line = result if isinstance(result, str) else f"{result:.8e}"
    _write(args.output, (line + "\n").encode("ascii"))
    return 0


def _run_presets(args: argparse.Namespace) -> int:
    _write("stdout", ("\n".join(preset_names()) + "\n").encode("ascii"))
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns 0 on success, 1 on usage or input errors,
    2 on numerical failures (non-convergence, unreachable limit, arithmetic error)."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except (ConvergenceError, LimitUnreachableError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ScenarioError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
