"""Span tracing for the wearemf benchmark, and the per-layer numbers made from it.

A Tracer wraps every public function of wearemf's modules at each module
attribute through which callers look it up (``wearemf.compliance.sar_avg``,
``wearemf.link.gain_dbi``, ``wearemf.sweep``, ...), so calls between modules
and within a module are both recorded.  Used as a context manager it installs
the wrappers on entry and restores the originals on exit.  Each call appends
one span ``(name, start, end, parent, note)`` to ``Tracer.spans``; ``parent``
is the index of the enclosing span or -1.  ``note`` carries the row and byte
counts of sweeps and emissions, which per-row metrics need.

LayerStats folds a list of spans into per-layer sums, so a long traced run can
drop its spans after each operation instead of holding millions of them.

Run as a script, this module is a traced stand-in for ``python -m wearemf``:
it installs a Tracer and calls ``wearemf.cli.main`` with its arguments.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

MODULES = ("antenna", "link", "exposure", "compliance", "scenario", "cli")

# spans whose descendants count as per-row work
SWEEP = "compliance.sweep"
SOLVE = "compliance.min_safe_distance"
SAR_AVG = "exposure.sar_avg"
GAIN = "antenna.gain_dbi"
EMIT = "scenario.emit_results"
COLD_REGION = "probe.cold."
CLI_REGION = "probe.cli."


def _rows_note(fn, args, kwargs, result):
    return len(result)


def _emit_note(fn, args, kwargs, result):
    # emit_results(rows, fmt): read both by position, whatever their names
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    rows, fmt = list(bound.arguments.values())[:2]
    return (fmt, len(rows), len(result))


NOTES = {SWEEP: _rows_note, EMIT: _emit_note}


def public_functions():
    """Map each public wearemf function to its span name, ``module.function``."""
    names = {}
    for short in MODULES:
        module = importlib.import_module(f"wearemf.{short}")
        public = list(getattr(module, "__all__", ()))
        if short == "cli":
            public.append("main")
        for attr in public:
            fn = getattr(module, attr, None)
            if (callable(fn) and not inspect.isclass(fn)
                    and getattr(fn, "__module__", None) == module.__name__):
                names[fn] = f"{short}.{attr}"
    return names


class Tracer:
    """Records a span for every call into a public wearemf function."""

    def __init__(self) -> None:
        import wearemf

        self.spans: list = []
        self._stack: list[int] = []
        wrappers = {id(fn): self._wrap(fn, name) for fn, name in public_functions().items()}
        modules = [wearemf] + [importlib.import_module(f"wearemf.{m}") for m in MODULES]
        self._patches = [(module, attr, value, wrappers[id(value)])
                         for module in modules
                         for attr, value in vars(module).items()
                         if id(value) in wrappers]

    def _wrap(self, fn, name):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        note = NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, None)
            if note is not None:
                spans[index] = (name, start, end, parent, note(fn, args, kwargs, result))
            return result

        return traced

    @contextmanager
    def region(self, name: str):
        """A span opened by the benchmark itself, to label the calls inside it."""
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, None)

    def __enter__(self) -> "Tracer":
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


class LayerStats:
    """Per-layer sums over the spans of one traced run."""

    def __init__(self) -> None:
        self.samples = defaultdict(list)   # key -> durations in s, for medians
        self.seconds = defaultdict(float)  # key -> summed time in s
        self.counts = defaultdict(int)     # key -> calls, rows or bytes
        self.calls = defaultdict(lambda: [0, 0.0, 0.0])  # span name -> calls, total s, self s

    def fold(self, spans: list) -> None:
        """Add a completed list of spans; the caller may then clear it."""
        inner = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                inner[parent] += end - start
        in_sweep = [False] * len(spans)
        for i, (name, start, end, parent, note) in enumerate(spans):
            duration = end - start
            own = duration - inner[i]
            parent_name = spans[parent][0] if parent >= 0 else ""
            if parent >= 0:
                in_sweep[i] = in_sweep[parent] or parent_name == SWEEP
            row = self.calls[name]
            row[0] += 1
            row[1] += duration
            row[2] += own

            if name == SWEEP:
                self.seconds["sweep.self"] += own
                self.counts["sweep.rows"] += note or 0
            elif name == EMIT and note is not None:
                fmt, rows, size = note
                self.seconds[f"emit.{fmt}"] += duration
                self.counts[f"emit.{fmt}.rows"] += rows
                self.counts[f"emit.{fmt}.bytes"] += size
            elif name == SOLVE:
                self.samples["solve"].append(duration)
            elif name == SAR_AVG:
                if parent_name == SOLVE:
                    self.counts["solve.sar_avg"] += 1
                if in_sweep[i]:
                    self.samples["sar_avg.warm"].append(duration)
                    self.counts["sweep.sar_avg"] += 1
                if parent_name.startswith(COLD_REGION):
                    self.samples[parent_name].append(duration)
            elif name == GAIN:
                self.samples["gain_dbi"].append(duration)
                if in_sweep[i]:
                    self.counts["sweep.gain_dbi"] += 1
            elif name == "cli.main" and parent_name.startswith(CLI_REGION):
                self.samples[parent_name].append(duration)
            elif name == "scenario.load_preset":
                self.samples["load_preset"].append(duration)
            elif name == "scenario.load_scenario" and parent_name != "scenario.load_preset":
                self.samples["load_scenario"].append(duration)
            if name.startswith("link.") and in_sweep[i]:
                self.seconds["link.self"] += own
                self.counts["link.calls"] += 1

    def metrics(self, cli_commands, cold_classes) -> dict[str, float]:
        """Per-layer metric values, keyed by their BENCHMARK.json names."""
        rows = self.counts["sweep.rows"]
        solves = len(self.samples["solve"])
        out = {}
        for command in cli_commands:
            out[f"cli.main_ms.{command}"] = 1e3 * _median(self.samples[CLI_REGION + command])
        out["scenario.load_preset_ms"] = 1e3 * _median(self.samples["load_preset"])
        out["scenario.load_scenario_ms"] = 1e3 * _median(self.samples["load_scenario"])
        for fmt in ("csv", "json"):
            emitted = self.counts[f"emit.{fmt}.rows"]
            out[f"scenario.emit_{fmt}_us_per_row"] = 1e6 * _ratio(self.seconds[f"emit.{fmt}"], emitted)
            out[f"scenario.emit_bytes_per_row.{fmt}"] = _ratio(self.counts[f"emit.{fmt}.bytes"], emitted)
        out["compliance.sweep_self_us_per_row"] = 1e6 * _ratio(self.seconds["sweep.self"], rows)
        out["compliance.solve_ms"] = 1e3 * _median(self.samples["solve"])
        out["compliance.sar_avg_calls_per_solve"] = _ratio(self.counts["solve.sar_avg"], solves)
        for kind, samples in cold_classes:
            key = f"n{samples}.{kind}"
            out[f"exposure.sar_avg_cold_ms.{key}"] = 1e3 * _median(self.samples[COLD_REGION + key])
        out["exposure.sar_avg_warm_us"] = 1e6 * _median(self.samples["sar_avg.warm"])
        out["exposure.sar_avg_calls_per_row"] = _ratio(self.counts["sweep.sar_avg"], rows)
        out["link.self_us_per_row"] = 1e6 * _ratio(self.seconds["link.self"], rows)
        out["link.calls_per_row"] = _ratio(self.counts["link.calls"], rows)
        out["antenna.gain_dbi_us"] = 1e6 * _median(self.samples["gain_dbi"])
        out["antenna.gain_dbi_calls_per_row"] = _ratio(self.counts["sweep.gain_dbi"], rows)
        return out

    def table(self) -> str:
        """Calls, total and self milliseconds per span name, busiest first."""
        lines = [f"{'span':<36} {'calls':>9} {'total_ms':>11} {'self_ms':>11}"]
        for name, (calls, total, own) in sorted(self.calls.items(), key=lambda kv: -kv[1][2]):
            lines.append(f"{name:<36} {calls:>9} {1e3 * total:>11.2f} {1e3 * own:>11.2f}")
        return "\n".join(lines)


def main(argv: list[str]) -> int:
    with Tracer():
        from wearemf import cli

        return cli.main(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
