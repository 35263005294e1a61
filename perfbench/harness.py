"""Closed-loop runner shared by the four workloads.

One client, one thread: each operation starts when the previous one has
finished.  A workload turns the seed into a fixed batch of operations;
the run repeats that same batch until ``--seconds`` is used up (always
at least once, and in a traced run at least one untraced and one traced
repetition), so every repetition does identical work.  Outputs are
checked after each repetition, outside the timed region, against the
reference answers in ``oracles``.  Every time reported with tracing
off is scaled to the reference host pace (see ``pace``); the raw times
are printed beside them.

A workload module provides

    NAME
    setup(kz) -> ctx                program work paid before the first operation
    batch(rng) -> [op, ...]         the seeded operations, op[0] naming its kind
    execute(kz, ctx, op, tr)        the timed program calls; returns raw outputs
    check(ctx, op, out, tr)         -> (OK | FAILED | WRONG, detail)

and optionally ``setup_sample(ctx)`` (set-up timed another way),
``PACE = (timer, nominal)`` (a pace unit other than ``pace.unit``),
``RSS = "children"`` (peak memory of its subprocesses rather than its
own) and ``layer_extras(ops, latencies)`` (per-layer values computed
from operation latencies).
"""

from __future__ import annotations

import math
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers
import pace
import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench"

OK, FAILED, WRONG = "ok", "failed", "wrong"
SETUP_SAMPLES = (5, 15)  # fewest and most set-up samples in a run
SETUP_SECONDS = 3.0  # past the fewest, sample while set-up has taken less
MIN_OPS = 100  # so that at least ten latency samples lie beyond p90

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("ok_rate", "ratio"),
    ("peak_rss_mb", "MB"),
)


class Raised:
    """An exception an operation ended with, kept as its output."""

    def __init__(self, exc: Exception):
        self.exc = exc

    def __repr__(self):
        return f"{type(self.exc).__name__}: {self.exc}"


def import_program():
    """Import kunzlab from this checkout's src/, refusing any other copy."""
    sys.path.insert(0, str(SRC))
    import kunzlab
    import kunzlab.lba  # the package does not import it itself

    if Path(kunzlab.__file__).resolve().parent.parent != SRC.resolve():
        raise ImportError(f"kunzlab imported from {kunzlab.__file__}, not {SRC}")
    return kunzlab


def timed_setup(workload):
    """Seconds from the first import of kunzlab to the end of the
    workload's set-up, with the module and the set-up context."""
    t0 = time.perf_counter()
    kz = import_program()
    ctx = workload.setup(kz)
    return time.perf_counter() - t0, kz, ctx


def child_setup_sample(name: str) -> float:
    """One set-up time, measured in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", name, "--setup-probe"],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1])


def nearest_rank(sorted_values, p: float) -> float:
    """The value at rank ceil(p * n) of an ascending list."""
    return sorted_values[max(0, math.ceil(p * len(sorted_values)) - 1)]


class Run:
    """One benchmark run: set-up, repeated batches, checks, metrics."""

    def __init__(self, workload, seed: int, seconds: float, trace: bool):
        self.wl = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.tracer = spans.Tracer() if trace else spans.NULL
        self.pace_unit, self.pace_nominal = getattr(
            workload, "PACE", (pace.unit, pace.NOMINAL_S))
        self.ops = workload.batch(random.Random(seed))
        self.times: list[list[float]] = []  # per repetition, per op, as timed
        self.latencies: list[list[float]] = []  # the same, failed ops as +inf
        self.units: list[float] = []  # pace unit before each op, all repetitions
        self.starts: list[float] = []  # start of each op, all repetitions
        self.traced_reps: list[int] = []
        self.tally = {OK: 0, FAILED: 0, WRONG: 0}
        self.bad_per_rep: list[int] = []
        self.problems: list[str] = []
        self.unrepeatable: list[str] = []  # work that differed between repetitions

    def set_up(self) -> None:
        if self.trace:
            # set-up spans (machine compiles) land in repetition -1
            t0 = time.perf_counter()
            kz = import_program()
            self.probes = layers.probes(kz)
            with spans.patched(self.tracer, self.probes):
                ctx = self.wl.setup(kz)
            self.setup_times = self.setup_raw = [time.perf_counter() - t0]
        else:
            got = {}

            def first():
                seconds, got["kz"], got["ctx"] = timed_setup(self.wl)
                return seconds

            sampler = getattr(self.wl, "setup_sample", None)

            def measures():
                started = time.perf_counter()
                if sampler:  # replaces the in-process sample
                    first()
                else:
                    yield first
                fewest, most = SETUP_SAMPLES
                for n in range(0 if sampler else 1, most):
                    if n >= fewest and time.perf_counter() - started > SETUP_SECONDS:
                        break
                    yield (lambda: sampler(got["ctx"])) if sampler \
                        else (lambda: child_setup_sample(self.wl.NAME))

            self.setup_times, self.setup_raw = pace.interleaved(
                measures(), self.pace_unit, self.pace_nominal)
            kz, ctx = got["kz"], got["ctx"]
        self.kz, self.ctx = kz, ctx

    def _run_batch(self, tr) -> tuple[list, list[float]]:
        outs, lats = [], []
        kz, ctx, execute = self.kz, self.ctx, self.wl.execute
        traced = tr is not spans.NULL
        clock, unit, units, starts = time.perf_counter, self.pace_unit, self.units, self.starts
        for idx, op in enumerate(self.ops):
            if traced:
                tr.op = idx
            units.append(unit())
            t0 = clock()
            starts.append(t0)
            try:
                out = execute(kz, ctx, op, tr)
            except Exception as exc:  # the operation's outcome; check() judges it
                out = Raised(exc)
            lats.append(clock() - t0)
            outs.append(out)
        return outs, lats

    def repetition(self, traced: bool) -> None:
        rep = len(self.latencies)
        tr = self.tracer if traced else spans.NULL
        if traced:
            self.tracer.rep = rep
            self.traced_reps.append(rep)
        with spans.patched(self.tracer, self.probes if traced else ()):
            outs, lats = self._run_batch(tr)
        self.times.append(list(lats))
        bad = 0
        for idx, (op, out) in enumerate(zip(self.ops, outs)):
            verdict, detail = self.wl.check(self.ctx, op, out, tr)
            self.tally[verdict] += 1
            if verdict != OK:
                bad += 1
                lats[idx] = math.inf  # a failed operation misses every limit
                if rep == 0:
                    self.problems.append(f"{verdict}: {op!r:.100}: {detail:.200}")
        self.bad_per_rep.append(bad)
        self.latencies.append(lats)

    def measure(self) -> None:
        deadline = time.perf_counter() + self.seconds
        plan = (False, True) if self.trace else (False,)
        while True:
            t0 = time.perf_counter()
            for traced in plan:
                self.repetition(traced)
            enough = self.trace or len(self.ops) * len(self.latencies) >= MIN_OPS
            if enough and time.perf_counter() + (time.perf_counter() - t0) > deadline:
                break
        if self.trace:
            self.tracer.write(OUT / f"spans-{self.wl.NAME}-{self.seed}.tsv")

    def peak_rss_mb(self) -> float:
        who = resource.RUSAGE_CHILDREN if getattr(self.wl, "RSS", "self") == "children" \
            else resource.RUSAGE_SELF
        return resource.getrusage(who).ru_maxrss / 1024  # KiB on Linux

    def _paced(self) -> list[list[float]]:
        """self.times, each scaled to the reference pace."""
        f = iter(pace.paces(self.units, self.starts, [x for times in self.times for x in times],
                            self.pace_nominal))
        return [[x * next(f) for x in times] for times in self.times]

    def _timings(self, scaled, setup_times) -> dict[str, float]:
        flat = sorted(math.inf if math.isinf(lat) else x
                      for times, lats in zip(scaled, self.latencies)
                      for x, lat in zip(times, lats))
        return {
            "setup_s": statistics.median(setup_times),
            "wall_s": statistics.median(sum(times) for times in scaled),
            "op_p50_ms": nearest_rank(flat, 0.50) * 1e3,
            "op_p90_ms": nearest_rank(flat, 0.90) * 1e3,
        }

    def raw_timings(self) -> dict[str, float]:
        """The end-to-end times as measured, before pace scaling."""
        return self._timings(self.times, self.setup_raw)

    def end_to_end(self) -> dict[str, float]:
        """Untraced metrics; every time scaled to the reference pace."""
        return {
            **self._timings(self._paced(), self.setup_times),
            "ok_rate": self.tally[OK] / sum(self.tally.values()),
            "peak_rss_mb": self.peak_rss_mb(),
        }

    def per_layer(self) -> dict[str, float]:
        reps = [self.tracer.rep_summary(r) for r in self.traced_reps]
        values = layers.layer_metrics(self.tracer.rep_summary(-1), reps)
        if any(r["counts"] != reps[0]["counts"] for r in reps):
            self.unrepeatable.append("counters differ between traced repetitions")
        extras = getattr(self.wl, "layer_extras", None)
        if extras:
            values.update(extras(self.ops, self.latencies))
        walls = {False: [], True: []}
        for rep, times in enumerate(self._paced()):
            walls[rep in self.traced_reps].append(sum(times))
        untraced = statistics.median(walls[False])
        values["trace.overhead_share"] = (
            statistics.median(walls[True]) - untraced) / untraced
        values["ops"] = len(self.ops)
        values["error_rate"] = self.bad_per_rep[0] / len(self.ops)
        return values

    def result(self) -> dict:
        """The final report; ``correct`` is false on any wrong answer and
        on any work that did not repeat exactly across repetitions."""
        if self.trace:
            values = self.per_layer()
            metrics = {name: {"value": values.get(name, 0), "unit": unit}
                       for name, unit, _ in layers.PER_LAYER}
        else:
            values = self.end_to_end()
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit in END_TO_END}
        if len(set(self.bad_per_rep)) > 1:
            self.unrepeatable.append(f"failures per repetition differ: {self.bad_per_rep}")
        return {
            "correct": self.tally[WRONG] == 0 and not self.unrepeatable,
            "attempted": sum(self.tally.values()),
            "failed": self.tally[FAILED] + self.tally[WRONG],
            "metrics": metrics,
        }
