"""kunzlab benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload census --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; kunzlab is imported from its src/.
With ``--trace 0`` the last line of stdout is a JSON object holding the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of
a traced run, and the spans go to .perfbench/spans-<workload>-<seed>.tsv.
The lines before it give each metric with its unit and sample count.
Exits 2 without a result when the program cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

import census
import cli_mix
import construct
import harness
import machine

WORKLOADS = {wl.NAME: wl for wl in (census, construct, machine, cli_mix)}


def describe(run: harness.Run, report: dict) -> list[str]:
    """Human-readable lines: every metric with its unit, and the counts
    the percentiles rest on."""
    n_ops = sum(len(lats) for lats in run.latencies)
    lines = [
        f"workload={run.wl.NAME} seed={run.seed} trace={int(run.trace)} "
        f"batch={len(run.ops)} ops, repetitions={len(run.latencies)} "
        f"(traced {len(run.traced_reps)}), "
        f"latency samples={n_ops}, set-up samples={len(run.setup_times)}",
        f"attempted={report['attempted']} failed={report['failed']} "
        f"error_rate={report['failed'] / report['attempted']:.6f} "
        f"correct={report['correct']}",
    ]
    for name, metric in report["metrics"].items():
        lines.append(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    if not run.trace:
        raw = run.raw_timings()
        lines.append(
            f"  times above are at the reference pace; as measured: "
            f"setup_s={raw['setup_s']:.6g} wall_s={raw['wall_s']:.6g} "
            f"op_p50_ms={raw['op_p50_ms']:.6g} op_p90_ms={raw['op_p90_ms']:.6g}; "
            f"median pace unit {statistics.median(run.units) * 1e3:.4g} ms "
            f"(reference {run.pace_nominal * 1e3:g} ms)")
    lines += [f"  ! {p}" for p in run.problems + run.unrepeatable]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="print one set-up time and exit (used by the run itself)")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    if not (harness.SRC / "kunzlab" / "__init__.py").is_file():
        print(f"error: no kunzlab sources under {harness.SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        seconds, _, _ = harness.timed_setup(workload)
        print(repr(seconds))
        return 0

    run = harness.Run(workload, args.seed, args.seconds, bool(args.trace))
    run.set_up()
    run.measure()
    report = run.result()
    print("\n".join(describe(run, report)))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
