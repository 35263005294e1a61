"""Run-to-run spread of the end-to-end metrics, as the acceptance rule
computes it: for each metric, the distance between the first and third
quartiles of its values over several seeds, as a share of their median.

    python3 perfbench/spread.py --workload machine --seeds 1 2 3 4 5

Prints one line per metric with its median, spread and bound, and exits
1 if a spread (setup_s aside) exceeds a third of the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        cmd = spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                                 "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180,
                              check=True)
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.5g}" for k, v in report["metrics"].items()), flush=True)
        for name, metric in report["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    steady = True
    for metric in spec["end_to_end"]:
        name, vals = metric["name"], values[metric["name"]]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        ok = name == "setup_s" or spread < metric["bound"] / 3
        steady &= ok
        print(f"{name:12s} median={med:.6g} spread={spread:.4f} "
              f"bound={metric['bound']} {'ok' if ok else 'WIDE'}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
