"""Tests of the benchmark itself (not part of the program's test suite).

    python3 -m pytest -q perfbench

They check that BENCHMARK.json matches the metrics the code reports,
that the exact counters repeat bit for bit at one seed, that the traced
counters reproduce the work counts the roadmap recorded when it profiled
the program, and that the reference census agrees with a brute force
written from the definition.
"""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess

import pytest

import harness
import layers
import oracles
import pace
import run
import spans

SPEC = json.loads((harness.ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_lists_what_the_runs_report():
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] \
        == [tuple(m) for m in layers.PER_LAYER]
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(harness.END_TO_END)
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


def _traced_counters(workload, seed):
    r = harness.Run(workload, seed, seconds=0, trace=True)
    r.set_up()
    r.measure()
    values = r.per_layer()
    counts = {name: values[name] for name, unit, _ in layers.PER_LAYER if unit == "count"}
    return counts, r.tally


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_counters_repeat_exactly_at_one_seed(name):
    first, tally = _traced_counters(run.WORKLOADS[name], seed=7)
    second, _ = _traced_counters(run.WORKLOADS[name], seed=7)
    assert first == second
    assert tally[harness.WRONG] == 0
    assert first["ops"] >= 30


def test_census_counters_match_the_census():
    counts, _ = _traced_counters(run.WORKLOADS["census"], seed=1)
    assert counts["semigroups.enumerate_semigroups.found"] == 83_136
    assert counts["languages.count_kunz.search_space"] == sum(
        q**l for q, l in run.WORKLOADS["census"].cells())
    assert counts["languages.separations"] == 8 * 45


def _steps(kz, machine, letters):
    tracer = spans.Tracer()
    tracer.rep = 0
    with spans.patched(tracer, layers.probes(kz)):
        try:
            kz.lba.run(machine, kz.words.Word(letters))
        except kz.StepBudgetExceeded:
            pass
    return tracer.counts[0]


def test_machine_counters_reproduce_the_profiled_step_counts():
    kz = harness.import_program()
    k3 = kz.lba.build_k3_machine()
    for n, steps in ((4, 312), (9, 2_277), (19, 17_157), (39, 132_717), (69, 700_557)):
        assert _steps(kz, k3, oracles.block_witness(3, n))["lba.steps"] == steps, \
            f"K_3 witness of length {2 * n + 1}"
    assert _steps(kz, kz.lba.build_kn_machine(5), oracles.block_witness(5, 19)) \
        ["lba.steps"] == 589_899
    over = _steps(kz, k3, oracles.block_witness(3, 79))  # length 159
    assert over["lba.budget_exceeded"] == 1
    assert over["lba.steps"] == kz.lba.DEFAULT_STEP_BUDGET


def test_pace_follows_the_units_around_each_operation():
    slow, fast = 2 * pace.NOMINAL_S, pace.NOMINAL_S / 2
    starts = [float(i) for i in range(40)]
    paces = pace.paces([slow] * 20 + [fast] * 20, starts, [0.5] * 40)
    assert paces[:20 - pace.WINDOW] == [0.5] * (20 - pace.WINDOW)
    assert paces[20 + pace.WINDOW:] == [2.0] * (20 - pace.WINDOW)
    # a long operation is paced by every unit timed across its span
    long_op = pace.paces([slow] * 20 + [fast] * 20, starts, [0.5] * 9 + [20.0] + [0.5] * 30)
    assert long_op[9] == pace.NOMINAL_S / ((slow + fast) / 2)
    assert 0 < pace.unit() < 1


def test_reference_census_matches_brute_force():
    for q in range(1, 6):
        for length in range(0, 6):
            brute = tuple(w for w in itertools.product(range(1, q + 1), repeat=length)
                          if oracles.in_language(w, q))
            assert oracles.census_words(q, length) == brute


def test_reference_semigroup_basics():
    s = oracles.semigroup_dict((3, 5, 7))
    assert s["small_elements"] == [0, 3, 5] and s["frobenius"] == 4
    assert s["apery"] == [0, 7, 5] and s["kunz"] == [2, 1] and s["genus"] == 3


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(harness.BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(harness.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        SPEC["command"] + ["--workload", "census", "--seed", "1", "--seconds", "1",
                           "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
