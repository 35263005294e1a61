import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import kunzlab
from kunzlab.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_kunz(capsys):
    code, out, _ = run_cli(capsys, "validate", "1,2,3")
    assert code == 0
    payload = json.loads(out)
    assert payload == {"word": "1,2,3", "is_kunz": True, "depth": 3,
                       "violations": []}


def test_validate_not_kunz(capsys):
    code, out, _ = run_cli(capsys, "validate", "1,1,3")
    assert code == 1
    payload = json.loads(out)
    assert payload["is_kunz"] is False
    assert payload["violations"] == [
        {"kind": "first", "i": 1, "j": 2, "target": 3}]


def test_validate_empty_word(capsys):
    code, out, _ = run_cli(capsys, "validate", "")
    assert code == 0
    assert json.loads(out) == {"word": "", "is_kunz": True, "depth": 0,
                               "violations": []}


def test_validate_parse_error(capsys):
    code, _, err = run_cli(capsys, "validate", "1,zap")
    assert code == 2
    assert "error" in err


def test_semigroup_from_generators(capsys):
    code, out, _ = run_cli(capsys, "semigroup", "--gens", "3,5,7")
    assert code == 0
    payload = json.loads(out)
    assert payload["kunz"] == [2, 1]
    assert payload["depth"] == 2
    assert list(payload) == ["small_elements", "conductor", "multiplicity",
                             "frobenius", "depth", "apery", "kunz", "genus"]


def test_semigroup_from_word(capsys):
    code, out, _ = run_cli(capsys, "semigroup", "--word", "2,1")
    assert code == 0
    assert json.loads(out)["conductor"] == 5


def test_semigroup_not_cofinite(capsys):
    code, _, err = run_cli(capsys, "semigroup", "--gens", "2,4")
    assert code == 1
    assert "gcd" in err


@pytest.mark.parametrize("gens", ["3,x", "x,5", "4,x,9"])
def test_semigroup_gens_parse_error(gens):
    # a fresh process, so an uncaught exception would show as a traceback
    env = dict(os.environ, PYTHONPATH=str(Path(kunzlab.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "kunzlab", "semigroup", "--gens", gens],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert "error" in proc.stderr


@pytest.mark.parametrize("argv", [
    ("--gens", "20011,20021"),
    ("--gens", "3000000,3000001"),
    ("--word", "2000000"),
])
def test_semigroup_over_conductor_ceiling(argv):
    # refused up front: the first needs a conductor of about 4 * 10^8
    env = dict(os.environ, PYTHONPATH=str(Path(kunzlab.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "kunzlab", "semigroup", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert "over the ceiling" in proc.stderr


def test_semigroup_not_kunz(capsys):
    code, _, err = run_cli(capsys, "semigroup", "--word", "1,1,3")
    assert code == 1


def test_enumerate_count_only_csv(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--depth", "2",
                           "--length", "3", "--count-only")
    assert code == 0
    assert out.splitlines() == ["q,length,count", "2,3,7"]


def test_enumerate_words(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--depth", "3", "--length", "2")
    assert code == 0
    assert json.loads(out) == ["2,3", "3,1", "3,2", "3,3"]


def test_enumerate_depth1(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--depth", "1", "--length", "4")
    assert json.loads(out) == ["1,1,1,1"]


def test_enumerate_ceiling_flag(capsys):
    code, _, err = run_cli(capsys, "enumerate", "--depth", "3", "--length", "8",
                           "--max-candidates", "10")
    assert code == 2
    assert "ceiling" in err


def test_enumerate_ignores_retired_ceiling_env(capsys, monkeypatch):
    # the ceiling is set by --max-candidates alone; the environment
    # variable that once duplicated it is no longer read
    monkeypatch.setenv("KUNZLAB_MAX_CANDIDATES", "10")
    code, _, _ = run_cli(capsys, "enumerate", "--depth", "3", "--length", "8")
    assert code == 0


def test_lba_accept_and_reject(capsys):
    code, out, _ = run_cli(capsys, "lba", "--depth", "3", "--word", "1,2,3")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "accept"
    assert set(payload) == {"verdict", "steps", "cells_used", "bound"}
    code, out, _ = run_cli(capsys, "lba", "--depth", "3", "--word", "1,1,2,3")
    assert code == 1
    assert json.loads(out)["verdict"] == "reject"
    code, out, _ = run_cli(capsys, "lba", "--depth", "3", "--word", "")
    assert code == 1


def test_lba_generic_depth(capsys):
    code, out, _ = run_cli(capsys, "lba", "--depth", "4", "--word", "2,3,4,4")
    assert code == 0
    code, _, err = run_cli(capsys, "lba", "--depth", "2", "--word", "1,2")
    assert code == 2


@pytest.mark.parametrize("depth", [kunzlab.lba.MAX_MACHINE_DEPTH + 1, 10**9])
def test_lba_depth_over_ceiling(capsys, depth):
    code, out, err = run_cli(capsys, "lba", "--depth", str(depth), "--word", "1")
    assert code == 2
    assert out == ""
    assert "ceiling" in err


def test_lba_step_budget_is_not_a_usage_error():
    # a fresh process, so an uncaught exception would show as a traceback
    env = dict(os.environ, PYTHONPATH=str(Path(kunzlab.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "kunzlab", "lba", "--depth", "3", "--word",
         "1,2,3", "--max-steps", "5"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["witness", "--kunz", "3", "1000000000"],
    ["witness", "--nonkunz", "3", "1000000000", "1"],
    ["nerode", "--depth", "5", "--max", "1000000"],
    ["nerode", "--depth", "1000000000", "--max", "2"],
    ["pumping", "--depth", "12", "--p", "5", "--kmax", "1"],
    ["enumerate", "--depth", "1", "--length", "100000"],
    ["validate", ",".join(["1"] * 4097)],
    ["semigroup", "--word", ",".join(["3"] * 4097)],
    ["enumerate", "--depth", "12", "--length", "4000", "--count-only"],
    ["pumping", "--depth", "100000", "--p", "2", "--kmax", "1"],
    ["nerode", "--depth", "3", "--max", "7" * 1200],
    ["witness", "--kunz", "9" * 3000, "9" * 3000],
], ids=["witness-kunz", "witness-nonkunz", "nerode-cutoff", "nerode-depth",
        "pumping-witness", "enumerate-depth1", "validate-long-word",
        "semigroup-long-word", "enumerate-huge-count", "pumping-huge-exponent",
        "nerode-huge-cutoff", "witness-huge-length"])
def test_extreme_witness_and_nerode_arguments_are_refused(argv):
    """Each would build billions of letters, run for minutes or more, or
    list Theta(l^2) violations (one argument holds about 65K letters, and
    4,097 is the fewest refused); the up-front ceilings refuse them before
    any of that work.  Sizes of over 4,300 digits, which Python cannot
    print, are refused as "2^64 or more"."""
    env = dict(os.environ, PYTHONPATH=str(Path(kunzlab.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "kunzlab", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ") and "ceiling" in proc.stderr


@pytest.mark.parametrize("budget", ["-1", "0"])
def test_lba_step_budget_below_one_is_a_usage_error(budget):
    env = dict(os.environ, PYTHONPATH=str(Path(kunzlab.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "kunzlab", "lba", "--depth", "3", "--word",
         "1,2,3", "--max-steps", budget],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


def test_lba_trace_goes_to_stderr(capsys):
    code, out, err = run_cli(capsys, "lba", "--depth", "3", "--word", "1,2,3",
                             "--trace")
    assert code == 0
    json.loads(out)  # stdout stays pure JSON
    lines = err.strip().splitlines()
    assert lines and lines[0].split("\t")[2] == "step1.mark"
    assert len(lines[0].split("\t")) == 3 + 5


def test_lba_long_trace_is_truncated(capsys):
    argv = ["lba", "--depth", "3", "--word", ",".join(["3"] + ["1"] * 25)]
    code, out, err = run_cli(capsys, *argv, "--trace")
    lines = err.splitlines()
    assert len(lines) == 10_000 + 1
    assert all(len(line.split("\t")) == 3 + 5 for line in lines[:-1])
    assert lines[-1] == "... trace truncated"
    assert (code, out, "") == run_cli(capsys, *argv)


def test_witness_commands(capsys):
    code, out, _ = run_cli(capsys, "witness", "--kunz", "3", "2")
    assert code == 0
    assert json.loads(out) == {"word": "1,1,2,2,3", "is_kunz": True, "depth": 3}
    code, out, _ = run_cli(capsys, "witness", "--nonkunz", "3", "2", "1")
    assert json.loads(out) == {"word": "1,1,1,2,2,3", "is_kunz": False,
                               "depth": 3}


def test_witness_domain_error(capsys):
    code, _, err = run_cli(capsys, "witness", "--kunz", "2", "1")
    assert code == 2


def test_nerode_command(capsys):
    code, out, _ = run_cli(capsys, "nerode", "--depth", "3", "--max", "3")
    assert code == 0
    records = json.loads(out)
    assert len(records) == 3
    assert records[0] == {"i": 1, "j": 2, "suffix": "2,3", "member_i": True,
                          "member_j": False}


def test_pumping_command(capsys):
    code, out, _ = run_cli(capsys, "pumping", "--depth", "5", "--p", "1",
                           "--kmax", "4")
    assert code == 0
    records = json.loads(out)
    assert records and all(r["reason"] != "unrefuted" for r in records)


def test_pumping_incomplete_refutation(capsys):
    code, out, _ = run_cli(capsys, "pumping", "--depth", "5", "--p", "1",
                           "--kmax", "1")
    assert code == 1
    records = json.loads(out)
    assert any(r["reason"] == "unrefuted" for r in records)


def test_pumping_refuses_small_depth(capsys):
    code, _, err = run_cli(capsys, "pumping", "--depth", "4", "--p", "1",
                           "--kmax", "4")
    assert code == 2


def _lying_membership(monkeypatch):
    monkeypatch.setattr(kunzlab.languages, "in_kunz_language",
                        lambda word, q: False)


def _empty_marking(monkeypatch):
    monkeypatch.setattr(kunzlab.languages, "mark_for_refutation",
                        lambda word, q: kunzlab.PositionMarking(frozenset(),
                                                                frozenset()))


@pytest.mark.parametrize("fault,argv", [
    (_lying_membership, ("nerode", "--depth", "3", "--max", "3")),
    (_empty_marking, ("pumping", "--depth", "5", "--p", "1", "--kmax", "4")),
])
def test_self_check_failure_is_internal(capsys, monkeypatch, fault, argv):
    fault(monkeypatch)
    code, out, err = run_cli(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert "Traceback" not in err
