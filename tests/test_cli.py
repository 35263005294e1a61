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


def test_enumerate_counts_k3_past_the_listing_ceiling(capsys):
    # 3^15 candidate words would be refused, but the count visits 2^15 sets
    code, out, _ = run_cli(capsys, "enumerate", "--depth", "3",
                           "--length", "15", "--count-only")
    assert code == 0
    assert out.splitlines() == ["q,length,count", "3,15,2561984"]


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


@pytest.mark.parametrize("argv", [
    ("enumerate", "--depth", "3", "--length", "3", "--max-candidates", "-5"),
    ("enumerate", "--depth", "0", "--length", "0", "--count-only",
     "--max-candidates", "-5"),
    ("pumping", "--depth", "5", "--p", "1", "--kmax", "4", "--max-candidates", "-5"),
])
def test_ceiling_below_one_is_a_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "error: the candidate ceiling must be at least 1, got -5\n"


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


def test_lba_long_depth6_witness_fits_the_default_budget(capsys):
    """The length-121 block witness 1^24 2^24 ... 5^24 6 takes
    (2l+1)(l+1) steps on three tracks over l+1 cells."""
    word = ",".join([str(v) for v in range(1, 6) for _ in range(24)] + ["6"])
    code, out, _ = run_cli(capsys, "lba", "--depth", "6", "--word", word)
    assert code == 0
    assert json.loads(out) == {"verdict": "accept", "steps": 29_646,
                               "cells_used": 3 * 122, "bound": 3 * 123}


def test_lba_long_depth3_witness_fits_the_default_budget(capsys):
    """The length-159 block witness 1^79 2^79 3 takes (2l+1)(l+1) steps
    on three tracks over l+1 cells."""
    word = str(kunzlab.witness_kunz(3, 79))
    code, out, _ = run_cli(capsys, "lba", "--depth", "3", "--word", word)
    assert code == 0
    assert out == ('{"verdict": "accept", "steps": 51040, "cells_used": 480, '
                   '"bound": 483}\n')


def test_lba_over_budget_message_shows_the_length(capsys):
    word = str(kunzlab.witness_kunz(3, 353))
    code, out, err = run_cli(capsys, "lba", "--depth", "3", "--word", word,
                             "--max-steps", "1000")
    assert code == 3
    assert out == ""
    assert err == "error: k3 passed 1000 steps on a word of length 707\n"


def test_lba_long_traced_word_is_refused(capsys):
    word = ",".join(["1"] * 4096 + ["3"])
    code, out, err = run_cli(capsys, "lba", "--depth", "3", "--trace",
                             "--word", word)
    assert code == 2
    assert out == ""
    assert err == "error: a traced word of length 4097 is over the ceiling 4096\n"


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
    ["enumerate", "--depth", "2", "--length", "15000", "--count-only"],
], ids=["witness-kunz", "witness-nonkunz", "nerode-cutoff", "nerode-depth",
        "pumping-witness", "enumerate-depth1", "validate-long-word",
        "semigroup-long-word", "enumerate-huge-count", "pumping-huge-exponent",
        "nerode-huge-cutoff", "witness-huge-length", "enumerate-unprintable-count"])
def test_extreme_witness_and_nerode_arguments_are_refused(argv):
    """Each would build billions of letters, run for minutes or more, or
    list Theta(l^2) violations (one argument holds about 65K letters, and
    4,097 is the fewest refused); the up-front ceilings refuse them before
    any of that work.  Sizes of over 4,300 digits, which Python cannot
    print, are refused as "2^64 or more", and so is a count that long."""
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
    assert len(lines[0].split("\t")) == 3 + 3


def test_lba_long_trace_is_truncated(capsys):
    argv = ["lba", "--depth", "3", "--word",
            str(kunzlab.witness_kunz(3, 35))]  # 10,296 steps
    code, out, err = run_cli(capsys, *argv, "--trace")
    lines = err.splitlines()
    assert len(lines) == 10_000 + 1
    assert all(len(line.split("\t")) == 3 + 3 for line in lines[:-1])
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
    # nerode decides its probe words from their block sizes
    monkeypatch.setattr(kunzlab.languages, "_blocks_kunz", lambda sizes: False)


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


# Runs ``python -m kunzlab`` with the given arguments and prints, as the
# last line of stderr, the modules the run loaded beyond interpreter start.
_MODULE_PROBE = """
import runpy, sys
before = set(sys.modules)
sys.argv[0] = "kunzlab"
try:
    runpy.run_module("kunzlab", run_name="__main__", alter_sys=True)
except SystemExit:
    pass
print(" ".join(sorted(set(sys.modules) - before)), file=sys.stderr)
"""


@pytest.mark.parametrize("argv", [
    ["--help"],
    ["validate", "1,2,3"],
    ["semigroup", "--gens", "3,5,7"],
    ["semigroup", "--word", "2,1"],
    ["enumerate", "--depth", "3", "--length", "4"],
    ["lba", "--depth", "3", "--word", "1,2,3"],
    ["witness", "--kunz", "3", "2"],
    ["nerode", "--depth", "3", "--max", "3"],
    ["pumping", "--depth", "5", "--p", "1", "--kmax", "4"],
], ids=lambda argv: "-".join(argv[:2]))
def test_each_subcommand_imports_only_what_it_needs(argv):
    env = dict(os.environ, PYTHONPATH=str(Path(kunzlab.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", _MODULE_PROBE, *argv],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stderr.splitlines()[-1].split())
    assert "kunzlab.cli" in loaded
    assert not loaded & {"dataclasses", "inspect"}
    assert ("kunzlab.lba" in loaded) == (argv[0] == "lba")
    # the word layer owns the Kunz scan: only semigroup reads semigroups
    assert ("kunzlab.semigroups" in loaded) == (argv[0] == "semigroup")
    if argv[0] in ("validate", "semigroup", "witness"):
        assert "kunzlab.languages" not in loaded
    if argv[0] == "--help":
        computational = {f"kunzlab.{name}" for name in
                         ("words", "semigroups", "languages", "lba")}
        assert not loaded & computational


def test_lba_default_budget_is_the_library_default(capsys):
    """Without --max-steps the run trips at lba.DEFAULT_STEP_BUDGET, as
    with that budget given explicitly: the flag keeps no copy of it."""
    word = str(kunzlab.witness_kunz(3, 353))  # 1,001,820 steps
    code, out, err = run_cli(capsys, "lba", "--depth", "3", "--word", word)
    assert (code, out) == (3, "")
    assert f" passed {kunzlab.lba.DEFAULT_STEP_BUDGET} steps " in err
    explicit = run_cli(capsys, "lba", "--depth", "3", "--word", word,
                       "--max-steps", str(kunzlab.lba.DEFAULT_STEP_BUDGET))
    assert explicit == (code, out, err)


def test_enumerate_default_ceiling_is_the_library_default(capsys):
    """Without --max-candidates the census refuses at
    languages.DEFAULT_CANDIDATE_CEILING, as with that ceiling given
    explicitly: the flag keeps no copy of it."""
    from kunzlab.languages import DEFAULT_CANDIDATE_CEILING

    argv = ["enumerate", "--depth", "3", "--length", "15"]  # 3^15 > 10^7
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == (f"error: {3**15} candidate words exceed the ceiling "
                   f"{DEFAULT_CANDIDATE_CEILING}\n")
    explicit = run_cli(capsys, *argv, "--max-candidates",
                       str(DEFAULT_CANDIDATE_CEILING))
    assert explicit == (code, out, err)


@pytest.mark.parametrize("argv,code", [
    (["validate", "0"], 2),
    (["validate", "1,,2"], 2),
    (["semigroup", "--gens", ""], 2),
    (["semigroup", "--word", "0"], 2),
    (["enumerate", "--depth", "-1", "--length", "3"], 2),
    (["enumerate", "--depth", "3", "--length", "100000000000"], 2),
    (["enumerate", "--depth", "100000000000", "--length", "2"], 2),
    (["lba", "--depth", "25", "--word", "1"], 2),
    (["lba", "--depth", "3", "--word", "1,x"], 2),
    (["lba", "--depth", "3", "--word", "1,2,3", "--max-steps", "0"], 2),
    (["witness", "--kunz", "100000000000000000000", "1"], 2),
    (["witness", "--nonkunz", "3", "1", "0"], 2),
    (["nerode", "--depth", "100000000000000000000", "--max", "2"], 2),
    (["pumping", "--depth", "5", "--p", "100000000000000000000", "--kmax", "1"], 2),
    (["pumping", "--depth", "5", "--p", "2", "--kmax", "1"], 2),
    (["semigroup", "--gens", "2,4"], 1),
    (["semigroup", "--word", "1,3"], 1),
    (["lba", "--depth", "3", "--word", "3", "--max-steps", "1"], 3),
], ids=lambda value: " ".join(a or "''" for a in value) if isinstance(value, list) else None)
def test_malformed_and_extreme_arguments_exit_cleanly(argv, code):
    """Every subcommand answers a malformed or extreme argument with its
    exit code and a one-line error, never a traceback; the extreme sizes
    are refused up front and never run."""
    env = dict(os.environ, PYTHONPATH=str(Path(kunzlab.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "kunzlab", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == code
    assert "Traceback" not in proc.stderr
    assert "error:" in proc.stderr.splitlines()[-1]
