"""cli: one ``python -m kunzlab ...`` process at a time.

A fixed mix of 31 processes over all seven subcommands, with seeded
arguments, shuffled by the seed.  With the two failures on top, p90 falls
in the middle of the three ``lba --depth 5`` processes, whose K_5 compile
outweighs their short words.  Each process pays interpreter start,
import, argument parsing and, for ``lba``, a machine compile.  The mix includes a
malformed generator list (exit 2 is the contract) and one valid K_3 word
of length 159, which the seed program's step budget cannot finish (exit
0 is the contract).  Expected exit codes and stdout come from the
README's contract, computed by ``oracles``; a traceback on stderr is a
failure whatever the exit code.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import subprocess
import sys
import time

import layers
import oracles
import pace
from harness import FAILED, OK, ROOT, SRC, WRONG, Raised

NAME = "cli"
RSS = "children"
PACE = (pace.process_unit, pace.PROCESS_NOMINAL_S)
TIMEOUT_S = 120
MALFORMED_GENS = ("3,x", "4,x,9", "x,5")
BUDGET_WORD = oracles.block_witness(3, 79)  # in K_3, length 159


def _text(letters):
    return ",".join(map(str, letters))


def _kunz_word(rng, q, length):
    letters = [rng.randint(-(-q // 2), q) for _ in range(length)]
    letters[rng.randrange(length)] = q
    return tuple(letters)


def _random_word(rng, q, lo, hi):
    return tuple(rng.randint(1, q) for _ in range(rng.randint(lo, hi)))


def _gens(rng):
    while True:
        m = rng.randint(5, 20)
        gens = (m,) + tuple(sorted(rng.sample(range(m + 1, 2 * m), rng.randint(1, 3))))
        if math.gcd(*gens) == 1:
            return gens


def _cell(rng, cap):
    while True:
        q, l = rng.randint(2, 6), rng.randint(2, 12)
        if q**l <= cap:
            return q, l


def batch(rng):
    q = rng.randint
    ops = [
        ("validate", _kunz_word(rng, q(3, 6), q(5, 30))),
        ("validate", _kunz_word(rng, q(3, 6), q(5, 30))),
        ("validate", _random_word(rng, q(3, 6), 5, 30)),
        ("semigroup-gens", _gens(rng)),
        ("semigroup-gens", _gens(rng)),
        ("semigroup-word", _kunz_word(rng, q(3, 5), q(3, 15))),
        ("semigroup-word", _kunz_word(rng, q(3, 5), q(3, 15))),
        ("semigroup-malformed", rng.choice(MALFORMED_GENS)),
        ("enumerate-count", _cell(rng, 5000)),
        ("enumerate-count", _cell(rng, 5000)),
        ("enumerate-list", _cell(rng, 2000)),
        ("enumerate-list", _cell(rng, 2000)),
        ("lba", 3, _random_word(rng, 3, 5, 40)),
        ("lba", 3, _kunz_word(rng, 3, q(5, 40))),
        ("lba", 3, oracles.block_witness(3, q(2, 30))),
        ("lba", 3, BUDGET_WORD),
        ("lba", 4, _kunz_word(rng, 4, q(5, 20))),
        ("lba", 4, _random_word(rng, 4, 5, 20)),
        ("lba", 5, _kunz_word(rng, 5, q(5, 20))),
        ("lba", 5, _random_word(rng, 5, 5, 20)),
        ("lba", 5, oracles.block_witness(5, q(1, 3))),
        ("witness-kunz", q(3, 8), q(1, 6)),
        ("witness-kunz", q(3, 8), q(1, 6)),
        ("witness-nonkunz", q(3, 8), q(1, 6), q(1, 6)),
        ("witness-nonkunz", q(3, 8), q(1, 6), q(1, 6)),
        ("nerode", q(3, 8), q(3, 10)),
        ("nerode", q(3, 8), q(3, 10)),
        ("nerode", q(3, 8), q(3, 10)),
        ("pumping", q(5, 8), q(2, 5)),
        ("pumping", q(5, 8), q(2, 5)),
        ("pumping", q(5, 8), q(2, 5)),
    ]
    rng.shuffle(ops)
    return ops


def argv(op):
    kind, *a = op
    if kind == "validate":
        return ["validate", _text(a[0])]
    if kind == "semigroup-gens":
        return ["semigroup", "--gens", _text(a[0])]
    if kind == "semigroup-word":
        return ["semigroup", "--word", _text(a[0])]
    if kind == "semigroup-malformed":
        return ["semigroup", "--gens", a[0]]
    if kind == "enumerate-count":
        return ["enumerate", "--depth", str(a[0][0]), "--length", str(a[0][1]), "--count-only"]
    if kind == "enumerate-list":
        return ["enumerate", "--depth", str(a[0][0]), "--length", str(a[0][1])]
    if kind == "lba":
        return ["lba", "--depth", str(a[0]), "--word", _text(a[1])]
    if kind == "witness-kunz":
        return ["witness", "--kunz", str(a[0]), str(a[1])]
    if kind == "witness-nonkunz":
        return ["witness", "--nonkunz", *map(str, a)]
    if kind == "nerode":
        return ["nerode", "--depth", str(a[0]), "--max", str(a[1])]
    return ["pumping", "--depth", str(a[0]), "--p", "1", "--kmax", str(a[1])]


def _launch(env, args):
    return subprocess.run([sys.executable, "-m", "kunzlab", *args], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=TIMEOUT_S)


def setup(kz):
    env = {k: v for k, v in os.environ.items() if not k.startswith("KUNZLAB_")}
    env["PYTHONPATH"] = str(SRC)
    return env


def setup_sample(env) -> float:
    """Wall time of one bare ``python -m kunzlab --help`` process."""
    t0 = time.perf_counter()
    proc = _launch(env, ["--help"])
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"kunzlab --help exited {proc.returncode}: {proc.stderr}")
    return elapsed


def execute(kz, ctx, op, tr):
    with tr.span("cli." + op[0].split("-")[0]):
        return _launch(ctx, argv(op))


def _expected(op):
    """(expected exit code, expected stdout value); None where stdout is
    empty (errors) or checked structurally (nerode, pumping)."""
    kind, *a = op
    if kind == "validate":
        viol = oracles.violations(a[0])
        return (0 if not viol else 1), {
            "word": _text(a[0]), "is_kunz": not viol, "depth": max(a[0]),
            "violations": [{"kind": k, "i": i, "j": j, "target": t} for k, i, j, t in viol]}
    if kind == "semigroup-gens":
        return 0, oracles.semigroup_dict(a[0])
    if kind == "semigroup-word":
        if not oracles.is_kunz(a[0]):
            return 1, None
        return 0, oracles.semigroup_dict(tuple(sorted(oracles.word_generators(a[0]))))
    if kind == "semigroup-malformed":
        return 2, None
    if kind == "enumerate-count":
        q, l = a[0]
        return 0, f"q,length,count\n{q},{l},{oracles.census_count(q, l)}\n"
    if kind == "enumerate-list":
        return 0, [_text(w) for w in oracles.census_words(*a[0])]
    if kind == "lba":
        accept = oracles.in_language(a[1], a[0])
        return (0 if accept else 1), "accept" if accept else "reject"
    if kind == "witness-kunz":
        return 0, {"word": _text(oracles.block_witness(*a)), "is_kunz": True, "depth": a[0]}
    if kind == "witness-nonkunz":
        return 0, {"word": _text(oracles.block_nonwitness(*a)), "is_kunz": False, "depth": a[0]}
    return 0, None  # nerode and pumping are checked structurally


def _stdout_problem(op, want, stdout):
    kind, *a = op
    if kind == "enumerate-count":
        return None if stdout == want else "census line differs"
    if want is None and kind not in ("nerode", "pumping"):
        return None if stdout == "" else "unexpected stdout"
    got = json.loads(stdout)
    if kind == "lba":
        ok = got["verdict"] == want and 0 < got["cells_used"] <= got["bound"]
        return None if ok else f"run {got}, want {want}"
    if kind == "nerode":
        q, cutoff = a
        pairs = [(s["i"], s["j"]) for s in got]
        if pairs != [(i, j) for i in range(1, cutoff + 1) for j in range(i + 1, cutoff + 1)]:
            return "separations missing"
        for s in got:
            suffix = oracles.block_witness(q, s["i"])[s["i"]:]
            if s["suffix"] != _text(suffix) or not oracles.in_language((1,) * s["i"] + suffix, q) \
                    or oracles.in_language((1,) * s["j"] + suffix, q):
                return f"separation {s} wrong"
        return None
    if kind == "pumping":
        q, k_max = a
        want_cuts = oracles.admissible_decompositions(q, 1)
        if sorted(tuple(r["cuts"]) for r in got) != sorted(want_cuts):
            return f"{len(got)} decompositions, want {len(want_cuts)}"
        word = oracles.block_witness(q, 2)
        for r in got:
            if r["k"] is None or not 0 <= r["k"] <= k_max:
                return f"record {r} unrefuted"
            pumped = oracles.pumped(word, tuple(r["cuts"]), r["k"])
            if r["pumped"] != _text(pumped) or (r["reason"] == "not_kunz") == oracles.is_kunz(pumped):
                return f"record {r} wrong"
        return None
    return None if got == want else "stdout differs from the contract"


def check(ctx, op, out, tr):
    sub = op[0].split("-")[0]
    tr.count("cli.invocations")
    if isinstance(out, Raised):
        return FAILED, repr(out)
    code, want = _expected(op)
    traceback = "Traceback (most recent call last)" in out.stderr
    if traceback:
        tr.count("cli.tracebacks")
    if out.returncode != code:
        tr.count("cli.exit_mismatch")
        return FAILED, f"{sub} exited {out.returncode}, want {code}: " \
                       f"{out.stderr.strip().splitlines()[-1:]}"
    if traceback:
        return FAILED, f"{sub} printed a traceback"
    try:
        problem = _stdout_problem(op, want, out.stdout)
    except (ValueError, KeyError, TypeError) as exc:
        problem = f"unparsable stdout: {exc}"
    return (WRONG, problem) if problem else (OK, "")


def layer_extras(ops, latencies):
    """cli.<subcommand>.p50_ms over every repetition of the run."""
    out = {}
    for sub in layers.SUBCOMMANDS:
        mine = sorted(lats[i] for lats in latencies
                      for i, op in enumerate(ops) if op[0].split("-")[0] == sub)
        out[f"cli.{sub}.p50_ms"] = statistics.median(mine) * 1e3
    return out
