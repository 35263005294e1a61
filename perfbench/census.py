"""census: the paper's tables, as one batch of exact counts.

* ``count_kunz(q, l)`` for q = 1..12 and every l <= 14 with q^l <= 20,000
  (candidate tiers up to 10^3, 10^4 and 10^5);
* ``enumerate_kunz`` on nine cells, so listing and counting are measured
  apart;
* ``enumerate_semigroups(10, 4)`` (83,136 semigroups), checked cell by
  cell: the semigroups of multiplicity m and depth q must number
  |K_q words of length m-1| (the cross-oracle identity);
* ``nerode_evidence(q, 10)`` and ``bader_moura_refute(q, 1, 4)`` for
  q = 5..12.

The census is deterministic; the seed only shuffles the order.  The
batch holds 105 operations: with n = 5 (mod 10) operations, p50 and p90
fall in the middle of one operation's repeated samples, not on the edge
between two operations of different cost.
"""

from __future__ import annotations

import math

import oracles
from harness import FAILED, OK, WRONG, Raised

NAME = "census"
CANDIDATE_CAP = 20_000
MAX_LENGTH = 14
ENUMERATE_CELLS = ((3, 8), (4, 6), (6, 5), (12, 3), (2, 10), (3, 6), (5, 5), (8, 4),
                   (10, 3))
GAP_CENSUS = (10, 4)
NERODE_CUTOFF = 10
PUMPING = (1, 4)  # p, k_max


def cells():
    return [(q, l) for q in range(1, 13) for l in range(1, MAX_LENGTH + 1)
            if q**l <= CANDIDATE_CAP]


def batch(rng):
    ops = [("count", q, l) for q, l in cells()]
    ops += [("enumerate", q, l) for q, l in ENUMERATE_CELLS]
    ops.append(("semigroups",) + GAP_CENSUS)
    ops += [("nerode", q, NERODE_CUTOFF) for q in range(5, 13)]
    ops += [("pumping", q) + PUMPING for q in range(5, 13)]
    rng.shuffle(ops)
    return ops


def setup(kz):
    return {}


def execute(kz, ctx, op, tr):
    kind, *args = op
    lg = kz.languages
    if kind == "count":
        return lg.count_kunz(*args)
    if kind == "enumerate":
        return lg.enumerate_kunz(*args)
    if kind == "semigroups":
        return kz.semigroups.enumerate_semigroups(*args)
    if kind == "nerode":
        return lg.nerode_evidence(*args)
    return lg.bader_moura_refute(*args)


def _check_gap_census(max_m, max_depth, found):
    cells = {}
    for s in found:
        small = s.small_elements
        m = small[1] if len(small) > 1 else 1
        key = (m, -(-small[-1] // m))  # (multiplicity, depth = ceil(c / m))
        cells[key] = cells.get(key, 0) + 1
    for m in range(1, max_m + 1):
        for q in range(0, max_depth + 1):
            want = oracles.census_count(q, m - 1)
            if cells.pop((m, q), 0) != want:
                return f"multiplicity {m}, depth {q}: want {want}"
    return f"unexpected cells {sorted(cells)}" if cells else None


def _check_nerode(q, cutoff, report):
    pairs = [(s.i, s.j) for s in report.separations]
    if pairs != [(i, j) for i in range(1, cutoff + 1) for j in range(i + 1, cutoff + 1)]:
        return f"{len(pairs)} separations, want {math.comb(cutoff, 2)}"
    for s in report.separations:
        suffix = oracles.block_witness(q, s.i)[s.i:]
        if s.suffix.letters != suffix or not (s.member_i and not s.member_j):
            return f"separation ({s.i}, {s.j}) misreported"
        if not oracles.in_language((1,) * s.i + suffix, q) \
                or oracles.in_language((1,) * s.j + suffix, q):
            return f"separation ({s.i}, {s.j}) does not separate"
    return None


def _check_pumping(q, p, k_max, report):
    want = oracles.admissible_decompositions(q, p)
    if {r.decomposition.cuts for r in report.records} != want \
            or len(report.records) != len(want):
        return f"{len(report.records)} decompositions, want {len(want)}"
    word = oracles.block_witness(q, p**q + 1)
    for r in report.records:
        if r.k is None or not 0 <= r.k <= k_max:
            return f"{r.decomposition.cuts} unrefuted"
        pumped = oracles.pumped(word, r.decomposition.cuts, r.k)
        if r.pumped.letters != pumped:
            return f"{r.decomposition.cuts} pumped wrongly"
        kunz = oracles.is_kunz(pumped)
        if (r.reason, kunz, max(pumped) == q) not in (
                ("not_kunz", False, True), ("not_kunz", False, False),
                ("wrong_depth", True, False)):
            return f"{r.decomposition.cuts} refuted for a wrong reason"
    return None


def check(ctx, op, out, tr):
    if isinstance(out, Raised):
        return FAILED, repr(out)
    kind, *args = op
    if kind == "count":
        want = oracles.census_count(*args)
        problem = None if out == want else f"{out} words, want {want}"
    elif kind == "enumerate":
        got = tuple(w.letters for w in out)
        problem = None if got == oracles.census_words(*args) else "word list differs"
    elif kind == "semigroups":
        problem = _check_gap_census(*args, out)
    elif kind == "nerode":
        problem = _check_nerode(*args, out)
    else:
        problem = _check_pumping(*args, out)
    return (WRONG, problem) if problem else (OK, "")
