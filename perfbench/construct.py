"""construct: semigroups from seeded generator sets, through every view.

The batch holds a few generator sets in each stratum of multiplicity
(one per tier) x embedding dimension 2..5 (see STRATA).  Generators other than the
multiplicity m are drawn from (m, 2m), where no element is a sum of two
others, so the embedding dimension is exactly the set's size.  The seed
picks the generators; their conductor and number of small elements are
held within a few percent of a seed-independent reference, so every
seed's batch does about the same work.  Each
operation runs:

* ``from_generators``, the Apery set, and ``to_json_dict``;
* ``from_semigroup`` (the Kunz word);
* ``is_kunz`` and ``violations`` on the Kunz word and on a one-letter
  perturbation of it;
* the ``to_semigroup`` round trip;
* a batch of ``contains`` queries.

Checks: the wire form against a reachability oracle; conductor =
max(apery) - m + 1 and genus = sum(kunz) (Selmer) on the program's own
output; the round trip; the perturbed word's violations; membership.
"""

from __future__ import annotations

import math
import random
import statistics
from functools import lru_cache

import oracles
from harness import FAILED, OK, WRONG, Raised

NAME = "construct"
MULTIPLICITIES = (10, 20, 35, 55)  # one per from_generators tier
EMBEDDING_DIMENSIONS = (2, 3, 4, 5)
# Operations per stratum, all of one size: 45 in all, so that p50 falls
# in the middle of a stratum of three and p90 inside the six heaviest,
# never on the edge between two strata.
STRATA = {(m, e): 3 for m in MULTIPLICITIES for e in EMBEDDING_DIMENSIONS
          if (m, e) not in ((10, 2), (10, 3))}
STRATA[55, 2] = 6
QUERIES = 64
REFERENCE_DRAWS = 33
WINDOW = 0.04  # accepted relative distance from the reference size


def _draw(rng, m, e):
    while True:
        gens = (m,) + tuple(sorted(rng.sample(range(m + 1, 2 * m), e - 1)))
        if math.gcd(*gens) == 1:
            return gens


def _size(gens):
    """(conductor, elements below it): what construction cost grows with."""
    ap = oracles.apery(gens)
    m = gens[0]
    conductor = max(ap) - m + 1
    genus = sum((a - r) // m for r, a in enumerate(ap))
    return conductor, conductor - genus


@lru_cache(maxsize=None)
def _reference(m, e):
    """Median size of REFERENCE_DRAWS generator sets drawn with a fixed
    seed, so that every seed's batch is sized alike."""
    rng = random.Random(f"{m}/{e}")
    sizes = [_size(_draw(rng, m, e)) for _ in range(REFERENCE_DRAWS)]
    return tuple(statistics.median(s[k] for s in sizes) for k in (0, 1))


def _generators(rng, m, e):
    """A seeded generator set whose size is within WINDOW of the
    reference, or the closest of 2000 draws."""
    target = _reference(m, e)
    best, best_gap = None, math.inf
    for _ in range(2000):
        gens = _draw(rng, m, e)
        gap = max(abs(got - want) / want for got, want in zip(_size(gens), target))
        if gap <= WINDOW:
            return gens
        if gap < best_gap:
            best, best_gap = gens, gap
    return best


def batch(rng):
    ops = []
    for (m, e), count in STRATA.items():
        for _ in range(count):
            gens = _generators(rng, m, e)
            limit = (m - 1) * (gens[-1] - 1) + m
            queries = tuple(rng.randrange(limit) for _ in range(QUERIES))
            ops.append(("construct", gens, queries,
                        rng.randrange(m - 1), rng.choice((-2, -1, 1, 2))))
    rng.shuffle(ops)
    return ops


def setup(kz):
    return {}


def execute(kz, ctx, op, tr):
    _, gens, queries, pos, delta = op
    sg, wd = kz.semigroups, kz.words
    s = sg.from_generators(gens)
    with tr.span("semigroups.apery"):
        s.apery
    wire = s.to_json_dict()
    word = wd.from_semigroup(s)
    letters = list(word.letters)
    letters[pos] = letters[pos] + delta if letters[pos] + delta >= 1 \
        else letters[pos] - delta
    near = wd.Word(tuple(letters))
    scans = (wd.is_kunz(word), wd.violations(word), wd.is_kunz(near), wd.violations(near))
    back = wd.to_semigroup(word)
    with tr.span("semigroups.contains"):
        member = [s.contains(x) for x in queries]
    tr.count("semigroups.contains.calls", len(queries))
    return wire, word.letters, near.letters, scans, back, member


def check(ctx, op, out, tr):
    if isinstance(out, Raised):
        return FAILED, repr(out)
    _, gens, queries, _, _ = op
    wire, letters, near, (kunz, viol, near_kunz, near_viol), back, member = out
    want = oracles.semigroup_dict(gens)
    m = gens[0]
    if wire != want or list(wire) != list(want):
        return WRONG, "wire form differs from the reachability oracle"
    if wire["conductor"] != max(wire["apery"]) - m + 1 or wire["genus"] != sum(wire["kunz"]):
        return WRONG, "Selmer identities fail"
    if list(letters) != want["kunz"] or not kunz or viol:
        return WRONG, "Kunz word wrong or not Kunz"
    near_want = oracles.violations(near)
    if near_kunz != (not near_want) \
            or [(v.kind, v.i, v.j, v.target) for v in near_viol] != near_want:
        return WRONG, "violations of the perturbed word differ"
    if list(back.small_elements) != want["small_elements"] or back.conductor != want["conductor"]:
        return WRONG, "round trip changed the semigroup"
    small = set(want["small_elements"])
    if member != [x >= want["conductor"] or x in small for x in queries]:
        return WRONG, "membership differs"
    return OK, ""
