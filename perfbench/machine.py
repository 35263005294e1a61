"""machine: one ``lba.run`` per operation, with the default step budget.

Words over {1..q} for q = 3..6, the K_3 machine for q = 3 and the
generic K_q machine above it.  The seed picks the letters; the lengths
are fixed, because the work of a run is set by its length: a generic
machine takes the same number of steps on every accepted word of one
length, Theta(l^3) of them.  Per q the batch holds

* random Kunz words (letters in [ceil(q/2), q] always satisfy both
  conditions) at lengths along the step curve, two at length 30;
* for q >= 4 one Kunz word of length 100..120, which the seed program's
  constant budget of 10^6 steps cannot finish: it must show as a failure;
* the block witness 1^n 2^n ... q of length about 50;
* near-miss rejects, all short: a padded non-witness
  1^(n+m) 2^n ... q and two one-letter perturbations of a witness;
* a random word, which mostly rejects early.

The short near misses and random words sit below the median operation,
the two length-30 Kunz words per generic machine on it, and the length-90
ones at the 90th percentile, so both percentiles land on operations whose
work the seed does not change.  Every verdict is checked against the
membership scan in ``oracles``.
"""

from __future__ import annotations

import oracles
from harness import FAILED, OK, WRONG, Raised

NAME = "machine"
DEPTHS = (3, 4, 5, 6)
KUNZ_LENGTHS = (30, 30, 45, 60, 75, 90)
K3_KUNZ_LENGTHS = (30, 90)
OVER_BUDGET = (100, 120)
WITNESS_LENGTH = 50
NEAR_MISS_LENGTH = 25
RANDOM_LENGTHS = (10, 120)


def _kunz_word(rng, q, length):
    letters = [rng.randint(-(-q // 2), q) for _ in range(length)]
    letters[rng.randrange(length)] = q
    return tuple(letters)


def _block(q, length):
    """Block size n with (q-1)n + 1 closest to ``length``."""
    return max(1, round((length - 1) / (q - 1)))


def _perturbed_witness(rng, q):
    letters = list(oracles.block_witness(q, _block(q, NEAR_MISS_LENGTH)))
    pos = rng.randrange(len(letters))
    letters[pos] = letters[pos] + 1 if letters[pos] < q else letters[pos] - 1
    return tuple(letters)


def batch(rng):
    ops = []
    for q in DEPTHS:
        lengths = K3_KUNZ_LENGTHS if q == 3 else KUNZ_LENGTHS
        ops += [("kunz", q, _kunz_word(rng, q, length)) for length in lengths]
        if q >= 4:
            ops.append(("over_budget", q, _kunz_word(rng, q, rng.randint(*OVER_BUDGET))))
        ops.append(("witness", q, oracles.block_witness(q, _block(q, WITNESS_LENGTH))))
        n = _block(q, NEAR_MISS_LENGTH)
        ops.append(("nonwitness", q, oracles.block_nonwitness(q, n, rng.randint(1, n))))
        ops += [("perturbed", q, _perturbed_witness(rng, q)) for _ in range(2)]
        ops.append(("random", q, tuple(rng.randint(1, q)
                                       for _ in range(rng.randint(*RANDOM_LENGTHS)))))
    rng.shuffle(ops)
    return ops


def setup(kz):
    lba = kz.lba
    return {q: lba.build_k3_machine() if q == 3 else lba.build_kn_machine(q)
            for q in DEPTHS}


def execute(kz, ctx, op, tr):
    _, q, letters = op
    return kz.lba.run(ctx[q], kz.words.Word(letters))


def check(ctx, op, out, tr):
    if isinstance(out, Raised):
        return FAILED, repr(out)
    _, q, letters = op
    want = "accept" if oracles.in_language(letters, q) else "reject"
    if out.verdict != want:
        return WRONG, f"verdict {out.verdict}, want {want}"
    if out.cells_used > out.bound:
        return WRONG, f"{out.cells_used} cells over the bound {out.bound}"
    return OK, ""
