"""Shared brute-force oracles, kept deliberately naive and independent
of the library code paths they are used to check."""

import itertools

import pytest

from kunzlab import Word


def naive_members(gens, limit):
    """Everything below ``limit`` reachable as a sum of generators, by
    fixpoint iteration over an explicit set."""
    members = {0}
    changed = True
    while changed:
        changed = False
        for a in list(members):
            for g in gens:
                s = a + g
                if s <= limit and s not in members:
                    members.add(s)
                    changed = True
    return members


def naive_conductor(gens, limit):
    """Last gap + 1, read off a membership table wide enough to be sure."""
    members = naive_members(gens, limit)
    gaps = [x for x in range(limit + 1) if x not in members]
    return gaps[-1] + 1 if gaps else 0


def naive_sum_mask(gens, limit):
    """Sums of generators up to ``limit`` as the set bits of an int.  The
    mask is closed under adding g by OR-ing in its shifts by g, 2g, 4g,
    and so on: after the shift by 2^k g it holds every sum plus up to
    2^(k+1) - 1 copies of g.  Closing under one generator keeps the
    closure under the ones before it."""
    full = (1 << limit + 1) - 1
    mask = 1
    for g in gens:
        shift = g
        while shift <= limit:
            mask |= (mask << shift) & full
            shift *= 2
    return mask


def naive_frobenius_and_genus(gens):
    """(Frobenius number, genus), read off naive_sum_mask over a window
    doubled until its top min(gens) bits are all set; from there on every
    integer is a sum.  Never touches Apery tuples."""
    m = min(gens)
    limit = 2 * max(gens)
    mask = naive_sum_mask(gens, limit)
    while mask >> (limit + 1 - m) != (1 << m) - 1:
        limit *= 2
        mask = naive_sum_mask(gens, limit)
    gaps = ~mask & ((1 << limit + 1) - 1)
    return gaps.bit_length() - 1, bin(gaps).count("1")


def kunz_tuple_ok(t):
    """The three inequality families a Kunz coordinates tuple satisfies,
    checked straight from the definition with m = len(t) + 1."""
    m = len(t) + 1
    if any(x < 1 for x in t):
        return False
    for i in range(1, m):
        for j in range(i, m):
            if i + j < m and t[i - 1] + t[j - 1] < t[i + j - 1]:
                return False
            if i + j > m and t[i - 1] + t[j - 1] + 1 < t[i + j - m - 1]:
                return False
    return True


def naive_census(q, length):
    """Letter tuples of the K_q words of this length, in lexicographic
    order: every tuple over {1..q} with largest letter q that passes
    kunz_tuple_ok."""
    return [
        t for t in itertools.product(range(1, q + 1), repeat=length)
        if max(t, default=0) == q and kunz_tuple_ok(t)
    ]


def naive_semigroups(max_multiplicity, max_depth):
    """Apery tuples of every numerical semigroup with multiplicity <=
    max_multiplicity and depth <= max_depth, sorted by small elements.
    For each m >= 2 it tries every subset of (m, m*max_depth) as the
    members there, with 0, m and everything from m*max_depth on, keeps
    the sets closed under addition, and reads each least member per
    residue off the membership bits.  No pruning and no search order."""
    found = [((0,), (0,))]  # (small elements, Apery tuple) of N
    for m in range(2, max_multiplicity + 1):
        if max_depth < 1:
            break
        top = m * max_depth
        below = (1 << top) - 1
        for chosen in range(2 ** max(top - m - 1, 0)):
            # bit x of members: x is a member, for x below top
            members = 1 | 1 << m | chosen << m + 1
            if any(members >> a & 1 and (members << a) & below & ~members
                   for a in range(m, top)):
                continue
            def member(x):
                return x >= top or bool(members >> x & 1)
            conductor = 1 + max(x for x in range(top) if not member(x))
            small = tuple(x for x in range(conductor + 1) if member(x))
            apery = tuple(next(x for x in range(r, top + m, m) if member(x))
                          for r in range(m))
            found.append((small, apery))
    return [apery for _, apery in sorted(found)]


def all_words(alphabet, max_len):
    for length in range(max_len + 1):
        for letters in itertools.product(alphabet, repeat=length):
            yield Word(letters)


def naive_run(machine, word, max_steps=10**7):
    """The JSON fields of a run of ``machine`` on ``word``, one step at a
    time: each step reads its (state, cell) entry from the table or
    resolves it, with no sweeps.  Moving past an end marker rejects; the
    cells used are the tracks times the head positions visited, and the
    bound is the tracks times the whole tape."""
    tape = [0] + [machine.letter_cell[letter] for letter in word] + [1]
    pos = lowest = highest = 1
    state = machine.start_id
    steps = 0
    while True:
        entry = machine.table[state].get(tape[pos])
        if entry is None:
            entry = machine.resolve(state, tape[pos])
        tape[pos], move, state = entry
        steps += 1
        assert steps <= max_steps, "naive_run ran out of steps"
        pos += move
        if not 0 <= pos < len(tape):
            verdict = "reject"
            break
        lowest, highest = min(lowest, pos), max(highest, pos)
        if state < 0:
            verdict = "accept" if state == -1 else "reject"
            break
    return {
        "verdict": verdict,
        "steps": steps,
        "cells_used": machine.track_count * (highest - lowest + 1),
        "bound": machine.track_count * len(tape),
    }


@pytest.fixture(scope="session")
def k3_machine():
    from kunzlab.lba import build_k3_machine

    return build_k3_machine()


@pytest.fixture(scope="session")
def k4_machine():
    from kunzlab.lba import build_kn_machine

    return build_kn_machine(4)
