"""Acceptance suite: ten exact criteria, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
complete; every check is exact integer arithmetic, no tolerances.
"""

import itertools
from collections import Counter

import pytest

from kunzlab import (
    Violation,
    Word,
    bader_moura_refute,
    count_kunz,
    dfa_accepts,
    dfa_k2,
    enumerate_semigroups,
    from_semigroup,
    in_kunz_language,
    is_kunz,
    nerode_evidence,
    to_semigroup,
    violations,
    witness_kunz,
    witness_nonkunz,
)
from kunzlab.lba import run
from conftest import kunz_tuple_ok


def report(number, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number:2}] {status} {name}: {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"


@pytest.fixture(scope="module")
def census():
    return enumerate_semigroups(7, 4)


def test_criterion_1_bijection_round_trip(census):
    failures = 0
    for s in census:
        word = from_semigroup(s)
        if to_semigroup(word) != s or from_semigroup(to_semigroup(word)) != word:
            failures += 1
    report(1, "bijection round trip", failures == 0,
           f"{len(census)} semigroups (m <= 7, depth <= 4), {failures} failures")


def test_criterion_2_kunz_inequalities(census):
    failures = 0
    for s in census:
        kunz = s.apery.kunz
        depth = max(kunz) if kunz else 0
        if not kunz_tuple_ok(kunz) or s.depth != depth:
            failures += 1
    report(2, "coordinate inequalities and depth", failures == 0,
           f"{len(census)} tuples checked, {failures} failures")


def test_criterion_3_apery_maximum(census):
    failures = sum(
        1 for s in census
        if max(s.apery.values) != s.conductor + s.multiplicity - 1
    )
    report(3, "largest Apery element", failures == 0,
           f"{len(census)} semigroups, {failures} failures")


def test_criterion_4_depth2_regular_recognizer():
    d = dfa_k2()
    checked = failures = 0
    for length in range(1, 13):
        for letters in itertools.product((1, 2), repeat=length):
            word = Word(letters)
            checked += 1
            if dfa_accepts(d, word) != in_kunz_language(word, 2):
                failures += 1
    count_ok = all(count_kunz(2, l) == 2**l - 1 for l in range(1, 13))
    report(4, "two-letter language recognizer", failures == 0 and count_ok,
           f"{checked} words of length <= 12, {failures} failures; "
           f"counts 2^l - 1 {'hold' if count_ok else 'fail'}")


def test_criterion_5_witness_families():
    checked = failures = 0
    for q in (3, 4, 5, 6):
        for n in range(1, 7):
            checked += 1
            if not is_kunz(witness_kunz(q, n)):
                failures += 1
            for m in range(1, 5):
                checked += 1
                bad = witness_nonkunz(q, n, m)
                expected = Violation("first", n + 1, n + m, 2 * n + m + 1)
                if is_kunz(bad) or expected not in violations(bad):
                    failures += 1
    report(5, "witness word families", failures == 0,
           f"{checked} words over q in 3..6, n in 1..6, m in 1..4, "
           f"{failures} failures")


def test_criterion_6_machine_oracle_equivalence(k3_machine, k4_machine):
    runs = failures = 0
    for length in range(0, 9):
        for letters in itertools.product((1, 2, 3), repeat=length):
            word = Word(letters)
            runs += 1
            if run(k3_machine, word).accepted != in_kunz_language(word, 3):
                failures += 1
    runs4 = 0
    for length in range(0, 6):
        for letters in itertools.product((1, 2, 3, 4), repeat=length):
            word = Word(letters)
            runs4 += 1
            if run(k4_machine, word).accepted != in_kunz_language(word, 4):
                failures += 1
    report(6, "machine/scan equivalence", failures == 0,
           f"{runs} depth-3 runs (length <= 8) and {runs4} depth-4 runs "
           f"(length <= 5), {failures} mismatches")


def _stress_words(length, top):
    yield Word((top,) + (1,) * (length - 1))
    yield Word((1,) * (length - 1) + (top,))
    yield Word((2,) * (length - 1) + (top,))
    yield Word(tuple((i % top) + 1 for i in range(length - 1)) + (top,))
    yield Word(tuple(2 - (i % 2) for i in range(length - 1)) + (top,))


def test_criterion_7_tape_bounds(k3_machine, k4_machine):
    worst3 = 0.0
    runs = violations_count = 0
    for length in range(10, 31):
        for word in _stress_words(length, 3):
            result = run(k3_machine, word)
            runs += 1
            worst3 = max(worst3, result.cells_used / length)
            if not result.cells_used < 6 * length:
                violations_count += 1
    worst4 = 0.0
    for length in range(10, 21):
        for word in _stress_words(length, 4):
            result = run(k4_machine, word)
            runs += 1
            worst4 = max(worst4, result.cells_used / length)
            if not result.cells_used <= 8 * length:
                violations_count += 1
    report(7, "tape bounds", violations_count == 0,
           f"{runs} runs; depth-3 peak {worst3:.2f} cells/letter (< 6), "
           f"depth-4 peak {worst4:.2f} (<= 8)")


def test_criterion_8_distinguishability():
    rep = nerode_evidence(3, 10)
    ok = (
        len(rep.separations) == 45
        and all(s.member_i and not s.member_j for s in rep.separations)
        and all(
            in_kunz_language(Word((1,) * s.i + s.suffix.letters), 3)
            and not in_kunz_language(Word((1,) * s.j + s.suffix.letters), 3)
            for s in rep.separations
        )
    )
    report(8, "prefix distinguishability", ok,
           f"{len(rep.separations)} separations for prefixes 1^1..1^10 "
           "(expected 45), all re-verified")


def test_criterion_9_pumping_refutation():
    rep5 = bader_moura_refute(5, 1, 4)
    rep6 = bader_moura_refute(6, 1, 4)
    marking_ok = (
        len(rep5.marking.distinguished) == 2
        and len(rep5.marking.excluded) == 4
        and len(rep5.marking.distinguished) > 1
    )
    ok = rep5.all_refuted and rep6.all_refuted and marking_ok
    report(9, "pumping refutation", ok,
           f"depth 5: {len(rep5.records)} admissible decompositions refuted "
           f"with k <= 4; depth 6: {len(rep6.records)} refuted")


def test_criterion_10_census_cross_oracle(census):
    by_cell = Counter((s.multiplicity, s.depth) for s in census)
    failures = []
    for m in range(1, 8):
        for q in range(1, 5):
            gap_side = by_cell.get((m, q), 0)
            word_side = count_kunz(q, m - 1)
            if gap_side != word_side:
                failures.append((m, q, gap_side, word_side))
    hand_cell_ok = count_kunz(3, 2) == 4
    report(10, "census cross-oracle", not failures and hand_cell_ok,
           f"28 (multiplicity, depth) cells agree across the two "
           f"enumerators; count(depth 3, length 2) = {count_kunz(3, 2)}")


def wide_cross_oracle(max_m):
    """(semigroups listed, mismatched cells) for the gap-set census of
    multiplicity <= max_m and depth <= 4 against count_kunz, cell by cell."""
    wide = enumerate_semigroups(max_m, 4)
    by_cell = Counter((s.multiplicity, s.depth) for s in wide)
    failures = [
        (m, q, by_cell.get((m, q), 0), count_kunz(q, m - 1))
        for m in range(1, max_m + 1) for q in range(1, 5)
        if by_cell.get((m, q), 0) != count_kunz(q, m - 1)
    ]
    return len(wide), failures


def test_criterion_10_census_cross_oracle_to_m10():
    found, failures = wide_cross_oracle(10)
    report(10, "census cross-oracle, m <= 10", not failures,
           f"40 (multiplicity, depth) cells over {found} semigroups "
           f"agree across the two enumerators; mismatches {failures}")


def test_criterion_10_census_cross_oracle_to_m12():
    found, failures = wide_cross_oracle(12)
    report(10, "census cross-oracle, m <= 12", found == 848_825 and not failures,
           f"48 (multiplicity, depth) cells over {found} semigroups "
           f"agree across the two enumerators; mismatches {failures}")
