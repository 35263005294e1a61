import itertools
import random
import re
import sys
from collections import Counter

import pytest

from kunzlab import (
    Decomposition,
    Dfa,
    DomainError,
    InvalidDecomposition,
    LetterOutOfAlphabet,
    NoRefutation,
    PositionMarking,
    ResourceBound,
    Word,
    bader_moura_refute,
    count_kunz,
    dfa_accepts,
    dfa_k1,
    dfa_k2,
    enumerate_kunz,
    enumerate_semigroups,
    in_kunz_language,
    is_kunz,
    mark_for_refutation,
    nerode_evidence,
    pump,
    violations,
    witness_kunz,
)
from kunzlab import languages
from kunzlab.languages import MAX_NERODE_PAIRS
from kunzlab.words import MAX_WITNESS_LENGTH
from conftest import all_words, kunz_tuple_ok, naive_census, naive_refutation


def test_dfa_k2_examples():
    d = dfa_k2()
    assert dfa_accepts(d, Word((1, 2, 1)))
    assert not dfa_accepts(d, Word((1, 1, 1)))
    assert dfa_accepts(d, Word((2,)))
    assert not dfa_accepts(d, Word(()))


def test_dfa_k1_examples():
    d = dfa_k1()
    assert not dfa_accepts(d, Word(()))
    assert dfa_accepts(d, Word((1,)))
    assert dfa_accepts(d, Word((1, 1)))


def test_dfa_letter_out_of_alphabet():
    with pytest.raises(LetterOutOfAlphabet):
        dfa_accepts(dfa_k2(), Word((1, 3)))


def test_dfa_validation():
    with pytest.raises(DomainError):
        Dfa(states=frozenset({0}), alphabet=frozenset({1}), transition={},
            start=0, accepting=frozenset())
    with pytest.raises(DomainError):
        Dfa(states=frozenset({0}), alphabet=frozenset({1}),
            transition={(0, 1): 0}, start=1, accepting=frozenset())
    with pytest.raises(DomainError, match="accepting states unknown"):
        Dfa(states=frozenset({0}), alphabet=frozenset({1}),
            transition={(0, 1): 0}, start=0, accepting=frozenset({1}))


@pytest.mark.parametrize("field,value,what", [
    ("states", frozenset({0, True}), "the states"),
    ("alphabet", frozenset({1.0}), "the alphabet"),
    ("accepting", frozenset({True}), "the accepting states"),
    ("transition", {(0, 1): 1.0, (1, 1): 1}, "the transition targets"),
])
def test_dfa_takes_exactly_int(field, value, what):
    # True == 1 and 1.0 == 1, so each would pass every membership test as 1
    fields = dict(states=frozenset({0, 1}), alphabet=frozenset({1}),
                  transition={(0, 1): 1, (1, 1): 1}, start=0,
                  accepting=frozenset({1}))
    Dfa(**fields)
    with pytest.raises(DomainError, match=f"{what} must hold integers"):
        Dfa(**{**fields, field: value})


def test_dfa_keeps_its_own_table():
    # clearing the caller's dict afterwards leaves the machine whole
    transition = {(0, 1): 1, (1, 1): 1, (2, 1): 0}
    d = Dfa(states=frozenset({0, 1}), alphabet=frozenset({1}),
            transition=transition, start=0, accepting=frozenset({1}))
    transition.clear()
    assert dfa_accepts(d, Word((1,))) and not dfa_accepts(d, Word(()))
    # states x alphabet exactly: the entry for state 2 is not kept
    assert type(d.transition) is dict
    assert d.transition == {(0, 1): 1, (1, 1): 1}


@pytest.mark.parametrize("transition", [
    {(0, True): 1, (True, 1): 1},
    {(0, 1): 1, (1, 1): 1, (0, 1.0, 2): 1},
    {(0, 1): 1, (1, 1): 1, 3: 1},
], ids=["bool", "triple", "bare-int"])
def test_dfa_transition_keys_are_pairs_of_exact_ints(transition):
    # True == 1, so (0, True) would be looked up as (0, 1) and kept as is
    with pytest.raises(DomainError, match="^the transition keys must be pairs of integers$"):
        Dfa(states=frozenset({0, 1}), alphabet=frozenset({1}),
            transition=transition, start=0, accepting=frozenset({1}))


def test_dfa_transition_must_be_a_mapping():
    # a list of pairs ended in an AttributeError on .values()
    with pytest.raises(DomainError, match="^the transition must be a mapping, got list$"):
        Dfa(states=frozenset({0, 1}), alphabet=frozenset({1}),
            transition=[((0, 1), 1), ((1, 1), 1)], start=0,
            accepting=frozenset({1}))


def test_dfa_k2_equals_membership_oracle():
    d = dfa_k2()
    for w in all_words((1, 2), 9):
        assert dfa_accepts(d, w) == in_kunz_language(w, 2)


def test_dfa_k1_equals_membership_oracle():
    d = dfa_k1()
    for w in all_words((1,), 9):
        assert dfa_accepts(d, w) == (len(w) >= 1) == in_kunz_language(w, 1)


def test_enumerate_kunz_examples():
    assert count_kunz(2, 3) == 7
    assert [w.letters for w in enumerate_kunz(3, 2)] == [
        (2, 3), (3, 1), (3, 2), (3, 3)]
    assert [w.letters for w in enumerate_kunz(1, 4)] == [(1, 1, 1, 1)]


def test_enumerate_kunz_edge_cases():
    assert enumerate_kunz(0, 0) == [Word(())]
    assert enumerate_kunz(0, 3) == []
    assert count_kunz(0, 0) == 1
    assert count_kunz(5, 0) == 0
    with pytest.raises(DomainError):
        enumerate_kunz(-1, 2)


def test_enumerate_kunz_properties():
    for q in (1, 2, 3):
        for length in range(0, 6):
            words = enumerate_kunz(q, length)
            assert words == sorted(words, key=lambda w: w.letters)
            for w in words:
                assert is_kunz(w)
                assert w.depth == q


def test_count_kunz_depth2_closed_form():
    for length in range(1, 11):
        assert count_kunz(2, length) == 2**length - 1


# every cell with q <= 12 and q**length <= 2*10**5, and q = 13..30 at
# lengths 1-3, where the walk first lists the last two letters
CENSUS_CELLS = [(q, length) for q in range(1, 13) for length in range(18)
                if q**length <= 2 * 10**5]
CENSUS_CELLS += [(q, length) for q in range(13, 31) for length in range(1, 4)]


@pytest.mark.parametrize("q,length", CENSUS_CELLS)
def test_census_matches_naive_oracle(q, length):
    want = naive_census(q, length)
    assert [w.letters for w in enumerate_kunz(q, length)] == want
    assert count_kunz(q, length) == len(want)


@pytest.mark.parametrize("q,length,count", [
    (3, 12, 141_095), (4, 10, 150_052), (5, 9, 207_832), (6, 8, 141_795)])
def test_count_kunz_large_cells(q, length, count):
    assert count_kunz(q, length) == count
    words = enumerate_kunz(q, length)
    assert len(words) == count
    assert all(a.letters < b.letters for a, b in zip(words, words[1:]))
    assert all(w.depth == q for w in words)


def test_regular_census_needs_no_walk(monkeypatch):
    # K_1 and K_2 are answered in closed form, without one interval call
    def refuse(*args):
        raise AssertionError("census walked")

    monkeypatch.setattr(languages, "_letter_bounds", refuse)
    assert count_kunz(2, 40) == 2**40 - 1
    assert count_kunz(2, 24) == 2**24 - 1
    assert count_kunz(1, 40) == 1
    assert count_kunz(1, 3163) == 1
    for length in range(13):
        for q in (1, 2):
            want = naive_census(q, length)
            assert [w.letters for w in enumerate_kunz(q, length)] == want
            assert count_kunz(q, length) == len(want)
    # a count is charged the bits of the number it builds, none at q = 1;
    # a listing keeps the walk's ceilings
    with pytest.raises(ResourceBound, match="a count of 41 bits exceeds the ceiling 40"):
        count_kunz(2, 41, max_candidates=40)
    assert count_kunz(1, 10**6, max_candidates=1) == 1
    with pytest.raises(ResourceBound, match="1099511627776 candidate words"):
        enumerate_kunz(2, 40)
    with pytest.raises(ResourceBound, match="length 101 needs 10201 interval steps"):
        enumerate_kunz(1, 101, max_candidates=10_000)
    with pytest.raises(AssertionError, match="census walked"):
        enumerate_kunz(3, 3)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="this Python prints ints of any size")
def test_regular_count_python_cannot_print_is_refused():
    # 2**l - 1 has at most 4,300 decimal digits, Python's default limit,
    # up to l = 14,284; past it the count is refused, whatever the ceiling
    digits = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        assert len(str(count_kunz(2, 14_284))) == 4300
        for ceiling in (10**7, 10**9):
            with pytest.raises(ResourceBound, match="ceiling of 4300 decimal digits"):
                count_kunz(2, 14_285, max_candidates=ceiling)
        # the tighter of the two ceilings is the one named
        with pytest.raises(ResourceBound, match="bits exceeds the ceiling 15000$"):
            count_kunz(2, 15_001, max_candidates=15_000)
        sys.set_int_max_str_digits(0)  # no limit: the candidate ceiling alone
        assert count_kunz(2, 14_285) == 2**14_285 - 1
    finally:
        sys.set_int_max_str_digits(digits)


@pytest.mark.parametrize("cell,nodes", [((5, 9), 29_538), ((3, 12), 34_855)])
def test_census_node_count_is_pinned(monkeypatch, cell, nodes):
    # one _letter_bounds call per prefix of length up to l-2; one walk
    # serves both census functions, except that K_3 is counted over its
    # sets of 1-positions with no interval call
    calls = 0
    letter_bounds = languages._letter_bounds

    def counted(*args):
        nonlocal calls
        calls += 1
        return letter_bounds(*args)

    monkeypatch.setattr(languages, "_letter_bounds", counted)
    for census, walked in ((count_kunz, cell[0] != 3), (enumerate_kunz, True)):
        calls = 0
        census(*cell)
        assert calls == (nodes if walked else 0)


def k3_walk_count(length):
    """count_kunz(3, length) as the walk counts it, from l = 2 on."""
    return sum(sum(map(len, ys)) for _, _, ys in languages._last_letters(3, length))


@pytest.mark.parametrize("length", range(2, 15))
def test_k3_count_matches_the_walk(length):
    assert count_kunz(3, length) == k3_walk_count(length)


def test_k3_count_matches_the_gap_set_census():
    # semigroups of multiplicity m and depth exactly 3, m = 2..10
    depth3 = Counter(s.multiplicity for s in enumerate_semigroups(10, 3)
                     if s.depth == 3)
    want = [1, 4, 15, 44, 138, 372, 1087, 2841, 7931]
    assert [depth3[m] for m in range(2, 11)] == want
    assert [count_kunz(3, m - 1) for m in range(2, 11)] == want


def test_k3_count_charges_one_node_per_set_of_1_positions(monkeypatch):
    calls = 0
    subsets = languages._k3_subsets

    def counted(*args):
        nonlocal calls
        calls += 1
        return subsets(*args)

    monkeypatch.setattr(languages, "_k3_subsets", counted)
    # 2^10 sets: answered at a ceiling of 1024, with one call per set
    assert count_kunz(3, 10, max_candidates=1024) == k3_walk_count(10)
    assert calls == 1024
    # no interval charge: the walk's l^2 = 9 would refuse (3, 3) at 8
    assert count_kunz(3, 3, max_candidates=8) == k3_walk_count(3)
    # the default ceiling of 10^7 answers (3, 16), 3^16 candidates
    assert count_kunz(3, 16) == 6_388_226
    # one less is refused before any set is visited
    calls = 0
    with pytest.raises(ResourceBound,
                       match="^1024 sets of 1-positions exceed the ceiling 1023$"):
        count_kunz(3, 10, max_candidates=1023)
    with pytest.raises(ResourceBound,
                       match="^16777216 sets of 1-positions exceed the ceiling 10000000$"):
        count_kunz(3, 24)
    with pytest.raises(ResourceBound, match=r"^2\^64 or more sets of 1-positions"):
        count_kunz(3, 10**12)
    assert calls == 0
    # listing K_3 keeps the walk's ceiling
    with pytest.raises(ResourceBound,
                       match="^14348907 candidate words exceed the ceiling 10000000$"):
        enumerate_kunz(3, 15)


def test_enumerate_resource_bound():
    with pytest.raises(ResourceBound):
        enumerate_kunz(3, 4, max_candidates=50)


@pytest.mark.parametrize("ceiling,shown", [
    (0, "0"), (-5, "-5"), (-10**5000, "-2^64 or less")], ids=["0", "-5", "-10**5000"])
def test_census_refuses_a_ceiling_below_one(ceiling, shown):
    message = re.escape(f"the candidate ceiling must be at least 1, got {shown}")
    # refused before the cells that need no walk answer
    for census in (count_kunz, enumerate_kunz):
        for q, length in ((3, 3), (0, 0), (5, 0), (0, 2)):
            with pytest.raises(DomainError, match=f"^{message}$"):
                census(q, length, max_candidates=ceiling)
    with pytest.raises(DomainError, match=f"^{message}$"):
        bader_moura_refute(5, 1, 4, max_candidates=ceiling)


def test_depth_one_census_ceiling():
    # one candidate word, but length**2 interval work to list it; the count
    # is 1 in closed form, and is charged nothing
    assert enumerate_kunz(1, 100, max_candidates=10_000) == [Word((1,) * 100)]
    with pytest.raises(ResourceBound, match="length 101 needs 10201 interval steps"):
        enumerate_kunz(1, 101, max_candidates=10_000)
    assert count_kunz(1, 101, max_candidates=10_000) == 1


def test_nerode_small():
    report = nerode_evidence(3, 3)
    assert len(report.separations) == 3
    pairs = {(s.i, s.j) for s in report.separations}
    assert pairs == {(1, 2), (1, 3), (2, 3)}
    first = report.separations[0]
    assert first.suffix == Word((2, 3))
    assert first.member_i and not first.member_j


def test_nerode_depth4_example():
    [sep] = nerode_evidence(4, 2).separations
    assert sep.suffix == Word((2, 3, 4))
    assert Word((1,) + sep.suffix.letters) == Word((1, 2, 3, 4))


@pytest.mark.parametrize("cutoff", [2, 4, 6])
def test_nerode_counts(cutoff):
    report = nerode_evidence(3, cutoff)
    assert len(report.separations) == cutoff * (cutoff - 1) // 2


def test_nerode_report_renders_each_suffix_once(monkeypatch):
    # the separations of one i share one suffix Word, rendered once per call
    report = nerode_evidence(3, 6)
    want = [s.to_json_dict() for s in report.separations]
    assert len({id(s.suffix) for s in report.separations}) == 5
    rendered = []
    render = Word.__str__
    monkeypatch.setattr(Word, "__str__", lambda w: rendered.append(w) or render(w))
    assert report.to_json_list() == want
    assert len(rendered) == 5


def test_nerode_work_ceiling():
    # comb(cutoff, 2) separations scanning words of up to 2*cutoff + 1
    # letters: cutoff 79 is 77,890,761 letter pairs, cutoff 90 is 130,141,395
    assert 79 * 78 // 2 * 159**2 <= MAX_NERODE_PAIRS < 90 * 89 // 2 * 181**2
    for q, cutoff in [(3, 90), (5, 10**6), (10**9, 2)]:
        with pytest.raises(ResourceBound, match="letter pairs, over the ceiling"):
            nerode_evidence(q, cutoff)


def test_pumping_witness_over_the_length_ceiling():
    # n = 5**12 + 1 would make a witness of about 2.7*10^9 letters
    with pytest.raises(ResourceBound, match="witness of length"):
        bader_moura_refute(12, 5, 1)
    # 2**(10**6) has 301,030 digits: neither built nor printed
    with pytest.raises(ResourceBound,
                       match=r"witness of length 2\^64 or more is over the ceiling"):
        bader_moura_refute(10**6, 2, 1)


@pytest.mark.parametrize("q", range(3, 13))
def test_nerode_members_match_the_scan(q):
    # the probes are decided from their block sizes; the scan rebuilds each
    for s in nerode_evidence(q, 10).separations:
        assert s.member_i == in_kunz_language(Word((1,) * s.i + s.suffix.letters), q)
        assert s.member_j == in_kunz_language(Word((1,) * s.j + s.suffix.letters), q)


def _block_word(sizes):
    return Word(tuple(a for a, n in enumerate(sizes, 1) for _ in range(n)))


def _check_block_test(sizes, scans=True):
    """The block test against is_kunz and, with scans, against the two
    Theta(l^2) scans: violations() and conftest's kunz_tuple_ok."""
    word = _block_word(sizes)
    verdict = languages._blocks_kunz(sizes)
    assert verdict == is_kunz(word), sizes
    if scans:
        assert verdict == (violations(word) == []) == kunz_tuple_ok(word.letters), sizes
    return verdict


def test_block_test_matches_the_scans_on_small_sizes():
    verdicts = Counter(
        _check_block_test(sizes)
        for q in range(7) for sizes in itertools.product(range(5), repeat=q))
    assert verdicts == {True: 5_543, False: 13_988}


def test_block_test_matches_the_scans_on_large_sizes():
    # witnesses of depth 3..24 with blocks up to 200, each perturbed in
    # one size six times, and one random tuple with zeros per depth;
    # the Python scans take the words of up to 700 letters
    rng = random.Random(30)
    cases = []
    for q in range(3, 25):
        n = rng.randint(1, min(200, (MAX_WITNESS_LENGTH - 1) // (q - 1)))
        witness = [n] * (q - 1) + [1]
        cases.append(witness)
        for _ in range(6):
            sizes = list(witness)
            i = rng.randrange(q)
            sizes[i] = max(0, sizes[i] + rng.choice([-2, -1, 1, 2, rng.randint(-n, n)]))
            cases.append(sizes)
        sizes = [rng.choice([0, rng.randint(1, 200)]) for _ in range(q)]
        while sum(sizes) > MAX_WITNESS_LENGTH:
            sizes[rng.randrange(q)] //= 2
        cases.append(sizes)
    verdicts = Counter(_check_block_test(tuple(sizes), sum(sizes) <= 700)
                       for sizes in cases)
    assert verdicts[True] >= 22 and verdicts[False] >= 22


def test_nerode_rejects_regular_depths():
    with pytest.raises(DomainError):
        nerode_evidence(2, 5)
    with pytest.raises(DomainError):
        nerode_evidence(3, 1)


def test_pump_examples():
    w = Word((1, 2, 3))
    d = Decomposition(cuts=(0, 1, 1, 2))  # v = (1), y = (2)
    assert pump(w, d, 1) == w
    assert pump(w, d, 2) == Word((1, 1, 2, 2, 3))
    d = Decomposition(cuts=(0, 1, 2, 2))  # v = (1), y empty
    assert pump(w, d, 3) == Word((1, 1, 1, 2, 3))


def test_pump_refuses_a_word_over_the_length_ceiling(monkeypatch):
    w = Word((1, 2, 3))
    d = Decomposition(cuts=(0, 1, 1, 1))  # v = (1), y empty
    assert len(pump(w, d, 4094)) == 4096 == MAX_WITNESS_LENGTH
    with pytest.raises(ResourceBound,
                       match="a pumped word of length 4097 is over the ceiling 4096"):
        pump(w, d, 4095)

    def build(*args):
        raise AssertionError("pump built a word")

    monkeypatch.setattr(languages, "Word", build)
    with pytest.raises(ResourceBound, match="length 1000000000002 is over"):
        pump(w, d, 10**12)
    monkeypatch.undo()

    # the refutations pump to a dozen letters: their reports are as before
    for q, records, longest, first in [(5, 14, 11, "1,1,1,2,2,3,3,4,4,5"),
                                       (6, 17, 13, "1,1,1,2,2,3,3,4,4,5,5,6")]:
        report = bader_moura_refute(q, 1, 4)
        assert len(report.records) == records
        assert {(r.k, r.reason) for r in report.records} == {(2, "not_kunz")}
        assert max(len(r.pumped) for r in report.records) == longest
        assert report.to_json_list()[0] == {
            "cuts": [0, 0, 0, 1], "d_vy": 1, "e_vy": 0, "d_vxy": 1, "e_vxy": 0,
            "k": 2, "pumped": first, "reason": "not_kunz",
        }


def test_pump_length_identity():
    w = witness_kunz(4, 2)
    length = len(w)
    for c1 in range(length + 1):
        for c2 in range(c1, length + 1):
            d = Decomposition(cuts=(c1, c2, c2, length))
            v_len, y_len = c2 - c1, length - c2
            for k in (0, 1, 2, 3):
                assert len(pump(w, d, k)) == length + (k - 1) * (v_len + y_len)


def test_pump_validation():
    w = Word((1, 2, 3))
    with pytest.raises(InvalidDecomposition):
        Decomposition(cuts=(2, 1, 2, 3))
    for cuts in ((0, 1, 1), (0, 1, 1, 2, 3), "0112", (0, 1, 1, 2.5)):
        message = re.escape(f"cuts {cuts!r} are not four integers")
        with pytest.raises(InvalidDecomposition, match=f"^{message}$"):
            Decomposition(cuts)
    with pytest.raises(InvalidDecomposition):
        pump(w, Decomposition(cuts=(0, 1, 2, 7)), 1)
    with pytest.raises(DomainError):
        pump(w, Decomposition(cuts=(0, 1, 1, 2)), -1)
    with pytest.raises(DomainError, match="overlap"):
        PositionMarking(distinguished=frozenset({1}), excluded=frozenset({1, 2}))
    with pytest.raises(DomainError, match="1-based"):
        PositionMarking(distinguished=frozenset({0}), excluded=frozenset())
    # exactly int, as the cuts above: 1.5 matches no position, True == 1
    for bad in (1.5, True, 2.0, "3"):
        message = re.escape(f"position {bad!r} is not an integer")
        with pytest.raises(DomainError, match=f"^{message}$"):
            PositionMarking(distinguished=frozenset({bad}), excluded=frozenset())
        with pytest.raises(DomainError, match=f"^{message}$"):
            PositionMarking(distinguished=frozenset({1}), excluded=frozenset({bad}))
    with pytest.raises(DomainError, match="each of 2..5"):
        mark_for_refutation(Word((1, 2, 3, 5)), 5)  # no 4


def test_marking_stores_frozensets():
    listed = PositionMarking([1, 3], [2])
    frozen = PositionMarking(frozenset({1, 3}), frozenset({2}))
    assert (listed.distinguished, listed.excluded) == (frozen.distinguished, frozen.excluded)
    for marking in (listed, PositionMarking({1}, {2})):
        assert type(marking.distinguished) is type(marking.excluded) is frozenset
    for distinguished, excluded in ((5, {2}), ({1}, None), ([[1]], ())):
        with pytest.raises(DomainError, match="^positions must be collections of integers$"):
            PositionMarking(distinguished, excluded)


_WORD, _CUTS = Word((1, 2, 3)), Decomposition((0, 1, 1, 2))


@pytest.mark.parametrize("call,name,bad", [
    (lambda v: count_kunz(v, 4), "q", 3.0),
    (lambda v: count_kunz(3, v), "length", 4.0),
    (lambda v: enumerate_kunz(v, 3), "q", True),
    (lambda v: enumerate_kunz(3, v), "length", False),
    (lambda v: nerode_evidence(v, 4), "q", 5.0),
    (lambda v: nerode_evidence(3, v), "cutoff", True),
    (lambda v: bader_moura_refute(v, 1, 4), "q", 5.0),
    (lambda v: bader_moura_refute(5, v, 4), "p", True),
    (lambda v: bader_moura_refute(5, 1, v), "k_max", True),
    (lambda v: pump(_WORD, _CUTS, v), "k", 2.0),
    # before any ceiling: these would be refused as over it
    (lambda v: count_kunz(12, v), "length", 10.0**6),
    (lambda v: nerode_evidence(3, v), "cutoff", 1e9),
])
def test_entry_points_refuse_arguments_that_are_not_ints(call, name, bad):
    message = re.escape(f"{name} must be an integer, got {type(bad).__name__}")
    with pytest.raises(DomainError, match=f"^{message}$"):
        call(bad)


def test_marking_of_witness():
    w = witness_kunz(5, 2)  # 1 1 2 2 3 3 4 4 5
    marking = mark_for_refutation(w, 5)
    assert marking.distinguished == frozenset({1, 2})
    assert marking.excluded == frozenset({3, 5, 7, 9})


def test_refute_q5():
    report = bader_moura_refute(5, 1, 4)
    assert report.word == witness_kunz(5, 2)
    assert len(report.marking.distinguished) == 2
    assert len(report.marking.excluded) == 4
    # the marked word does trigger the property: d(w) = 2 > 1^(4+1)
    assert len(report.marking.distinguished) > 1 ** (len(report.marking.excluded) + 1)
    assert report.records  # some decompositions satisfy conditions 1-2
    assert report.all_refuted
    for record in report.records:
        assert record.d_vy >= 1 and record.e_vy == 0
        assert record.d_vxy <= 1 ** (record.e_vxy + 1)
        assert record.k is not None and record.k <= 4
        pumped = pump(report.word, record.decomposition, record.k)
        assert not in_kunz_language(pumped, 5)


@pytest.mark.parametrize("q", range(5, 13))
def test_refutation_matches_generate_and_filter(q):
    # the cut loops admit exactly the decompositions a filter over
    # every cut tuple keeps, in the same order, and pumps them alike
    for k_max in range(5):
        expected = naive_refutation(q, 1, k_max)
        try:
            report = bader_moura_refute(q, 1, k_max)
        except NoRefutation as exc:
            report = exc.report
            assert any(k is None for *_, k, _ in expected)
        else:
            assert all(k is not None for *_, k, _ in expected)
        assert [(r.decomposition.cuts, r.d_vy, r.e_vy, r.d_vxy, r.e_vxy,
                 r.k, r.reason) for r in report.records] == expected


def _count_tests(monkeypatch) -> list[int]:
    """Count the refutation's block tests and Kunz scans, in that order."""
    calls = [0, 0]
    block_test, scan = languages._blocks_kunz, languages.is_kunz

    def counted_test(sizes):
        calls[0] += 1
        return block_test(sizes)

    def counted_scan(word):
        calls[1] += 1
        return scan(word)

    monkeypatch.setattr(languages, "_blocks_kunz", counted_test)
    monkeypatch.setattr(languages, "is_kunz", counted_scan)
    return calls


@pytest.mark.parametrize("q", range(5, 13))
def test_refutation_scans_each_distinct_pumped_word_once(monkeypatch, q):
    # one block test and one shared Word per distinct pumped word, no scan
    calls = _count_tests(monkeypatch)
    report = bader_moura_refute(q, 1, 4)
    assert calls == [2 * q - 1, 0]
    pumped = [r.pumped for r in report.records]
    assert len(set(map(id, pumped))) == len(set(pumped))


def test_refutation_at_p2_shares_its_pumped_words(monkeypatch):
    # the ceiling is C(137, 4), the cut tuples of the length-133 witness
    calls = _count_tests(monkeypatch)
    report = bader_moura_refute(5, 2, 4, max_candidates=14_043_870)
    records = report.records
    assert len(records) == 102_856
    assert calls == [1_143, 0]
    assert Counter((r.k, r.reason) for r in records) == {
        (0, "not_kunz"): 68_789, (2, "not_kunz"): 34_067}
    assert len({id(r.pumped) for r in records}) == len({r.pumped for r in records})


def test_refutation_at_p2_reports_its_survivors():
    # k = 0 and 1 leave every record that only k = 2 refutes unrefuted
    with pytest.raises(NoRefutation) as exc_info:
        bader_moura_refute(5, 2, 1, max_candidates=14_043_870)
    records = exc_info.value.report.records
    assert Counter((r.k, r.reason) for r in records) == {
        (0, "not_kunz"): 68_789, (None, None): 34_067}


def test_refute_q6():
    report = bader_moura_refute(6, 1, 4)
    assert report.all_refuted


def test_refute_refuses_small_depths():
    with pytest.raises(DomainError):
        bader_moura_refute(4, 1, 4)
    with pytest.raises(DomainError):
        bader_moura_refute(3, 1, 4)
    with pytest.raises(DomainError, match="p must be"):
        bader_moura_refute(5, 0, 4)
    with pytest.raises(DomainError, match="k_max must be"):
        bader_moura_refute(5, 1, -1)


def test_refute_resource_bound():
    with pytest.raises(ResourceBound):
        bader_moura_refute(5, 1, 4, max_candidates=100)


def test_refute_surfaces_survivors():
    # k = 0 and k = 1 alone cannot kill every decomposition
    with pytest.raises(NoRefutation) as exc_info:
        bader_moura_refute(5, 1, 1)
    report = exc_info.value.report
    assert report.unrefuted
    assert any(r.k is None for r in report.records)
    assert all(r.pumped is None and r.reason is None for r in report.unrefuted)


def test_refute_refuses_a_pumped_word_over_the_length_ceiling(monkeypatch):
    # with every size tuple passing the block test nothing refutes, so the
    # first record's y, one letter, is pumped until its word has 4,097
    # letters, at k = 4,089, and the refusal comes at that k
    monkeypatch.setattr(languages, "_blocks_kunz", lambda sizes: True)
    with pytest.raises(ResourceBound,
                       match="^a pumped word of length 4097 is over the ceiling 4096$"):
        bader_moura_refute(5, 1, 10**4)
