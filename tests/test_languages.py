import re
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
    in_kunz_language,
    is_kunz,
    mark_for_refutation,
    nerode_evidence,
    pump,
    witness_kunz,
)
from kunzlab import languages
from kunzlab.languages import MAX_NERODE_PAIRS
from kunzlab.words import MAX_WITNESS_LENGTH
from conftest import all_words, naive_census, naive_refutation


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
    assert count_kunz(2, 40, max_candidates=2**40) == 2**40 - 1
    assert count_kunz(1, 40) == 1
    for length in range(13):
        for q in (1, 2):
            want = naive_census(q, length)
            assert [w.letters for w in enumerate_kunz(q, length)] == want
            assert count_kunz(q, length) == len(want)
    # the ceilings still refuse, as for a walked cell
    with pytest.raises(ResourceBound, match="1099511627776 candidate words"):
        count_kunz(2, 40)
    with pytest.raises(ResourceBound, match="length 101 needs 10201 interval steps"):
        enumerate_kunz(1, 101, max_candidates=10_000)
    with pytest.raises(AssertionError, match="census walked"):
        count_kunz(3, 3)


@pytest.mark.parametrize("cell,nodes", [((5, 9), 29_538), ((3, 12), 34_855)])
def test_census_node_count_is_pinned(monkeypatch, cell, nodes):
    # one _letter_bounds call per prefix of length up to l-2, and one
    # walk serves both census functions
    calls = 0
    letter_bounds = languages._letter_bounds

    def counted(*args):
        nonlocal calls
        calls += 1
        return letter_bounds(*args)

    monkeypatch.setattr(languages, "_letter_bounds", counted)
    for census in (count_kunz, enumerate_kunz):
        calls = 0
        census(*cell)
        assert calls == nodes


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
    # one candidate word, but length**2 interval work
    assert count_kunz(1, 100, max_candidates=10_000) == 1
    assert enumerate_kunz(1, 100, max_candidates=10_000) == [Word((1,) * 100)]
    for census in (count_kunz, enumerate_kunz):
        with pytest.raises(ResourceBound, match="length 101 needs 10201 interval steps"):
            census(1, 101, max_candidates=10_000)


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
    with pytest.raises(DomainError, match="each of 2..5"):
        mark_for_refutation(Word((1, 2, 3, 5)), 5)  # no 4


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
    # the span pairing admits exactly the decompositions a filter over
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


def _count_scans(monkeypatch) -> list[int]:
    """Count the Kunz scans the refutation makes, in a one-item list."""
    scans = [0]
    scan = languages.is_kunz

    def counted(word):
        scans[0] += 1
        return scan(word)

    monkeypatch.setattr(languages, "is_kunz", counted)
    return scans


@pytest.mark.parametrize("q", range(5, 13))
def test_refutation_scans_each_distinct_pumped_word_once(monkeypatch, q):
    # one scan and one shared Word per distinct pumped word
    scans = _count_scans(monkeypatch)
    report = bader_moura_refute(q, 1, 4)
    assert scans[0] == 2 * q - 1
    pumped = [r.pumped for r in report.records]
    assert len(set(map(id, pumped))) == len(set(pumped))


def test_refutation_at_p2_shares_its_pumped_words(monkeypatch):
    # the ceiling is C(137, 4), the cut tuples of the length-133 witness
    scans = _count_scans(monkeypatch)
    report = bader_moura_refute(5, 2, 4, max_candidates=14_043_870)
    records = report.records
    assert len(records) == 102_856
    assert scans[0] == 1_143
    assert Counter((r.k, r.reason) for r in records) == {
        (0, "not_kunz"): 68_789, (2, "not_kunz"): 34_067}
    assert len({id(r.pumped) for r in records}) == len({r.pumped for r in records})


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
