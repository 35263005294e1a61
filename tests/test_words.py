import itertools
import math
import random

import pytest

from kunzlab import (
    DomainError,
    NATURALS,
    NotKunz,
    ResourceBound,
    Violation,
    Word,
    enumerate_semigroups,
    from_generators,
    from_semigroup,
    is_kunz,
    to_semigroup,
    violations,
    witness_kunz,
    witness_nonkunz,
)
from kunzlab import words as words_module
from kunzlab.semigroups import from_apery
from kunzlab.words import MAX_WITNESS_LENGTH
from conftest import all_words, kunz_tuple_ok


def test_word_parse_and_str():
    assert Word.parse("1,1,2,3").letters == (1, 1, 2, 3)
    assert str(Word((1, 1, 2, 3))) == "1,1,2,3"
    assert Word.parse("") == Word(())
    assert str(Word(())) == ""
    assert Word.parse("12").letters == (12,)  # one letter, not two


def test_word_validation():
    with pytest.raises(DomainError):
        Word((1, 0, 2))
    with pytest.raises(DomainError):
        Word.parse("1,x,2")
    # True == 1 and hashes alike, but its str "True" would not parse back
    with pytest.raises(DomainError):
        Word((True, 2))


@pytest.mark.parametrize(
    "letters",
    [(1, 2, 3), [1, 2, 3], (u for u in (1, 2, 3)), range(1, 4)],
    ids=["tuple", "list", "generator", "range"],
)
def test_word_stores_a_tuple(letters):
    """Any iterable of letters builds the same value as its tuple."""
    import pickle

    word = Word(letters)
    assert word.letters == (1, 2, 3) and type(word.letters) is tuple
    assert word == Word((1, 2, 3))
    assert hash(word) == hash(Word((1, 2, 3)))
    assert word + Word((3,)) == Word((1, 2, 3, 3))
    assert Word([3]) + word == Word((3, 1, 2, 3))
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(word, protocol)) == word
    assert is_kunz(word)


def test_word_concatenation():
    assert Word((1, 2)) + Word((3,)) == Word((1, 2, 3))
    assert Word(()) + Word(()) == Word(())
    # a tuple is not a Word: Python's TypeError, not an AttributeError
    for other in ((2,), [2], 2, "2"):
        with pytest.raises(TypeError, match="unsupported operand"):
            Word((1,)) + other
    with pytest.raises(TypeError):
        (2,) + Word((1,))


def test_word_keeps_a_given_tuple():
    letters = (1, 2, 3)
    assert Word(letters).letters is letters


def test_is_kunz_empty_and_singletons():
    assert is_kunz(Word(()))
    for k in range(1, 7):
        assert is_kunz(Word((k,)))


def test_is_kunz_examples():
    assert is_kunz(Word((1, 2, 3)))
    assert not is_kunz(Word((1, 1, 3)))


def test_violations_examples():
    assert violations(Word((1, 2, 3))) == []
    assert violations(Word((1, 1, 3))) == [Violation("first", 1, 2, 3)]
    vs = violations(Word((1, 1, 1, 2, 3)))
    assert Violation("first", 2, 3, 5) in vs


def test_violations_sorted_and_consistent():
    for w in all_words((1, 2, 3), 6):
        vs = violations(w)
        assert vs == sorted(vs, key=lambda v: (v.i, v.j))
        assert (vs == []) == is_kunz(w)


def products_scan(w):
    """The word-parallel scan alone, whatever its cost rule would pick."""
    u = w.letters
    if 2 * min(u, default=0) >= max(u, default=0):
        return True
    return words_module._sums_in_bounds(u, sorted(set(u)), max(u))


def assert_checks_agree(w):
    """is_kunz (whichever path it takes), the product scan forced,
    violations (pair scan), the definition in conftest and from_apery's
    validator on the matching Apery tuple decide w alike; returns the
    verdict."""
    ok = kunz_tuple_ok(w.letters)
    assert is_kunz(w) == products_scan(w) == (not violations(w)) == ok, w
    m = len(w) + 1
    values = (0,) + tuple(u * m + i for i, u in enumerate(w, start=1))
    try:
        from_apery(values)
    except DomainError:
        assert not ok, w
    else:
        assert ok, w
    return ok


def test_interval_check_scan_and_definition_agree():
    for w in all_words(range(1, 6), 6):
        assert_checks_agree(w)


# the regular core, 2*min >= max, at the length ceiling: one word with
# 2*min above max and one with 2*min equal to it
CORE_WORDS = [Word((3, 4, 5, 6) * 1024), Word((2, 3, 4) * 1365 + (2,))]


@pytest.mark.parametrize("w", CORE_WORDS, ids=["3-6", "2-4"])
def test_core_words_at_the_ceiling_agree(w):
    assert len(w) == MAX_WITNESS_LENGTH
    assert is_kunz(w) and violations(w) == []


def test_core_words_skip_the_interval_scan(monkeypatch):
    def refuse(*args):
        raise AssertionError("interval scan ran")

    monkeypatch.setattr(words_module, "_letter_bounds", refuse)
    for w in CORE_WORDS + [Word(()), Word((1,)), Word((2, 1, 2))]:
        assert is_kunz(w)
        m = len(w) + 1
        from_apery((0,) + tuple(u * m + i for i, u in enumerate(w, start=1)))
    # a word off the core still runs the scan
    with pytest.raises(AssertionError, match="interval scan ran"):
        is_kunz(Word((1, 3)))


def test_word_parallel_scan_agrees_on_every_short_word():
    # every word of length <= 8 over {1..4}: 87,381 words, both verdicts
    assert {assert_checks_agree(w) for w in all_words(range(1, 5), 8)} == {True, False}


def few_letter_kunz_words():
    """Kunz words of length 499..4,096 with up to ten distinct letters,
    interleaved (from <m, g_2, .., g_e>, g_i drawn from (m, 2m)) and in
    blocks (the witness families)."""
    rng = random.Random(27)
    words = []
    for m in (500, 1001, 2000, 4097):
        while True:
            gens = [m] + rng.sample(range(m + 1, 2 * m), 7)
            if math.gcd(*gens) == 1:
                break
        words.append(from_semigroup(from_generators(gens)))
    return words + [witness_kunz(3, 2047), witness_kunz(5, 1023), witness_kunz(12, 372)]


@pytest.mark.parametrize("w", few_letter_kunz_words(), ids=lambda w: f"l{len(w)}d{w.depth}")
def test_word_parallel_scan_on_long_words(w, monkeypatch):
    # each word, Kunz by construction, and two one-letter perturbations of
    # it: is_kunz on the product path, never the interval scan, against
    # the definition (which stops at the first failure)
    def refuse(*args):
        raise AssertionError("interval scan ran")

    rng = random.Random(len(w))
    near = []
    for _ in range(2):
        letters = list(w.letters)
        p = rng.randrange(len(letters))
        letters[p] += rng.choice((-1, 1)) if letters[p] > 1 else 1
        near.append(Word(letters))
    monkeypatch.setattr(words_module, "_letter_bounds", refuse)
    verdicts = [is_kunz(v) for v in [w] + near]
    monkeypatch.undo()
    assert verdicts == [True] + [kunz_tuple_ok(v.letters) for v in near]


def test_word_parallel_scan_gives_both_verdicts_on_perturbed_witnesses():
    # one letter of a block witness raised or lowered: both verdicts
    # occur, and every check agrees on each
    w = witness_kunz(5, 125)
    verdicts = []
    for p in range(0, len(w), 50):
        for delta in (-1, 1):
            letters = list(w.letters)
            letters[p] = max(1, letters[p] + delta)
            verdicts.append(assert_checks_agree(Word(letters)))
    assert True in verdicts and False in verdicts


def test_slot_width_ignores_letter_size(monkeypatch):
    # block witnesses scaled by 10**30 stay Kunz, and raising u_2n by 1
    # breaks them (u_n + u_n = 2*big < u_2n); the scan takes the product
    # path at both lengths
    def refuse(*args):
        raise AssertionError("interval scan ran")

    big = 10**30
    long = Word(tuple(big * u for u in witness_kunz(3, 2000).letters))
    short = Word(tuple(big * u for u in witness_kunz(4, 20).letters))
    words = []
    for w, n in ((long, 2000), (short, 20)):
        letters = list(w.letters)
        letters[2 * n - 1] += 1
        words += [w, Word(letters)]
    monkeypatch.setattr(words_module, "_letter_bounds", refuse)
    assert [is_kunz(w) for w in words] == [True, False, True, False]
    monkeypatch.undo()
    assert violations(words[2]) == []
    assert violations(words[3]) == [Violation("first", 20, 20, 40)]


def test_dispatch_by_distinct_letters(monkeypatch):
    calls = []
    letter_bounds = words_module._letter_bounds

    def counted(*args):
        calls.append(args[1])
        return letter_bounds(*args)

    monkeypatch.setattr(words_module, "_letter_bounds", counted)
    # 12 letters over 4,093 positions: products only
    assert is_kunz(witness_kunz(12, 372)) and calls == []
    # one distinct letter per position: the interval scan, every position
    assert is_kunz(Word(range(1, 55))) and calls == list(range(1, 55))


def test_violation_json():
    v = Violation("second", 3, 4, 1)
    assert v.to_json_dict() == {"kind": "second", "i": 3, "j": 4, "target": 1}


def test_second_condition_can_fail():
    # 4,1,1: pair (2,3) targets position 5-4=1 and 1+1+1 < 4
    vs = violations(Word((4, 1, 1)))
    assert Violation("second", 2, 3, 1) in vs


def test_word_depth():
    assert Word(()).depth == 0
    assert Word((1, 2, 3)).depth == 3
    assert Word((2,)).depth == 2


def test_all_short_12_words_are_kunz():
    for w in all_words((1, 2), 8):
        assert is_kunz(w)


def test_to_semigroup_examples():
    assert to_semigroup(Word(())) == NATURALS
    s = to_semigroup(Word((2, 1)))
    assert s.small_elements == (0, 3, 5)
    assert s.conductor == 5
    assert to_semigroup(Word((1, 1))) == from_generators({3, 4, 5})


def test_to_semigroup_checks_precondition():
    with pytest.raises(NotKunz):
        to_semigroup(Word((1, 1, 3)))


def test_from_semigroup_examples():
    assert from_semigroup(NATURALS) == Word(())
    assert from_semigroup(from_generators({3, 5, 7})) == Word((2, 1))
    assert from_semigroup(from_generators({2, 5})) == Word((2,))


def test_round_trip_words_to_semigroups():
    for length in range(0, 5):
        for letters in itertools.product((1, 2, 3), repeat=length):
            w = Word(letters)
            if is_kunz(w):
                assert from_semigroup(to_semigroup(w)) == w


def test_round_trip_semigroups_to_words():
    for s in enumerate_semigroups(5, 3):
        w = from_semigroup(s)
        assert is_kunz(w)
        assert to_semigroup(w) == s
        assert len(w) + 1 == s.multiplicity
        assert w.depth == s.depth


def test_witness_kunz_examples():
    assert witness_kunz(3, 1) == Word((1, 2, 3))
    assert witness_kunz(3, 2) == Word((1, 1, 2, 2, 3))
    assert witness_kunz(5, 2) == Word((1, 1, 2, 2, 3, 3, 4, 4, 5))


def test_witness_nonkunz_examples():
    assert witness_nonkunz(3, 1, 1) == Word((1, 1, 2, 3))
    assert witness_nonkunz(3, 2, 1) == Word((1, 1, 1, 2, 2, 3))
    assert witness_nonkunz(4, 1, 2) == Word((1, 1, 1, 2, 3, 4))


@pytest.mark.parametrize("q", [3, 4, 5, 6])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_witness_families(q, n):
    w = witness_kunz(q, n)
    assert len(w) == (q - 1) * n + 1
    assert w.depth == q
    assert is_kunz(w)
    for m in (1, 2):
        bad = witness_nonkunz(q, n, m)
        assert not is_kunz(bad)
        # the padded block breaks the first condition at (n+1, n+m)
        assert Violation("first", n + 1, n + m, 2 * n + m + 1) in violations(bad)


def test_witness_length_ceiling():
    # 4,095 and 4,096 letters are built; one more is refused before building
    assert len(witness_kunz(3, 2047)) == MAX_WITNESS_LENGTH - 1
    assert len(witness_nonkunz(3, 2047, 1)) == MAX_WITNESS_LENGTH
    with pytest.raises(ResourceBound, match="length 4097 is over the ceiling 4096"):
        witness_nonkunz(3, 2047, 2)
    # about 2*10^9 letters each, never built
    for make in (lambda: witness_kunz(3, 10**9), lambda: witness_kunz(10**9, 2),
                 lambda: witness_nonkunz(3, 1, 2 * 10**9)):
        with pytest.raises(ResourceBound, match="ceiling"):
            make()


def test_violations_length_ceiling():
    # Theta(l^2) violations can be listed, so a long word is refused up front
    long_word = Word((1,) * 2049 + (3,) * 2048)
    with pytest.raises(ResourceBound, match="length 4097 is over the ceiling 4096"):
        violations(long_word)


def test_to_semigroup_length_ceiling():
    # refused before the O(l^2) Kunz scan, Kunz word or not
    for letters in ((3,) * 4097, (1,) * 4097):
        with pytest.raises(ResourceBound, match="a word of length 4097 is over the ceiling 4096"):
            to_semigroup(Word(letters))
    assert to_semigroup(Word((3,) * 4096)).multiplicity == 4097


def test_witness_domain_errors():
    with pytest.raises(DomainError):
        witness_kunz(2, 1)
    with pytest.raises(DomainError):
        witness_kunz(3, 0)
    with pytest.raises(DomainError):
        witness_nonkunz(3, 1, 0)
    with pytest.raises(DomainError, match="q >= 3"):
        witness_nonkunz(2, 1, 1)
