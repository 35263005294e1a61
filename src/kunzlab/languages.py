"""The depth-q word languages: recognizers, censuses and finite
replays of the classification experiments.

K_q is the set of Kunz words over {1,...,q} whose largest letter is
exactly q.  For q <= 2 the language is regular, {1}+ and {1,2}*2{1,2}*:
tiny machines below recognize it, and the census lists and counts it in
closed form; it counts K_3 over the sets of its words' 1-positions.
For q >= 3 no finite automaton can recognize K_q: this module produces
the concrete distinguishability and pumping evidence for that, one
finite, re-checkable certificate at a time.
"""

from __future__ import annotations

import itertools
import sys
from bisect import bisect_left, bisect_right
from math import comb
from operator import sub
from typing import Iterable, Iterator, Mapping

from ._frozen import Frozen
from .errors import (
    DomainError,
    InvalidDecomposition,
    LetterOutOfAlphabet,
    NoRefutation,
    ResourceBound,
    SelfCheckFailed,
    _check_at_least_one,
    _check_ints,
    _shown,
)
from .words import (
    Word,
    _check_length,
    _letter_bounds,
    is_kunz,
    witness_kunz,
    witness_nonkunz,
)

DEFAULT_CANDIDATE_CEILING = 10_000_000
# Largest nerode_evidence run, in letter pairs: comb(cutoff, 2)
# separations, each charged the pairs of a word of length up to
# l = (q-1)*cutoff + 1, O(l^2) for the interval scan.  No run scans them:
# every probe is an ascending block word, decided from its q block sizes
# (_blocks_kunz) without being built.  So the ceiling charges work the
# run does not do; it keeps its value until it charges a separation's
# real cost.  Measured (2-CPU VM, Python 3.11, best of 5), (q, cutoff):
# (3, 79) is 7.8e7 charged pairs in 0.011 s, (5, 59) 9.6e7 in 0.007 s,
# (12, 36) 9.9e7 in 0.003 s.
MAX_NERODE_PAIRS = 100_000_000


class Dfa(Frozen):
    """Deterministic finite accepter over a set of integer letters.  The
    transition, a mapping keyed by (state, letter) pairs of ints, is
    stored as a plain dict of its own over exactly states x alphabet, so
    a later change to the caller's mapping does not reach it."""

    __slots__ = ("states", "alphabet", "transition", "start", "accepting")

    def __init__(
        self,
        states: frozenset[int],
        alphabet: frozenset[int],
        transition: Mapping[tuple[int, int], int],
        start: int,
        accepting: frozenset[int],
    ):
        # exactly int throughout: True == 1 and 1.0 == 1 would pass as 1
        _check_ints(states, "the states", start=start)
        _check_ints(alphabet, "the alphabet")
        _check_ints(accepting, "the accepting states")
        if not isinstance(transition, Mapping):
            raise DomainError(
                f"the transition must be a mapping, got {type(transition).__name__}"
            )
        for key in transition:
            if not (type(key) is tuple and len(key) == 2
                    and {int}.issuperset(map(type, key))):
                raise DomainError("the transition keys must be pairs of integers")
        _check_ints(transition.values(), "the transition targets")
        if start not in states:
            raise DomainError("start state unknown")
        if not accepting <= states:
            raise DomainError("accepting states unknown")
        table = {}
        for state in states:
            for letter in alphabet:
                target = transition.get((state, letter))
                if target not in states:
                    raise DomainError(
                        f"transition not total at ({state}, {letter})"
                    )
                table[state, letter] = target
        super().__init__(states, alphabet, table, start, accepting)


def dfa_k1() -> Dfa:
    """Recognizer for K_1 = {1}+ (at least one letter, all of them 1)."""
    return Dfa(
        states=frozenset({0, 1}),
        alphabet=frozenset({1}),
        transition={(0, 1): 1, (1, 1): 1},
        start=0,
        accepting=frozenset({1}),
    )


def dfa_k2() -> Dfa:
    """Two-state recognizer for K_2: words over {1, 2} containing a 2."""
    return Dfa(
        states=frozenset({0, 1}),
        alphabet=frozenset({1, 2}),
        transition={(0, 1): 0, (0, 2): 1, (1, 1): 1, (1, 2): 1},
        start=0,
        accepting=frozenset({1}),
    )


def dfa_accepts(dfa: Dfa, word: Word) -> bool:
    state = dfa.start
    for letter in word:
        if letter not in dfa.alphabet:
            raise LetterOutOfAlphabet(f"letter {letter} not in {sorted(dfa.alphabet)}")
        state = dfa.transition[(state, letter)]
    return state in dfa.accepting


def in_kunz_language(word: Word, q: int) -> bool:
    """Membership in K_q: Kunz conditions plus largest letter exactly q.
    DomainError for a q that is not an int: 5.0 == 5 would answer as 5."""
    _check_ints(q=q)
    return word.depth == q and is_kunz(word)


def _blocks_kunz(sizes: tuple[int, ...]) -> bool:
    """is_kunz of the ascending block word 1^n_1 2^n_2 ... q^n_q, read
    off its sizes (n_1, ..., n_q), zeros allowed, building no word.

    Let C(c) = n_1 + ... + n_c count the positions holding letters up to
    c, and top be the largest letter present.  The word is Kunz iff

        C(a) + C(b) <= C(a+b)  for all a, b >= 1 with a + b < top.

    The second condition cannot fail on a nondecreasing word: its target
    i + j - (l+1) is below i.  A failure of the first at positions i, j
    holding a and b has i <= C(a), j <= C(b), C(a+b) < i + j, and
    a + b < u_{i+j} <= top.  Conversely, if C(a+b) < C(a) + C(b) with
    a + b < top, then C(a), C(b) >= 1, and the positions i = C(a) and
    j = min(C(b), l - C(a)) fail: i + j is C(a) + C(b) or l, both above
    C(a+b), which is below l, while u_i + u_j <= a + b.  By symmetry
    b >= a suffices, so each a is one min over a slice of differences:
    O(top^2) steps, and no Python-level call per pair."""
    ends = list(itertools.accumulate(sizes, initial=0))  # ends[c] = C(c)
    top = bisect_left(ends, ends[-1])
    return all(min(map(sub, ends[2 * a:top], ends[a:top - a])) >= ends[a]
               for a in range(1, (top + 1) // 2))


def _check_census_args(q: int, length: int, max_candidates: int) -> None:
    """The argument checks of the two census functions: a ceiling below 1
    is refused before any cell is looked at, and a depth or length that
    is not an int before either."""
    _check_ints(q=q, length=length)
    if q < 0 or length < 0:
        raise DomainError("depth and length must be nonnegative")
    _check_at_least_one(max_candidates, "the candidate ceiling")


def _check_power(base: int, length: int, max_candidates: int, unit: str) -> None:
    """ResourceBound if base**length units exceed max_candidates."""
    # base**length >= 2**length for base >= 2, so capping the exponent past
    # both 64 and the ceiling's bit length keeps the verdict and the
    # message and never builds a number of length bits
    charge = base ** min(length, max(64, max_candidates.bit_length() + 1))
    if charge > max_candidates:
        raise ResourceBound(
            f"{_shown(charge)} {unit} exceed the ceiling {_shown(max_candidates)}"
        )


def _check_walk(q: int, length: int, max_candidates: int) -> None:
    """The walk's ceiling.  It covers at most q**length candidate words,
    and costs O(length**2) interval work even on one word, so either
    count over max_candidates refuses the cell.  A listing is charged
    both at q <= 2 too, where no walk runs but every word is built."""
    if not q:  # K_0 is the empty word alone, so its cells are never refused
        return
    _check_power(q, length, max_candidates, "candidate words")
    if length**2 > max_candidates:
        raise ResourceBound(
            f"length {_shown(length)} needs {_shown(length**2)} interval steps,"
            f" over the ceiling {_shown(max_candidates)}"
        )


def _last_letters(q: int, length: int) -> Iterator[tuple[list[int], int, list[range]]]:
    """Depth-first walk over the prefixes u_1 .. u_s of the K_q words of
    the given length l >= 2, s = l - 2 (s = 1 at l = 2), whose every
    letter lies in its _letter_bounds interval, in lexicographic order.
    For each one yields (u, x_lo, ys): the words through the prefix are
    u[:l-2] + (x_lo + i, y) for each y in ys[i], in lexicographic order.
    u is reused between yields and holds zeros past the prefix.

    From l = 3 on the walk stops two letters short.  One _letter_bounds
    call gives the interval of u_{l-1}, and only three terms of the last
    letter's interval involve u_{l-1} = x, so one O(l) pass per prefix
    leaves each x an O(1) interval:

        hi(x) = min(H, u_1 + x),  H = min(q, u_i + u_{l-i} : 2 <= i <= l/2)
        lo(x) = max(L, x // 2, u_{l-2} - x - 1),
                                  L = max(1, u_k - u_{k+1} - 1 : k <= l-3)

    and when neither the prefix nor x holds a q, the word ends in q.  At
    l = 2 the prefix is u_1 and the last interval is _letter_bounds'.
    """
    u = [0] * length
    tops = [0] * length
    stop = max(length - 2, 1)
    half = length // 2
    p = 0  # letters placed
    while True:
        if p < stop:
            lo, tops[p] = _letter_bounds(u, p + 1, length, q)
            u[p] = lo - 1
            p += 1
        elif length == 2:
            lo, hi = _letter_bounds(u, 2, 2, q)
            # hi <= q, and a prefix without a q can only end in q
            yield u, u[0], [range(lo if q in u else q, hi + 1)]
        else:
            x_lo, x_hi = _letter_bounds(u, length - 1, length, q)
            top = q  # H: the pairs u_i + u_{l-i}, 2 <= i <= l/2
            for i in range(1, half):
                s = u[i] + u[p - i]
                if s < top:
                    top = s
            floor = 1  # L: the drops u_k - u_{k+1} - 1, k <= l-3
            for k in range(1, p):
                d = u[k - 1] - u[k] - 1
                if d > floor:
                    floor = d
            # a word whose prefix and u_{l-1} hold no q ends in q
            last_floor = floor if q in u else q
            first, before = u[0], u[p - 1] - 1
            ys = []
            for x in range(x_lo, x_hi + 1):
                lo = last_floor if x < q else floor
                if x >> 1 > lo:
                    lo = x >> 1
                if before - x > lo:
                    lo = before - x
                hi = first + x
                if hi > top:
                    hi = top
                ys.append(range(lo, hi + 1))
            yield u, x_lo, ys
        # next letter at the deepest position that has one left
        while p:
            x = u[p - 1] + 1
            if x <= tops[p - 1]:
                u[p - 1] = x
                break
            p -= 1
        else:
            return


def _k3_subsets(length: int, bits: int, mask: int, sums: int, top: int) -> int:
    """The sum of 2**(length - f(A)) over the sets A of 1-positions that
    add positions above top to the set in mask, whose largest is top (0
    for the empty set); f(A) counts the positions of [1, length] in A or
    A + A (see count_kunz).  mask has bit i for each i in the set, sums
    bit i + j for each pair of them up to length, and bits =
    2**(length+1) - 1 clears the sums past it.  One call per set."""
    total = 1 << length - (mask | sums).bit_count()
    for x in range(top + 1, length + 1):
        joined = mask | 1 << x
        total += _k3_subsets(length, bits, joined, (sums | joined << x) & bits, x)
    return total


def enumerate_kunz(
    q: int,
    length: int,
    *,
    max_candidates: int = DEFAULT_CANDIDATE_CEILING,
) -> list[Word]:
    """All words of K_q of the given length, in lexicographic order.

    At q <= 2 no Kunz condition can fail, since every pair sum is at
    least 2, so the words are every word over {1..q} but 1^length, listed
    by itertools.product.  From q = 3 on, a depth-first search that tries
    letters in ascending order and, the length being fixed, places each
    letter only inside the interval the Kunz conditions decided at its
    position leave open (see words._letter_bounds), so every dead
    prefix is cut as soon as it is placed.  It stops two letters short
    and lists the last two from one set of bounds per prefix (see
    _last_letters).  Both paths yield letters in [1, q] by construction,
    so the words are built in bulk, without Word's letter check.  The
    ceiling applies to all q**length candidates and to the length**2
    interval work (see _check_walk), at every q.
    """
    _check_census_args(q, length, max_candidates)
    _check_walk(q, length, max_candidates)
    if q == 0 or length < 2:
        # K_0 is the empty word alone, and K_q's one word of length 1 is q
        return [Word._trusted((q,) * length)] if (q == 0) == (length == 0) else []
    if q <= 2:
        # 1^length comes first, and is in K_q at q = 1 alone
        words = itertools.product(range(1, q + 1), repeat=length)
        return Word._trusted_many(list(itertools.islice(words, q - 1, None)))
    letters = []
    for u, x_lo, ys in _last_letters(q, length):
        head = tuple(u[:length - 2])
        for x, last in enumerate(ys, x_lo):
            stem = head + (x,)
            letters.extend([stem + (y,) for y in last])
    return Word._trusted_many(letters)


def count_kunz(q: int, length: int, *, max_candidates: int = DEFAULT_CANDIDATE_CEILING) -> int:
    """len(enumerate_kunz(q, length)), building no words.

    At q <= 2 it is q**length - (q-1)**length, the words over {1..q} that
    hold a q.  No walk runs, so the ceiling charges the length bits of
    that number at q = 2, and nothing at q = 1, where it is 1; a number
    of more decimal digits than Python prints (sys.get_int_max_str_digits)
    is refused too.  At q = 3 the second Kunz condition cannot fail,
    since u_i + u_j + 1 >= 3, and the first fails only where u_i = u_j = 1
    and u_{i+j} = 3.  So given the set A of 1-positions, the other
    positions of A + A must hold 2 and the rest are free in {2, 3}:

        count_kunz(3, l) = sum over A in [1, l] of 2**(l - f(A)) - 2**l,

    where f(A) counts the positions of [1, l] in A or A + A, and the last
    term removes each A's one word that holds no 3.  _k3_subsets adds
    the terms depth first, one call per set, and the ceiling charges
    those 2**l sets in place of the walk's 3**l candidates and l**2
    interval steps.  From q = 4 on the count takes enumerate_kunz's walk
    and ceiling, each prefix adding the sizes of its last intervals.
    """
    _check_census_args(q, length, max_candidates)
    if q == 2:
        if length > max_candidates:
            raise ResourceBound(
                f"a count of {_shown(length)} bits exceeds the ceiling {_shown(max_candidates)}"
            )
        # Python prints 2**length - 1 iff it has at most `digits` decimal
        # digits, iff 2**length < 10**digits, iff length is below the bit
        # length of 10**digits, as it is below 3 * digits; 0 is no limit,
        # as is a Python that has no limit to read
        digits = getattr(sys, "get_int_max_str_digits", int)()
        if digits and length >= 3 * digits and length >= (10**digits).bit_length():
            raise ResourceBound(
                f"a count of {_shown(length)} bits exceeds the ceiling of"
                f" {digits} decimal digits that Python prints"
            )
    elif q == 3:
        _check_power(2, length, max_candidates, "sets of 1-positions")
    elif q > 3:
        _check_walk(q, length, max_candidates)
    if q == 0 or length < 2:
        return int((q == 0) == (length == 0))
    if q <= 2:
        return q**length - (q - 1) ** length
    if q == 3:
        return _k3_subsets(length, (2 << length) - 1, 0, 0, 0) - (1 << length)
    return sum(sum(map(len, ys)) for _, _, ys in _last_letters(q, length))


# ---------------------------------------------------------------------------
# Distinguishability: no finite accepter handles K_q for q >= 3


class NerodeSeparation(Frozen):
    """Prefixes 1^i and 1^j told apart by one suffix.

    Appending ``suffix`` to 1^i lands inside K_q, appending it to 1^j
    lands outside; any accepter must therefore keep the two prefixes in
    different states.
    """

    __slots__ = ("i", "j", "suffix", "member_i", "member_j")

    def to_json_dict(self) -> dict:
        return self._json_dict(str(self.suffix))

    def _json_dict(self, suffix: str) -> dict:
        """The wire form, with the suffix already rendered."""
        return {
            "i": self.i,
            "j": self.j,
            "suffix": suffix,
            "member_i": self.member_i,
            "member_j": self.member_j,
        }


class NerodeReport(Frozen):
    __slots__ = ("depth", "cutoff", "separations")

    def to_json_list(self) -> list[dict]:
        """Each separation's wire form.  The separations of one i share one
        suffix Word (see nerode_evidence), so each Word object is rendered
        once per call."""
        words = {id(s.suffix): s.suffix for s in self.separations}
        shown = {key: str(w) for key, w in words.items()}
        return [s._json_dict(shown[id(s.suffix)]) for s in self.separations]


def nerode_evidence(q: int, cutoff: int) -> NerodeReport:
    """Pairwise separations of the prefixes 1^1 .. 1^cutoff for K_q.

    For i < j the suffix 2^i 3^i ... (q-1)^i q works: 1^i followed by it
    is the block witness word (in K_q), while 1^j followed by it pads the
    leading block and breaks the first Kunz condition.  Every separation
    is re-verified before being reported, so the report doubles as a
    machine-checked lower bound: more than ``cutoff`` accepter states are
    needed at this cutoff.  Both probe words are ascending block words
    whose largest letter is q, so each is decided from its block sizes
    (i, i, ..., i, 1) and (j, i, ..., i, 1) by _blocks_kunz, and neither
    is built; the suffix is cut once per i from the witness's letters and
    shared by that i's separations, which are built in bulk with no
    check (Frozen._trusted_many).  DomainError for a depth or cutoff
    that is not an int, and ResourceBound, up front, when the probes
    would cost over MAX_NERODE_PAIRS letter pairs to scan.
    """
    _check_ints(q=q, cutoff=cutoff)
    if q < 3:
        raise DomainError("K_0, K_1, K_2 are regular; need q >= 3")
    if cutoff < 2:
        raise DomainError("need at least two prefixes to separate")
    pairs = comb(cutoff, 2) * ((q - 1) * cutoff + 1) ** 2
    if pairs > MAX_NERODE_PAIRS:
        raise ResourceBound(
            f"depth {_shown(q)} and cutoff {_shown(cutoff)} need {_shown(pairs)}"
            f" letter pairs, over the ceiling {MAX_NERODE_PAIRS}"
        )
    rows = []
    for i in range(1, cutoff):
        suffix = Word._trusted(witness_kunz(q, i).letters[i:])
        rest = (i,) * (q - 2) + (1,)  # the sizes of 2 .. q, so both depths are q
        member_i = _blocks_kunz((i,) + rest)
        for j in range(i + 1, cutoff + 1):
            member_j = _blocks_kunz((j,) + rest)
            if not member_i or member_j:
                raise SelfCheckFailed(
                    f"separation for ({i}, {j}) failed re-verification"
                )
            rows.append((i, j, suffix, member_i, member_j))
    separations = NerodeSeparation._trusted_many(*zip(*rows))
    return NerodeReport._trusted(q, cutoff, tuple(separations))


# ---------------------------------------------------------------------------
# Pumping with distinguished and excluded positions: K_q is not
# context-free for q >= 5


class Decomposition(Frozen):
    """Four integer cut points 0 <= c1 <= c2 <= c3 <= c4 splitting a word
    w into u = w[:c1], v = w[c1:c2], x = w[c2:c3], y = w[c3:c4],
    z = w[c4:]; pump refuses cuts past the end of w.  The cuts are stored
    as a tuple, copied from a list."""

    __slots__ = ("cuts",)

    def __init__(self, cuts: tuple[int, int, int, int]):
        if (not isinstance(cuts, (tuple, list)) or len(cuts) != 4
                or any(type(c) is not int for c in cuts)):
            raise InvalidDecomposition(f"cuts {cuts!r} are not four integers")
        c1, c2, c3, c4 = cuts
        if not (0 <= c1 <= c2 <= c3 <= c4):
            raise InvalidDecomposition(f"cuts {cuts} are not ascending")
        super().__init__(tuple(cuts))


class PositionMarking(Frozen):
    """Disjoint sets of 1-based positions: distinguished and excluded,
    each stored as a frozenset of the collection given."""

    __slots__ = ("distinguished", "excluded")

    def __init__(self, distinguished: Iterable[int], excluded: Iterable[int]):
        try:
            distinguished, excluded = frozenset(distinguished), frozenset(excluded)
        except TypeError:
            raise DomainError("positions must be collections of integers") from None
        for pos in itertools.chain(distinguished, excluded):
            # exactly int, as Decomposition's cuts: 1.5 matches no position,
            # and True == 1, so a union or the overlap below would merge it
            if type(pos) is not int:
                raise DomainError(f"position {pos!r} is not an integer")
            if pos < 1:
                raise DomainError("positions are 1-based")
        if distinguished & excluded:
            raise DomainError("distinguished and excluded positions overlap")
        super().__init__(distinguished, excluded)


def pump(word: Word, decomposition: Decomposition, k: int) -> Word:
    """u v^k x y^k z, sliced once from the word's letters, which are not
    checked again; k = 1 gives the word itself.  DomainError for a k that
    is not an int or is below 0, then ResourceBound, before anything is
    built, when that word is longer than words.MAX_WITNESS_LENGTH, then
    InvalidDecomposition for cuts past the end of the word."""
    _check_ints(k=k)
    if k < 0:
        raise DomainError("pumping count must be >= 0")
    c1, c2, c3, c4 = decomposition.cuts
    _check_length(len(word) + (k - 1) * (c2 - c1 + c4 - c3), "a pumped word")
    if c4 > len(word):
        raise InvalidDecomposition(
            f"cuts {decomposition.cuts} overrun a word of length {len(word)}"
        )
    w = word.letters
    return Word._trusted(w[:c1] + w[c1:c2] * k + w[c2:c3] + w[c3:c4] * k + w[c4:])


class RefutationRecord(Frozen):
    """One admitted decomposition and the pumping count, pumped word and
    reason ("not_kunz" or "wrong_depth") that refuted it; k, pumped and
    reason are None when it survived."""

    __slots__ = ("decomposition", "d_vy", "e_vy", "d_vxy", "e_vxy",
                 "k", "pumped", "reason")

    def to_json_dict(self) -> dict:
        return self._json_dict(None if self.pumped is None else str(self.pumped))

    def _json_dict(self, pumped: str | None) -> dict:
        """The wire form, with the pumped word already rendered."""
        return {
            "cuts": list(self.decomposition.cuts),
            "d_vy": self.d_vy,
            "e_vy": self.e_vy,
            "d_vxy": self.d_vxy,
            "e_vxy": self.e_vxy,
            "k": self.k,
            "pumped": pumped,
            "reason": self.reason if self.reason is not None else "unrefuted",
        }


class RefutationReport(Frozen):
    __slots__ = ("depth", "p", "k_max", "word", "marking", "records")

    @property
    def unrefuted(self) -> tuple[RefutationRecord, ...]:
        return tuple(r for r in self.records if r.k is None)

    @property
    def all_refuted(self) -> bool:
        return not self.unrefuted

    def to_json_list(self) -> list[dict]:
        """Each record's wire form.  Records that pump to equal words share
        one Word (see bader_moura_refute), so each Word object is rendered
        once per call."""
        words = {id(r.pumped): r.pumped for r in self.records}
        shown = {key: None if w is None else str(w) for key, w in words.items()}
        return [r._json_dict(shown[id(r.pumped)]) for r in self.records]


def mark_for_refutation(word: Word, q: int) -> PositionMarking:
    """Distinguish every 1; exclude the first occurrence of each letter
    2..q.  This is the marking the pumping experiment runs under.
    DomainError for a q that is not an int, and unless the letters above
    1 are exactly 2..q: as many distinct ones, none above q, so no set of
    q entries is built."""
    _check_ints(q=q)
    distinguished, first = set(), {}
    for pos, letter in enumerate(word.letters, start=1):
        if letter == 1:
            distinguished.add(pos)
        else:
            first.setdefault(letter, pos)
    if len(first) != max(q - 1, 0) or max(first, default=q) > q:
        raise DomainError(f"word does not contain each of 2..{_shown(q)}")
    return PositionMarking._trusted(frozenset(distinguished), frozenset(first.values()))


def _attack(word: Word, sizes: tuple[int, ...], cuts: tuple, k_max: int, seen: dict) -> tuple:
    """(k, pumped word, reason) for the least k <= k_max that pumps the
    witness of these block sizes out of K_q at these cuts, or three Nones.
    v and y lie in blocks c1 // n and c3 // n (below q, as n >= 2), or are
    empty; ``seen`` holds each pumped size tuple's reason and refuting word."""
    c1, c2, c3, c4 = cuts
    n = sizes[0]
    for k in range(k_max + 1):
        pumped_sizes = list(sizes)
        pumped_sizes[c1 // n] += (k - 1) * (c2 - c1)
        pumped_sizes[c3 // n] += (k - 1) * (c4 - c3)
        key = tuple(pumped_sizes)
        if key not in seen:
            _check_length(sum(key), "a pumped word")
            reason = ("not_kunz" if not _blocks_kunz(key) else
                      "wrong_depth" if not key[-1] else None)
            seen[key] = reason and pump(word, Decomposition._trusted(cuts), k), reason
        pumped, reason = seen[key]
        if reason:
            return k, pumped, reason
    return None, None, None


def bader_moura_refute(
    q: int,
    p: int,
    k_max: int,
    *,
    max_candidates: int = DEFAULT_CANDIDATE_CEILING,
) -> RefutationReport:
    """Exhaustively refute the marked pumping property for K_q at
    parameter p.

    The witness word is 1^n 2^n ... (q-1)^n q with n = p^q + 1, marked by
    mark_for_refutation; then d(w) = n exceeds p^(e(w)+1) = p^q, so a
    context-free K_q would admit a decomposition w = uvxyz with

        1. d(vy) >= 1 and e(vy) = 0,
        2. d(vxy) <= p^(e(vxy)+1),
        3. u v^k x y^k z in K_q for every k >= 0.

    Every decomposition satisfying 1-2 is enumerated and attacked with
    k = 0..k_max, counting a pumped word as outside K_q when it fails the
    Kunz conditions or its largest letter is not q.  If any
    decomposition survives, NoRefutation is raised carrying the full
    report.

    By e(vy) = 0, v and y are spans, cut pairs (a, b) with no excluded
    position in a+1..b: b runs up to the last cut with a's count of them.
    By d(vy) >= 1, v starts before the last 1, and when v is empty y does
    too and is not.  y lies in one block, so e(vxy) is fixed while d(vxy)
    grows with y's end, and condition 2 ends that run.  So four nested
    loops over c1 <= c2 <= c3 <= c4 list the admitted cut tuples alone,
    in ascending order, and store them unchecked; the ceiling still
    counts all C(l+4, 4) of the length-l witness.  A span holds no first
    letter of a block, so a pumped word is the witness's block sizes
    with those of v and y changed by (k-1)|v| and (k-1)|y|, and each
    shape (block of v, |v|, block of y, |y|) is attacked once (_attack).
    Each distinct size tuple is checked against the length ceiling and
    decided by _blocks_kunz, its largest letter is q iff its last size
    is not 0, and pump builds its word once if it refutes; the records
    that pump to it, built in bulk (Frozen._trusted_many), share it.

    q = 3 and q = 4 are refused: pumping 2s cannot hurt a word whose
    letters never exceed 4, so this experiment is only meaningful from
    q = 5 up.  A q, p or k_max that is not an int, and a
    ``max_candidates`` below 1, are refused too.
    """
    _check_ints(q=q, p=p, k_max=k_max)
    if q < 5:
        raise DomainError("the pumping experiment needs q >= 5")
    if p < 1:
        raise DomainError("p must be >= 1")
    if k_max < 0:
        raise DomainError("k_max must be >= 0")
    _check_at_least_one(max_candidates, "the candidate ceiling")
    # p**q >= 2**q for p >= 2, and a block of 2**64 letters is over the
    # length ceiling, so capping the exponent at 64 keeps every verdict
    # and message and never builds p**q for a huge q
    n = p ** min(q, 64) + 1
    word = witness_kunz(q, n)
    length = len(word)
    total = comb(length + 4, 4)
    if total > max_candidates:
        raise ResourceBound(
            f"{total} decompositions exceed the ceiling {max_candidates}"
        )
    marking = mark_for_refutation(word, q)
    if len(marking.distinguished) <= p ** (len(marking.excluded) + 1):
        raise SelfCheckFailed("marked word does not trigger the pumping property")

    # marked positions among 1..c for every cut c, once per word, so the
    # counts in a window are differences
    dist, excl = (
        tuple(itertools.accumulate(
            (pos in marked for pos in range(1, length + 1)), initial=0))
        for marked in (marking.distinguished, marking.excluded)
    )
    # the last cut b with no excluded position in a+1..b, for each cut a
    ends = [bisect_right(excl, e) - 1 for e in excl]
    sizes = (n,) * (q - 1) + (1,)
    seen = {}  # each distinct pumped word's sizes: its reason, and its word if it refutes
    shapes = {}  # each (block of v, |v|, block of y, |y|): its (k, pumped, reason)
    rows = []
    # the 1s are 1..n: v starts before n, and if v is empty so does y, not empty
    for c1 in range(n):
        for c2 in range(c1, ends[c1] + 1):
            for c3 in range(c2, length + 1 if c2 > c1 else n):
                e_vxy = excl[c3] - excl[c1]
                cap = p ** (e_vxy + 1)
                for c4 in range(c3 + (c2 == c1), ends[c3] + 1):
                    d_vxy = dist[c4] - dist[c1]
                    if d_vxy > cap:
                        break  # and so are the later c4, in the same block
                    cuts = (c1, c2, c3, c4)
                    shape = (c1 // n, c2 - c1, c3 // n, c4 - c3)
                    if shape not in shapes:
                        shapes[shape] = _attack(word, sizes, cuts, k_max, seen)
                    d_vy = dist[c2] - dist[c1] + dist[c4] - dist[c3]
                    rows.append((cuts, d_vy, 0, d_vxy, e_vxy, *shapes[shape]))

    cuts, *fields = zip(*rows)
    del rows  # so the rows and the records are never held at once
    records = RefutationRecord._trusted_many(Decomposition._trusted_many(cuts), *fields)
    report = RefutationReport._trusted(q, p, k_max, word, marking, tuple(records))
    if not report.all_refuted:
        raise NoRefutation(report)
    return report
