"""The depth-q word languages: recognizers, censuses and finite
replays of the classification experiments.

K_q is the set of Kunz words over {1,...,q} whose largest letter is
exactly q.  For q <= 2 the language is regular, {1}+ and {1,2}*2{1,2}*:
tiny machines below recognize it, and the census lists and counts it in
closed form.  For q >= 3 no finite automaton can: this module produces
the concrete distinguishability and pumping evidence for that, one
finite, re-checkable certificate at a time.
"""

from __future__ import annotations

import itertools
from math import comb
from typing import Iterator, Mapping

from ._frozen import Frozen
from .errors import (
    DomainError,
    InvalidDecomposition,
    LetterOutOfAlphabet,
    NoRefutation,
    ResourceBound,
    SelfCheckFailed,
    _check_at_least_one,
    _shown,
)
from .semigroups import _letter_bounds
from .words import Word, _check_length, is_kunz, witness_kunz, witness_nonkunz

DEFAULT_CANDIDATE_CEILING = 10_000_000
# Largest nerode_evidence run, in letter pairs: comb(cutoff, 2)
# separations, each scanning words of length up to l = (q-1)*cutoff + 1
# in O(l^2).  Measured (2-CPU VM, Python 3.11, best of 3), (q, cutoff):
# (3, 79) is 7.8e7 pairs in 1.3 s, (5, 59) 9.6e7 in 0.4 s, (12, 36)
# 9.9e7 in 0.2 s, and (3, 100), over the ceiling, 2.0e8 in 2.6 s.
MAX_NERODE_PAIRS = 100_000_000


class Dfa(Frozen):
    """Deterministic finite accepter over a set of integer letters."""

    __slots__ = ("states", "alphabet", "transition", "start", "accepting")

    def __init__(
        self,
        states: frozenset[int],
        alphabet: frozenset[int],
        transition: Mapping[tuple[int, int], int],
        start: int,
        accepting: frozenset[int],
    ):
        if start not in states:
            raise DomainError("start state unknown")
        if not accepting <= states:
            raise DomainError("accepting states unknown")
        for state in states:
            for letter in alphabet:
                if transition.get((state, letter)) not in states:
                    raise DomainError(
                        f"transition not total at ({state}, {letter})"
                    )
        super().__init__(states, alphabet, transition, start, accepting)


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
    """Membership in K_q: Kunz conditions plus largest letter exactly q."""
    return word.depth == q and is_kunz(word)


def _check_census(q: int, length: int, max_candidates: int) -> None:
    """Argument and ceiling checks shared by the two census functions.
    The census covers at most q**length candidate words, and a walk
    costs O(length**2) interval work even on one word, so either count
    over max_candidates refuses the cell.  Both apply at q <= 2 too,
    where the answer is in closed form and no walk runs.  A ceiling
    below 1 is refused before any cell is looked at."""
    if q < 0 or length < 0:
        raise DomainError("depth and length must be nonnegative")
    _check_at_least_one(max_candidates, "the candidate ceiling")
    if not q:  # K_0 is the empty word alone, so its cells are never refused
        return
    # q**length >= 2**length for q >= 2, so capping the exponent past both
    # 64 and the ceiling's bit length keeps the verdict and the message
    # and never builds a number of length bits
    candidates = q ** min(length, max(64, max_candidates.bit_length() + 1))
    if candidates > max_candidates:
        raise ResourceBound(
            f"{_shown(candidates)} candidate words exceed the ceiling {max_candidates}"
        )
    if length**2 > max_candidates:
        raise ResourceBound(
            f"length {_shown(length)} needs {_shown(length**2)} interval steps,"
            f" over the ceiling {max_candidates}"
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
    position leave open (see semigroups._letter_bounds), so every dead
    prefix is cut as soon as it is placed.  It stops two letters short
    and lists the last two from one set of bounds per prefix (see
    _last_letters).  The ceiling applies to all q**length candidates and
    to the length**2 interval work (see _check_census), at every q.
    """
    _check_census(q, length, max_candidates)
    if q == 0 or length < 2:
        # K_0 is the empty word alone, and K_q's one word of length 1 is q
        return [Word((q,) * length)] if (q == 0) == (length == 0) else []
    if q <= 2:
        # 1^length comes first, and is in K_q at q = 1 alone
        words = itertools.product(range(1, q + 1), repeat=length)
        return list(map(Word, itertools.islice(words, q - 1, None)))
    out = []
    for u, x_lo, ys in _last_letters(q, length):
        head = tuple(u[:length - 2])
        for x, last in enumerate(ys, x_lo):
            stem = head + (x,)
            out.extend(Word(stem + (y,)) for y in last)
    return out


def count_kunz(q: int, length: int, *, max_candidates: int = DEFAULT_CANDIDATE_CEILING) -> int:
    """len(enumerate_kunz(q, length)), building no words: q**length -
    (q-1)**length at q <= 2, the words over {1..q} that hold a q, and
    from q = 3 on by the same walk, each prefix adding the sizes of its
    last intervals.  The ceiling is enumerate_kunz's."""
    _check_census(q, length, max_candidates)
    if q == 0 or length < 2:
        return int((q == 0) == (length == 0))
    if q <= 2:
        return q**length - (q - 1) ** length
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
        return {
            "i": self.i,
            "j": self.j,
            "suffix": str(self.suffix),
            "member_i": self.member_i,
            "member_j": self.member_j,
        }


class NerodeReport(Frozen):
    __slots__ = ("depth", "cutoff", "separations")

    def to_json_list(self) -> list[dict]:
        return [s.to_json_dict() for s in self.separations]


def nerode_evidence(q: int, cutoff: int) -> NerodeReport:
    """Pairwise separations of the prefixes 1^1 .. 1^cutoff for K_q.

    For i < j the suffix 2^i 3^i ... (q-1)^i q works: 1^i followed by it
    is the block witness word (in K_q), while 1^j followed by it pads the
    leading block and breaks the first Kunz condition.  Every separation
    is re-verified through the membership scan before being reported, so
    the report doubles as a machine-checked lower bound: more than
    ``cutoff`` accepter states are needed at this cutoff.  ResourceBound,
    up front, when that scanning would exceed MAX_NERODE_PAIRS letter
    pairs.
    """
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
    separations = []
    for i in range(1, cutoff):
        witness = witness_kunz(q, i)
        suffix = Word(witness.letters[i:])
        member_i = in_kunz_language(witness, q)
        for j in range(i + 1, cutoff + 1):
            member_j = in_kunz_language(Word((1,) * j + suffix.letters), q)
            if not member_i or member_j:
                raise SelfCheckFailed(
                    f"separation for ({i}, {j}) failed re-verification"
                )
            separations.append(NerodeSeparation(i, j, suffix, member_i, member_j))
    return NerodeReport(depth=q, cutoff=cutoff, separations=tuple(separations))


# ---------------------------------------------------------------------------
# Pumping with distinguished and excluded positions: K_q is not
# context-free for q >= 5


class Decomposition(Frozen):
    """Four integer cut points 0 <= c1 <= c2 <= c3 <= c4 splitting a word
    w into u = w[:c1], v = w[c1:c2], x = w[c2:c3], y = w[c3:c4],
    z = w[c4:]; pump refuses cuts past the end of w."""

    __slots__ = ("cuts",)

    def __init__(self, cuts: tuple[int, int, int, int]):
        if (not isinstance(cuts, (tuple, list)) or len(cuts) != 4
                or any(type(c) is not int for c in cuts)):
            raise InvalidDecomposition(f"cuts {cuts!r} are not four integers")
        c1, c2, c3, c4 = cuts
        if not (0 <= c1 <= c2 <= c3 <= c4):
            raise InvalidDecomposition(f"cuts {cuts} are not ascending")
        super().__init__(cuts)


class PositionMarking(Frozen):
    """Disjoint sets of 1-based positions: distinguished and excluded."""

    __slots__ = ("distinguished", "excluded")

    def __init__(self, distinguished: frozenset[int], excluded: frozenset[int]):
        if distinguished & excluded:
            raise DomainError("distinguished and excluded positions overlap")
        for pos in distinguished | excluded:
            if pos < 1:
                raise DomainError("positions are 1-based")
        super().__init__(distinguished, excluded)


def pump(word: Word, decomposition: Decomposition, k: int) -> Word:
    """u v^k x y^k z, sliced once from the word's letters; k = 1 gives the
    word itself.  DomainError for k < 0, then ResourceBound, before
    anything is built, when that word is longer than
    words.MAX_WITNESS_LENGTH, then InvalidDecomposition for cuts past
    the end of the word."""
    if k < 0:
        raise DomainError("pumping count must be >= 0")
    c1, c2, c3, c4 = decomposition.cuts
    _check_length(len(word) + (k - 1) * (c2 - c1 + c4 - c3), "a pumped word")
    if c4 > len(word):
        raise InvalidDecomposition(
            f"cuts {decomposition.cuts} overrun a word of length {len(word)}"
        )
    w = word.letters
    return Word(w[:c1] + w[c1:c2] * k + w[c2:c3] + w[c3:c4] * k + w[c4:])


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
    2..q.  This is the marking the pumping experiment runs under."""
    distinguished, first = set(), {}
    for pos, letter in enumerate(word.letters, start=1):
        if letter == 1:
            distinguished.add(pos)
        else:
            first.setdefault(letter, pos)
    if first.keys() != set(range(2, q + 1)):
        raise DomainError(f"word does not contain each of 2..{q}")
    return PositionMarking(frozenset(distinguished), frozenset(first.values()))


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
    Kunz scan or its largest letter is not q.  Each distinct pumped word
    is scanned once, and the records that pump to it share its first
    copy.  If any decomposition survives, NoRefutation is raised
    carrying the full report.

    By e(vy) = 0, v and y are spans, cut pairs (a, b) with no excluded
    position in a+1..b; sorted spans are paired, v before y, so records
    come in the order of their cut tuples.  The ceiling still counts all
    C(l+4, 4) cut tuples of the length-l witness.

    q = 3 and q = 4 are refused: pumping 2s cannot hurt a word whose
    letters never exceed 4, so this experiment is only meaningful from
    q = 5 up.  A ``max_candidates`` below 1 is refused too.
    """
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
    spans = [(a, b) for a in range(length + 1) for b in range(a, length + 1)
             if excl[a] == excl[b]]
    seen = {}  # each distinct pumped word: its first copy and its reason
    records = []
    for v, y in itertools.combinations_with_replacement(spans, 2):
        (c1, c2), (c3, c4) = v, y
        if c2 > c3:
            continue
        d_vy = dist[c2] - dist[c1] + dist[c4] - dist[c3]
        if d_vy < 1:
            continue
        d_vxy = dist[c4] - dist[c1]
        e_vxy = excl[c4] - excl[c1]
        if d_vxy > p ** (e_vxy + 1):
            continue
        decomposition = Decomposition(v + y)
        for k in range(k_max + 1):
            pumped = pump(word, decomposition, k)
            if pumped not in seen:
                seen[pumped] = pumped, ("not_kunz" if not is_kunz(pumped) else
                                        "wrong_depth" if pumped.depth != q else None)
            pumped, reason = seen[pumped]
            if reason:
                break
        else:
            k = pumped = reason = None
        records.append(RefutationRecord(decomposition, d_vy, 0, d_vxy, e_vxy,
                                        k, pumped, reason))

    report = RefutationReport(
        depth=q, p=p, k_max=k_max, word=word, marking=marking,
        records=tuple(records),
    )
    if not report.all_refuted:
        raise NoRefutation(report)
    return report
