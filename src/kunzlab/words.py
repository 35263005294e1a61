"""Words over the positive integers and the two Kunz conditions.

A word u_1 ... u_l is a Kunz word when, for every index pair i <= j,

    u_i + u_j     >= u_{i+j}           whenever i+j <= l,
    u_i + u_j + 1 >= u_{i+j-(l+1)}     whenever i+j-(l+1) lies in [1, l].

A condition only participates when its target index is a real position;
in particular i + j = l + 1 imposes nothing.  The empty word counts as a
Kunz word of depth 0.

Kunz words of length l are in bijection with numerical semigroups of
multiplicity l + 1: the letters are exactly the Kunz coefficients of the
Apery set.  Both directions of that bijection live here, and so does
the Kunz scan, _letters_in_bounds, with the word-length ceiling
MAX_WITNESS_LENGTH.  is_kunz, to_semigroup and the semigroups module's
Apery-tuple validator share that one check: one big-int product per
pair of letters that could fail a condition, or, on words with many
distinct letters, the Theta(l^2) interval scan.  The word census in
languages walks the scan's per-letter intervals, _letter_bounds.

semigroups imports this module, not the other way round: to_semigroup
imports semigroups on its first call, so a process that reads only
words never loads it.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Iterable, Iterator, Sequence

from ._frozen import Value
from .errors import DomainError, NotKunz, ResourceBound, _check_ints, _shown

FIRST = "first"
SECOND = "second"


class Word(Value):
    """Finite sequence of positive integers, of type int and not bool;
    may be empty.  The letters are stored as a tuple, copied from any
    other iterable."""

    __slots__ = ("letters",)

    def __init__(self, letters: Iterable[int] = ()):
        if type(letters) is not tuple:
            letters = tuple(letters)
        for u in letters:
            # exactly int: True == 1, but prints as "True", off the wire form
            if type(u) is not int or u < 1:
                raise DomainError(f"letters must be positive integers, got {u!r}")
        object.__setattr__(self, "letters", letters)

    @classmethod
    def parse(cls, text: str) -> "Word":
        """Parse the wire form: comma-separated decimals, '' for the
        empty word.  Letters above 9 are why digit strings are not used."""
        text = text.strip()
        if not text:
            return cls(())
        try:
            letters = tuple(int(part) for part in text.split(","))
        except ValueError as exc:
            raise DomainError(f"cannot parse word {text!r}") from exc
        return cls(letters)

    @property
    def depth(self) -> int:
        """Largest letter; 0 for the empty word."""
        return max(self.letters, default=0)

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[int]:
        return iter(self.letters)

    def __str__(self) -> str:
        return ",".join(str(u) for u in self.letters)

    def __add__(self, other: "Word") -> "Word":
        if not isinstance(other, Word):
            return NotImplemented
        return Word._trusted(self.letters + other.letters)


class Violation(Value):
    """One failed Kunz condition, in 1-based index terms.

    kind is "first" (u_i + u_j < u_target with target = i+j) or "second"
    (u_i + u_j + 1 < u_target with target = i+j-(l+1)).
    """

    __slots__ = ("kind", "i", "j", "target")

    def to_json_dict(self) -> dict:
        return {"kind": self.kind, "i": self.i, "j": self.j, "target": self.target}


def _letter_bounds(u: Sequence[int], p: int, length: int, q: int) -> tuple[int, int]:
    """The interval [lo, hi] that letter u_p of a Kunz word of the given
    length over {1..q} must lie in, given u_1 .. u_{p-1} (u[0] .. u[p-2]).

    Each condition is decided by the largest index it involves: the
    first (u_i + u_j >= u_{i+j}) when its target p = i + j is placed,
    which caps u_p; the second (u_i + u_j + 1 >= u_t, t = i+j-(l+1))
    when j = p is placed, since t < i, which floors u_p.  So a word is
    Kunz iff every letter lies in its interval, and a prefix with an
    empty interval ahead of it extends to no Kunz word of this length.
    """
    hi = q
    for i in range(1, p // 2 + 1):
        s = u[i - 1] + u[p - i - 1]
        if s < hi:
            hi = s
    lo = 1
    t = 2 * p - length - 1  # the target of the pair (p, p)
    if t >= 1:
        lo = max(lo, u[t - 1] // 2)
        # the pairs (i, p) for i = l+2-p .. p-1 have targets 1 .. t-1
        shift = length + 1 - p
        for k in range(t - 1):
            b = u[k] - u[shift + k] - 1
            if b > lo:
                lo = b
    return lo, hi


def _letters_in_bounds(u: Sequence[int]) -> bool:
    """True iff every letter of u, a sequence of positive integers, lies
    in its _letter_bounds interval, i.e. u is a Kunz word.

    O(l) on the regular core, 2*min(u) >= max(u): every pair sum is
    >= 2*min(u) >= every letter, so both conditions hold.  Otherwise only
    the pairs of letters a <= b with a + b < max(u) can fail, and when
    _products_pay says their products cost less than the interval scan,
    _sums_in_bounds decides u with one big-int product per pair.  Else
    the interval scan, Theta(l^2): words with many distinct small
    letters still take it.
    """
    n, q = len(u), max(u, default=0)
    if 2 * min(u, default=0) >= q:
        return True
    present = set(u)
    if 2 * len(present) <= n and len(present) * n <= _MAX_MASK_SLOTS:
        letters = sorted(present)
        if _products_pay(letters, q, n):
            return _sums_in_bounds(u, letters, q)
    for p in range(1, n + 1):
        lo, hi = _letter_bounds(u, p, n, q)
        if not lo <= u[p - 1] <= hi:
            return False
    return True


# Cost rule of the word-parallel scan.  One pair of letters costs about
# as much as max(24, l**1.6 / 24) steps of the interval scan, which does
# about l**2 steps.  Measured on a 2-CPU VM, Python 3.11, best of 5, on
# the Kunz words of <l+1, g_2, .., g_e>, e = 3..10, g_i drawn from
# (l+1, 2l+2): a pair cost as much as 27 interval steps at l = 50, 38 at
# l = 100, 145 at l = 200, 630 at l = 400, 2,200 at l = 1,000 and 4,900
# at l = 2,000; two dense masks at l = 4,096, 34,000.  Below l = 200 the
# Python work per pair dominates, above it Karatsuba's ~l**1.585.  Block
# words cost less, since each mask is trimmed to its letter's span.
# Words with more distinct letters than half their length take the
# interval scan before any count: such words off the core have far more
# than l**2 / 24 pairs unless their letters crowd the top, and
# construct-sized ones (l = 54 with 54 letters, 711 pairs) were 3-5
# times slower on products.  The masks take one slot per position and
# letter, so the product path also needs letters times length within
# _MAX_MASK_SLOTS: 2**22 slots, 8.8 MB at peak for 1,024 letters at
# l = 4,096.
_MAX_MASK_SLOTS = 1 << 22


def _products_pay(letters: Sequence[int], q: int, n: int) -> bool:
    """True when the pairs a <= b of ``letters`` (sorted) with a + b < q
    are few enough against n**2, by the cost rule above."""
    pairs = 0
    for i, a in enumerate(letters):
        if 2 * a >= q:
            break
        pairs += bisect_left(letters, q - a, i) - i
    return pairs * max(24, n**1.6 / 24) < n * n


def _sums_in_bounds(u: Sequence[int], letters: Sequence[int], q: int) -> bool:
    """The Kunz check by bit-parallelism (Baeza-Yates and Gonnet, 1992):
    u's positions per letter as ints with one k-bit slot per position,
    so that slot s of a product P_a * P_b counts the index pairs i + j = s
    with u_i = a and u_j = b (Kronecker substitution).  A count is at most
    l, and k = l.bit_length() + 1 rounded up to whole bytes, so no slot
    carries into the next, and the masks are built with int.from_bytes.

    For each pair a <= b of ``letters`` (the sorted distinct letters)
    with a + b < q = max(u), the first condition fails iff the product
    meets a full slot of a position holding a letter > a + b, and the
    second iff the product shifted down by l + 1 slots meets one holding
    a letter > a + b + 1.  Each mask is stored shifted down to its
    letter's first position, so the block words multiply short ints.
    O(l) to build the masks, one product per pair; the slot width does
    not depend on the letters' size.
    """
    n = len(u)
    width = (n.bit_length() + 8) // 8  # bytes per slot
    k = 8 * width
    buffers = {x: bytearray((n + 1) * width) for x in letters}
    for p, x in enumerate(u, 1):
        buffers[x][p * width] = 1
    full = (1 << k) - 1
    d = len(letters)
    # above[r]: the full slots of the positions holding letters[r:]
    above, masks, starts = [0] * (d + 1), [0] * d, [0] * d
    for r in range(d - 1, -1, -1):
        buffer = buffers.pop(letters[r])
        starts[r] = start = buffer.index(1) // width
        mask = int.from_bytes(buffer, "little")
        above[r] = above[r + 1] | mask * full
        masks[r] = mask >> k * start
    shift = k * (n + 1)
    for i, a in enumerate(letters):
        if 2 * a >= q:
            break
        mask, start = masks[i], starts[i]
        for j in range(i, bisect_left(letters, q - a, i)):
            total = a + letters[j]
            product = mask * masks[j] << k * (start + starts[j])
            if product & above[bisect_right(letters, total)]:
                return False
            if product >> shift & above[bisect_right(letters, total + 1)]:
                return False
    return True


# Longest word a Kunz scan runs on, m - 1 for an Apery tuple that
# semigroups validates.  is_kunz decides a word with few distinct letters
# by products in milliseconds (witness_kunz(3, 2000): 0.8 ms), but one
# with many distinct small letters still takes the Theta(l^2) interval
# scan: about 0.6 s for 1, 2, .., 4001 (2.7 s for 1, .., 8001; 2-CPU VM,
# Python 3.11), so the ceiling stays.  It also caps words that are built
# but not scanned: the witness families, pumped words and traced machine
# runs; nerode_evidence and bader_moura_refute decide their block words
# from the block sizes.  violations() can list Theta(l^2) items:
# 1,001,000 on 1^2000 3^2000, at 194 MB peak RSS.
MAX_WITNESS_LENGTH = 4096


def _check_length(length: int, what: str) -> None:
    if length > MAX_WITNESS_LENGTH:
        raise ResourceBound(
            f"{what} of length {_shown(length)} is over the ceiling {MAX_WITNESS_LENGTH}"
        )


def is_kunz(word: Word) -> bool:
    """True iff no Kunz condition fails.  The empty word passes."""
    return _letters_in_bounds(word.letters)


def violations(word: Word) -> list[Violation]:
    """Every failed condition, ordered by (i, j).  Empty iff is_kunz.

    A plain scan over all index pairs, kept apart from is_kunz's
    products and interval scan so that each checks the other.
    ResourceBound, up front, for a word longer than MAX_WITNESS_LENGTH.
    """
    letters = word.letters
    n = len(letters)
    _check_length(n, "a word")
    out: list[Violation] = []
    for i in range(1, n + 1):
        ui = letters[i - 1]
        for j in range(i, n + 1):
            s = i + j
            if s <= n:
                if ui + letters[j - 1] < letters[s - 1]:
                    out.append(Violation(FIRST, i, j, s))
            elif s >= n + 2:
                t = s - (n + 1)
                if ui + letters[j - 1] + 1 < letters[t - 1]:
                    out.append(Violation(SECOND, i, j, t))
    return out


def witness_kunz(q: int, n: int) -> Word:
    """The word 1^n 2^n ... (q-1)^n q, of length (q-1)n + 1.

    Its k-th letter is ceil(k/n), and ceilings are superadditive, so both
    Kunz conditions hold: this is a Kunz word of depth q for every
    q >= 3, n >= 1.  DomainError, first, for a q or n that is not exactly
    an int, and ResourceBound, before building anything, when the length
    exceeds MAX_WITNESS_LENGTH.
    """
    _check_ints(q=q, n=n)
    if q < 3:
        raise DomainError("witness families are defined for depth q >= 3")
    if n < 1:
        raise DomainError("block size n must be >= 1")
    _check_length((q - 1) * n + 1, "a witness")
    letters = tuple(v for v in range(1, q) for _ in range(n)) + (q,)
    return Word._trusted(letters)


def witness_nonkunz(q: int, n: int, m: int) -> Word:
    """The word 1^(n+m) 2^n ... (q-1)^n q, which is never Kunz.

    Padding the leading block breaks the first condition at
    (i, j) = (n+1, n+m): both letters are 1 but position 2n+m+1 holds a 3.
    DomainError and ResourceBound as for witness_kunz, the latter when
    its length (q-1)n + m + 1 exceeds MAX_WITNESS_LENGTH.
    """
    _check_ints(q=q, n=n, m=m)
    if q < 3:
        raise DomainError("witness families are defined for depth q >= 3")
    if n < 1 or m < 1:
        raise DomainError("block size n and padding m must be >= 1")
    _check_length((q - 1) * n + m + 1, "a witness")
    return Word._trusted((1,) * m + witness_kunz(q, n).letters)


def to_semigroup(word: Word) -> NumericalSemigroup:
    """The unique numerical semigroup whose Kunz word is ``word``.

    Length l gives multiplicity m = l + 1, and letter u_i is the Apery
    element u_i*m + i; the empty word gives N itself.  Raises NotKunz
    when the word fails the Kunz conditions (the bijection only covers
    Kunz words); that is the only check its Apery tuple gets.  Any
    conductor is built; only the semigroup's O(c) listings refuse one
    over semigroups.MAX_CONDUCTOR.  ResourceBound, before the scan
    (O(l^2) at worst), for a word longer than MAX_WITNESS_LENGTH.
    """
    from .semigroups import NumericalSemigroup

    _check_length(len(word), "a word")
    if not is_kunz(word):
        raise NotKunz(f"{word} violates the Kunz conditions")
    m = len(word) + 1
    w = [0] + [u * m + i for i, u in enumerate(word.letters, 1)]
    return NumericalSemigroup._trusted(tuple(w))


def from_semigroup(semigroup: NumericalSemigroup) -> Word:
    """Kunz coefficients of ``semigroup`` as a word; () for N itself."""
    return Word._trusted(semigroup.apery.kunz)
