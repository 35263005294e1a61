"""Words over the positive integers and the two Kunz conditions.

A word u_1 ... u_l is a Kunz word when, for every index pair i <= j,

    u_i + u_j     >= u_{i+j}           whenever i+j <= l,
    u_i + u_j + 1 >= u_{i+j-(l+1)}     whenever i+j-(l+1) lies in [1, l].

A condition only participates when its target index is a real position;
in particular i + j = l + 1 imposes nothing.  The empty word counts as a
Kunz word of depth 0.

Kunz words of length l are in bijection with numerical semigroups of
multiplicity l + 1: the letters are exactly the Kunz coefficients of the
Apery set.  Both directions of that bijection live here.  is_kunz,
to_semigroup and from_apery's validator share one check,
semigroups._letters_in_bounds: one big-int product per pair of letters
that could fail a condition, or, on words with many distinct letters,
the Theta(l^2) interval scan.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from ._frozen import Value
from .errors import DomainError, NotKunz
from .semigroups import (
    MAX_WITNESS_LENGTH,
    NumericalSemigroup,
    _check_length,
    _letters_in_bounds,
    _store_apery,
)

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
        return Word(self.letters + other.letters)


# the letters slot's own setter, which Frozen.__setattr__ does not guard
_set_letters = Word.letters.__set__


class Violation(Value):
    """One failed Kunz condition, in 1-based index terms.

    kind is "first" (u_i + u_j < u_target with target = i+j) or "second"
    (u_i + u_j + 1 < u_target with target = i+j-(l+1)).
    """

    __slots__ = ("kind", "i", "j", "target")

    def to_json_dict(self) -> dict:
        return {"kind": self.kind, "i": self.i, "j": self.j, "target": self.target}


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
    q >= 3, n >= 1.  ResourceBound, before building anything, when the
    length exceeds MAX_WITNESS_LENGTH.
    """
    if q < 3:
        raise DomainError("witness families are defined for depth q >= 3")
    if n < 1:
        raise DomainError("block size n must be >= 1")
    _check_length((q - 1) * n + 1, "a witness")
    letters = tuple(v for v in range(1, q) for _ in range(n)) + (q,)
    return Word(letters)


def witness_nonkunz(q: int, n: int, m: int) -> Word:
    """The word 1^(n+m) 2^n ... (q-1)^n q, which is never Kunz.

    Padding the leading block breaks the first condition at
    (i, j) = (n+1, n+m): both letters are 1 but position 2n+m+1 holds a 3.
    ResourceBound, as for witness_kunz, when its length (q-1)n + m + 1
    exceeds MAX_WITNESS_LENGTH.
    """
    if q < 3:
        raise DomainError("witness families are defined for depth q >= 3")
    if n < 1 or m < 1:
        raise DomainError("block size n and padding m must be >= 1")
    _check_length((q - 1) * n + m + 1, "a witness")
    return Word((1,) * m + witness_kunz(q, n).letters)


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
    _check_length(len(word), "a word")
    if not is_kunz(word):
        raise NotKunz(f"{word} violates the Kunz conditions")
    m = len(word) + 1
    return _store_apery([0] + [u * m + i for i, u in enumerate(word.letters, 1)])


def from_semigroup(semigroup: NumericalSemigroup) -> Word:
    """Kunz coefficients of ``semigroup`` as a word; () for N itself."""
    return Word(semigroup.apery.kunz)
