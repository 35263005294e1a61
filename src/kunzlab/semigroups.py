"""Numerical semigroups and their notable invariants.

A numerical semigroup is a subset of the nonnegative integers that
contains 0, is closed under addition, and misses only finitely many
integers.  Its Apery tuple w (w[i] the least element congruent to i
modulo the multiplicity m) carries everything, and it is all that a
NumericalSemigroup stores: m - 1 Kunz coordinates' worth of ints
however large the conductor.  Membership is x >= w[x mod m], the
conductor is max(w) - m + 1, the genus is the sum of the Kunz
coordinates (Selmer), and the Kunz word is read off w, each in O(m) or
less, whatever the conductor.  small_elements, gaps() and the wire form
list the members or gaps below it on demand, in O(c), and alone refuse
a conductor over MAX_CONDUCTOR.  Only from_apery and the small_elements
constructor validate w, in O(m^2) at worst, with the Kunz scan of w's
Kunz word, which the words module owns; so they first refuse m - 1 over
words.MAX_WITNESS_LENGTH.  The constructor then counts its input,
listing none, in O(input + m^2) in all.  from_generators,
words.to_semigroup and enumerate_semigroups derive a valid w themselves
and build the semigroup from it with Frozen._trusted, or _trusted_many
in bulk, which check nothing.
"""

from __future__ import annotations

import heapq
import math
import operator
from itertools import chain, compress, count, product
from typing import Iterable, Sequence

from ._frozen import Value, _paused_collector
from .errors import (
    DomainError,
    NotCofinite,
    ResourceBound,
    _check_at_least_one,
    _check_ints,
    _shown,
)
from .words import _check_length, _letters_in_bounds

DEFAULT_SEARCH_CEILING = 10_000_000
# Deepest gap-set search, in positions decided one nested call at a time:
# Python's default recursion limit is 1,000 frames, and callers such as
# pytest hold some of them.
MAX_SEARCH_DEPTH = 900
# Largest conductor listed: small_elements, gaps() and the wire form are
# O(c) reads, and listing the small elements of [1447, 1451]
# (c = 2,096,700) at the ceiling takes about 0.08 s from the sieve
# (0.25 s one integer at a time; 2-CPU VM, Python 3.11).
# from_generators checks only the multiplicity against it, since c >= m:
# shortest paths for m = 2**21 take 1.5-2.5 s at 128 MB.
MAX_CONDUCTOR = 2**21
# bytes.translate table that swaps 0 and 1: a member sieve to a gap sieve
_FLIP = bytes((1, 0)) + bytes(254)


class AperyData(Value):
    """Least elements of S per residue class modulo the multiplicity.

    values[i] is the least element congruent to i (mod m); values[0] is
    always 0.  kunz[i-1] is the coefficient k_i in values[i] = k_i*m + i,
    a positive integer for every 0 < i < m.
    """

    __slots__ = ("values", "kunz")


def _apery_values(members: Iterable[int], top: int, m: int) -> tuple[int, ...]:
    """Least element per residue mod m of the semigroup that holds
    ``members`` (ascending, none above ``top``) and every integer from
    ``top`` on; one pass, since that sequence is ascending."""
    values = [-1] * m
    for x in chain(members, range(top, top + m)):
        if values[x % m] < 0:
            values[x % m] = x
    return tuple(values)


def _check_apery(w: tuple[int, ...]) -> None:
    """DomainError unless w, a tuple of integers, is the Apery tuple of a
    numerical semigroup of multiplicity m = len(w): w[0] = 0,
    w[i] = k_i*m + i with k_i >= 1, and Kunz's inequalities, which
    _letters_in_bounds checks."""
    m = len(w)
    if not w or w[0] != 0:
        raise DomainError("an Apery tuple must start with 0")
    for i in range(1, m):
        if w[i] % m != i or w[i] < m:
            raise DomainError(f"w[{i}] = {w[i]} is not k*{m} + {i} with k >= 1")
    if not _letters_in_bounds([(w[i] - i) // m for i in range(1, m)]):
        raise DomainError("not closed under addition: Kunz's inequalities fail")


class NumericalSemigroup(Value):
    """A numerical semigroup, stored as its Apery tuple alone; equality
    and hash are those of the tuple.

    The constructor converts from the members up to the conductor, in
    O(input + m^2) with no listing; from_apery, from_generators and
    words.to_semigroup build from the Apery tuple directly.
    """

    __slots__ = ("_w",)

    def __init__(self, small_elements: Sequence[int], conductor: int):
        small = tuple(small_elements)
        _check_ints(small + (conductor,), "small_elements and conductor")
        if not small or small[0] != 0:
            raise DomainError("small_elements must start with 0")
        if not all(map(operator.lt, small, small[1:])):
            raise DomainError("small_elements must be strictly ascending")
        if small[-1] != conductor:
            raise DomainError("conductor must be the last small element")
        m = small[1] if conductor else 1
        _check_length(m - 1, f"multiplicity {_shown(m)}: a Kunz word")
        w = _apery_values(small, conductor + 1, m)
        _check_apery(w)
        super().__init__(w)
        # each listed x is >= w[x mod m], so a distinct member of S up to
        # the conductor; with the conductor S's own, they are all its
        # c + 1 - genus members there iff there are that many: no listing
        if self.conductor != conductor or conductor + 1 - self.genus != len(small):
            raise DomainError(
                "small_elements must be every member up to the conductor"
                f" {self.conductor} of the semigroup they generate"
            )

    def __contains__(self, x: int) -> bool:
        return self.contains(x)

    def contains(self, x: int) -> bool:
        """Membership test; true for every x >= conductor.  DomainError for
        an x that is not exactly an int: True would answer as 1, and 3.0
        cannot index the Apery tuple."""
        if type(x) is not int:
            _check_ints(x=x)
        w = self._w
        return x >= 0 and x >= w[x % len(w)]

    @property
    def multiplicity(self) -> int:
        """Least positive element; 1 when S is all of N."""
        return len(self._w)

    @property
    def conductor(self) -> int:
        """Least c with every integer >= c in S: max(w) - m + 1."""
        return max(self._w) - len(self._w) + 1

    @property
    def frobenius(self) -> int:
        """Largest integer outside S; -1 when S is all of N."""
        return self.conductor - 1

    @property
    def depth(self) -> int:
        """ceil(conductor / multiplicity); 0 exactly for S = N."""
        return -(-self.conductor // self.multiplicity)

    @property
    def genus(self) -> int:
        """Number of gaps (positive integers outside S): by Selmer, the
        sum of the Kunz coordinates (w[i] - i) / m."""
        w = self._w
        m = len(w)
        return (sum(w) - m * (m - 1) // 2) // m

    @property
    def small_elements(self) -> tuple[int, ...]:
        """Members up to and including the conductor, ascending; O(c),
        built on each read."""
        return tuple(compress(count(), self._sieve()))

    def gaps(self) -> list[int]:
        return list(compress(count(), self._sieve().translate(_FLIP)))

    def _sieve(self) -> bytearray:
        """Byte x is 1 iff x is a member, for x = 0 .. conductor: one
        slice assignment per Apery element w[r], the members r + k*m from
        w[r] on.  ResourceBound over MAX_CONDUCTOR before anything is built."""
        c = self.conductor
        if c > MAX_CONDUCTOR:
            raise ResourceBound(f"conductor {_shown(c)} is over the ceiling {MAX_CONDUCTOR}")
        w = self._w
        m = len(w)
        sieve = bytearray(c + 1)
        for a in w:
            if a <= c:
                sieve[a::m] = b"\x01" * ((c - a) // m + 1)
        return sieve

    @property
    def apery(self) -> AperyData:
        """Apery set with respect to the multiplicity, plus the Kunz
        coefficients read off from it."""
        w = self._w
        m = len(w)
        return AperyData(w, tuple((w[i] - i) // m for i in range(1, m)))

    def to_json_dict(self) -> dict:
        """Wire form; field order is part of the interface."""
        small = list(self.small_elements)  # refuses before the O(m) apery
        ap = self.apery
        return {
            "small_elements": small,
            "conductor": self.conductor,
            "multiplicity": self.multiplicity,
            "frobenius": self.frobenius,
            "depth": self.depth,
            "apery": list(ap.values),
            "kunz": list(ap.kunz),
            "genus": self.genus,
        }


NATURALS = NumericalSemigroup(small_elements=(0,), conductor=0)


def from_apery(values: Sequence[int]) -> NumericalSemigroup:
    """The semigroup whose Apery tuple is ``values``, for the multiplicity
    m = len(values).  DomainError unless the values are exactly ints,
    checked first; then ResourceBound when m - 1 exceeds
    words.MAX_WITNESS_LENGTH, since the validation is O(m^2) at worst; then
    DomainError unless values[0] is 0, values[i] = k*m + i with k >= 1
    for 0 < i < m, and Kunz's inequalities hold (see _check_apery).  Any
    conductor is built."""
    w = tuple(values)
    _check_ints(w, "an Apery tuple")
    _check_length(len(w) - 1, f"multiplicity {_shown(len(w))}: a Kunz word")
    _check_apery(w)
    return NumericalSemigroup._trusted(w)


def from_generators(gens: Iterable[int]) -> NumericalSemigroup:
    """Least submonoid of N containing ``gens``; its Apery tuple comes valid
    from the shortest paths below and is stored unchecked.

    Raises DomainError, first, unless every generator is exactly an int;
    then NotCofinite when gcd(gens) != 1 (the complement would be
    infinite), DomainError on an empty or nonpositive generator set, and
    ResourceBound, before the shortest paths, when the multiplicity
    exceeds MAX_CONDUCTOR; any conductor is built, in O(m) memory.
    """
    gens = tuple(gens)
    _check_ints(gens, "generators")
    gen_list = sorted(set(gens))
    if not gen_list:
        raise DomainError("need at least one generator")
    if gen_list[0] < 1:
        raise DomainError("generators must be positive integers")
    if math.gcd(*gen_list) != 1:
        raise NotCofinite(f"gcd of {gen_list} is {math.gcd(*gen_list)}, not 1")

    m = gen_list[0]
    if m > MAX_CONDUCTOR:  # every w[r] >= m + r, so the conductor is >= m
        raise ResourceBound(
            f"multiplicity {m} puts the conductor over the ceiling {MAX_CONDUCTOR}"
        )
    # Nijenhuis: w[r] is the shortest path 0 -> r over edges r -> r + g (mod m)
    values = [0] + [math.inf] * (m - 1)
    heap = [(0, 0)]
    while heap:
        d, r = heapq.heappop(heap)
        if d > values[r]:
            continue
        for g in gen_list[1:]:
            t = (r + g) % m
            if d + g < values[t]:
                values[t] = d + g
                heapq.heappush(heap, (d + g, t))
    return NumericalSemigroup._trusted(tuple(values))


def _last_row(
    m: int, bound: int, x0: int, least: Sequence[int], sums: int
) -> tuple[int, list[tuple[int, ...]]]:
    """The subtree of a gap-set search node at x0 = max(m + 1, bound - m),
    bound a multiple of m: its node count, and the choices for each w[r],
    r = 0 .. m-1, whose product lists its leaves.  least[r] is the least
    member congruent to r below x0, or bound + r when there is none; the
    forced positions are the bits of ``sums``.  For y = bound - m + r the
    choice is (least[r],) when y < x0, or when least[r] < x0, which
    forces y; else (y,) when y is forced and (y, y + m) when it is free.
    A level of the subtree holds 2**f nodes, f the free positions from x0
    to it, so the one pass over the row also counts them."""
    level = nodes = 1
    choices = []
    for y, a in zip(range(bound - m, bound), least):
        if y < x0 or a < x0:
            choices.append((a,))
        elif sums >> y & 1:
            choices.append((y,))
        else:
            choices.append((y, a))
            level *= 2
        if y >= x0:
            nodes += level
    return nodes, choices


@_paused_collector
def enumerate_semigroups(
    max_multiplicity: int,
    max_depth: int,
    *,
    search_ceiling: int = DEFAULT_SEARCH_CEILING,
) -> list[NumericalSemigroup]:
    """Every numerical semigroup with multiplicity <= max_multiplicity and
    depth <= max_depth, by brute force over gap sets.

    For each candidate multiplicity m the search decides membership of
    every integer in (m, bound), bound = m*max_depth, one position at a
    time, pruning a branch as soon as declaring x a gap would break
    additive closure (some a + b = x with a, b already members), so
    every leaf is closed and built unchecked.  Nothing here knows about
    Kunz coordinates, so the word-side census can be checked against
    this one as an independent oracle.

    The last row, from x0 = max(m + 1, bound - m) on, is listed rather
    than searched.  A sum with a member >= x0 is >= x0 + m >= bound, so
    from x0 on each position is forced or free whatever is chosen around
    it, and the subtree under x0 is a product of one choice per residue
    (see _last_row).  Since bound is a multiple of m, the residues of
    [x0, bound) ascend with the positions, so itertools.product yields
    the Apery tuples in the order a position-by-position search would.
    The search keeps each residue's least member so far in one list of m
    ints, set when a member joins first in its residue and reset on the
    way back, so a row reads each residue's choice in O(1).  The rows'
    tuples are gathered in one list, which becomes NumericalSemigroups in
    one bulk pass at the end, with no Python-level call per semigroup.

    Output is ascending-lexicographic by small_elements, with no sort:
    the multiplicities run in ascending order and each position tries
    "x joins S" before "x is a gap".  Raises ResourceBound, up front,
    when max_multiplicity**2 exceeds ``search_ceiling`` (depth 1 costs
    one node per multiplicity but lists an m-tuple for each), when the
    search would nest more than MAX_SEARCH_DEPTH calls, and when the
    search tree exceeds ``search_ceiling`` nodes.  A last row is
    charged its whole subtree before any of it is built, so the node
    count, and the point where it trips, are those of a
    position-by-position search.  A multiplicity or depth that is not
    exactly an int, and a ``search_ceiling`` below 1, are DomainErrors.

    It runs with CPython's cyclic garbage collector paused, since what it
    builds holds no cycle (see _frozen._paused_collector).  The switch is
    process-wide: no other thread's allocations start a collection until
    it returns, and a gc.disable() another thread makes meanwhile is
    undone then.  A caller that disabled the collector keeps it disabled.
    """
    _check_ints(max_multiplicity=max_multiplicity, max_depth=max_depth)
    if max_multiplicity < 1:
        raise DomainError("max_multiplicity must be >= 1")
    if max_depth < 0:
        raise DomainError("max_depth must be >= 0")
    _check_at_least_one(search_ceiling, "the search ceiling")
    if max_depth < 1:
        return [NATURALS]  # every semigroup with a gap has depth >= 1
    # capping the base at the ceiling + 1 keeps the verdict and never
    # squares a huge multiplicity
    if min(max_multiplicity, search_ceiling + 1) ** 2 > search_ceiling:
        raise ResourceBound(
            f"multiplicity {_shown(max_multiplicity)} squared is over the"
            f" ceiling {search_ceiling}"
        )

    # one nested call per position below the last row: m * (max_depth - 2)
    # at the largest m, when there is an m >= 2 to search
    nesting = max_multiplicity * (max_depth - 2)
    if max_multiplicity > 1 and nesting > MAX_SEARCH_DEPTH:
        raise ResourceBound(
            f"gap-set search {_shown(nesting)} positions deep is over the"
            f" ceiling {MAX_SEARCH_DEPTH}"
        )

    apery: list[tuple[int, ...]] = []  # every leaf's Apery tuple, in order
    nodes = 0

    def extend(mask: int, sums: int, x: int) -> None:
        # mask has bit a for each member a > 0, sums bit a + b for each
        # pair of them; x is forced into S iff bit x of sums is set
        nonlocal nodes
        if x < x0:
            nodes += 1
        else:  # the last row is charged in full before any of it is built
            row, choices = _last_row(m, bound, x0, least, sums)
            nodes += row
        if nodes > search_ceiling:
            raise ResourceBound(f"gap-set search exceeded {search_ceiling} nodes")
        if x == x0:
            apery.extend(product(*choices))
            return
        # x joins S, as the least member of its residue if none is yet
        joined = mask | 1 << x
        r = x % m
        first = least[r]
        if first > x:
            least[r] = x
        extend(joined, sums | joined << x, x + 1)
        least[r] = first
        # x stays a gap, unless closure already forces it in
        if not sums >> x & 1:
            extend(mask, sums, x + 1)

    try:
        for m in range(2, max_multiplicity + 1):
            bound = m * max_depth
            x0 = max(m + 1, bound - m)
            # the least member congruent to r so far, bound + r while there is none
            least = [0, *range(bound + 1, bound + m)]
            # 1 .. m-1 are gaps by definition of the multiplicity
            extend(1 << m, 1 << 2 * m, m + 1)
    finally:
        del extend  # it holds itself through its closure: break that cycle

    found = NumericalSemigroup._trusted_many(apery)
    found.insert(0, NATURALS)
    return found
