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
constructor validate w, in O(m^2), so they first refuse m - 1 over
MAX_WITNESS_LENGTH; from_generators, words.to_semigroup and
enumerate_semigroups derive a valid w themselves and store it unchecked.
"""

from __future__ import annotations

import heapq
import math
import operator
from collections import deque
from itertools import chain, product, repeat
from typing import Iterable, Sequence

from ._frozen import Value
from .errors import DomainError, NotCofinite, ResourceBound, _check_at_least_one, _shown

DEFAULT_SEARCH_CEILING = 10_000_000
# Largest conductor listed: small_elements, gaps() and the wire form are
# O(c) reads, and listing the small elements of [1447, 1451]
# (c = 2,096,700) at the ceiling takes about 0.2 s (2-CPU VM,
# Python 3.11).  from_generators checks only the multiplicity against it,
# since c >= m: shortest paths for m = 2**21 take 1.5-2.5 s at 128 MB.
MAX_CONDUCTOR = 2**21


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
    in its _letter_bounds interval.  O(l) on the regular core,
    2*min(u) >= max(u): every pair sum is >= 2*min(u) >= every letter,
    so both conditions hold.  O(l^2) otherwise."""
    n, q = len(u), max(u, default=0)
    if 2 * min(u, default=0) >= q:
        return True
    for p in range(1, n + 1):
        lo, hi = _letter_bounds(u, p, n, q)
        if not lo <= u[p - 1] <= hi:
            return False
    return True


# Longest word a Kunz scan runs on, m - 1 for an Apery tuple validated
# here: the scans are O(l^2), and is_kunz takes about 0.6 s at l = 4,001
# (2.7 s at 8,001; 2-CPU VM, Python 3.11).  Every caller of the witness
# families scans what it builds, and violations() can list Theta(l^2)
# items: 1,001,000 on 1^2000 3^2000, at 194 MB peak RSS.
MAX_WITNESS_LENGTH = 4096


def _check_length(length: int, what: str) -> None:
    if length > MAX_WITNESS_LENGTH:
        raise ResourceBound(
            f"{what} of length {_shown(length)} is over the ceiling {MAX_WITNESS_LENGTH}"
        )


def _require_ints(values: tuple, what: str) -> None:
    """DomainError unless every value is an int; run before any arithmetic
    on input, which would otherwise end in a TypeError."""
    if not all(isinstance(x, int) for x in values):
        raise DomainError(f"{what} must hold integers")


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

    The constructor converts from the members up to the conductor;
    from_apery, from_generators and words.to_semigroup build from the
    Apery tuple directly.
    """

    __slots__ = ("_w",)

    def __init__(self, small_elements: Sequence[int], conductor: int):
        small = tuple(small_elements)
        _require_ints(small + (conductor,), "small_elements and conductor")
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
        # no ceiling: the c + 1 - genus members are counted, then compared
        # one by one, each at most m past the last, in O(m * len(small))
        listed = filter(self.contains, range(self.conductor + 1))
        if (self.conductor + 1 - self.genus != len(small)
                or any(map(operator.ne, listed, small))):
            raise DomainError(
                "small_elements must be every member up to the conductor"
                f" {self.conductor} of the semigroup they generate"
            )

    def __contains__(self, x: int) -> bool:
        return self.contains(x)

    def contains(self, x: int) -> bool:
        """Membership test; true for every x >= conductor."""
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
        w = self._w
        m = len(w)
        return tuple(x for x in range(self._listed_conductor() + 1) if x >= w[x % m])

    def gaps(self) -> list[int]:
        w = self._w
        m = len(w)
        return [x for x in range(1, self._listed_conductor()) if x < w[x % m]]

    def _listed_conductor(self) -> int:
        """The conductor, or ResourceBound over MAX_CONDUCTOR before any listing."""
        c = self.conductor
        if c > MAX_CONDUCTOR:
            raise ResourceBound(f"conductor {_shown(c)} is over the ceiling {MAX_CONDUCTOR}")
        return c

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


# the _w slot's own setter, which Frozen.__setattr__ does not guard
_set_apery = NumericalSemigroup._w.__set__


def _store_apery(values: Iterable[int]) -> NumericalSemigroup:
    """from_apery without _check_apery, for tuples valid by construction."""
    semigroup = object.__new__(NumericalSemigroup)
    _set_apery(semigroup, tuple(values))
    return semigroup


def from_apery(values: Sequence[int]) -> NumericalSemigroup:
    """The semigroup whose Apery tuple is ``values``, for the multiplicity
    m = len(values).  DomainError unless the values are integers, checked
    first; then ResourceBound when m - 1 exceeds MAX_WITNESS_LENGTH, since
    the validation is O(m^2); then DomainError unless values[0] is 0,
    values[i] = k*m + i with k >= 1 for 0 < i < m, and Kunz's
    inequalities hold (see _check_apery).  Any conductor is built."""
    w = tuple(values)
    _require_ints(w, "an Apery tuple")
    _check_length(len(w) - 1, f"multiplicity {_shown(len(w))}: a Kunz word")
    _check_apery(w)
    return _store_apery(w)


def from_generators(gens: Iterable[int]) -> NumericalSemigroup:
    """Least submonoid of N containing ``gens``; its Apery tuple comes valid
    from the shortest paths below and is stored unchecked.

    Raises NotCofinite when gcd(gens) != 1 (the complement would be
    infinite), DomainError on an empty, nonpositive or non-integer
    generator set, and ResourceBound, before the shortest paths, when the
    multiplicity exceeds MAX_CONDUCTOR; any conductor is built, in O(m)
    memory.
    """
    gens = tuple(gens)
    _require_ints(gens, "generators")
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
    return _store_apery(values)


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
    every leaf is closed and stored unchecked.  Nothing here knows about
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
    way back, so a row reads each residue's choice in O(1).  The row's
    tuples become NumericalSemigroups in bulk, with no Python-level call
    per semigroup.

    Output is ascending-lexicographic by small_elements, with no sort:
    the multiplicities run in ascending order and each position tries
    "x joins S" before "x is a gap".  Raises ResourceBound, up front,
    when max_multiplicity**2 exceeds ``search_ceiling`` (depth 1 costs
    one node per multiplicity but lists an m-tuple for each), and when
    the search tree exceeds ``search_ceiling`` nodes.  A last row is
    charged its whole subtree before any of it is built, so the node
    count, and the point where it trips, are those of a
    position-by-position search.  A ``search_ceiling`` below 1 is a
    DomainError.
    """
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

    results: list[NumericalSemigroup] = [NATURALS]
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
            # one NumericalSemigroup per Apery tuple, with no Python-level
            # call per semigroup: bare objects, then the _w slot's setter
            tuples = list(product(*choices))
            found = list(map(object.__new__, repeat(NumericalSemigroup, len(tuples))))
            deque(map(_set_apery, found, tuples), maxlen=0)
            results.extend(found)
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

    for m in range(2, max_multiplicity + 1):
        bound = m * max_depth
        x0 = max(m + 1, bound - m)
        # the least member congruent to r so far, bound + r while there is none
        least = [0, *range(bound + 1, bound + m)]
        # 1 .. m-1 are gaps by definition of the multiplicity
        extend(1 << m, 1 << 2 * m, m + 1)

    return results
