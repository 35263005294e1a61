"""Numerical semigroups and their notable invariants.

A numerical semigroup is a subset of the nonnegative integers that
contains 0, is closed under addition, and misses only finitely many
integers.  Its Apery tuple w (w[i] the least element congruent to i
modulo the multiplicity m) carries everything: membership is
x >= w[x mod m], the conductor is max(w) - m + 1, and the Kunz word is
read off w.
"""

from __future__ import annotations

import heapq
import math
import operator
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Iterable, Sequence

from .errors import DomainError, NotCofinite, ResourceBound

DEFAULT_SEARCH_CEILING = 10_000_000
# Largest conductor built: small_elements holds about c/2 ints, and the
# build of [1447, 1451] (c = 2,096,700) takes 0.4 s at 63 MB peak RSS
# (2-CPU VM, Python 3.11).  The multiplicity is checked against it first,
# since c >= m; shortest paths for m = 2**21 take 1.5-2.5 s at 128 MB.
MAX_CONDUCTOR = 2**21


@dataclass(frozen=True)
class AperyData:
    """Least elements of S per residue class modulo the multiplicity.

    values[i] is the least element congruent to i (mod m); values[0] is
    always 0.  kunz[i-1] is the coefficient k_i in values[i] = k_i*m + i,
    a positive integer for every 0 < i < m.
    """

    values: tuple[int, ...]
    kunz: tuple[int, ...]


def _apery_values(small: Sequence[int], conductor: int, m: int) -> tuple[int, ...]:
    """Least element per residue mod m of small_elements followed by
    everything above the conductor; one pass, since small is ascending."""
    values = [-1] * m
    for x in chain(small, range(conductor + 1, conductor + m)):
        if values[x % m] < 0:
            values[x % m] = x
    return tuple(values)


@dataclass(frozen=True)
class NumericalSemigroup:
    small_elements: tuple[int, ...]
    conductor: int

    def __post_init__(self):
        small = self.small_elements
        if not small or small[0] != 0:
            raise DomainError("small_elements must start with 0")
        if not all(map(operator.lt, small, small[1:])):
            raise DomainError("small_elements must be strictly ascending")
        if small[-1] != self.conductor:
            raise DomainError("conductor must be the last small element")
        m = self.multiplicity
        w = _apery_values(small, self.conductor, m)
        top = max(w)
        if top - m + 1 != self.conductor:
            raise DomainError(f"conductor must be max(apery) - m + 1 = {top - m + 1}")
        # Kunz's inequalities w[i] + w[j] >= w[(i + j) % m]; row i holds
        # throughout once w[i] + min(w[1:]) reaches max(w)
        least = min(w[1:], default=0)
        for i in range(1, m):
            wi = w[i]
            if wi + least >= top:
                continue
            for j in range(i, m):
                if wi + w[j] < w[(i + j) % m]:
                    raise DomainError(
                        f"not closed under addition: {wi} + {w[j]} = {wi + w[j]} missing"
                    )
        # Selmer: the genus is sum((w[i] - i) / m), all gaps below the conductor
        genus = (sum(w) - m * (m - 1) // 2) // m
        if len(small) != self.conductor + 1 - genus:
            raise DomainError("small_elements must list every member up to the conductor")

    def __contains__(self, x: int) -> bool:
        return self.contains(x)

    def contains(self, x: int) -> bool:
        """Membership test; true for every x >= conductor."""
        w = self.apery.values
        return x >= 0 and x >= w[x % len(w)]

    @property
    def multiplicity(self) -> int:
        """Least positive element; 1 when S is all of N."""
        if self.conductor == 0:
            return 1
        return self.small_elements[1]

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
        """Number of gaps (positive integers outside S)."""
        return self.conductor - (len(self.small_elements) - 1)

    def gaps(self) -> list[int]:
        return [x for x in range(1, self.conductor) if not self.contains(x)]

    @cached_property
    def apery(self) -> AperyData:
        """Apery set with respect to the multiplicity, plus the Kunz
        coefficients read off from it."""
        m = self.multiplicity
        values = _apery_values(self.small_elements, self.conductor, m)
        kunz = tuple((values[i] - i) // m for i in range(1, m))
        return AperyData(values=values, kunz=kunz)

    def to_json_dict(self) -> dict:
        """Wire form; field order is part of the interface."""
        ap = self.apery
        return {
            "small_elements": list(self.small_elements),
            "conductor": self.conductor,
            "multiplicity": self.multiplicity,
            "frobenius": self.frobenius,
            "depth": self.depth,
            "apery": list(ap.values),
            "kunz": list(ap.kunz),
            "genus": self.genus,
        }

    def __repr__(self) -> str:
        return f"NumericalSemigroup(small_elements={self.small_elements!r})"


NATURALS = NumericalSemigroup(small_elements=(0,), conductor=0)


def from_apery(values: Sequence[int]) -> NumericalSemigroup:
    """The semigroup whose Apery tuple is ``values``, given values[i] % m == i
    for m = len(values); DomainError if Kunz's inequalities fail, and
    ResourceBound before small_elements is built when the conductor
    exceeds MAX_CONDUCTOR."""
    m = len(values)
    conductor = max(values) - m + 1
    if conductor > MAX_CONDUCTOR:
        raise ResourceBound(
            f"conductor {conductor} is over the ceiling {MAX_CONDUCTOR}"
        )
    small = tuple(x for x in range(conductor + 1) if x >= values[x % m])
    return NumericalSemigroup(small_elements=small, conductor=conductor)


def from_generators(gens: Iterable[int]) -> NumericalSemigroup:
    """Least submonoid of N containing ``gens``.

    Raises NotCofinite when gcd(gens) != 1 (the complement would be
    infinite), DomainError on an empty or nonpositive generator set, and
    ResourceBound, before building anything of that size, when the
    multiplicity or the conductor exceeds MAX_CONDUCTOR.
    """
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
    return from_apery(values)


def enumerate_semigroups(
    max_multiplicity: int,
    max_depth: int,
    *,
    search_ceiling: int = DEFAULT_SEARCH_CEILING,
) -> list[NumericalSemigroup]:
    """Every numerical semigroup with multiplicity <= max_multiplicity and
    depth <= max_depth, by brute force over gap sets.

    For each candidate multiplicity m the search decides membership of
    every integer in (m, m*max_depth) one position at a time, pruning a
    branch as soon as declaring x a gap would break additive closure
    (some a + b = x with a, b already members).  Nothing here knows about
    Kunz coordinates, so the word-side census can be checked against this
    one as an independent oracle.

    Output is sorted ascending-lexicographically by small_elements.
    Raises ResourceBound if the search tree exceeds ``search_ceiling``
    nodes.
    """
    if max_multiplicity < 1:
        raise DomainError("max_multiplicity must be >= 1")
    if max_depth < 0:
        raise DomainError("max_depth must be >= 0")

    results: list[NumericalSemigroup] = [NATURALS]
    nodes = 0

    def finalize(m: int, members: list[int], gap_max: int) -> None:
        # the conductor itself may sit at the search bound, one past the
        # last decided position
        conductor = gap_max + 1
        small = tuple(x for x in members if x < conductor) + (conductor,)
        results.append(NumericalSemigroup(small_elements=small, conductor=conductor))

    def extend(m: int, bound: int, members: list[int], member_set: set[int],
               x: int, gap_max: int) -> None:
        nonlocal nodes
        nodes += 1
        if nodes > search_ceiling:
            raise ResourceBound(
                f"gap-set search exceeded {search_ceiling} nodes"
            )
        if x >= bound:
            finalize(m, members, gap_max)
            return
        # x joins S
        members.append(x)
        member_set.add(x)
        extend(m, bound, members, member_set, x + 1, gap_max)
        member_set.discard(x)
        members.pop()
        # x stays a gap, unless closure already forces it in
        for a in members:
            if a == 0:
                continue
            if a * 2 > x:
                break
            if (x - a) in member_set:
                return
        extend(m, bound, members, member_set, x + 1, x)

    for m in range(2, max_multiplicity + 1):
        if max_depth < 1:
            break  # every semigroup with a gap has depth >= 1
        bound = m * max_depth
        # 1 .. m-1 are gaps by definition of the multiplicity
        extend(m, bound, [0, m], {0, m}, m + 1, m - 1)

    results.sort(key=lambda s: s.small_elements)
    return results
