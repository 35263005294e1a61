import heapq
import math
import random
from collections import Counter

import pytest

from kunzlab import (
    DomainError,
    NATURALS,
    NotCofinite,
    NumericalSemigroup,
    ResourceBound,
    Word,
    count_kunz,
    enumerate_semigroups,
    from_generators,
    from_semigroup,
    to_semigroup,
    witness_kunz,
)
from kunzlab import semigroups
from kunzlab.semigroups import MAX_CONDUCTOR, MAX_WITNESS_LENGTH, from_apery
from conftest import (
    kunz_tuple_ok,
    naive_conductor,
    naive_frobenius_and_genus,
    naive_members,
    naive_semigroups,
)


def test_from_generators_naturals():
    assert from_generators({1}) == NATURALS
    assert NATURALS.conductor == 0


def test_from_generators_357():
    s = from_generators({3, 5, 7})
    assert s.conductor == 5
    assert s.small_elements == (0, 3, 5)
    # independent closure oracle agrees on a wide window
    members = naive_members({3, 5, 7}, 40)
    assert all(s.contains(x) == (x in members) for x in range(41))
    assert naive_conductor({3, 5, 7}, 40) == 5


def test_from_generators_not_cofinite():
    with pytest.raises(NotCofinite):
        from_generators({2, 4})


def test_from_generators_rejects_bad_input():
    with pytest.raises(DomainError):
        from_generators(set())
    with pytest.raises(DomainError):
        from_generators({0, 3})
    # refused before sorted or math.gcd can end in a TypeError
    for gens in [[3, 5.0], ["3"], [3, "5"]]:
        with pytest.raises(DomainError, match="generators must hold integers"):
            from_generators(gens)


ORACLE_GENERATOR_SETS = [{2, 3}, {4, 9, 11}, {6, 10, 15}, {5, 7},
                         {6, 9, 20, 12}, {11, 7, 13, 8}]


@pytest.mark.parametrize("gens", ORACLE_GENERATOR_SETS)
def test_from_generators_matches_naive_oracle(gens):
    limit = 3 * max(gens) * min(gens)
    members = naive_members(gens, limit)
    s = from_generators(gens)
    assert s.conductor == naive_conductor(gens, limit)
    for x in range(limit + 1):
        assert s.contains(x) == (x in members)


@pytest.mark.parametrize("a,b", [(201, 203), (997, 1009)])
def test_from_generators_two_coprime_generators(a, b):
    # Sylvester: conductor (a-1)(b-1), half of [0, conductor) are gaps, and
    # the Apery set of a is {j*b : 0 <= j < a}
    s = from_generators([a, b])
    assert s.conductor == (a - 1) * (b - 1)
    assert s.genus == (a - 1) * (b - 1) // 2
    assert sorted(s.apery.values) == sorted(j * b for j in range(a))


def test_construction_ceiling(monkeypatch):
    # only the multiplicity is refused when building, before the O(m)
    # shortest paths, or before the Apery tuple is built and run through
    # the O(m^2) validation once m - 1 is over the Kunz scan's ceiling
    def no_work(*args):
        raise AssertionError("construction work ran")

    monkeypatch.setattr(heapq, "heappop", no_work)
    monkeypatch.setattr(semigroups, "_apery_values", no_work)
    monkeypatch.setattr(semigroups, "_check_apery", no_work)
    with pytest.raises(ResourceBound, match="multiplicity"):
        from_generators([MAX_CONDUCTOR + 1, MAX_CONDUCTOR + 2])
    with pytest.raises(ResourceBound, match="multiplicity"):
        from_apery([0] * (MAX_CONDUCTOR + 1))
    with pytest.raises(ResourceBound, match="^multiplicity 1000000000: a Kunz word"
                       " of length 999999999 is over the ceiling 4096$"):
        NumericalSemigroup((0, 10**9), 10**9)
    with pytest.raises(ResourceBound, match=r"^multiplicity 2\^64 or more"):
        NumericalSemigroup((0, 10**5000), 10**5000)
    m = MAX_WITNESS_LENGTH + 2
    with pytest.raises(ResourceBound, match=f"^multiplicity {m}: a Kunz word"):
        from_apery((0,) + tuple(range(m + 1, 2 * m)))
    monkeypatch.undo()
    # m = 2 and w = (0, c + 1) give conductor c over the ceiling: built
    # (listed by neither; see the bit-mask oracle test below)
    assert from_apery((0, MAX_CONDUCTOR + 3)) == to_semigroup(
        Word((MAX_CONDUCTOR // 2 + 1,)))


def test_validation_ceiling_boundary(monkeypatch):
    # m - 1 equal to the ceiling is validated by both routes, one more is not
    monkeypatch.setattr(semigroups, "MAX_WITNESS_LENGTH", 8)
    s = from_apery(tuple([0] + list(range(10, 18))))
    assert s == NumericalSemigroup((0, 9), 9) and s.multiplicity == 9
    with pytest.raises(ResourceBound, match="multiplicity 10"):
        NumericalSemigroup((0, 10), 10)
    with pytest.raises(ResourceBound, match="multiplicity 10"):
        from_apery(tuple([0] + list(range(11, 20))))


def assert_listings_refused(s):
    """The O(c) reads raise ResourceBound; the O(m) ones keep answering."""
    message = f"conductor {s.conductor} is over the ceiling {MAX_CONDUCTOR}"
    for listing in (lambda: s.small_elements, s.gaps, s.to_json_dict):
        with pytest.raises(ResourceBound, match=message):
            listing()
    assert s.frobenius == s.conductor - 1
    assert not s.contains(s.frobenius) and s.contains(s.conductor)
    assert from_semigroup(s).depth == s.depth


@pytest.mark.parametrize("build,gens", [
    (lambda: from_generators([10007, 10009, 10037]), (10007, 10009, 10037)),
    (lambda: from_apery((0, MAX_CONDUCTOR + 3)), (2, MAX_CONDUCTOR + 3)),
    (lambda: to_semigroup(Word((MAX_CONDUCTOR // 2 + 1,))), (2, MAX_CONDUCTOR + 3)),
], ids=["three-generators", "from-apery", "to-semigroup"])
def test_conductor_over_the_ceiling_matches_bit_mask_oracle(build, gens):
    s = build()
    assert (s.frobenius, s.genus) == naive_frobenius_and_genus(gens)
    assert s.multiplicity == min(gens)
    assert_listings_refused(s)


def test_conductor_too_long_to_print_is_refused_as_a_bound():
    # a conductor of 5,001 digits, past what Python converts to text
    s = from_apery((0, 10**5000 + 1))
    with pytest.raises(ResourceBound, match=r"conductor 2\^64 or more is over the ceiling"):
        s.small_elements


def test_two_generators_over_the_ceiling_match_sylvester():
    # Sylvester: conductor (a-1)(b-1), genus half of it; no longer refused
    # from the generators before the shortest paths run
    s = from_generators([20011, 20021])
    assert (s.conductor, s.genus) == (400_600_200, 200_300_100)
    assert_listings_refused(s)


def test_small_elements_constructor_lists_past_the_ceiling():
    # its check counts the input and lists nothing, so no conductor
    # ceiling applies; a sparse input can reach c = m * (len - 1)
    evens = range(0, MAX_CONDUCTOR + 3, 2)
    s = NumericalSemigroup(evens, MAX_CONDUCTOR + 2)
    assert s == from_apery((0, MAX_CONDUCTOR + 3))


def test_small_elements_constructor_refuses_a_short_list_at_once(monkeypatch):
    # three members cannot be every member up to a conductor of 10^9:
    # refused by their count, with no membership test
    def no_scan(self, x):
        raise AssertionError("scanned the integers up to the conductor")

    monkeypatch.setattr(NumericalSemigroup, "contains", no_scan)
    with pytest.raises(DomainError, match="every member up to the conductor 1000000000 "):
        NumericalSemigroup((0, 2, 10**9), 10**9)
    monkeypatch.undo()
    # as many members as <2, 5> has up to its conductor 4, but not its own
    with pytest.raises(DomainError, match="every member up to the conductor 4 "):
        NumericalSemigroup((0, 2, 5), 5)


def test_small_elements_constructor_needs_no_listing(monkeypatch):
    # checked by count, in O(len + m^2): no membership test per integer
    # up to the conductor and no sieve, dense or sparse input alike
    small = from_generators([997, 1009]).small_elements
    k = 1000
    multiples = range(0, k * 4097 + 1, 4097)

    def no_listing(*args):
        raise AssertionError("listed the integers up to the conductor")

    monkeypatch.setattr(NumericalSemigroup, "contains", no_listing)
    monkeypatch.setattr(NumericalSemigroup, "_sieve", no_listing)
    assert NumericalSemigroup(small, 1003968) == from_generators([997, 1009])
    evens = range(0, MAX_CONDUCTOR + 3, 2)
    assert NumericalSemigroup(evens, MAX_CONDUCTOR + 2) == from_apery((0, MAX_CONDUCTOR + 3))
    assert NumericalSemigroup(multiples, k * 4097) == from_apery(
        (0, *range(k * 4097 + 1, k * 4097 + 4097)))
    # one multiple short of every member up to the same conductor
    with pytest.raises(DomainError, match=f"every member up to the conductor {k * 4097} "):
        NumericalSemigroup([x for x in multiples if x != 500 * 4097], k * 4097)


def assert_small_elements_oracle_agrees(top):
    """The constructor accepts t = (0, ..) within [0, top] with conductor
    c = t[-1] iff t is every member up to c of the monoid t and
    [c + 1, 2c + 1] generate, and c - 1 is not one of them; it refuses
    every other t with a DomainError.  Returns the number accepted."""
    accepted = 0
    for bits in range(1 << top):
        t = (0, *(x for x in range(1, top + 1) if bits >> (x - 1) & 1))
        c = t[-1]
        members = naive_members(set(t) | set(range(c + 1, 2 * c + 2)), c)
        if sorted(members) == list(t) and (c == 0 or c - 1 not in members):
            assert NumericalSemigroup(t, c).small_elements == t
            accepted += 1
        else:
            with pytest.raises(DomainError):
                NumericalSemigroup(t, c)
    return accepted


def test_small_elements_constructor_matches_closure_oracle():
    # every ascending tuple from 0 within [0, 12], its last element as
    # the conductor; [0, 16] by hand: 65,536 tuples, 580 accepted
    assert assert_small_elements_oracle_agrees(12) == 131


def test_listings_match_the_membership_test():
    # the sieved listings against the per-integer comprehensions they
    # replace, on seeded generator sets of multiplicity 1..60
    rng = random.Random(27)
    sets = [NATURALS, from_generators([1]), from_generators([2, 3]),
            from_generators([201, 203])]
    while len(sets) < 80:
        m = rng.randrange(1, 61)
        gens = [m] + rng.sample(range(m + 1, 4 * m + 2), min(rng.randrange(1, 6), 3 * m))
        if math.gcd(*gens) == 1:
            sets.append(from_generators(gens))
    for s in sets:
        w, m, c = s.apery.values, s.multiplicity, s.conductor
        assert s.small_elements == tuple(x for x in range(c + 1) if x >= w[x % m])
        assert s.gaps() == [x for x in range(1, c) if x < w[x % m]]
    assert NATURALS.small_elements == (0,) and NATURALS.gaps() == []


def test_from_apery_validates_block_witnesses_by_products(monkeypatch):
    # the depth-12 witness of multiplicity 4,094 passes from_apery's
    # validator, and one letter raised fails it, with no interval scan
    def refuse(*args):
        raise AssertionError("interval scan ran")

    word = witness_kunz(12, 372)
    m = len(word) + 1
    values = [0] + [u * m + i for i, u in enumerate(word.letters, 1)]
    monkeypatch.setattr(semigroups, "_letter_bounds", refuse)
    assert from_apery(values) == to_semigroup(word)
    values[2 * 372] += m  # u_744 from 2 to 3, over u_372 + u_372
    with pytest.raises(DomainError, match="Kunz's inequalities fail"):
        from_apery(values)


def test_from_apery_checks_its_precondition():
    # (0, 1): 1 is not 1*2 + 1; (0, 5, 4): 5 and 4 sit in the wrong classes
    # (0, 3.0): equal to (0, 3), but not a tuple of integers; (0, 'x')
    # must be refused before any arithmetic
    for values in [(0, 1), (0, 5, 4), (), (1,), (0, -1), (0, 3.0), (0, "x")]:
        with pytest.raises(DomainError):
            from_apery(values)


def test_contains():
    s = from_generators({3, 5, 7})
    assert not s.contains(4)
    assert s.contains(6)
    assert s.contains(0)
    assert not s.contains(-2)
    assert all(s.contains(x) for x in range(s.conductor, s.conductor + 20))


def test_multiplicity():
    assert NATURALS.multiplicity == 1
    assert from_generators({3, 5, 7}).multiplicity == 3
    assert from_generators({2, 5}).multiplicity == 2


def test_conductor_and_frobenius():
    assert (NATURALS.conductor, NATURALS.frobenius) == (0, -1)
    s = from_generators({3, 5, 7})
    assert (s.conductor, s.frobenius) == (5, 4)
    s = from_generators({2, 5})
    assert (s.conductor, s.frobenius) == (4, 3)


def test_depth():
    assert NATURALS.depth == 0
    assert from_generators({3, 5, 7}).depth == 2
    assert from_generators({2, 3}).depth == 1


def test_apery():
    assert NATURALS.apery.values == (0,)
    assert NATURALS.apery.kunz == ()
    ap = from_generators({3, 5, 7}).apery
    assert ap.values == (0, 7, 5)
    assert ap.kunz == (2, 1)
    ap = from_generators({2, 5}).apery
    assert ap.values == (0, 5)
    assert ap.kunz == (2,)


def test_genus():
    assert NATURALS.genus == 0
    assert from_generators({3, 5, 7}).genus == 3  # gaps 1, 2, 4
    assert from_generators({2, 3}).genus == 1


def test_json_dict_field_order():
    keys = list(from_generators({3, 5, 7}).to_json_dict())
    assert keys == ["small_elements", "conductor", "multiplicity", "frobenius",
                    "depth", "apery", "kunz", "genus"]


def test_repr_is_the_apery_tuple():
    # O(m) to build, whatever the conductor (c = 2,096,700 here)
    for s in (NATURALS, from_generators({3, 5, 7}), from_generators([1447, 1451])):
        assert repr(s) == f"NumericalSemigroup(_w={s.apery.values!r})"


def test_constructor_validation():
    with pytest.raises(DomainError):
        NumericalSemigroup(small_elements=(1, 3), conductor=3)  # no 0
    with pytest.raises(DomainError):
        NumericalSemigroup(small_elements=(0, 3), conductor=5)  # wrong max
    with pytest.raises(DomainError, match="strictly ascending"):
        NumericalSemigroup(small_elements=(0, 3, 3, 5), conductor=5)
    with pytest.raises(DomainError):
        # 3 + 3 = 6 <= 7 missing: not closed
        NumericalSemigroup(small_elements=(0, 3, 7), conductor=7)
    # closed, but the stated conductor lies above the Frobenius number + 1
    for small, conductor in [((0, 2, 3, 4), 4), ((0, 3, 4, 5), 5), ((0, 1, 2), 2)]:
        with pytest.raises(DomainError):
            NumericalSemigroup(small_elements=small, conductor=conductor)
    # equal to integers, but not integers: refused before any arithmetic
    for small, conductor in [((0, 2.0), 2.0), ((0, 2, 3.0), 3), ((0, 2, 3), 3.0)]:
        with pytest.raises(DomainError, match="must hold integers"):
            NumericalSemigroup(small_elements=small, conductor=conductor)


def test_enumerate_trivial():
    assert enumerate_semigroups(1, 0) == [NATURALS]
    assert enumerate_semigroups(1, 5) == [NATURALS]


def test_enumerate_m3_depth3_count():
    sgs = enumerate_semigroups(3, 3)
    exactly = [s for s in sgs if s.multiplicity == 3 and s.depth == 3]
    assert len(exactly) == 4


@pytest.mark.parametrize("q", [1, 2, 3, 4])
def test_enumerate_m2_one_per_depth(q):
    sgs = enumerate_semigroups(2, q)
    per_depth = {}
    for s in sgs:
        if s.multiplicity == 2:
            per_depth.setdefault(s.depth, []).append(s)
    assert sorted(per_depth) == list(range(1, q + 1))
    assert all(len(v) == 1 for v in per_depth.values())


def test_enumerate_is_sorted_and_valid():
    for max_m, max_depth in [(5, 3), (7, 4)]:
        sgs = enumerate_semigroups(max_m, max_depth)
        assert sgs == sorted(sgs, key=lambda s: s.small_elements)
        assert len(set(sgs)) == len(sgs)
        for s in sgs:
            assert s.multiplicity <= max_m
            assert s.depth <= max_depth


def test_every_construction_route_gives_the_same_object():
    for s in enumerate_semigroups(7, 4):
        routes = [
            NumericalSemigroup(small_elements=s.small_elements, conductor=s.conductor),
            from_apery(s.apery.values),
            to_semigroup(from_semigroup(s)),
        ]
        for t in routes:
            assert t == s and hash(t) == hash(s)
            assert not hasattr(t, "__dict__")
        assert s.genus == len(s.gaps())
    # the public validator accepts every tuple the shortest paths store
    for gens in ORACLE_GENERATOR_SETS + [[997, 1009]]:
        s = from_generators(gens)
        assert from_apery(s.apery.values) == s


def test_tuples_are_validated_where_they_enter(monkeypatch):
    # only from_apery and the small_elements constructor run the validator;
    # the package's own derivations store their tuples unchecked
    def refuse(w):
        raise AssertionError("validator ran")

    monkeypatch.setattr(semigroups, "_check_apery", refuse)
    from_generators([997, 1009])
    to_semigroup(Word((2, 1)))
    enumerate_semigroups(5, 3)
    with pytest.raises(AssertionError, match="validator ran"):
        from_apery((0, 5, 7))
    with pytest.raises(AssertionError, match="validator ran"):
        NumericalSemigroup(small_elements=(0, 3, 5), conductor=5)


def test_enumerate_resource_bound():
    with pytest.raises(ResourceBound):
        enumerate_semigroups(7, 4, search_ceiling=10)
    with pytest.raises(DomainError, match="max_multiplicity"):
        enumerate_semigroups(0, 1)
    with pytest.raises(DomainError, match="max_depth"):
        enumerate_semigroups(2, -1)
    # refused before depth 0 answers N without a search
    for depth in (0, 4):
        with pytest.raises(DomainError, match="^the search ceiling must be at"
                           " least 1, got -1$"):
            enumerate_semigroups(5, depth, search_ceiling=-1)


@pytest.mark.parametrize("cell, nodes", [((7, 4), 11_599), ((10, 4), 431_694)])
def test_enumerate_node_count_is_pinned(cell, nodes):
    # the ceiling trips exactly where the whole search tree stops fitting
    assert len(enumerate_semigroups(*cell, search_ceiling=nodes)) > 1
    with pytest.raises(ResourceBound, match=f"gap-set search exceeded {nodes - 1} nodes"):
        enumerate_semigroups(*cell, search_ceiling=nodes - 1)


def test_enumerate_refuses_a_square_output_up_front():
    # depth 1 costs one node per multiplicity but lists an m-tuple for each
    assert len(enumerate_semigroups(10, 1, search_ceiling=100)) == 10
    with pytest.raises(ResourceBound, match="multiplicity 11 squared is over the ceiling 100$"):
        enumerate_semigroups(11, 1, search_ceiling=100)
    with pytest.raises(ResourceBound, match="multiplicity 4000 squared"):
        enumerate_semigroups(4000, 1)
    with pytest.raises(ResourceBound, match="multiplicity 2\\^64 or more squared"):
        enumerate_semigroups(10**100, 1)
    # depth 0 lists N alone, whatever the multiplicity
    assert enumerate_semigroups(10**9, 0) == [NATURALS]


@pytest.mark.parametrize("cell", [(6, 4), (8, 3), (10, 2)] + [(5, d) for d in range(6)])
def test_enumerate_matches_the_naive_gap_set_census(cell):
    max_m, max_depth = cell
    naive = naive_semigroups(max_m, max_depth)
    for m in range(1, max_m + 1):
        listed = [s.apery.values for s in enumerate_semigroups(m, max_depth)]
        assert listed == [w for w in naive if len(w) <= m]


def test_gap_set_census_counts_the_kunz_words():
    # one semigroup of multiplicity m and depth q per word of K_q of
    # length m - 1, in strictly ascending small_elements order
    found = enumerate_semigroups(10, 4)
    assert len(found) == 83_136
    small = [s.small_elements for s in found]
    assert all(a < b for a, b in zip(small, small[1:]))
    cells = Counter((s.multiplicity, s.depth) for s in found)
    assert cells == {(m, q): count_kunz(q, m - 1) for m in range(1, 11)
                     for q in range(5) if count_kunz(q, m - 1)}


def test_census_invariants():
    for s in enumerate_semigroups(5, 3):
        ap = s.apery
        assert max(ap.values) == s.conductor + s.multiplicity - 1
        assert s.depth == (max(ap.kunz) if ap.kunz else 0)
        assert kunz_tuple_ok(ap.kunz)


def test_regeneration_from_small_elements():
    for s in enumerate_semigroups(5, 3):
        gens = {x for x in s.small_elements if x > 0}
        gens |= {s.conductor + t for t in range(s.multiplicity)}
        gens.discard(0)
        if not gens:
            gens = {1}
        assert from_generators(gens) == s
