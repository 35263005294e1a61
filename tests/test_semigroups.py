import heapq

import pytest

from kunzlab import (
    DomainError,
    NATURALS,
    NotCofinite,
    NumericalSemigroup,
    ResourceBound,
    Word,
    enumerate_semigroups,
    from_generators,
    from_semigroup,
    to_semigroup,
)
from kunzlab import semigroups
from kunzlab.semigroups import MAX_CONDUCTOR, from_apery
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
    # shortest paths or the O(m^2) validation run
    def no_work(*args):
        raise AssertionError("construction work ran")

    monkeypatch.setattr(heapq, "heappop", no_work)
    monkeypatch.setattr(semigroups, "_check_apery", no_work)
    with pytest.raises(ResourceBound, match="multiplicity"):
        from_generators([MAX_CONDUCTOR + 1, MAX_CONDUCTOR + 2])
    with pytest.raises(ResourceBound, match="multiplicity"):
        from_apery([0] * (MAX_CONDUCTOR + 1))
    monkeypatch.undo()
    # m = 2 and w = (0, c + 1) give conductor c over the ceiling: built
    # (listed by neither; see the bit-mask oracle test below)
    assert from_apery((0, MAX_CONDUCTOR + 3)) == to_semigroup(
        Word((MAX_CONDUCTOR // 2 + 1,)))


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
    # its input is O(c) already, so its own cross-check must not refuse
    evens = range(0, MAX_CONDUCTOR + 3, 2)
    s = NumericalSemigroup(evens, MAX_CONDUCTOR + 2)
    assert s == from_apery((0, MAX_CONDUCTOR + 3))


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
