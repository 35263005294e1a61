"""The package's exported names and the semantics of its value classes:
construction, defaults, validation, equality, hashing and immutability;
and the collector pause of the gap-set census, which builds them in bulk."""

import copy
import gc
import inspect
import pickle
import types

import pytest

import kunzlab
from kunzlab import (
    AperyData,
    Decomposition,
    Dfa,
    DomainError,
    InvalidDecomposition,
    NerodeReport,
    NerodeSeparation,
    NumericalSemigroup,
    PositionMarking,
    RefutationRecord,
    RefutationReport,
    ResourceBound,
    Violation,
    Word,
    bader_moura_refute,
    count_kunz,
    dfa_k2,
    enumerate_semigroups,
    from_generators,
    nerode_evidence,
    violations,
    witness_kunz,
    witness_nonkunz,
)
from kunzlab import semigroups
from kunzlab._frozen import Frozen, Value
from kunzlab.lba import (
    MachineBuilder,
    RunResult,
    TraceEntry,
    build_k3_machine,
    build_kn_machine,
    run,
)
from kunzlab.lba.simulator import Rule

EXPORTED = {
    "AperyData", "Decomposition", "Dfa", "DomainError", "InvalidDecomposition",
    "KunzlabError", "LetterOutOfAlphabet", "MachineDefinitionError", "NATURALS",
    "NerodeReport", "NerodeSeparation", "NoRefutation", "NotCofinite", "NotKunz",
    "NumericalSemigroup", "PositionMarking", "RefutationRecord",
    "RefutationReport", "ResourceBound", "SelfCheckFailed",
    "StepBudgetExceeded", "Violation", "Word", "bader_moura_refute",
    "count_kunz", "dfa_accepts", "dfa_k1", "dfa_k2", "enumerate_kunz",
    "enumerate_semigroups", "from_generators", "from_semigroup",
    "in_kunz_language", "is_kunz", "mark_for_refutation", "nerode_evidence",
    "pump", "to_semigroup", "violations", "witness_kunz", "witness_nonkunz",
}


def test_package_exports_match_all():
    """Every exported name and submodule resolves and is listed by dir(),
    the names by __all__ too, and a star import brings them in; an
    unknown name raises AttributeError."""
    assert len(set(kunzlab.__all__)) == len(kunzlab.__all__)
    assert set(kunzlab.__all__) == EXPORTED
    listed = dir(kunzlab)
    for name in kunzlab.__all__:
        assert getattr(kunzlab, name) is not None, name
        assert name in listed, name
    namespace = {}
    exec("from kunzlab import *", namespace)
    assert EXPORTED <= set(namespace)
    public = {
        name for name, value in vars(kunzlab).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == EXPORTED
    assert kunzlab.__version__ == "0.1.0"
    for name in ("errors", "languages", "lba", "semigroups", "words"):
        assert getattr(kunzlab, name).__name__ == f"kunzlab.{name}"
        assert name in dir(kunzlab)
    with pytest.raises(AttributeError, match="no_such_name"):
        kunzlab.no_such_name


def _run_result(**changes):
    fields = dict(verdict="accept", steps=3, cells_used=6, bound=200)
    fields.update(changes)
    return RunResult(**fields)


def test_keyword_and_positional_construction():
    assert Word(letters=(1, 2)) == Word((1, 2))
    assert Violation(kind="first", i=1, j=2, target=3) == Violation("first", 1, 2, 3)
    assert AperyData(values=(0, 4, 5), kunz=(1, 1)) == AperyData((0, 4, 5), (1, 1))
    assert _run_result() == RunResult("accept", 3, 6, 200, None, False)
    assert Decomposition((0, 1, 1, 2)).cuts == Decomposition(cuts=(0, 1, 1, 2)).cuts
    marking = PositionMarking(frozenset({1}), frozenset({2}))
    assert (marking.distinguished, marking.excluded) == ({1}, {2})
    dfa = dfa_k2()
    again = Dfa(dfa.states, dfa.alphabet, dfa.transition, dfa.start, dfa.accepting)
    assert again.transition == dfa.transition and again.start == dfa.start
    separation = NerodeSeparation(1, 2, Word((2, 3)), True, False)
    assert (separation.i, separation.j, separation.suffix) == (1, 2, Word((2, 3)))
    report = NerodeReport(depth=3, cutoff=2, separations=(separation,))
    assert report.to_json_list() == [
        {"i": 1, "j": 2, "suffix": "2,3", "member_i": True, "member_j": False}
    ]
    record = RefutationRecord(Decomposition((0, 1, 1, 2)), 1, 0, 1, 0, None, None, None)
    assert record.to_json_dict()["reason"] == "unrefuted"
    refutation = RefutationReport(5, 1, 1, Word((1, 2)), marking, (record,))
    assert refutation.unrefuted == (record,) and not refutation.all_refuted


def test_defaults():
    assert Word() == Word(()) and Word().letters == ()
    result = RunResult("reject", 1, 2, 3)
    assert result.trace is None and result.trace_truncated is False


@pytest.mark.parametrize("value", [1e9, 10.5, "5"], ids=["1e9", "10.5", "'5'"])
@pytest.mark.parametrize("call", [
    lambda value: kunzlab.enumerate_kunz(3, 3, max_candidates=value),
    lambda value: kunzlab.enumerate_semigroups(4, 2, search_ceiling=value),
    lambda value: bader_moura_refute(5, 1, 4, max_candidates=value),
    lambda value: run(build_k3_machine(), Word((1, 2, 3)), max_steps=value),
], ids=["enumerate_kunz", "enumerate_semigroups", "bader_moura_refute", "run"])
def test_ceilings_and_budgets_must_be_integers(call, value):
    # refused before any work, not ended in an AttributeError, a budget
    # trip or a silent float comparison
    message = f"must be an integer, got {type(value).__name__}$"
    with pytest.raises(DomainError, match=message):
        call(value)


def test_validation_in_the_constructors():
    for bad in ((1, 0, 2), (1, "2"), (1.0,)):
        with pytest.raises(DomainError):
            Word(bad)
    with pytest.raises(InvalidDecomposition):
        Decomposition((2, 1, 2, 3))
    with pytest.raises(DomainError):
        PositionMarking(frozenset({1}), frozenset({1}))
    with pytest.raises(DomainError):
        PositionMarking(frozenset({0}), frozenset())
    with pytest.raises(DomainError):
        Dfa(frozenset({0}), frozenset({1}), {}, 0, frozenset())


@pytest.mark.parametrize("make,other", [
    (lambda: Word((1, 2, 3)), Word((1, 2))),
    (lambda: Violation("first", 1, 2, 3), Violation("second", 1, 2, 3)),
    (lambda: AperyData((0, 4, 5), (1, 1)), AperyData((0, 4, 9), (1, 2))),
    (lambda: from_generators([3, 5]), from_generators([3, 7])),
    (lambda: _run_result(), _run_result(steps=4)),
    (lambda: _run_result(trace=(TraceEntry(0, 1, "go", ("[1]",)),)),
     _run_result(trace=(TraceEntry(0, 1, "go", ("[2]",)),))),
], ids=["word", "violation", "apery", "semigroup", "run", "traced-run"])
def test_value_equality_and_hash(make, other):
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert a != other
    assert len({a, b, other}) == 2
    assert a != object()
    assert copy.copy(a) == a and copy.deepcopy(a) == a
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(a, protocol)) == a


def test_reprs():
    assert repr(Word((1, 2))) == "Word(letters=(1, 2))"
    assert repr(Violation("first", 1, 2, 3)) == (
        "Violation(kind='first', i=1, j=2, target=3)")
    assert repr(from_generators([3, 5])) == "NumericalSemigroup(_w=(0, 10, 5))"


def _instances():
    builder = MachineBuilder("toy", track_symbols=[("1", "_")], input_alphabet=[1],
                             start="go")
    builder.add("go", goto="accept")
    marking = PositionMarking(frozenset({1}), frozenset({2}))
    decomposition = Decomposition((0, 1, 1, 2))
    record = RefutationRecord(decomposition, 1, 0, 1, 0, None, None, None)
    separation = NerodeSeparation(1, 2, Word((2, 3)), True, False)
    return [
        (Word((1,)), "letters"),
        (Violation("first", 1, 2, 3), "kind"),
        (from_generators([3, 5]).apery, "values"),
        (from_generators([3, 5]), "_w"),
        (dfa_k2(), "start"),
        (separation, "suffix"),
        (NerodeReport(3, 2, (separation,)), "separations"),
        (decomposition, "cuts"),
        (marking, "excluded"),
        (record, "k"),
        (RefutationReport(5, 1, 1, Word((1, 2)), marking, (record,)), "records"),
        (Rule((), None, (), 0, "accept"), "goto"),
        (builder.compile(), "table"),
        (TraceEntry(0, 1, "go", ("[1]",)), "tracks"),
        (_run_result(), "verdict"),
    ]


@pytest.mark.parametrize("obj,field", _instances(),
                         ids=lambda x: type(x).__name__ if not isinstance(x, str) else x)
def test_fields_cannot_be_assigned(obj, field):
    before = getattr(obj, field)
    with pytest.raises(AttributeError):
        setattr(obj, field, None)
    with pytest.raises(AttributeError):
        delattr(obj, field)
    assert getattr(obj, field) is before


def _originals():
    """One library-built instance of each class whose constructor takes
    its own fields, with the number of trailing fields that have a
    default."""
    refutation = bader_moura_refute(5, 1, 2)
    record = refutation.records[0]
    nerode = nerode_evidence(3, 2)
    machine = build_k3_machine()
    traced = run(machine, Word((1, 1, 2, 3)), want_trace=True)
    originals = [
        (witness_kunz(3, 2), 1),
        (violations(Word((1, 3)))[0], 0),
        (from_generators([3, 5]).apery, 0),
        (dfa_k2(), 0),
        (nerode.separations[0], 0),
        (nerode, 0),
        (record.decomposition, 0),
        (refutation.marking, 0),
        (record, 0),
        (refutation, 0),
        (machine.rules[0][0][0], 0),
        (traced.trace[0], 0),
        (traced, 2),
    ]
    return [pytest.param(obj, defaults, id=type(obj).__name__)
            for obj, defaults in originals]


@pytest.mark.parametrize("original,defaults", _originals())
def test_constructor_binds_fields_by_position_and_by_name(original, defaults):
    cls = type(original)
    names = cls.__slots__
    fields = tuple(getattr(original, name) for name in names)
    by_name = dict(zip(names, fields))
    for made in (cls(*fields), cls(**by_name)):
        assert type(made) is cls
        assert tuple(getattr(made, name) for name in names) == fields
    required = len(names) - defaults
    if required:
        with pytest.raises(TypeError):
            cls(*fields[:required - 1])
        with pytest.raises(TypeError):
            cls(**{name: by_name[name] for name in names[1:]})
    with pytest.raises(TypeError):
        cls(*fields, fields[0])
    with pytest.raises(TypeError):
        cls(*fields, no_such_field=None)
    with pytest.raises(TypeError):
        cls(*fields, **{names[0]: fields[0]})


def _shape(value):
    """A value's type and fields, recursively through Frozen fields and
    tuples, so that instances compared by identity can be compared by
    what they hold."""
    if isinstance(value, Frozen):
        return type(value), tuple(map(_shape, value._fields()))
    if type(value) is tuple:
        return tuple(map(_shape, value))
    return value


def _trusted_cases():
    cuts = Decomposition((0, 1, 1, 2))
    return [
        pytest.param(lambda: Word((1, 2, 3)), id="Word"),
        pytest.param(lambda: NumericalSemigroup((0, 3, 5, 6, 8), 8), id="NumericalSemigroup"),
        pytest.param(lambda: Decomposition((0, 1, 1, 2)), id="Decomposition"),
        pytest.param(lambda: RefutationRecord(cuts, 1, 0, 1, 0, 2, Word((1, 2)), "not_kunz"),
                     id="RefutationRecord"),
        pytest.param(lambda: NerodeSeparation(1, 2, Word((2, 3)), True, False),
                     id="NerodeSeparation"),
    ]


@pytest.mark.parametrize("public", _trusted_cases())
def test_trusted_instances_match_the_public_constructors(public):
    """_trusted and _trusted_many skip every check, and build instances
    that the public constructor's cannot be told from."""
    made = public()
    cls, fields = type(made), made._fields()
    one = cls._trusted(*fields)
    bulk = cls._trusted_many(*([field] * 3 for field in fields))
    assert len(bulk) == 3 and len(set(map(id, bulk))) == 3
    value = issubclass(cls, Value)
    for trusted in (one, *bulk):
        assert type(trusted) is cls and trusted is not made
        assert trusted._fields() == fields
        if value:
            assert trusted == made and hash(trusted) == hash(made)
            assert repr(trusted) == repr(made)
        else:  # compared by identity, with the default repr
            assert trusted != made
            assert repr(trusted).split(" at ")[0] == repr(made).split(" at ")[0]
        copies = [copy.copy(trusted), copy.deepcopy(trusted)] + [
            pickle.loads(pickle.dumps(trusted, protocol))
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for again in copies:
            assert _shape(again) == _shape(made)
            if value:
                assert again == made
        with pytest.raises(AttributeError):
            setattr(trusted, cls.__slots__[0], None)


def test_trusted_many_of_no_rows():
    assert Word._trusted_many([]) == []
    assert RefutationRecord._trusted_many([]) == []


def test_decomposition_stores_a_copy_of_its_cuts():
    cuts = [0, 1, 1, 2]
    decomposition = Decomposition(cuts)
    assert type(decomposition.cuts) is tuple and decomposition.cuts == (0, 1, 1, 2)
    cuts[0] = 5
    assert decomposition.cuts == (0, 1, 1, 2)
    assert Decomposition(cuts=[0, 0, 0, 0]).cuts == (0, 0, 0, 0)


@pytest.mark.parametrize("call,message", [
    (lambda: from_generators([True, 2]), "generators must hold integers"),
    (lambda: from_generators((2, 3.0)), "generators must hold integers"),
    (lambda: NumericalSemigroup((0, True), True),
     "small_elements and conductor must hold integers"),
    (lambda: enumerate_semigroups(True, 2), "max_multiplicity must be an integer, got bool"),
    (lambda: enumerate_semigroups(3.0, 2), "max_multiplicity must be an integer, got float"),
    (lambda: enumerate_semigroups(3, True), "max_depth must be an integer, got bool"),
    (lambda: witness_kunz(3, True), "n must be an integer, got bool"),
    (lambda: witness_kunz(3.0, 2), "q must be an integer, got float"),
    (lambda: witness_nonkunz(3, 2, True), "m must be an integer, got bool"),
    (lambda: build_kn_machine(3.0), "n must be an integer, got float"),
    (lambda: build_kn_machine(True), "n must be an integer, got bool"),
    (lambda: count_kunz(3, 4, max_candidates=True),
     "the candidate ceiling must be an integer, got bool"),
    (lambda: bader_moura_refute(5, 1, 4, max_candidates=True),
     "the candidate ceiling must be an integer, got bool"),
    (lambda: run(build_k3_machine(), Word((1, 2, 3)), max_steps=True),
     "the step budget must be an integer, got bool"),
], ids=["from_generators-bool", "from_generators-float", "small_elements-bool",
        "enumerate_semigroups-bool", "enumerate_semigroups-float",
        "enumerate_semigroups-depth-bool", "witness_kunz-bool", "witness_kunz-float",
        "witness_nonkunz-bool", "build_kn_machine-float", "build_kn_machine-bool",
        "count_kunz-ceiling-bool", "bader_moura_refute-ceiling-bool", "run-budget-bool"])
def test_entry_points_take_exactly_int(call, message):
    """A bool or a float is refused as a DomainError before any work: not
    read as 1 or 3, not ended in a TypeError, and a bool ceiling or
    budget is not a ResourceBound or a StepBudgetExceeded."""
    build_kn_machine(3)  # a cached depth 3 must not answer for 3.0 or True
    with pytest.raises(DomainError, match=f"^{message}$"):
        call()


# a valid call of each public callable, or public method of an exported
# class, that takes an int, with every argument named, self too
_VALID_CALLS = {
    "Dfa": dict(states=frozenset({0, 1}), alphabet=frozenset({1}),
                transition={(0, 1): 1, (1, 1): 1}, start=0, accepting=frozenset({1})),
    "NumericalSemigroup": dict(small_elements=(0, 3, 5, 6, 8), conductor=8),
    "NumericalSemigroup.contains": dict(self=from_generators([3, 5]), x=4),
    "NumericalSemigroup.__contains__": dict(self=from_generators([3, 5]), x=4),
    "bader_moura_refute": dict(q=5, p=1, k_max=4, max_candidates=10**4),
    "count_kunz": dict(q=3, length=4, max_candidates=10**4),
    "enumerate_kunz": dict(q=3, length=4, max_candidates=10**4),
    "enumerate_semigroups": dict(max_multiplicity=4, max_depth=3, search_ceiling=10**4),
    "in_kunz_language": dict(word=Word((1, 2, 3)), q=3),
    "mark_for_refutation": dict(word=Word((1, 2, 3)), q=3),
    "nerode_evidence": dict(q=3, cutoff=4),
    "pump": dict(word=Word((1, 2, 3)), decomposition=Decomposition((0, 1, 1, 2)), k=2),
    "witness_kunz": dict(q=3, n=2),
    "witness_nonkunz": dict(q=3, n=2, m=1),
}


def _int_parameters():
    """(name, callable, int parameter) for each exported callable and each
    public method of an exported class, read from the signatures."""
    for name in kunzlab.__all__:
        value = getattr(kunzlab, name)
        if not callable(value) or isinstance(value, type) and issubclass(value, Exception):
            continue  # the error classes take a message, or a report
        found = [(name, value)]
        if isinstance(value, type):
            found += [(f"{name}.{attr}", method) for attr, method in vars(value).items()
                      if inspect.isfunction(method)
                      and (attr == "__contains__" or attr[0] != "_")]
        for label, call in found:
            for param in inspect.signature(call).parameters.values():
                if param.annotation in ("int", int):
                    yield label, call, param.name


_INT_PARAMETERS = list(_int_parameters())


@pytest.mark.parametrize("label,call,param", _INT_PARAMETERS,
                         ids=[f"{label}-{param}" for label, _, param in _INT_PARAMETERS])
def test_int_parameters_take_exactly_int(label, call, param):
    """Each int parameter, read from the signatures, refuses a bool, a
    float, a str and None as a DomainError, not read as 1 or 2; and it
    answers -1 and 10**100 or refuses them as a DomainError or a
    ResourceBound: never a TypeError, MemoryError, RecursionError or a
    fault of the package's own."""
    valid = _VALID_CALLS[label]
    call(**valid)
    for bad in (True, 2.0, "3", None):
        with pytest.raises(DomainError):
            call(**{**valid, param: bad})
    for extreme in (-1, 10**100):
        try:
            call(**{**valid, param: extreme})
        except (DomainError, ResourceBound):
            pass


def test_gap_set_census_pauses_the_collector(monkeypatch):
    """The collector is off while the gap-set census builds, on again
    after it returns, and left off when the caller had turned it off."""
    seen = []
    original = semigroups._last_row

    def spy(*args):
        seen.append(gc.isenabled())
        return original(*args)

    monkeypatch.setattr(semigroups, "_last_row", spy)
    assert gc.isenabled()
    enumerate_semigroups(7, 4)
    assert gc.isenabled()
    assert seen and not any(seen)
    gc.disable()
    try:
        enumerate_semigroups(7, 4)
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_gap_set_census_restores_the_collector_when_refused():
    # refused mid-search, after nodes were counted and rows were built
    assert gc.isenabled()
    with pytest.raises(ResourceBound, match="exceeded 1000 nodes"):
        enumerate_semigroups(10, 4, search_ceiling=1000)
    assert gc.isenabled()
    gc.disable()
    try:
        with pytest.raises(ResourceBound, match="exceeded 1000 nodes"):
            enumerate_semigroups(10, 4, search_ceiling=1000)
        assert not gc.isenabled()
    finally:
        gc.enable()
