"""The package's exported names and the semantics of its value classes:
construction, defaults, validation, equality, hashing and immutability."""

import copy
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
    PositionMarking,
    RefutationRecord,
    RefutationReport,
    Violation,
    Word,
    bader_moura_refute,
    dfa_k2,
    from_generators,
    nerode_evidence,
    violations,
    witness_kunz,
)
from kunzlab.lba import MachineBuilder, RunResult, TraceEntry, build_k3_machine, run
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
                             bound_factor=1, start="go")
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
