import types

import pytest

from kunzlab import (
    DomainError,
    LetterOutOfAlphabet,
    MachineDefinitionError,
    StepBudgetExceeded,
    Word,
)
from kunzlab import lba
from kunzlab.lba import (
    ACCEPT,
    BLANK,
    LEFT,
    MachineBuilder,
    REJECT,
    RIGHT,
    format_trace,
    run,
)
from kunzlab.lba.machines import T3, T4, T5, _emit_add, _emit_goto_last


def two_track_builder(**kwargs):
    return MachineBuilder(
        "toy",
        track_symbols=[("1", "2", "3"), (BLANK, "1", "c")],
        input_alphabet=(1, 2, 3),
        bound_factor=kwargs.pop("bound_factor", 20),
        start=kwargs.pop("start", "go"),
    )


def contains_two_machine(**kwargs):
    b = two_track_builder(**kwargs)
    b.add("go", when={0: "2"}, goto=ACCEPT)
    b.add("go", when={0: {"1", "3"}}, move=RIGHT, goto="go")
    b.add("go", marker="]", goto=REJECT)
    return b.compile()


def test_tiny_machine_verdicts():
    m = contains_two_machine()
    assert run(m, Word((1, 1, 2))).accepted
    assert not run(m, Word((1, 3, 1))).accepted
    assert not run(m, Word(())).accepted


def test_steps_and_cells_accounting():
    m = contains_two_machine()
    result = run(m, Word((1, 1, 2)))
    # heads visits cells 1..3 only; two tracks
    assert result.steps == 3
    assert result.cells_used == 2 * 3
    result = run(m, Word((1, 1, 1)))
    assert result.cells_used == 2 * 4  # right marker visited too
    assert result.bound == 20 * 10
    # six positions on two tracks are over a bound of 1 * max(5, 10)
    with pytest.raises(MachineDefinitionError, match="over its advertised bound 10"):
        run(contains_two_machine(bound_factor=1), Word((1,) * 5))


def test_letter_out_of_alphabet():
    with pytest.raises(LetterOutOfAlphabet):
        run(contains_two_machine(), Word((4,)))


def test_step_budget():
    b = two_track_builder()
    b.add("go", move=RIGHT, goto="pong")
    b.add("pong", move=LEFT, goto="go")
    b.add("go", marker="]", goto=REJECT)
    b.add("pong", marker="]", goto=REJECT)
    b.add("go", marker="[", goto=REJECT)
    b.add("pong", marker="[", goto=REJECT)
    m = b.compile()
    with pytest.raises(StepBudgetExceeded):
        run(m, Word((1, 1, 1)), max_steps=50)
    with pytest.raises(DomainError, match="at least 1"):
        run(m, Word((1, 1, 1)), max_steps=0)


def test_sweep_from_a_marker_stops_at_the_other_marker():
    """A pass on a marker cell finds an empty sweep set; the passes over
    letters stop at either marker, and a run that never halts trips its
    budget at the step a single-stepping run would."""
    b = two_track_builder()
    b.add("go", when={0: {"1", "2", "3"}}, move=RIGHT, goto="go")
    b.add("go", marker="]", move=LEFT, goto="back")
    b.add("back", when={0: {"1", "2", "3"}}, move=LEFT, goto="back")
    b.add("back", marker="[", move=RIGHT, goto="back")
    m = b.compile()
    word = Word((1, 2, 3, 1))
    for budget in range(1, 40):
        for want_trace in (False, True):
            with pytest.raises(StepBudgetExceeded) as exc:
                run(m, word, max_steps=budget, want_trace=want_trace)
            assert str(exc.value) == f"toy passed {budget} steps on 1,2,3,1"
    letters = {m.letter_cell[letter] for letter in (1, 2, 3)}
    assert m.sweeps == {(0, RIGHT): letters, (1, LEFT): letters, (1, RIGHT): set()}


def test_budget_trip_in_a_sweep_comes_before_a_missing_rule():
    b = two_track_builder()
    b.add("go", when={0: "1"}, move=RIGHT, goto="go")
    m = b.compile()
    for want_trace in (False, True):
        with pytest.raises(StepBudgetExceeded, match="^toy passed 2 steps on "):
            run(m, Word((1, 1, 1, 2)), max_steps=2, want_trace=want_trace)
        with pytest.raises(MachineDefinitionError):
            run(m, Word((1, 1, 1, 2)), max_steps=3, want_trace=want_trace)


def test_missing_rule_is_loud():
    b = two_track_builder()
    b.add("go", when={0: "1"}, move=RIGHT, goto="go")
    m = b.compile()
    # a second run fails the same way: the missing entry is never cached
    for _ in range(2):
        with pytest.raises(MachineDefinitionError,
                           match=r"^toy: state 'go' has no rule for cell \('2', '_'\)$"):
            run(m, Word((1, 2)))
    assert sorted(m.table[0]) == [m.letter_cell[1]]


def test_moving_past_marker_rejects():
    b = two_track_builder()
    b.add("go", move=LEFT, goto="go")
    b.add("go", marker="[", move=LEFT, goto="go")
    m = b.compile()
    assert run(m, Word((1,))).verdict == "reject"


def test_builder_validation():
    b = two_track_builder()
    with pytest.raises(DomainError):
        b.add("go", move=2, goto=ACCEPT)
    with pytest.raises(DomainError):
        b.add("go", marker="x", goto=ACCEPT)
    with pytest.raises(DomainError):
        b.add("go", marker="]", write={1: "1"}, goto=ACCEPT)
    with pytest.raises(DomainError):
        b.add("go", when={0: "9"}, goto=ACCEPT)
    with pytest.raises(DomainError):
        b.add("go", write={1: "9"}, goto=ACCEPT)
    b.add("go", goto="nowhere")
    with pytest.raises(MachineDefinitionError):
        b.compile()
    for tracks, alphabet, message in [
        ([("1", "]")], (1,), "reserved"),
        ([("1",)], (1, 2), "letter 2 missing"),
        ([("1",), ("1",)], (1,), "scratch track 2 must allow blanks"),
    ]:
        with pytest.raises(DomainError, match=message):
            MachineBuilder("toy", track_symbols=tracks, input_alphabet=alphabet,
                           bound_factor=1, start="go")


def test_compile_checks_shadowed_goto():
    # the catch-all shadows the second rule, whose target is still checked
    b = two_track_builder()
    b.add("go", goto=ACCEPT)
    b.add("go", when={0: "1"}, goto="nowhere")
    with pytest.raises(MachineDefinitionError, match="nowhere"):
        b.compile()
    b = two_track_builder(start="elsewhere")
    b.add("go", goto=ACCEPT)
    with pytest.raises(MachineDefinitionError, match="start state"):
        b.compile()


def test_trace_entries_and_format():
    m = contains_two_machine()
    result = run(m, Word((1, 2)), want_trace=True)
    assert result.trace is not None and not result.trace_truncated
    lines = format_trace(result)
    assert len(lines) == result.steps
    first = lines[0].split("\t")
    assert first[0] == "0" and first[1] == "1" and first[2] == "go"
    assert first[3] == "[12]"  # input track with both markers
    assert first[4] == "[__]"  # scratch track blank


def test_untraced_run_has_no_trace():
    result = run(contains_two_machine(), Word((2,)))
    assert result.trace is None
    assert format_trace(result) == []


def test_run_result_json():
    result = run(contains_two_machine(), Word((1, 2)))
    assert result.to_json_dict() == {
        "verdict": "accept",
        "steps": result.steps,
        "cells_used": result.cells_used,
        "bound": result.bound,
    }


# --- the machines' unary emitters, each on a purpose-built toy machine ---


def unary_builder():
    """Five tracks like the machines': input, an unused index track, then
    the source value, the destination value and the '#' origin mark."""
    return MachineBuilder(
        "unary",
        track_symbols=[
            ("1", "2", "3"),
            (BLANK,),
            (BLANK, "1", "c"),
            (BLANK, "1"),
            (BLANK, "#"),
        ],
        input_alphabet=(1, 2, 3),
        bound_factor=40,
        start="mark",
    )


def setup_unary_tracks(b):
    """Lay down unary values from the input: the source track gets a mark
    under every 1 or 2, the destination track only under 1s, and the
    origin track a # on the first cell; then rewind there.  Letters 3 are
    padding."""
    b.add("mark", write={T5: "#"}, goto="lay")
    b.add("lay", when={0: "1"}, write={T3: "1", T4: "1"}, move=RIGHT, goto="lay")
    b.add("lay", when={0: "2"}, write={T3: "1"}, move=RIGHT, goto="lay")
    b.add("lay", when={0: "3"}, move=RIGHT, goto="lay")
    b.add("lay", marker="]", move=LEFT, goto="rewind")
    b.add("rewind", when={T5: "#"}, goto="start_op")
    b.add("rewind", move=LEFT, goto="rewind")


def test_unary_transfer_adds_two_and_three():
    # source 3 (one per 1 or 2), destination 2 (one per 1): sum 5
    b = unary_builder()
    setup_unary_tracks(b)
    b.add("start_op", goto="add.take")
    _emit_add(b, "add", on_done="done", on_overflow=REJECT)
    b.add("done", goto=ACCEPT)
    m = b.compile()
    # word 1,1,2,3,3 gives src = 3, dst = 2; expect five marks
    result = run(m, Word((1, 1, 2, 3, 3)), want_trace=True)
    assert result.accepted
    assert result.trace[-1].tracks[T4] == "[11111]"
    # the transfer ends back on the origin cell
    assert result.trace[-1].head == 1


def test_unary_transfer_overflow_branch():
    # source 3, destination 3, but only 5 tape cells: 6 > 5 overflows
    b = unary_builder()
    setup_unary_tracks(b)
    b.add("start_op", goto="add.take")
    _emit_add(b, "add", on_done=REJECT, on_overflow="over")
    b.add("over", goto=ACCEPT)
    m = b.compile()
    assert run(m, Word((1, 1, 1, 3, 3))).accepted


def test_goto_last_mark_lands_on_index():
    # destination holds unary 3; the landing cell must be index 3
    b = unary_builder()
    setup_unary_tracks(b)
    b.add("start_op", goto="goto")
    _emit_goto_last(b, "goto", T4, then="landed")
    b.add("landed", when={T4: "1"}, goto=ACCEPT)
    b.add("landed", goto=REJECT)
    m = b.compile()
    result = run(m, Word((1, 1, 1, 2, 3)), want_trace=True)
    assert result.accepted
    assert result.trace[-1].head == 3


def test_lba_exports_match_all():
    """Every name in __all__ resolves, and every public attribute other
    than a submodule is listed, so a stale or forgotten export fails."""
    assert len(set(lba.__all__)) == len(lba.__all__)
    for name in lba.__all__:
        assert hasattr(lba, name), name
    public = {
        name for name, value in vars(lba).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(lba.__all__)
