import types

import pytest

from kunzlab import (
    DomainError,
    LetterOutOfAlphabet,
    MachineDefinitionError,
    ResourceBound,
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


def two_track_builder(**kwargs):
    return MachineBuilder(
        "toy",
        track_symbols=[("1", "2", "3"), (BLANK, "1", "c")],
        input_alphabet=(1, 2, 3),
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
    assert result.bound == 2 * 5  # the whole tape, markers included


def test_letter_out_of_alphabet():
    with pytest.raises(LetterOutOfAlphabet):
        run(contains_two_machine(), Word((4,)))
    # the first letter off the alphabet, and the alphabet sorted
    with pytest.raises(LetterOutOfAlphabet) as exc:
        run(contains_two_machine(), Word((1, 4, 5)))
    assert str(exc.value) == "letter 4 not in alphabet [1, 2, 3]"


def test_traced_word_over_the_length_ceiling_is_refused_before_any_step():
    m = contains_two_machine()
    with pytest.raises(ResourceBound) as exc:
        run(m, Word((1,) * 4097), want_trace=True)
    assert str(exc.value) == "a traced word of length 4097 is over the ceiling 4096"
    assert m.table == [{}]  # no entry was read
    result = run(m, Word((2,) + (1,) * 4095), want_trace=True)
    assert result.accepted and len(result.trace) == 1
    assert run(m, Word((1,) * 4097)).steps == 4098


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
            assert str(exc.value) == f"toy passed {budget} steps on a word of length 4"
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
                           start="go")


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


def _replayed_trace(machine, word, limit):
    """(step, head, state name, tracks) before each of the first ``limit``
    steps, single-stepping the table and drawing each track cell by cell:
    an end marker shows itself on every track."""
    tape = [0] + [machine.letter_cell[letter] for letter in word] + [1]
    pos, state = 1, machine.start_id
    for step in range(limit):
        cells = [machine.cells[c] for c in tape]
        tracks = tuple("".join(cell[0] if len(cell) == 1 else cell[track]
                               for cell in cells)
                       for track in range(machine.track_count))
        yield step, pos, machine.state_names[state], tracks
        tape[pos], move, state = machine.resolve(state, tape[pos])
        pos += move
        if state < 0:
            return


def test_trace_tracks_match_a_cell_by_cell_drawing(k3_machine, k4_machine):
    for machine, word in ((k3_machine, Word((1, 1, 2, 3))),
                          (k4_machine, Word((2, 1, 4, 3))),
                          (k3_machine, Word((3,) + (1,) * 25))):
        result = run(machine, word, want_trace=True)
        got = [(e.step, e.head, e.macro, e.tracks) for e in result.trace]
        assert got == list(_replayed_trace(machine, word, len(result.trace)))


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
