"""Multi-track, tape-bounded machine simulator.

The tape holds the input on track 1 plus scratch tracks, with an
immovable left end marker just before the first letter and a right end
marker just after the last.  A machine never writes on a marker cell,
and any attempt to move past a marker is a rejecting event.

Machines are authored as named states with ordered pattern rules (see
MachineBuilder).  Compiling numbers the states and the composite cells
and checks every jump target, but works out no transition: the entry
for a (state, cell) pair is resolved from the rules the first time a run
reads it and memoised in the machine's table, so the work and memory
grow with the distinct pairs runs visit, never with states x cells.
Every later read is a plain dict lookup, which keeps exhaustive oracle
sweeps over thousands of inputs affordable.

Beside the table, each (state, direction) pair keeps a sweep set: the
cells whose resolved entry in that state writes nothing, moves that way
and stays in the state.  Most steps of the shipped machines are such
passes over a stretch of tape, so a run takes a whole stretch in one
inner loop (pos += d while tape[pos] is in the sweep set) and adds its
length to the step count.  The sets fill as resolve stores entries, so
they are as lazy as the table; end-marker cells never join one, which
stops every sweep at the tape's ends.  A traced run single-steps while
it records, and sweeps once its trace is full.

Cell accounting convention: cells_used reported by a run is

    track_count * (number of distinct head positions visited),

end markers included when the head actually stood on them.  The head
never leaves the tape, so a run's bound is the whole tape,
track_count * (l + 2) cells on an input of length l.  The head starts
on the first input letter and the machines in this package detect the
left edge through an origin mark on a scratch track, so the left marker
is never visited and a machine with t tracks uses t*(l+1) cells.
"""

from __future__ import annotations

import itertools
from operator import itemgetter
from typing import Iterable, Mapping, Sequence

from .._frozen import Frozen, Value
from ..errors import (
    DomainError,
    LetterOutOfAlphabet,
    MachineDefinitionError,
    StepBudgetExceeded,
    _check_at_least_one,
)
from ..words import Word, _check_length

BLANK = "_"
LEFT_MARKER = "["
RIGHT_MARKER = "]"

ACCEPT = "accept"
REJECT = "reject"

_ACCEPT_ID = -1
_REJECT_ID = -2

DEFAULT_STEP_BUDGET = 1_000_000
TRACE_LIMIT = 10_000

LEFT = -1
STAY = 0
RIGHT = +1


class Rule(Frozen):
    """One guarded transition of a state.

    ``when`` constrains chosen tracks to symbol sets (missing tracks are
    wildcards); a rule with ``marker`` set instead matches that end
    marker, where nothing may be written.  Rules are tried in the order
    they were added and the first match wins.
    """

    __slots__ = ("when", "marker", "write", "move", "goto")


class MachineBuilder:
    """Collects states and rules, then compiles them into a machine."""

    def __init__(
        self,
        name: str,
        *,
        track_symbols: Sequence[Iterable[str]],
        input_alphabet: Iterable[int],
        start: str,
    ):
        self.name = name
        self.track_symbols = [tuple(dict.fromkeys(syms)) for syms in track_symbols]
        self._symbol_sets = [frozenset(syms) for syms in self.track_symbols]
        for syms in self.track_symbols:
            for s in syms:
                if s in (LEFT_MARKER, RIGHT_MARKER):
                    raise DomainError("marker symbols are reserved")
        self.input_alphabet = frozenset(input_alphabet)
        for letter in self.input_alphabet:
            if str(letter) not in self.track_symbols[0]:
                raise DomainError(f"letter {letter} missing from track 1 symbols")
        for idx, syms in enumerate(self.track_symbols[1:], start=2):
            if BLANK not in syms:
                raise DomainError(f"scratch track {idx} must allow blanks")
        self.start = start
        self._rules: dict[str, list[Rule]] = {}

    @property
    def track_count(self) -> int:
        return len(self.track_symbols)

    def add(
        self,
        state: str,
        *,
        when: Mapping[int, object] | None = None,
        marker: str | None = None,
        write: Mapping[int, str] | None = None,
        move: int = STAY,
        goto: str,
    ) -> None:
        if move not in (LEFT, STAY, RIGHT):
            raise DomainError(f"move must be -1, 0 or +1, got {move}")
        if marker is not None:
            if marker not in (LEFT_MARKER, RIGHT_MARKER):
                raise DomainError(f"unknown marker {marker!r}")
            if when or write:
                raise DomainError("marker rules cannot match or write tracks")
        norm_when = []
        for track, symbols in (when or {}).items():
            if isinstance(symbols, str):
                symbols = {symbols}
            allowed = frozenset(symbols)
            unknown = allowed - self._symbol_sets[track]
            if unknown:
                raise DomainError(f"track {track + 1} has no symbols {sorted(unknown)}")
            norm_when.append((track, allowed))
        norm_write = []
        for track, symbol in (write or {}).items():
            if symbol not in self._symbol_sets[track]:
                raise DomainError(f"track {track + 1} has no symbol {symbol!r}")
            norm_write.append((track, symbol))
        self._rules.setdefault(state, []).append(
            Rule(tuple(norm_when), marker, tuple(norm_write), move, goto)
        )

    def compile(self) -> "CompiledMachine":
        return CompiledMachine(self)


class CompiledMachine(Frozen):
    """Numbered states and cells, the rules, and a memoised transition table.

    Building one from a MachineBuilder numbers the states and cells and
    checks every jump target, but works out no transition: each (state,
    cell) entry is resolved from the rules on first use (resolve).

    table[state_id] maps a cell_id to (new_cell_id, move, next_state_id),
    with the next-state ids -1 and -2 standing for accept and reject.  A
    row starts empty and gains an entry the first time a run reads that
    (state, cell) pair, so the table holds only the pairs runs reached.
    letter_cell maps each input letter to the id of its cell with blank
    scratch tracks; its keys are the input alphabet.

    sweeps[state_id, move] is the set of cell_ids whose stored entry in
    that state is (cell_id, move, state_id) with move != 0: a pass that
    writes nothing.  It is created by the first such entry resolve
    stores and grows with later ones, so once resolve returns every cell
    in it is a key of table[state_id]; the end markers (ids 0 and 1)
    never join it.
    """

    __slots__ = ("name", "track_count", "start_id", "state_names", "cells",
                 "cell_ids", "letter_cell", "rules", "table", "sweeps")

    def __init__(self, builder: MachineBuilder):
        state_names = tuple(builder._rules)
        if builder.start not in builder._rules:
            raise MachineDefinitionError(f"start state {builder.start!r} undefined")
        targets = {name: idx for idx, name in enumerate(state_names)}
        start_id = targets[builder.start]
        targets.update({ACCEPT: _ACCEPT_ID, REJECT: _REJECT_ID})
        try:
            rules = tuple(
                tuple((rule, targets[rule.goto]) for rule in builder._rules[state])
                for state in state_names
            )
        except KeyError as exc:
            raise MachineDefinitionError(
                f"rule jumps to unknown state {exc.args[0]!r}"
            ) from None
        cells = ((LEFT_MARKER,), (RIGHT_MARKER,),
                 *itertools.product(*builder.track_symbols))
        cell_ids = {cell: idx for idx, cell in enumerate(cells)}
        blanks = (BLANK,) * (builder.track_count - 1)
        letter_cell = {letter: cell_ids[(str(letter), *blanks)]
                       for letter in builder.input_alphabet}
        super().__init__(builder.name, builder.track_count, start_id,
                         state_names, cells, cell_ids, letter_cell, rules,
                         [{} for _ in state_names], {})

    def resolve(self, state: int, cell: int) -> tuple[int, int, int]:
        """The entry for (state, cell): the first of the state's rules that
        matches the cell, stored in the table for later reads, and in the
        state's sweep set when it is a pass.  Raises
        MachineDefinitionError, and stores nothing, when no rule matches."""
        symbols = self.cells[cell]
        marker = symbols[0] if cell < 2 else None
        for rule, target in self.rules[state]:
            if rule.marker != marker or not all(
                symbols[track] in allowed for track, allowed in rule.when
            ):
                continue
            new_id = cell
            if rule.write:
                new = list(symbols)
                for track, symbol in rule.write:
                    new[track] = symbol
                new_id = self.cell_ids[tuple(new)]
            entry = (new_id, rule.move, target)
            if new_id == cell and target == state and rule.move:
                # before the entry is stored, so that a run reading the
                # entry in another thread finds its sweep set
                sweep = self.sweeps.setdefault((state, rule.move), set())
                if cell > 1:  # a marker stops every sweep
                    sweep.add(cell)
            self.table[state][cell] = entry
            return entry
        raise MachineDefinitionError(
            f"{self.name}: state {self.state_names[state]!r} has no rule "
            f"for cell {symbols!r}"
        )


class TraceEntry(Value):
    """The configuration before one step: tracks holds each track
    rendered over the whole tape, markers included."""

    __slots__ = ("step", "head", "macro", "tracks")


class RunResult(Value):
    __slots__ = ("verdict", "steps", "cells_used", "bound", "trace",
                 "trace_truncated")

    def __init__(self, verdict: str, steps: int, cells_used: int, bound: int,
                 trace: tuple[TraceEntry, ...] | None = None,
                 trace_truncated: bool = False):
        # verdict is "accept" or "reject"
        super().__init__(verdict, steps, cells_used, bound, trace, trace_truncated)

    @property
    def accepted(self) -> bool:
        return self.verdict == ACCEPT

    def to_json_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "steps": self.steps,
            "cells_used": self.cells_used,
            "bound": self.bound,
        }


def _glyphs(machine: CompiledMachine) -> list[tuple[str, ...]]:
    """Per track, the character each cell_id shows on it: the cell's
    symbol on that track, or the end marker itself."""
    return [
        tuple(cell[0] if len(cell) == 1 else cell[track] for cell in machine.cells)
        for track in range(machine.track_count)
    ]


def _render_tracks(glyphs: list[tuple[str, ...]], tape: list[int]) -> tuple[str, ...]:
    # the tape holds both end markers, so the getter returns a tuple
    pick = itemgetter(*tape)
    return tuple(["".join(pick(row)) for row in glyphs])


def _over_budget(
    machine: CompiledMachine, max_steps: int, word: Word
) -> StepBudgetExceeded:
    return StepBudgetExceeded(
        f"{machine.name} passed {max_steps} steps on a word of length {len(word)}"
    )


def run(
    machine: CompiledMachine,
    word: Word,
    max_steps: int = DEFAULT_STEP_BUDGET,
    want_trace: bool = False,
) -> RunResult:
    """Deterministic simulation of ``machine`` on ``word``.

    Halts with a verdict, the step count, and the cells_used total and
    bound under the accounting convention in the module docstring.
    Without a trace, a step that passes a cell (writes nothing, moves,
    keeps its state) is followed by the whole stretch of cells in that
    state's sweep set in one inner loop; each cell still counts as one
    step, so steps, cells_used and the budget trip are those of single
    steps.  With ``want_trace`` the first TRACE_LIMIT steps are taken and
    recorded singly, and the rest sweep as without a trace.  Raises
    StepBudgetExceeded if no verdict is reached within ``max_steps``
    (build_kn_machine(n) takes at most (2l+1)(l+1) steps, and l+1 on a
    word over {ceil(n/2)..n}, so words from length 707 on can pass the
    default 10^6 without any bug),
    DomainError for max_steps < 1 and LetterOutOfAlphabet at the first
    letter off the alphabet.  Each trace entry renders the whole tape, so
    a traced word longer than words.MAX_WITNESS_LENGTH is refused up front
    with ResourceBound.
    """
    _check_at_least_one(max_steps, "the step budget")
    if want_trace:
        _check_length(len(word), "a traced word")
    letter_cell = machine.letter_cell
    try:
        tape = [0, *map(letter_cell.__getitem__, word), 1]
    except KeyError as exc:
        raise LetterOutOfAlphabet(
            f"letter {exc.args[0]} not in alphabet {sorted(letter_cell)}"
        ) from None
    end = len(tape)
    pos = 1
    min_pos = max_pos = pos
    state = machine.start_id
    steps = 0
    table = machine.table
    sweeps = machine.sweeps
    trace: list[TraceEntry] = []
    limit = TRACE_LIMIT if want_trace else 0
    glyphs = _glyphs(machine) if want_trace else ()

    while True:
        cell = tape[pos]
        if steps < limit:
            trace.append(TraceEntry(steps, pos, machine.state_names[state],
                                    _render_tracks(glyphs, tape)))
        try:
            new_cell, move, nxt = table[state][cell]
        except KeyError:
            new_cell, move, nxt = machine.resolve(state, cell)
        steps += 1
        if steps > max_steps:
            raise _over_budget(machine, max_steps, word)
        tape[pos] = new_cell
        pos += move
        if pos < 0 or pos >= end:
            verdict = REJECT  # moving past an end marker rejects
            break
        if nxt == state and new_cell == cell and move and steps > limit:
            # a pass, with no trace entry to record: take the rest of the
            # stretch at once; it never halts, and a marker cell, in no
            # sweep set, ends it inside the tape
            sweep = sweeps[state, move]
            start = pos
            while tape[pos] in sweep:
                pos += move
            steps += (pos - start) * move
            if steps > max_steps:
                raise _over_budget(machine, max_steps, word)
        if pos < min_pos:
            min_pos = pos
        elif pos > max_pos:
            max_pos = pos
        if nxt < 0:
            verdict = ACCEPT if nxt == _ACCEPT_ID else REJECT
            break
        state = nxt

    return RunResult(verdict, steps,
                     machine.track_count * (max_pos - min_pos + 1),
                     machine.track_count * end,
                     tuple(trace) if want_trace else None,
                     want_trace and steps > limit)


def format_trace(result: RunResult) -> list[str]:
    """Trace lines: step, head position, macro step, then one rendered
    string per track, tab-separated; blanks as '_', markers as '[', ']'."""
    if result.trace is None:
        return []
    return [
        "\t".join([str(e.step), str(e.head), e.macro, *e.tracks])
        for e in result.trace
    ]
