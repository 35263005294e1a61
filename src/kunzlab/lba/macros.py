"""Reusable state-family emitters for tape machines.

Unary quantities live on scratch tracks as contiguous mark prefixes
anchored at the first input cell, so the value k is readable as "the
rightmost mark sits on cell k".  The three subroutines here are the
building blocks the machine programs compose:

* scan_for_symbol  -- sweep one direction until a symbol shows up
* goto_last_mark   -- park the head on cell k for a unary k (go-to-index)
* unary_transfer   -- add one unary track into another, unit by unit

Reaching an end marker where a subroutine's contract forbids it is wired
to whatever the caller passes, typically a rejecting verdict.
"""

from __future__ import annotations

from .simulator import BLANK, LEFT, MachineBuilder, RIGHT


def scan_for_symbol(
    b: MachineBuilder,
    name: str,
    *,
    track: int,
    symbols,
    direction: int,
    then: str,
    at_marker: str,
) -> None:
    """Move ``direction`` until the track shows one of ``symbols``; hand
    control to ``then`` with the head on that cell.  An end marker routes
    to ``at_marker`` instead."""
    b.add(name, when={track: symbols}, goto=then)
    b.add(name, marker="[", goto=at_marker)
    b.add(name, marker="]", goto=at_marker)
    b.add(name, move=direction, goto=name)


def goto_last_mark(
    b: MachineBuilder,
    name: str,
    *,
    track: int,
    marks,
    then: str,
) -> None:
    """From inside or left of a mark prefix, walk right past its end and
    step back, landing on the cell whose index is the unary value."""
    b.add(name, when={track: marks}, move=RIGHT, goto=name)
    b.add(name, marker="]", move=LEFT, goto=then)
    b.add(name, move=LEFT, goto=then)


def unary_transfer(
    b: MachineBuilder,
    name: str,
    *,
    src_track: int,
    spent: str,
    dst_track: int,
    origin_track: int,
    origin_symbols,
    on_done: str,
    on_overflow: str,
) -> None:
    """Append one destination unit per unspent source mark (the unary
    addition subroutine).

    Source marks are consumed right to left, each rewritten to ``spent``;
    the destination prefix grows by one cell per unit.  Control passes to
    ``on_done`` (head on the origin cell) once the source is exhausted,
    or to ``on_overflow`` (head on the last tape cell) if a unit would
    have to be written past the right end marker, i.e. the sum exceeds
    the input length.  Emits two states, ``name.take`` and ``name.put``;
    enter at ``name.take`` with the head at or right of the rightmost
    unspent source mark.
    """
    take = name + ".take"
    put = name + ".put"
    b.add(take, when={src_track: "1"}, write={src_track: spent}, move=RIGHT, goto=put)
    b.add(take, when={origin_track: origin_symbols, src_track: spent}, goto=on_done)
    b.add(take, when={src_track: {spent, BLANK}}, move=LEFT, goto=take)
    b.add(put, when={dst_track: "1"}, move=RIGHT, goto=put)
    b.add(put, when={dst_track: BLANK}, write={dst_track: "1"}, move=LEFT, goto=take)
    b.add(put, marker="]", move=LEFT, goto=on_overflow)

