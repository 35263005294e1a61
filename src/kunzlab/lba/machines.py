"""The tape-bounded acceptors for the depth-q word languages.

The depth-3 machine build_k3_machine() follows the paper's construction
on five tracks over the input width plus end markers:

    track 1  input letters, crossed in place as they are processed
    track 2  index i of the current primary position, in unary
    track 3  index j of the current partner position, in unary
    track 4  the sum i+j, in unary
    track 5  the input length, in unary; its first cell doubles as the
             origin mark '#' so the head never needs the left marker

Tracks 2-5 hold unary values as mark prefixes anchored at the first
input cell, so the value k reads as "the rightmost mark sits on cell k".

It only has to chase one failure shape: two letters 1 at positions i
and j with a 3 at position i+j (any other letter pair already sums past
every letter of the alphabet, and the shifted second condition can
never bite below letter 4).  Its control flow follows seven numbered
phases, visible in the state names and the run traces:

    1  sweep right checking a 3 occurs, recording the length on track 5
    2  cross the next unchecked 1 as x, recording its index on tracks 2-3
    3  build i+i on track 4 and reject if cell 2i holds a 3
    4  mark the next 1 to the right as y, extending track 3 to j
    5  extend track 4 to i+j
    6  reject if cell i+j holds a 3
    7  after the last y: restore ys to 1s, reset the scratch tracks to
       the index of x, and resume phase 2 right of x

When a sum runs off the tape the pair constrains nothing; the machine
notices by bumping into the right marker while appending (the fused
comparison against the track-5 length) and abandons the pair.

Phase 7's cleanup is implemented as: walk left to the rightmost x
restoring ys and blanking tracks 3-4, then keep walking to the origin
turning the consumed marks of track 3 back into plain ones, so tracks 2
and 3 both spell the index of x again.  That reading of the cleanup is a
choice; the bookkeeping invariant it maintains is checked by the tests
through trace snapshots.  Pairs are walked to in unary, so the steps
grow as Theta(l^3).

The general machine build_kn_machine(n) decides K_n for any n >= 3, both
conditions included, on three tracks:

    track 1  the input letters u_1 .. u_l, never written
    track 2  B, a rotated copy of the cyclic word c = (0, u_1, ..., u_l)
    track 3  the origin mark '#' on the first cell

Round i (1 <= i <= l) holds B = c rotated left by i: the control holds
B[0] = u_i and cell j holds B[j] = c_{(i+j) mod (l+1)}, so the sentinel
0 sits on cell l+1-i.  Left of it cell j holds u_{i+j}, the target of
the first condition for the pair (i, j); right of it u_{i+j-(l+1)}, the
target of the shifted second one.  With u_j beside it on track 1, one
pass checks index i against every j.  Each round is a rotation, then a
check:

    1  step1.*: sweep right marking the origin and copying track 1 onto
       track 2 (B = c), noting whether n and a letter below ceil(n/2)
       occur; at the right marker reject without n, accept without a
       small letter, and else start the first rotation
    3  step3.rotate[c]: sweep left carrying one symbol c, writing it and
       picking up the cell's, so B turns one more place; the symbol
       picked up at the origin is the new B[0], and the sentinel there
       means every index has been checked: accept
    2  step2.check[u,w]: sweep right writing nothing and reject where
       B[j] > u + u_j + w, with the flag w turning 1 on the sentinel; at
       the right marker rotate again, carrying u

A word over {ceil(n/2)..n} has every pair sum u_i + u_j >= n, so no
condition can fail and it is in K_n iff it holds n: phase 1 decides
this regular core alone, in l+1 steps.  Any other word takes l+1 steps
in phase 1, 2l+1 per round and l in the last rotation, (2l+1)(l+1) in
all when it is accepted.  Every run uses 3(l+1) cells.

The control keeps only what its rules read, so no two of its states are
equivalent: a check state is keyed by the check it makes, and for
u + 1 >= n, where nothing can fail, step2.check[u] has no flag.  That
makes 5 phase-1 states, n+1 rotations and 2n-2 checks, 3n+4 states in
all; the rotations read and write every symbol, so rules grow as n^2.
"""

from __future__ import annotations

from functools import lru_cache

from ..errors import DomainError, ResourceBound, _shown
from .simulator import (
    ACCEPT,
    BLANK,
    LEFT,
    MachineBuilder,
    CompiledMachine,
    REJECT,
    RIGHT,
)

T1, T2, T3, T4, T5 = range(5)
ORIGIN = "#"

# Largest depth build_kn_machine accepts.  Its states grow as n and its
# rules as n^2: on a 2-CPU VM with Python 3.11, depth 24 (76 states,
# 1,973 rules) builds in about 0.015 s at 16 MB peak RSS.
MAX_MACHINE_DEPTH = 24


def build_k3_machine() -> CompiledMachine:
    """Five-track acceptor for the depth-3 language."""
    letters = ("1", "2", "3")
    b = MachineBuilder(
        "k3",
        track_symbols=[
            letters + ("x", "y"),
            (BLANK, "1"),
            (BLANK, "1", "c"),
            (BLANK, "1"),
            (BLANK, ORIGIN, "1"),
        ],
        input_alphabet=(1, 2, 3),
        bound_factor=6,
        start="step1.mark",
    )
    _emit_length_sweep(b, letters, then="step2.scan")

    # 2: cross the next unchecked 1 as x, extending the unary index
    b.add("step2.scan", marker="]", goto=ACCEPT)
    b.add("step2.scan", when={T1: "1", T5: ORIGIN},
          write={T1: "x", T2: "1", T3: "1"}, goto="step3.copy")
    b.add("step2.scan", when={T1: "1"},
          write={T1: "x", T2: "1", T3: "1"}, move=LEFT, goto="step3.rewind")
    b.add("step2.scan", when={T1: {"2", "3"}},
          write={T2: "1", T3: "1"}, move=RIGHT, goto="step2.scan")

    # 3: sum i+i on track 4 and probe cell 2i for a 3 (over 1+1, the
    # limit for every pair here, since x and y only ever cover 1s)
    _emit_double(b, on_overflow="step3.sweep")
    _emit_probe(b, "step3.check", then="step3.back")
    _emit_back(b, "step3.back", home="x", then="step4.scan")
    # 2i ran off the tape: mark the leftovers consumed and move to phase 4
    _emit_spend_rest(b, "step3.sweep", then="step4.seek")
    _emit_back_to_x(b, "step4.seek", "step4.atx", then="step4.scan")

    # 4 / 7: mark the next 1 as y, extending track 3 to its index; past
    # the last 1, phase 4 accepts and phase 7 restores and advances the x
    b.add("step4.scan", marker="]", goto=ACCEPT)
    b.add("step7.scan", marker="]", move=LEFT, goto="step7.restore")
    for scan in ("step4.scan", "step7.scan"):
        b.add(scan, when={T1: "1"}, write={T1: "y", T3: "1"},
              goto="step5.add.take")
        b.add(scan, when={T1: {"2", "3"}}, write={T3: "1"}, move=RIGHT,
              goto=scan)

    # 5: extend the sum to i+j
    _emit_add(b, "step5.add", on_done="step5.goto", on_overflow="step5.sweep")
    _emit_goto_last(b, "step5.goto", T4, then="step6.check")
    # i+j ran off the tape: abandon the pair, return to the y
    _emit_spend_rest(b, "step5.sweep", then="step5.ff")
    _emit_forward(b, "step5.ff", then="step5.aty")
    b.add("step5.aty", when={T1: "y"}, move=RIGHT, goto="step7.scan")

    # 6: probe cell i+j for a 3, then return to the newest y
    _emit_probe(b, "step6.check", then="step6.back")
    _emit_back(b, "step6.back", home="y", then="step7.scan")

    # 7: restore and advance the x; 2s and 3s pass unchanged
    _emit_restore(b, {"y": "1", "2": "2", "3": "3"}, then="step2.scan")

    return b.compile()


@lru_cache(maxsize=None)
def build_kn_machine(n: int) -> CompiledMachine:
    """Three-track rotation acceptor for the depth-n language, n >= 3.

    A word over {ceil(n/2)..n} is decided in l+1 steps; any other word
    that is accepted takes exactly (2l+1)(l+1), and every run uses
    3(l+1) cells.  K_4, K_5, K_6 and K_24 have 16, 19, 22 and 76 states
    (3n+4).  For n < 3 the languages are regular; use the finite
    accepters instead.  Depths above MAX_MACHINE_DEPTH raise
    ResourceBound before anything is built.
    """
    if n < 3:
        raise DomainError("depths 0..2 are regular; build_kn_machine needs n >= 3")
    if n > MAX_MACHINE_DEPTH:
        raise ResourceBound(
            f"depth {_shown(n)} is over the machine ceiling {MAX_MACHINE_DEPTH}"
        )
    letters = tuple(str(v) for v in range(1, n + 1))
    symbols = ("0",) + letters  # B's symbols; "0" is the sentinel
    word, rotated, origin = T1, T2, T3  # the input, B, the origin mark
    b = MachineBuilder(
        f"k{n}",
        track_symbols=[letters, (BLANK,) + symbols, (BLANK, ORIGIN)],
        input_alphabet=range(1, n + 1),
        bound_factor=4,  # 3(l+1) cells <= 4 max(l, 10)
        start="step1.mark",
    )

    # 1: copy the word onto B, noting whether n and a small letter
    # (below ceil(n/2)) occur; the start state also marks the origin
    scans = {(seen, small): f"step1.{'seen' if seen else 'need'}"
                            f"[{'small' if small else 'core'}]"
             for seen in (False, True) for small in (False, True)}
    for (seen, small), state in [((False, False), "step1.mark"), *scans.items()]:
        if not seen:
            b.add(state, marker="]", goto=REJECT)
        elif small:
            b.add(state, marker="]", move=LEFT, goto="step3.rotate[0]")
        else:
            b.add(state, marker="]", goto=ACCEPT)
        mark = {origin: ORIGIN} if state == "step1.mark" else {}
        for v, sym in enumerate(letters, start=1):
            b.add(state, when={word: sym}, write={rotated: sym, **mark},
                  move=RIGHT, goto=scans[seen or v == n,
                                         small or 2 * v < n])

    # 2: check index u against every cell, writing nothing; w turns 1 on
    # the sentinel.  With u + 1 >= n no letter can exceed u + u_j + w.
    def check(u, w):
        return f"step2.check[{u}]" if u + 1 >= n else f"step2.check[{u},{w}]"

    for u in range(1, n + 1):
        for w in ((0, 1) if u + 1 < n else (0,)):
            state = check(u, w)
            b.add(state, marker="]", move=LEFT, goto=f"step3.rotate[{u}]")
            if u + 1 < n and not w:
                b.add(state, when={rotated: "0"}, move=RIGHT, goto=check(u, 1))
            for a in range(1, n - u - w):
                b.add(state, when={word: letters[a - 1],
                                   rotated: letters[u + a + w:]}, goto=REJECT)
            b.add(state, move=RIGHT, goto=state)

    # 3: turn B one place, carrying the symbol picked up; at the origin
    # that symbol is the next index's letter, or the sentinel once every
    # index has been checked
    for c in symbols:
        state = f"step3.rotate[{c}]"
        b.add(state, when={origin: ORIGIN, rotated: "0"}, goto=ACCEPT)
        for u, sym in enumerate(letters, start=1):
            b.add(state, when={origin: ORIGIN, rotated: sym},
                  write={rotated: c}, goto=check(u, 0))
        for d in symbols:
            b.add(state, when={rotated: d}, write={rotated: c}, move=LEFT,
                  goto=f"step3.rotate[{d}]")

    return b.compile()


# The phase emitters below build the depth-3 machine.


def _emit_length_sweep(b, letters, then) -> None:
    """Phase 1: reject unless the top letter occurs; lay the length on track 5."""
    top, small = letters[-1], letters[:-1]
    b.add("step1.mark", marker="]", goto=REJECT)
    b.add("step1.mark", when={T1: top}, write={T5: ORIGIN}, move=RIGHT,
          goto="step1.scan_seen")
    b.add("step1.mark", when={T1: small}, write={T5: ORIGIN}, move=RIGHT,
          goto="step1.scan_need")
    b.add("step1.scan_need", marker="]", goto=REJECT)
    b.add("step1.scan_need", when={T1: top}, write={T5: "1"}, move=RIGHT,
          goto="step1.scan_seen")
    b.add("step1.scan_need", when={T1: small}, write={T5: "1"}, move=RIGHT,
          goto="step1.scan_need")
    b.add("step1.scan_seen", marker="]", move=LEFT, goto="step1.rewind")
    b.add("step1.scan_seen", write={T5: "1"}, move=RIGHT, goto="step1.scan_seen")
    _emit_rewind(b, "step1.rewind", then=then)


def _emit_rewind(b, name, then) -> None:
    """Walk left to the origin and hand control to ``then`` there; an end
    marker rejects."""
    b.add(name, when={T5: ORIGIN}, goto=then)
    b.add(name, marker="[", goto=REJECT)
    b.add(name, marker="]", goto=REJECT)
    b.add(name, move=LEFT, goto=name)


def _emit_goto_last(b, name, track, then) -> None:
    """From inside or left of ``track``'s unary prefix, walk right past its
    end and step back onto the cell whose index is its value."""
    b.add(name, when={track: "1"}, move=RIGHT, goto=name)
    b.add(name, marker="]", move=LEFT, goto=then)
    b.add(name, move=LEFT, goto=then)


def _emit_add(b, name, on_done, on_overflow) -> None:
    """Append one track-4 unit per unspent track-3 mark, spending the
    marks right to left as 'c'.  Enter at ``name.take`` at or right of
    the rightmost unspent mark; leave for ``on_done`` on the origin once
    track 3 is spent, or for ``on_overflow`` on the last cell when a unit
    would land past the right marker (the sum exceeds the length)."""
    take, put = name + ".take", name + ".put"
    b.add(take, when={T3: "1"}, write={T3: "c"}, move=RIGHT, goto=put)
    b.add(take, when={T5: ORIGIN, T3: "c"}, goto=on_done)
    b.add(take, when={T3: {"c", BLANK}}, move=LEFT, goto=take)
    b.add(put, when={T4: "1"}, move=RIGHT, goto=put)
    b.add(put, when={T4: BLANK}, write={T4: "1"}, move=LEFT, goto=take)
    b.add(put, marker="]", move=LEFT, goto=on_overflow)


def _emit_double(b, on_overflow) -> None:
    """Phase 3's prelude: put i+i on track 4 and park the head on cell 2i."""
    _emit_rewind(b, "step3.rewind", then="step3.copy")
    b.add("step3.copy", when={T2: "1"}, write={T4: "1"}, move=RIGHT,
          goto="step3.copy")
    b.add("step3.copy", when={T2: BLANK}, move=LEFT, goto="step3.add.take")
    b.add("step3.copy", marker="]", move=LEFT, goto="step3.add.take")
    _emit_add(b, "step3.add", on_done="step3.goto", on_overflow=on_overflow)
    _emit_goto_last(b, "step3.goto", T4, then="step3.check")


def _emit_probe(b, check, then) -> None:
    """First condition at the probed, unmarked cell: reject a 3, else step
    left and go to ``then``."""
    b.add(check, when={T1: ("1", "2")}, move=LEFT, goto=then)
    b.add(check, when={T1: "3"}, goto=REJECT)


def _emit_back(b, back, *, home, then) -> None:
    """Walk left over unmarked letters to the ``home`` mark and go to
    ``then`` right of it."""
    b.add(back, when={T1: home}, move=RIGHT, goto=then)
    b.add(back, when={T1: ("1", "2", "3")}, move=LEFT, goto=back)


def _emit_spend_rest(b, name, then) -> None:
    """Walk left to the origin marking every unit of track 3 spent."""
    b.add(name, when={T5: ORIGIN, T3: "1"}, write={T3: "c"}, goto=then)
    b.add(name, when={T5: ORIGIN}, goto=then)
    b.add(name, when={T3: "1"}, write={T3: "c"}, move=LEFT, goto=name)
    b.add(name, move=LEFT, goto=name)


def _emit_forward(b, name, then) -> None:
    """Walk right over the spent units of track 3, stopping on the y."""
    b.add(name, when={T3: "c"}, move=RIGHT, goto=name)
    b.add(name, when={T3: BLANK}, move=LEFT, goto=then)
    b.add(name, marker="]", move=LEFT, goto=then)


def _emit_back_to_x(b, seek, atx, then) -> None:
    """Go to the x, whose index track 2 holds, and step right of it."""
    _emit_goto_last(b, seek, T2, then=atx)
    b.add(atx, when={T1: "x"}, move=RIGHT, goto=then)


def _emit_restore(b, restores, then) -> None:
    """Phase 7: walk left to the x turning each mark in ``restores`` back
    into its letter, unspend track 3, then return right of the x."""
    for mark, letter in restores.items():
        b.add("step7.restore", when={T1: mark},
              write={T1: letter, T3: BLANK, T4: BLANK}, move=LEFT,
              goto="step7.restore")
    b.add("step7.restore", when={T1: "x", T5: ORIGIN},
          write={T3: "1", T4: BLANK}, goto="step7.seek")
    b.add("step7.restore", when={T1: "x"},
          write={T3: "1", T4: BLANK}, move=LEFT, goto="step7.unspend")
    b.add("step7.unspend", when={T3: "c", T5: ORIGIN},
          write={T3: "1", T4: BLANK}, goto="step7.seek")
    b.add("step7.unspend", when={T3: "c"},
          write={T3: "1", T4: BLANK}, move=LEFT, goto="step7.unspend")
    _emit_back_to_x(b, "step7.seek", "step7.atx", then=then)
