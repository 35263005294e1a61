"""The tape-bounded acceptors for the depth-q word languages.

Both machines run five tracks over the input width plus end markers:

    track 1  input letters, crossed in place as they are processed
    track 2  index i of the current primary position, in unary
    track 3  index j of the current partner position, in unary
    track 4  the sum i+j, in unary
    track 5  the input length, in unary; its first cell doubles as the
             origin mark '#' so the head never needs the left marker

The depth-3 machine only has to chase one failure shape: two letters 1
at positions i and j with a 3 at position i+j (any other letter pair
already sums past every letter of the alphabet, and the shifted second
condition can never bite below letter 4).  Its control flow follows
seven numbered phases, visible in the state names and the run traces:

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

The general machine build_kn_machine(n) runs the full membership scan
for any alphabet {1..n}: every position is crossed in turn, every pair
(i, j) with i <= j is checked, letter values ride along in the finite
control, and marks are tagged with the letter they cover (x2, y4, ...)
so a probed cell still reveals its letter.  Sums beyond the tape are
re-anchored as an overflow prefix ('o' marks on track 4) whose length is
i+j-l, putting the shifted target i+j-(l+1) one cell left of the last
overflow mark; the pair is vacuous when that prefix has length 1.

Phase 7's cleanup is implemented as: walk left to the rightmost x
restoring ys and blanking tracks 3-4, then keep walking to the origin
turning the consumed marks of track 3 back into plain ones, so tracks 2
and 3 both spell the index of x again.  That reading of the cleanup is a
choice; the bookkeeping invariant it maintains is checked by the tests
through trace snapshots.
"""

from __future__ import annotations

from functools import lru_cache

from ..errors import DomainError, ResourceBound
from .macros import goto_last_mark, scan_for_symbol, unary_transfer
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

# Largest depth build_kn_machine accepts.  Its rules grow as n^3: on a
# 2-CPU VM with Python 3.11, depth 24 builds in about 0.4 s at 45 MB peak
# RSS and depth 32 in 1.0 s at 79 MB.
MAX_MACHINE_DEPTH = 24


def build_k3_machine() -> CompiledMachine:
    """Five-track acceptor for the depth-3 language."""
    b = MachineBuilder(
        "k3",
        track_symbols=[
            ("1", "2", "3", "x", "y"),
            (BLANK, "1"),
            (BLANK, "1", "c"),
            (BLANK, "1"),
            (BLANK, ORIGIN, "1"),
        ],
        input_alphabet=(1, 2, 3),
        bound_factor=6,
        start="step1.mark",
    )

    # 1: one full sweep; reject unless a 3 occurs, store the length
    b.add("step1.mark", marker="]", goto=REJECT)
    b.add("step1.mark", when={T1: "3"}, write={T5: ORIGIN}, move=RIGHT,
          goto="step1.scan_seen")
    b.add("step1.mark", when={T1: {"1", "2"}}, write={T5: ORIGIN}, move=RIGHT,
          goto="step1.scan_need")
    b.add("step1.scan_need", marker="]", goto=REJECT)
    b.add("step1.scan_need", when={T1: "3"}, write={T5: "1"}, move=RIGHT,
          goto="step1.scan_seen")
    b.add("step1.scan_need", when={T1: {"1", "2"}}, write={T5: "1"}, move=RIGHT,
          goto="step1.scan_need")
    b.add("step1.scan_seen", marker="]", move=LEFT, goto="step1.rewind")
    b.add("step1.scan_seen", write={T5: "1"}, move=RIGHT, goto="step1.scan_seen")
    scan_for_symbol(b, "step1.rewind", track=T5, symbols=ORIGIN, direction=LEFT,
                    then="step2.scan", at_marker=REJECT)

    # 2: cross the next unchecked 1 as x, extending the unary index
    b.add("step2.scan", marker="]", goto=ACCEPT)
    b.add("step2.scan", when={T1: "1", T5: ORIGIN},
          write={T1: "x", T2: "1", T3: "1"}, goto="step3.copy")
    b.add("step2.scan", when={T1: "1"},
          write={T1: "x", T2: "1", T3: "1"}, move=LEFT, goto="step3.rewind")
    b.add("step2.scan", when={T1: {"2", "3"}},
          write={T2: "1", T3: "1"}, move=RIGHT, goto="step2.scan")

    # 3: sum i+i on track 4 and probe cell 2i for a 3
    scan_for_symbol(b, "step3.rewind", track=T5, symbols=ORIGIN, direction=LEFT,
                    then="step3.copy", at_marker=REJECT)
    b.add("step3.copy", when={T2: "1"}, write={T4: "1"}, move=RIGHT,
          goto="step3.copy")
    b.add("step3.copy", when={T2: BLANK}, move=LEFT, goto="step3.add.take")
    b.add("step3.copy", marker="]", move=LEFT, goto="step3.add.take")
    unary_transfer(b, "step3.add", src_track=T3, spent="c", dst_track=T4,
                   origin_track=T5, origin_symbols=ORIGIN,
                   on_done="step3.goto", on_overflow="step3.sweep")
    goto_last_mark(b, "step3.goto", track=T4, marks="1", then="step3.check")
    b.add("step3.check", when={T1: "3"}, goto=REJECT)
    b.add("step3.check", when={T1: {"1", "2"}}, move=LEFT, goto="step3.back")
    b.add("step3.back", when={T1: "x"}, move=RIGHT, goto="step4.scan")
    b.add("step3.back", when={T1: {"1", "2", "3"}}, move=LEFT, goto="step3.back")
    # 2i ran off the tape: mark the leftovers consumed and move to phase 4
    b.add("step3.sweep", when={T5: ORIGIN, T3: "1"}, write={T3: "c"},
          goto="step4.seek")
    b.add("step3.sweep", when={T5: ORIGIN}, goto="step4.seek")
    b.add("step3.sweep", when={T3: "1"}, write={T3: "c"}, move=LEFT,
          goto="step3.sweep")
    b.add("step3.sweep", move=LEFT, goto="step3.sweep")
    goto_last_mark(b, "step4.seek", track=T2, marks="1", then="step4.atx")
    b.add("step4.atx", when={T1: "x"}, move=RIGHT, goto="step4.scan")

    # 4: mark the next 1 as y, extending track 3 to its index
    b.add("step4.scan", marker="]", goto=ACCEPT)
    b.add("step4.scan", when={T1: "1"}, write={T1: "y", T3: "1"},
          goto="step5.add.take")
    b.add("step4.scan", when={T1: {"2", "3"}}, write={T3: "1"}, move=RIGHT,
          goto="step4.scan")

    # 5: extend the sum to i+j
    unary_transfer(b, "step5.add", src_track=T3, spent="c", dst_track=T4,
                   origin_track=T5, origin_symbols=ORIGIN,
                   on_done="step5.goto", on_overflow="step5.sweep")
    goto_last_mark(b, "step5.goto", track=T4, marks="1", then="step6.check")
    # i+j ran off the tape: abandon the pair, return to the y
    b.add("step5.sweep", when={T5: ORIGIN, T3: "1"}, write={T3: "c"},
          goto="step5.ff")
    b.add("step5.sweep", when={T5: ORIGIN}, goto="step5.ff")
    b.add("step5.sweep", when={T3: "1"}, write={T3: "c"}, move=LEFT,
          goto="step5.sweep")
    b.add("step5.sweep", move=LEFT, goto="step5.sweep")
    b.add("step5.ff", when={T3: "c"}, move=RIGHT, goto="step5.ff")
    b.add("step5.ff", when={T3: BLANK}, move=LEFT, goto="step5.aty")
    b.add("step5.ff", marker="]", move=LEFT, goto="step5.aty")
    b.add("step5.aty", when={T1: "y"}, move=RIGHT, goto="step7.scan")

    # 6: probe cell i+j for a 3, then return to the newest y
    b.add("step6.check", when={T1: "3"}, goto=REJECT)
    b.add("step6.check", when={T1: {"1", "2"}}, move=LEFT, goto="step6.back")
    b.add("step6.back", when={T1: "y"}, move=RIGHT, goto="step7.scan")
    b.add("step6.back", when={T1: {"1", "2", "3"}}, move=LEFT, goto="step6.back")

    # 7: next y, or restore and advance the x
    b.add("step7.scan", when={T1: "1"}, write={T1: "y", T3: "1"},
          goto="step5.add.take")
    b.add("step7.scan", when={T1: {"2", "3"}}, write={T3: "1"}, move=RIGHT,
          goto="step7.scan")
    b.add("step7.scan", marker="]", move=LEFT, goto="step7.restore")
    b.add("step7.restore", when={T1: "y"},
          write={T1: "1", T3: BLANK, T4: BLANK}, move=LEFT, goto="step7.restore")
    b.add("step7.restore", when={T1: "x", T5: ORIGIN},
          write={T3: "1", T4: BLANK}, goto="step7.seek")
    b.add("step7.restore", when={T1: "x"},
          write={T3: "1", T4: BLANK}, move=LEFT, goto="step7.unspend")
    b.add("step7.restore", when={T1: {"2", "3"}},
          write={T3: BLANK, T4: BLANK}, move=LEFT, goto="step7.restore")
    b.add("step7.unspend", when={T3: "c", T5: ORIGIN},
          write={T3: "1", T4: BLANK}, goto="step7.seek")
    b.add("step7.unspend", when={T3: "c"},
          write={T3: "1", T4: BLANK}, move=LEFT, goto="step7.unspend")
    goto_last_mark(b, "step7.seek", track=T2, marks="1", then="step7.atx")
    b.add("step7.atx", when={T1: "x"}, move=RIGHT, goto="step2.scan")

    return b.compile()


@lru_cache(maxsize=None)
def build_kn_machine(n: int) -> CompiledMachine:
    """Five-track acceptor for the depth-n language, n >= 3.

    Runs the full pairwise membership scan, so unlike the depth-3
    special case it checks the shifted second condition too.  For n < 3
    the languages are regular; use the finite accepters instead.  Depths
    above MAX_MACHINE_DEPTH raise ResourceBound before anything is built.
    """
    if n < 3:
        raise DomainError("depths 0..2 are regular; build_kn_machine needs n >= 3")
    if n > MAX_MACHINE_DEPTH:
        raise ResourceBound(
            f"depth {n} is over the machine ceiling {MAX_MACHINE_DEPTH}"
        )
    letters = tuple(str(v) for v in range(1, n + 1))
    xmarks = tuple("x" + s for s in letters)
    ymarks = tuple("y" + s for s in letters)
    b = MachineBuilder(
        f"k{n}",
        track_symbols=[
            letters + xmarks + ymarks,
            (BLANK, "1"),
            (BLANK, "1", "c"),
            (BLANK, "1", "o"),
            (BLANK, ORIGIN, "1"),
        ],
        input_alphabet=range(1, n + 1),
        bound_factor=2 * n,
        start="step1.mark",
    )
    top = str(n)
    small = tuple(s for s in letters if s != top)

    # 1: one full sweep; reject unless the letter n occurs
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
    scan_for_symbol(b, "step1.rewind", track=T5, symbols=ORIGIN, direction=LEFT,
                    then="step2.cross", at_marker=REJECT)

    # 2: cross the next position, whatever its letter, remembering it
    b.add("step2.cross", marker="]", goto=ACCEPT)
    for a, sym in enumerate(letters, start=1):
        b.add("step2.cross", when={T1: sym, T5: ORIGIN},
              write={T1: "x" + sym, T2: "1", T3: "1"}, goto=f"step3.copy[{a}]")
        b.add("step2.cross", when={T1: sym},
              write={T1: "x" + sym, T2: "1", T3: "1"}, move=LEFT,
              goto=f"step3.rewind[{a}]")

    for a in range(1, n + 1):
        _emit_primary_states(b, n, a, letters)
        for v in range(1, n + 1):
            _emit_pair_states(b, n, a, v, letters, ymarks)

    return b.compile()


def _emit_primary_states(b, n, a, letters) -> None:
    """Phase 3 for the position crossed with letter a, plus the phase 4
    and phase 7 bookkeeping that only depends on a."""
    sa = f"[{a}]"
    scan_for_symbol(b, f"step3.rewind{sa}", track=T5, symbols=ORIGIN,
                    direction=LEFT, then=f"step3.copy{sa}", at_marker=REJECT)
    b.add(f"step3.copy{sa}", when={T2: "1"}, write={T4: "1"}, move=RIGHT,
          goto=f"step3.copy{sa}")
    b.add(f"step3.copy{sa}", when={T2: BLANK}, move=LEFT,
          goto=f"step3.add{sa}.take")
    b.add(f"step3.copy{sa}", marker="]", move=LEFT, goto=f"step3.add{sa}.take")
    unary_transfer(b, f"step3.add{sa}", src_track=T3, spent="c", dst_track=T4,
                   origin_track=T5, origin_symbols=ORIGIN,
                   on_done=f"step3.goto{sa}", on_overflow=f"step3.osweep{sa}")
    goto_last_mark(b, f"step3.goto{sa}", track=T4, marks="1",
                   then=f"step3.check{sa}")
    # i+i <= length: first condition at cell 2i (always an unmarked letter)
    for v, sym in enumerate(letters, start=1):
        if a + a < v:
            b.add(f"step3.check{sa}", when={T1: sym}, goto=REJECT)
        else:
            b.add(f"step3.check{sa}", when={T1: sym}, move=LEFT,
                  goto=f"step3.back{sa}")
    b.add(f"step3.back{sa}", when={T1: "x" + str(a)}, move=RIGHT,
          goto=f"step4.cross{sa}")
    b.add(f"step3.back{sa}", when={T1: letters}, move=LEFT, goto=f"step3.back{sa}")

    # i+i overran the tape: re-anchor the leftover units as the overflow
    # prefix, then check the shifted condition if it has a target
    scan_for_symbol(b, f"step3.osweep{sa}", track=T5, symbols=ORIGIN,
                    direction=LEFT, then=f"step3.ofill{sa}", at_marker=REJECT)
    b.add(f"step3.ofill{sa}", when={T4: "o"}, move=RIGHT, goto=f"step3.ofill{sa}")
    b.add(f"step3.ofill{sa}", when={T4: "1"}, write={T4: "o"},
          goto=f"step3.off{sa}")
    b.add(f"step3.off{sa}", when={T3: {"1", "c"}}, move=RIGHT,
          goto=f"step3.off{sa}")
    b.add(f"step3.off{sa}", when={T3: BLANK}, move=LEFT, goto=f"step3.otake{sa}")
    b.add(f"step3.off{sa}", marker="]", move=LEFT, goto=f"step3.otake{sa}")
    b.add(f"step3.otake{sa}", when={T3: "1"}, write={T3: "c"},
          goto=f"step3.osweep{sa}")
    b.add(f"step3.otake{sa}", when={T5: ORIGIN, T3: "c"}, goto=f"step3.oprobe{sa}")
    b.add(f"step3.otake{sa}", when={T3: "c"}, move=LEFT, goto=f"step3.otake{sa}")
    b.add(f"step3.oprobe{sa}", when={T4: "o"}, move=RIGHT, goto=f"step3.oprobe{sa}")
    b.add(f"step3.oprobe{sa}", marker="]", move=LEFT, goto=f"step3.oback{sa}")
    b.add(f"step3.oprobe{sa}", move=LEFT, goto=f"step3.oback{sa}")
    b.add(f"step3.oback{sa}", when={T5: ORIGIN}, goto=f"step3.oseek{sa}")
    b.add(f"step3.oback{sa}", move=LEFT, goto=f"step3.ocheck{sa}")
    # the shifted target sits left of i, so it is always a crossed cell
    for v in range(1, n + 1):
        if a + a + 1 < v:
            b.add(f"step3.ocheck{sa}", when={T1: "x" + str(v)}, goto=REJECT)
        else:
            b.add(f"step3.ocheck{sa}", when={T1: "x" + str(v)},
                  goto=f"step3.oseek{sa}")
    goto_last_mark(b, f"step3.oseek{sa}", track=T2, marks="1",
                   then=f"step3.oatx{sa}")
    b.add(f"step3.oatx{sa}", when={T1: "x" + str(a)}, move=RIGHT,
          goto=f"step4.cross{sa}")

    # 4 / 7: mark the next position as a partner, or restore and advance
    for phase in ("step4", "step7"):
        b.add(f"{phase}.cross{sa}", marker="]", move=LEFT,
              goto=f"step7.restore{sa}")
        for v, sym in enumerate(letters, start=1):
            b.add(f"{phase}.cross{sa}", when={T1: sym},
                  write={T1: "y" + sym, T3: "1"}, goto=f"step5.take[{a},{v}]")
    for v, sym in enumerate(letters, start=1):
        b.add(f"step7.restore{sa}", when={T1: "y" + sym},
              write={T1: sym, T3: BLANK, T4: BLANK}, move=LEFT,
              goto=f"step7.restore{sa}")
    b.add(f"step7.restore{sa}", when={T1: "x" + str(a), T5: ORIGIN},
          write={T3: "1", T4: BLANK}, goto=f"step7.seek{sa}")
    b.add(f"step7.restore{sa}", when={T1: "x" + str(a)},
          write={T3: "1", T4: BLANK}, move=LEFT, goto=f"step7.unspend{sa}")
    b.add(f"step7.unspend{sa}", when={T3: "c", T5: ORIGIN},
          write={T3: "1", T4: BLANK}, goto=f"step7.seek{sa}")
    b.add(f"step7.unspend{sa}", when={T3: "c"},
          write={T3: "1", T4: BLANK}, move=LEFT, goto=f"step7.unspend{sa}")
    goto_last_mark(b, f"step7.seek{sa}", track=T2, marks="1",
                   then=f"step7.atx{sa}")
    b.add(f"step7.atx{sa}", when={T1: "x" + str(a)}, move=RIGHT,
          goto="step2.cross")


def _emit_pair_states(b, n, a, v, letters, ymarks) -> None:
    """Phases 5 and 6 for the pair of letters (a at the x, v at the y)."""
    sab = f"[{a},{v}]"
    sa = f"[{a}]"
    # 5: one more unit onto the sum; writing it lands on cell i+j
    b.add(f"step5.take{sab}", when={T3: "1"}, write={T3: "c"}, move=RIGHT,
          goto=f"step5.put{sab}")
    b.add(f"step5.put{sab}", when={T4: "1"}, move=RIGHT, goto=f"step5.put{sab}")
    b.add(f"step5.put{sab}", when={T4: BLANK}, write={T4: "1"},
          goto=f"step6.check{sab}")
    b.add(f"step5.put{sab}", marker="]", move=LEFT, goto=f"step5.osweep{sab}")
    # 6: first condition at cell i+j (always right of the y, unmarked)
    for w, sym in enumerate(letters, start=1):
        if a + v < w:
            b.add(f"step6.check{sab}", when={T1: sym}, goto=REJECT)
        else:
            b.add(f"step6.check{sab}", when={T1: sym}, move=LEFT,
                  goto=f"step6.back{sab}")
    b.add(f"step6.back{sab}", when={T1: ymarks}, move=RIGHT,
          goto=f"step7.cross{sa}")
    b.add(f"step6.back{sab}", when={T1: letters}, move=LEFT,
          goto=f"step6.back{sab}")
    # i+j overran: grow the overflow prefix by one and check the shifted
    # condition, skipping the vacuous i+j = length+1 case
    scan_for_symbol(b, f"step5.osweep{sab}", track=T5, symbols=ORIGIN,
                    direction=LEFT, then=f"step5.ofill{sab}", at_marker=REJECT)
    b.add(f"step5.ofill{sab}", when={T4: "o"}, move=RIGHT,
          goto=f"step5.ofill{sab}")
    b.add(f"step5.ofill{sab}", when={T4: "1"}, write={T4: "o"},
          goto=f"step5.oprobe{sab}")
    b.add(f"step5.oprobe{sab}", when={T4: "o"}, move=RIGHT,
          goto=f"step5.oprobe{sab}")
    b.add(f"step5.oprobe{sab}", marker="]", move=LEFT, goto=f"step5.oback{sab}")
    b.add(f"step5.oprobe{sab}", move=LEFT, goto=f"step5.oback{sab}")
    b.add(f"step5.oback{sab}", when={T5: ORIGIN}, goto=f"step5.ff{sab}")
    b.add(f"step5.oback{sab}", move=LEFT, goto=f"step5.ocheck{sab}")
    for w in range(1, n + 1):
        if a + v + 1 < w:
            b.add(f"step5.ocheck{sab}", when={T1: "x" + str(w)}, goto=REJECT)
        else:
            b.add(f"step5.ocheck{sab}", when={T1: "x" + str(w)},
                  goto=f"step5.ff{sab}")
    b.add(f"step5.ff{sab}", when={T3: "c"}, move=RIGHT, goto=f"step5.ff{sab}")
    b.add(f"step5.ff{sab}", when={T3: BLANK}, move=LEFT, goto=f"step6.back{sab}")
    b.add(f"step5.ff{sab}", marker="]", move=LEFT, goto=f"step6.back{sab}")
