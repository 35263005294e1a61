"""The tape-bounded acceptors for the depth-q word languages.

build_kn_machine(n) decides K_n for any n >= 3, both conditions
included, on three tracks; build_k3_machine() is its depth-3 instance:

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

from ..errors import DomainError, ResourceBound, _check_ints, _shown
from .simulator import (
    ACCEPT,
    BLANK,
    LEFT,
    MachineBuilder,
    CompiledMachine,
    REJECT,
    RIGHT,
)

ORIGIN = "#"

# Largest depth build_kn_machine accepts.  Its states grow as n and its
# rules as n^2: on a 2-CPU VM with Python 3.11, depth 24 (76 states,
# 1,973 rules) builds in about 0.015 s at 16 MB peak RSS.
MAX_MACHINE_DEPTH = 24


# typed, so that 3.0 or True, equal to a cached depth, is still refused
@lru_cache(maxsize=None, typed=True)
def build_kn_machine(n: int) -> CompiledMachine:
    """Three-track rotation acceptor for the depth-n language, n >= 3.

    A word over {ceil(n/2)..n} is decided in l+1 steps; any other word
    that is accepted takes exactly (2l+1)(l+1), and every run uses
    3(l+1) cells.  K_4, K_5, K_6 and K_24 have 16, 19, 22 and 76 states
    (3n+4).  For n < 3 the languages are regular; use the finite
    accepters instead.  A depth that is not exactly an int is a
    DomainError, and depths above MAX_MACHINE_DEPTH raise ResourceBound
    before anything is built.
    """
    _check_ints(n=n)
    if n < 3:
        raise DomainError("depths 0..2 are regular; build_kn_machine needs n >= 3")
    if n > MAX_MACHINE_DEPTH:
        raise ResourceBound(
            f"depth {_shown(n)} is over the machine ceiling {MAX_MACHINE_DEPTH}"
        )
    letters = tuple(str(v) for v in range(1, n + 1))
    symbols = ("0",) + letters  # B's symbols; "0" is the sentinel
    word, rotated, origin = range(3)  # the input, B, the origin mark
    b = MachineBuilder(
        f"k{n}",
        track_symbols=[letters, (BLANK,) + symbols, (BLANK, ORIGIN)],
        input_alphabet=range(1, n + 1),
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


def build_k3_machine() -> CompiledMachine:
    """The depth-3 acceptor: build_kn_machine(3), the same cached machine."""
    return build_kn_machine(3)
