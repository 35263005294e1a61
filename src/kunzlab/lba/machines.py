"""The tape-bounded acceptors for the depth-q word languages.

Both machines run five tracks over the input width plus end markers:

    track 1  input letters, crossed in place as they are processed
    track 2  index i of the current primary position, in unary
    track 3  index j of the current partner position, in unary
    track 4  the sum i+j, in unary
    track 5  the input length, in unary; its first cell doubles as the
             origin mark '#' so the head never needs the left marker

Tracks 2-5 hold unary values as mark prefixes anchored at the first
input cell, so the value k reads as "the rightmost mark sits on cell k".

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
(i, j) with i <= j is checked, and marks are tagged with the letter they
cover (x2, y4, ...) so a probed cell still reveals its letter.  Sums
beyond the tape are re-anchored as an overflow prefix ('o' marks on
track 4) whose length is i+j-l, putting the shifted target i+j-(l+1)
one cell left of the last overflow mark; the pair is vacuous when that
prefix has length 1.

Its phase 1 also decides the regular core of K_n, the words over
{ceil(n/2)..n}: there u_i + u_j >= n bounds every letter, so neither
condition can fail and such a word is in K_n iff it holds n.  The rewind
after the length sweep runs as step1.core while it reads core letters
and accepts at the origin, so a core word takes 2l+1 steps, not the
Theta(l^3) scan; the first smaller letter hands the walk to
step1.rewind with the move that state would make, so every other word
runs exactly as without step1.core.

The finite control keeps only what its rules read, so no two of its
states are equivalent.  Phases 3-4 run in one family per x letter a,
tagged [a], except that the letters n-1 and n share the family [n-1]:
every check they make is vacuous.  A pair's sum and probe run in one
family per x family a and bound s = min(a+v, n), tagged [a,s], where v
is the y letter: the probe rejects a letter over s, so every pair with
a+v >= n (no letter exceeds n) shares the family [a,n].  A sum that
overruns the tape checks one over s instead, so its overflow tail is
tagged [a,o] with o = min(s+1, n): the pairs [a,n-1] and [a,n] share the
tail [a,n], whose check is vacuous.  The walk back to the y
(step5.ff[a], step6.back[a]) and the crossing of the next partner
(step4.cross[a]) check nothing, so every pair of the family shares
them.  Phase 7 checks nothing and runs once for every x.

Phase 7's cleanup is implemented as: walk left to the rightmost x
restoring ys and blanking tracks 3-4, then keep walking to the origin
turning the consumed marks of track 3 back into plain ones, so tracks 2
and 3 both spell the index of x again.  That reading of the cleanup is a
choice; the bookkeeping invariant it maintains is checked by the tests
through trace snapshots.
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

# Largest depth build_kn_machine accepts.  Its states and rules grow as
# n^2: on a 2-CPU VM with Python 3.11, depth 24 builds in about 0.03 s at
# 21 MB peak RSS and depth 32 in 0.05 s at 26 MB.
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
    _emit_double(b, "", on_overflow="step3.sweep")
    _emit_probe(b, "step3.check", letters, limit=2, then="step3.back")
    _emit_back(b, "step3.back", letters, home="x", then="step4.scan")
    # 2i ran off the tape: mark the leftovers consumed and move to phase 4
    _emit_spend_rest(b, "step3.sweep", then="step4.seek")
    _emit_back_to_x(b, "step4.seek", "step4.atx", "x", then="step4.scan")

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
    _emit_probe(b, "step6.check", letters, limit=2, then="step6.back")
    _emit_back(b, "step6.back", letters, home="y", then="step7.scan")

    # 7: restore and advance the x; 2s and 3s pass unchanged
    _emit_restore(b, "", {"y": "1", "2": "2", "3": "3"}, "x", then="step2.scan")

    return b.compile()


@lru_cache(maxsize=None)
def build_kn_machine(n: int) -> CompiledMachine:
    """Five-track acceptor for the depth-n language, n >= 3.

    Phase 1 decides a word over {ceil(n/2)..n} in 2l+1 steps (l+1 to
    reject one without n).  Any other word gets the full pairwise
    membership scan, so unlike the depth-3 special case it checks the
    shifted second condition too.  K_4, K_5, K_6 and K_24 have 105, 151,
    205 and 2,545 states.  For n < 3
    the languages are regular; use the finite accepters instead.  Depths
    above MAX_MACHINE_DEPTH raise ResourceBound before anything is built.
    """
    if n < 3:
        raise DomainError("depths 0..2 are regular; build_kn_machine needs n >= 3")
    if n > MAX_MACHINE_DEPTH:
        raise ResourceBound(
            f"depth {_shown(n)} is over the machine ceiling {MAX_MACHINE_DEPTH}"
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
    # a word over the letters >= ceil(n/2) has every pair sum >= n, so
    # no check can fail: it is in K_n iff it holds n
    _emit_length_sweep(b, letters, then="step2.cross",
                       core=letters[(n + 1) // 2 - 1:])

    # 2: cross the next position, whatever its letter, remembering it
    b.add("step2.cross", marker="]", goto=ACCEPT)
    for a, sym in enumerate(letters, start=1):
        sa = f"[{min(a, n - 1)}]"
        b.add("step2.cross", when={T1: sym, T5: ORIGIN},
              write={T1: "x" + sym, T2: "1", T3: "1"}, goto=f"step3.copy{sa}")
        b.add("step2.cross", when={T1: sym},
              write={T1: "x" + sym, T2: "1", T3: "1"}, move=LEFT,
              goto=f"step3.rewind{sa}")

    # x letters n-1 and n check nothing (2a >= n and a+v >= n), so they
    # share the last primary family
    for a in range(1, n):
        x = xmarks[a - 1:] if a == n - 1 else xmarks[a - 1]
        _emit_primary_states(b, a, n, letters, x, ymarks)
        for s in range(a + 1, n + 1):
            _emit_pair_states(b, a, s, n, letters)
    # 7: walking left, the first x past the ys is the current one, and
    # track 2 marks it too, so the cleanup matches any x mark
    _emit_restore(b, "", dict(zip(ymarks, letters)), xmarks, then="step2.cross")

    return b.compile()


def _emit_primary_states(b, a, n, letters, x, ymarks) -> None:
    """Phase 3 for the x family a, whose x marks are ``x``; its phase 4
    crossing, where a partner of letter v enters the pair family
    [a, min(a+v, n)] and the right marker phase 7; and the states every
    pair of the family shares: the overflow tails [a,o], one per bound
    o = min(s+1, n) they check, and the walk back to the y."""
    sa = f"[{a}]"
    _emit_double(b, sa, on_overflow=f"step3.osweep{sa}")
    # i+i <= length: first condition at cell 2i (always an unmarked letter)
    _emit_probe(b, f"step3.check{sa}", letters, limit=a + a,
                then=f"step3.back{sa}")
    _emit_back(b, f"step3.back{sa}", letters, home=x, then=f"step4.cross{sa}")

    # i+i overran the tape: re-anchor the leftover units as the overflow
    # prefix, then check the shifted condition if it has a target
    _emit_overflow_tail(b, "step3", sa, letters, filled=f"step3.off{sa}",
                        limit=a + a + 1, then=f"step3.oseek{sa}")
    b.add(f"step3.off{sa}", when={T3: {"1", "c"}}, move=RIGHT,
          goto=f"step3.off{sa}")
    b.add(f"step3.off{sa}", when={T3: BLANK}, move=LEFT, goto=f"step3.otake{sa}")
    b.add(f"step3.off{sa}", marker="]", move=LEFT, goto=f"step3.otake{sa}")
    b.add(f"step3.otake{sa}", when={T3: "1"}, write={T3: "c"},
          goto=f"step3.osweep{sa}")
    b.add(f"step3.otake{sa}", when={T5: ORIGIN, T3: "c"}, goto=f"step3.oprobe{sa}")
    b.add(f"step3.otake{sa}", when={T3: "c"}, move=LEFT, goto=f"step3.otake{sa}")
    _emit_back_to_x(b, f"step3.oseek{sa}", f"step3.oatx{sa}", x,
                    then=f"step4.cross{sa}")

    # 4: mark the next position as a partner; past the last, phase 7
    # restores the partners and advances the x
    b.add(f"step4.cross{sa}", marker="]", move=LEFT, goto="step7.restore")
    for v, sym in enumerate(letters, start=1):
        b.add(f"step4.cross{sa}", when={T1: sym},
              write={T1: "y" + sym, T3: "1"},
              goto=f"step5.take[{a},{min(a + v, n)}]")

    # i+j overran: grow the overflow prefix by one and check the shifted
    # condition, skipping the vacuous i+j = length+1 case; one tail per
    # bound o = min(s+1, n), so [a,n-1] and [a,n] share the tail [a,n]
    for o in range(min(a + 2, n), n + 1):
        sao = f"[{a},{o}]"
        _emit_overflow_tail(b, "step5", sao, letters,
                            filled=f"step5.oprobe{sao}", limit=o,
                            then=f"step5.ff{sa}")
    # back from the sum to the y, then cross the next partner
    _emit_forward(b, f"step5.ff{sa}", then=f"step6.back{sa}")
    _emit_back(b, f"step6.back{sa}", letters, home=ymarks,
               then=f"step4.cross{sa}")


def _emit_pair_states(b, a, s, n, letters) -> None:
    """Phases 5 and 6 for a pair whose letters sum to s (to at least s
    when s = n, where no check can fail), with the x family a: one more
    unit onto the sum, then the probe, which returns through the
    family's step6.back[a]; a sum that overruns enters the family's
    overflow tail [a, min(s+1, n)]."""
    sab = f"[{a},{s}]"
    # 5: one more unit onto the sum; writing it lands on cell i+j
    b.add(f"step5.take{sab}", when={T3: "1"}, write={T3: "c"}, move=RIGHT,
          goto=f"step5.put{sab}")
    b.add(f"step5.put{sab}", when={T4: "1"}, move=RIGHT, goto=f"step5.put{sab}")
    b.add(f"step5.put{sab}", when={T4: BLANK}, write={T4: "1"},
          goto=f"step6.check{sab}")
    b.add(f"step5.put{sab}", marker="]", move=LEFT,
          goto=f"step5.osweep[{a},{min(s + 1, n)}]")
    # 6: first condition at cell i+j (always right of the y, unmarked)
    _emit_probe(b, f"step6.check{sab}", letters, limit=s,
                then=f"step6.back[{a}]")


# The phase emitters below serve both machines; a state-name ``tag`` is
# "" in the depth-3 machine and in K_n's phase 7, and the family suffix
# "[a]" or "[a,o]" else.
# ``letters`` is "1".."n" in order, so letters[:limit] are those <= limit.


def _emit_length_sweep(b, letters, then, core=()) -> None:
    """Phase 1: reject unless the top letter occurs; lay the length on track 5.

    With ``core``, the letters whose pair sums reach the top letter, the
    rewind first walks step1.core, which accepts a word of core letters
    only; on the first other letter it moves on as step1.rewind would."""
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
    b.add("step1.scan_seen", marker="]", move=LEFT,
          goto="step1.core" if core else "step1.rewind")
    b.add("step1.scan_seen", write={T5: "1"}, move=RIGHT, goto="step1.scan_seen")
    if core:
        b.add("step1.core", when={T5: ORIGIN, T1: core}, goto=ACCEPT)
        b.add("step1.core", when={T5: ORIGIN}, goto=then)
        b.add("step1.core", when={T1: core}, move=LEFT, goto="step1.core")
        b.add("step1.core", move=LEFT, goto="step1.rewind")
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


def _emit_double(b, tag, on_overflow) -> None:
    """Phase 3's prelude: put i+i on track 4 and park the head on cell 2i."""
    _emit_rewind(b, f"step3.rewind{tag}", then=f"step3.copy{tag}")
    b.add(f"step3.copy{tag}", when={T2: "1"}, write={T4: "1"}, move=RIGHT,
          goto=f"step3.copy{tag}")
    b.add(f"step3.copy{tag}", when={T2: BLANK}, move=LEFT,
          goto=f"step3.add{tag}.take")
    b.add(f"step3.copy{tag}", marker="]", move=LEFT, goto=f"step3.add{tag}.take")
    _emit_add(b, f"step3.add{tag}", on_done=f"step3.goto{tag}",
              on_overflow=on_overflow)
    _emit_goto_last(b, f"step3.goto{tag}", T4, then=f"step3.check{tag}")


def _emit_probe(b, check, letters, *, limit, then) -> None:
    """First condition at the probed, unmarked cell: reject a letter over
    ``limit``, else step left and go to ``then``."""
    b.add(check, when={T1: letters[:limit]}, move=LEFT, goto=then)
    if limit < len(letters):
        b.add(check, when={T1: letters[limit:]}, goto=REJECT)


def _emit_back(b, back, letters, *, home, then) -> None:
    """Walk left over unmarked letters to the ``home`` mark and go to
    ``then`` right of it."""
    b.add(back, when={T1: home}, move=RIGHT, goto=then)
    b.add(back, when={T1: letters}, move=LEFT, goto=back)


def _emit_spend_rest(b, name, then) -> None:
    """Walk left to the origin marking every unit of track 3 spent."""
    b.add(name, when={T5: ORIGIN, T3: "1"}, write={T3: "c"}, goto=then)
    b.add(name, when={T5: ORIGIN}, goto=then)
    b.add(name, when={T3: "1"}, write={T3: "c"}, move=LEFT, goto=name)
    b.add(name, move=LEFT, goto=name)


def _emit_overflow_tail(b, phase, tag, letters, *, filled, limit, then) -> None:
    """Grow track 4's overflow prefix by one 'o' (on to ``filled``); from
    oprobe, check that the cell left of the last 'o', a crossed one, holds
    at most ``limit``.  A prefix of length 1 has no such cell."""
    osweep, ofill = f"{phase}.osweep{tag}", f"{phase}.ofill{tag}"
    oprobe, oback = f"{phase}.oprobe{tag}", f"{phase}.oback{tag}"
    ocheck = f"{phase}.ocheck{tag}"
    _emit_rewind(b, osweep, then=ofill)
    b.add(ofill, when={T4: "o"}, move=RIGHT, goto=ofill)
    b.add(ofill, when={T4: "1"}, write={T4: "o"}, goto=filled)
    b.add(oprobe, when={T4: "o"}, move=RIGHT, goto=oprobe)
    b.add(oprobe, marker="]", move=LEFT, goto=oback)
    b.add(oprobe, move=LEFT, goto=oback)
    b.add(oback, when={T5: ORIGIN}, goto=then)
    b.add(oback, move=LEFT, goto=ocheck)
    xmarks = ["x" + sym for sym in letters]
    b.add(ocheck, when={T1: xmarks[:limit]}, goto=then)
    if limit < len(xmarks):
        b.add(ocheck, when={T1: xmarks[limit:]}, goto=REJECT)


def _emit_forward(b, name, then) -> None:
    """Walk right over the spent units of track 3, stopping on the y."""
    b.add(name, when={T3: "c"}, move=RIGHT, goto=name)
    b.add(name, when={T3: BLANK}, move=LEFT, goto=then)
    b.add(name, marker="]", move=LEFT, goto=then)


def _emit_back_to_x(b, seek, atx, x, then) -> None:
    """Go to the x, whose index track 2 holds, and step right of it."""
    _emit_goto_last(b, seek, T2, then=atx)
    b.add(atx, when={T1: x}, move=RIGHT, goto=then)


def _emit_restore(b, tag, restores, x, then) -> None:
    """Phase 7: walk left to the x turning each mark in ``restores`` back
    into its letter, unspend track 3, then return right of the x."""
    restore, unspend = f"step7.restore{tag}", f"step7.unspend{tag}"
    seek = f"step7.seek{tag}"
    for mark, letter in restores.items():
        b.add(restore, when={T1: mark},
              write={T1: letter, T3: BLANK, T4: BLANK}, move=LEFT, goto=restore)
    b.add(restore, when={T1: x, T5: ORIGIN},
          write={T3: "1", T4: BLANK}, goto=seek)
    b.add(restore, when={T1: x},
          write={T3: "1", T4: BLANK}, move=LEFT, goto=unspend)
    b.add(unspend, when={T3: "c", T5: ORIGIN},
          write={T3: "1", T4: BLANK}, goto=seek)
    b.add(unspend, when={T3: "c"},
          write={T3: "1", T4: BLANK}, move=LEFT, goto=unspend)
    _emit_back_to_x(b, seek, f"step7.atx{tag}", x, then=then)
