import hashlib
import itertools

import pytest

from kunzlab import (
    DomainError,
    LetterOutOfAlphabet,
    MachineDefinitionError,
    ResourceBound,
    StepBudgetExceeded,
    Word,
    in_kunz_language,
    witness_kunz,
    witness_nonkunz,
)
from kunzlab.lba import (
    ACCEPT,
    MAX_MACHINE_DEPTH,
    REJECT,
    build_k3_machine,
    build_kn_machine,
    run,
)
from conftest import naive_run


@pytest.mark.parametrize(
    "letters,verdict",
    [
        ((1, 2, 3), "accept"),
        ((1, 1, 2, 3), "reject"),
        ((1, 1, 1), "reject"),   # no 3 at all
        ((), "reject"),
        ((3,), "accept"),
        ((2, 3), "accept"),
        ((1, 3), "reject"),      # 1+1 targets the 3
        ((3, 1), "accept"),
    ],
)
def test_k3_examples(k3_machine, letters, verdict):
    assert run(k3_machine, Word(letters)).verdict == verdict


def test_k3_oracle_sweep(k3_machine):
    for length in range(0, 7):
        for letters in itertools.product((1, 2, 3), repeat=length):
            word = Word(letters)
            assert run(k3_machine, word).accepted == in_kunz_language(word, 3)


@pytest.mark.parametrize(
    "letters,verdict",
    [
        ((2, 3, 4, 4), "accept"),
        ((1, 1, 4), "reject"),
        ((4,), "accept"),
        ((4, 1, 1), "reject"),   # shifted condition: 1+1+1 < 4 at cell 1
        ((), "reject"),
    ],
)
def test_k4_examples(k4_machine, letters, verdict):
    assert run(k4_machine, Word(letters)).verdict == verdict


@pytest.mark.parametrize("depth", [4, 5])
def test_k4_oracle_sweep(depth):
    """Every word over {1..depth} of length at most 4 (781 at depth 5)."""
    machine = build_kn_machine(depth)
    alphabet = range(1, depth + 1)
    for length in range(0, 5):
        for letters in itertools.product(alphabet, repeat=length):
            word = Word(letters)
            assert run(machine, word).accepted == in_kunz_language(word, depth)


def test_generic_k3_agrees_with_special_machine(k3_machine):
    generic = build_kn_machine(3)
    for length in range(0, 6):
        for letters in itertools.product((1, 2, 3), repeat=length):
            word = Word(letters)
            assert run(generic, word).verdict == run(k3_machine, word).verdict


def test_kn_needs_depth_three():
    with pytest.raises(DomainError):
        build_kn_machine(2)


def test_k5_machine_on_witness_words():
    from kunzlab import witness_kunz, witness_nonkunz

    m5 = build_kn_machine(5)
    assert run(m5, witness_kunz(5, 2)).accepted
    assert not run(m5, witness_nonkunz(5, 2, 1)).accepted
    assert not run(m5, Word((1, 2, 3, 4))).accepted  # depth 4, not 5


def test_k3_letter_out_of_alphabet(k3_machine):
    with pytest.raises(LetterOutOfAlphabet):
        run(k3_machine, Word((1, 4)))


def test_k3_step_budget_surfaces(k3_machine):
    with pytest.raises(StepBudgetExceeded):
        run(k3_machine, Word((1, 2, 3)), max_steps=5)


def test_k3_cells_formula(k3_machine):
    # every run sweeps the whole input, so five tracks over l+1 positions
    for letters in [(3,), (1, 2, 3), (2, 2, 3), (1, 1, 2, 3)]:
        result = run(k3_machine, Word(letters))
        assert result.cells_used == 5 * (len(letters) + 1)


def test_k3_tape_bound_long_inputs(k3_machine):
    for length in (10, 17, 25):
        for word in _stress_words(length, 3):
            result = run(k3_machine, word)
            assert result.cells_used < 6 * length


def test_k4_tape_bound_long_inputs(k4_machine):
    for length in (10, 15, 20):
        for word in _stress_words(length, 4):
            result = run(k4_machine, word)
            assert result.cells_used <= 8 * length


def _stress_words(length, top):
    yield Word((top,) + (1,) * (length - 1))
    yield Word((1,) * (length - 1) + (top,))
    yield Word((2,) * (length - 1) + (top,))
    yield Word(tuple((i % top) + 1 for i in range(length - 1)) + (top,))


@pytest.mark.parametrize("letters", [(1, 1, 2, 2, 3), (1, 2, 1, 2, 3),
                                     (3, 1, 1, 1)])
def test_k3_restart_bookkeeping(k3_machine, letters):
    """At each return to the crossing scan, tracks 2 and 3 both spell the
    index of the rightmost x, track 4 is clean, and no y marks remain."""
    result = run(k3_machine, Word(letters), want_trace=True)
    boundaries = [e for e in result.trace if e.macro == "step7.atx"]
    assert boundaries, "expected at least one x advance"
    for entry in boundaries:
        t1, t2, t3, t4, t5 = entry.tracks
        x_pos = t1.rindex("x")
        prefix = "[" + "1" * x_pos
        assert t2.startswith(prefix) and "1" not in t2[x_pos + 1:-1]
        assert t3 == t2
        assert set(t4) == {"[", "_", "]"}
        assert "y" not in t1


def test_fixed_seed_fuzz_beyond_sweep_lengths(k3_machine, k4_machine):
    import random

    rng = random.Random(20240817)
    for _ in range(250):
        length = rng.randint(9, 14)
        word = Word(tuple(rng.randint(1, 3) for _ in range(length)))
        assert run(k3_machine, word).accepted == in_kunz_language(word, 3)
    for _ in range(250):
        length = rng.randint(6, 12)
        word = Word(tuple(rng.randint(1, 4) for _ in range(length)))
        assert run(k4_machine, word).accepted == in_kunz_language(word, 4)


def test_k3_trace_is_step_shaped(k3_machine):
    result = run(k3_machine, Word((1, 2, 3)), want_trace=True)
    assert len(result.trace) == result.steps
    assert result.trace[0].macro == "step1.mark"
    macros = {e.macro.split(".")[0] for e in result.trace}
    assert "step1" in macros and "step3" in macros


def test_k3_long_trace_truncates(k3_machine):
    word = Word((3,) + (1,) * 25)
    result = run(k3_machine, word, want_trace=True)
    assert result.trace_truncated
    assert len(result.trace) == 10_000
    # past the trace the run sweeps, with the same verdict, steps and cells
    assert result.to_json_dict() == naive_run(k3_machine, word)


def _first_matches(machine):
    """(state, cell, index of the first rule that matches, its transition)
    for every (state, cell) pair some rule matches, worked out from the
    rules alone."""
    state_ids = {name: idx for idx, name in enumerate(machine.state_names)}
    state_ids.update({ACCEPT: -1, REJECT: -2})
    cell_ids = {cell: idx for idx, cell in enumerate(machine.cells)}
    for state, rules in enumerate(machine.rules):
        for cell, symbols in enumerate(machine.cells):
            for index, (rule, _) in enumerate(rules):
                if len(symbols) == 1:  # an end marker
                    if rule.marker != symbols[0]:
                        continue
                    new = symbols
                else:
                    if rule.marker is not None or any(
                        symbols[track] not in allowed for track, allowed in rule.when
                    ):
                        continue
                    new = list(symbols)
                    for track, symbol in rule.write:
                        new[track] = symbol
                    new = tuple(new)
                yield state, cell, index, (cell_ids[new], rule.move,
                                           state_ids[rule.goto])
                break


def _first_match_table(machine):
    """Every (state, cell) transition the first matching rule gives; a
    pair no rule matches is left out."""
    return {(state, cell): entry
            for state, cell, _, entry in _first_matches(machine)}


def _equivalence_classes(machine, table):
    """Moore partition refinement of a first-match table: two states stay
    in one class while, for every cell, both have no entry, or both have
    entries with the same new cell, the same move and targets in one
    class.  Accept and reject are classes of their own.  Returns the
    class of each state."""
    states = range(len(machine.state_names))
    rows = [[(cell, *table[state, cell]) for cell in range(len(machine.cells))
             if (state, cell) in table] for state in states]
    classes = [0] * len(rows) + [-2, -1]  # ids -2 and -1 wrap
    while True:
        signatures = {}
        refined = [signatures.setdefault(
            (classes[state], tuple((cell, new, move, classes[target])
                                   for cell, new, move, target in rows[state])),
            len(signatures)) for state in states]
        if len(signatures) == len(set(classes[:-2])):
            return refined
        classes = refined + [-2, -1]


@pytest.mark.parametrize(
    "build,digest",
    [
        (build_k3_machine,
         "7b89a9a19461f6b69d988505abe99f71472b9a4aba4ecc3d2c502b0443756046"),
        (lambda: build_kn_machine.__wrapped__(4),
         "96c086e0422770fd424080ffa5533360765edfdc3bfcdb50d528636c6de33e9f"),
        (lambda: build_kn_machine.__wrapped__(5),
         "df5fca30507458fdad8fb9f39fcfccd919bc9598ca4a4cbccd60f6370a3a25d1"),
    ],
    ids=["k3", "k4", "k5"],
)
def test_every_resolved_entry_matches_first_rule(build, digest):
    """Each entry resolves to the first matching rule, and the whole
    transition function, by state and cell names, hashes to a pinned
    value, so a rewrite of the machine programs cannot change it."""
    machine = build()
    expected = _first_match_table(machine)
    names = machine.state_names + (REJECT, ACCEPT)  # ids -2 and -1 wrap
    records = []
    for state in range(len(machine.state_names)):
        row = machine.table[state]
        for cell in range(len(machine.cells)):
            record = (machine.state_names[state], machine.cells[cell])
            if (state, cell) in expected:
                assert machine.resolve(state, cell) == expected[state, cell]
                assert row[cell] == expected[state, cell]
                new_cell, move, target = row[cell]
                record += (machine.cells[new_cell], move, names[target])
            else:
                with pytest.raises(MachineDefinitionError):
                    machine.resolve(state, cell)
                assert cell not in row
                record += (None, None, None)
            records.append(record)
    text = "\n".join(map(repr, sorted(records)))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_run_resolves_only_the_entries_it_reads():
    machine = build_kn_machine.__wrapped__(5)  # a fresh, empty table
    assert not any(machine.table)
    result = run(machine, witness_kunz(5, 19))
    assert result.steps == 589_899
    resolved = sum(map(len, machine.table))
    assert 0 < resolved < 0.01 * len(machine.state_names) * len(machine.cells)
    # a repeat run reads the memoised entries and resolves nothing new
    assert run(machine, witness_kunz(5, 19)) == result
    assert sum(map(len, machine.table)) == resolved


@pytest.mark.parametrize(
    "depth,word,steps,verdict",
    [
        (4, witness_kunz(4, 19), 260_306, "accept"),
        (4, witness_nonkunz(4, 10, 3), 9_189, "reject"),
        (6, witness_kunz(6, 24), 2_207_405, "accept"),
        (6, witness_nonkunz(6, 8, 1), 7_743, "reject"),
        (6, Word((3,) * 40 + (6,)), 83, "accept"),
        (6, Word((6,) + (3,) * 40 + (2,)), 103_714, "accept"),
    ],
    ids=["k4-kunz", "k4-nonkunz", "k6-kunz", "k6-nonkunz", "k6-threes",
         "k6-threes-and-a-two"],
)
def test_kn_step_counts_are_pinned(depth, word, steps, verdict):
    """Runs over live and vacuous pairs, overflowing sums and both
    verdicts: a change to any transition they take moves the count.
    The threes take phase 1's core path, 2l+1 steps; the final 2 sends
    the same threes through every (vacuous) pair."""
    result = run(build_kn_machine(depth), word, max_steps=10**7)
    assert (result.steps, result.verdict) == (steps, verdict)


@pytest.mark.parametrize("depth,most", [(4, 105), (5, 151), (6, 205)])
def test_kn_state_count(depth, most):
    """One pair family per x family and checked bound, one crossing, one
    walk back and one overflow tail per checked bound for each x family,
    one shared family for the x letters n-1 and n, one phase 7, and
    step1.core, the rewind that accepts a word over {ceil(n/2)..n}."""
    assert len(build_kn_machine(depth).state_names) <= most


@pytest.mark.parametrize(
    "build",
    [build_k3_machine] + [lambda n=n: build_kn_machine(n) for n in (3, 4, 5)],
    ids=["k3", "kn3", "k4", "k5"],
)
def test_machines_are_minimal(build):
    """Every rule is the first match for some cell, every state but the
    start is some rule's target, and no two states are equivalent."""
    machine = build()
    matches = list(_first_matches(machine))
    fired = {(state, index) for state, _, index, _ in matches}
    for state, rules in enumerate(machine.rules):
        for index in range(len(rules)):
            assert (state, index) in fired, (machine.state_names[state], index)
    targets = {target for rules in machine.rules for _, target in rules}
    for state, name in enumerate(machine.state_names):
        assert state == machine.start_id or state in targets, name
    table = {(state, cell): entry for state, cell, _, entry in matches}
    classes = _equivalence_classes(machine, table)
    twins = {}
    for name, cls in zip(machine.state_names, classes):
        twins.setdefault(cls, []).append(name)
    assert [names for names in twins.values() if len(names) > 1] == []


@pytest.mark.parametrize("depth", [MAX_MACHINE_DEPTH + 1, 10**9,
                                   pytest.param(10**5000, id="10**5000")])
def test_kn_depth_ceiling(depth):
    with pytest.raises(ResourceBound, match="ceiling"):
        build_kn_machine(depth)


# ---------------------------------------------------------------------------
# Sweeps: a run takes a pass over a stretch of cells in one inner loop
# unless it still records a trace, so naive_run, one table read or
# resolve per step, is the oracle.

SWEEP_MACHINES = [
    (3, build_k3_machine),
    (4, lambda: build_kn_machine(4)),
    (5, lambda: build_kn_machine(5)),
    (6, lambda: build_kn_machine(6)),
]
SWEEP_IDS = ["k3", "k4", "k5", "k6"]


def _block_words(q):
    """Block witnesses and non-witnesses of length 20..60, the shortest
    and the longest block size in that range."""
    sizes = [n for n in range(1, 60) if 20 <= (q - 1) * n + 1 <= 59]
    for n in (sizes[0], sizes[-1]):
        yield witness_kunz(q, n)
        yield witness_nonkunz(q, n, 1)


def _assert_same_as_single_steps(machine, word):
    fast = run(machine, word)
    assert fast.trace is None
    assert fast.to_json_dict() == naive_run(machine, word)
    traced = run(machine, word, want_trace=True)
    assert traced.to_json_dict() == fast.to_json_dict()
    assert len(traced.trace) == min(fast.steps, 10_000)
    return fast


@pytest.mark.parametrize("depth,build", SWEEP_MACHINES, ids=SWEEP_IDS)
def test_sweeps_match_single_steps_on_short_words(depth, build):
    """Every word over {1..depth} of length at most 4."""
    machine = build()
    for length in range(0, 5):
        for letters in itertools.product(range(1, depth + 1), repeat=length):
            _assert_same_as_single_steps(machine, Word(letters))


@pytest.mark.parametrize("depth,build", SWEEP_MACHINES, ids=SWEEP_IDS)
def test_sweeps_match_single_steps_on_block_words(depth, build):
    """Same verdict, steps and cells as single steps, and the budget trips
    exactly past the step count: max_steps = steps finishes, one less
    raises."""
    machine = build()
    for word in _block_words(depth):
        result = _assert_same_as_single_steps(machine, word)
        assert run(machine, word, max_steps=result.steps) == result
        with pytest.raises(StepBudgetExceeded,
                           match=rf" passed {result.steps - 1} steps on "):
            run(machine, word, max_steps=result.steps - 1)


def test_every_budget_below_the_step_count_trips(k3_machine):
    word = witness_kunz(3, 9)
    steps = run(k3_machine, word).steps
    assert steps == 2_277
    for budget in range(1, steps + 1):
        if budget < steps:
            with pytest.raises(StepBudgetExceeded) as exc:
                run(k3_machine, word, max_steps=budget)
            assert str(exc.value) == f"{k3_machine.name} passed {budget} steps on {word}"
        else:
            assert run(k3_machine, word, max_steps=budget).steps == steps


@pytest.mark.parametrize("depth,build", SWEEP_MACHINES, ids=SWEEP_IDS)
def test_sweep_sets_hold_only_resolved_passes(depth, build):
    """Each sweep set holds exactly the resolved non-marker entries of its
    state that write nothing, move its way and stay in the state."""
    machine = build()
    for word in _block_words(depth):
        run(machine, word)
    assert machine.sweeps
    for state, row in enumerate(machine.table):
        for move in (-1, 1):
            passes = {cell for cell, entry in row.items()
                      if cell > 1 and entry == (cell, move, state)}
            assert machine.sweeps.get((state, move), set()) == passes
    for (state, move), sweep in machine.sweeps.items():
        assert move in (-1, 1)
        assert sweep <= machine.table[state].keys()
        assert not sweep & {0, 1}


# ---------------------------------------------------------------------------
# The core: over the letters >= ceil(n/2) every pair sum reaches n, so
# no pair check can fail and K_n's phase 1 decides such a word alone:
# a sweep right, then step1.core's sweep back to accept (2l+1 steps), or
# the reject at the right marker when n is missing (l+1 steps).

CORE_DEPTHS = [3, 4, 5, 6]


def _assert_core_run(machine, depth, word):
    result = _assert_same_as_single_steps(machine, word)
    assert result.accepted == in_kunz_language(word, depth)
    assert result.accepted == (depth in word.letters)
    length = len(word)
    assert result.steps == (2 * length + 1 if result.accepted else length + 1)
    assert result.cells_used == 5 * (length + 1)


@pytest.mark.parametrize("depth", CORE_DEPTHS)
def test_core_words_up_to_length_six(depth):
    """Every word over {ceil(n/2)..n} of length at most 6."""
    machine = build_kn_machine(depth)
    core = range((depth + 1) // 2, depth + 1)
    for length in range(0, 7):
        for letters in itertools.product(core, repeat=length):
            _assert_core_run(machine, depth, Word(letters))


@pytest.mark.parametrize("depth", CORE_DEPTHS)
def test_seeded_core_words_up_to_length_500(depth):
    """Fifty random core words per depth; every fifth leaves out n."""
    import random

    rng = random.Random(1500 + depth)
    machine = build_kn_machine(depth)
    low = (depth + 1) // 2
    for index in range(50):
        top = depth - 1 if index % 5 == 0 else depth
        length = rng.randint(1, 500)
        word = Word(tuple(rng.randint(low, top) for _ in range(length)))
        _assert_core_run(machine, depth, word)


def test_long_core_word_fits_the_default_budget():
    """Without step1.core this word needs about 10^9 steps."""
    word = Word((3, 4, 5, 6) * 250)
    result = run(build_kn_machine(6), word)
    assert (result.verdict, result.steps) == (ACCEPT, 2_001)
    assert result.cells_used == 5 * 1_001
