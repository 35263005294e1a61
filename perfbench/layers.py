"""Where the traced run records spans, and the per-layer metrics built
from them.

The layers are kunzlab's modules: semigroups, words, languages, lba
(simulator and machines) and cli.  ``probes`` names every public function
whose calls get a span, with each binding the function is reached
through: the benchmark's own calls go through the module attribute, and
calls from one module into another (``words.to_semigroup`` into
``semigroups.from_generators``, ``languages.count_kunz`` into
``languages.enumerate_kunz``) go through the importing module's name.
The validator (``NumericalSemigroup.__post_init__``) gets a span too, so
that ``semigroups.from_generators.self_s`` is construction minus
validation.  The census's per-candidate ``is_kunz`` calls inside
``languages`` are deliberately not traced: there are hundreds of
thousands of them per batch.
"""

from __future__ import annotations

import statistics

# size tiers: the label is part of the metric name
MULTIPLICITY_TIERS = ((15, "m_le15"), (29, "m16-29"), (45, "m30-45"), (None, "m_ge46"))
CANDIDATE_TIERS = ((10**3, "le1e3"), (10**4, "le1e4"), (10**5, "le1e5"), (None, "gt1e5"))
LENGTH_TIERS = ((30, "len_le30"), (60, "len31-60"), (90, "len61-90"), (None, "len_gt90"))
SUBCOMMANDS = ("validate", "semigroup", "enumerate", "lba", "witness", "nerode", "pumping")


def tier_of(tiers, value: int) -> str:
    for top, label in tiers:
        if top is None or value <= top:
            return label
    raise AssertionError("last tier is open-ended")


def _tier_gens(args, kwargs):
    gens = args[0] if args else kwargs["gens"]
    return tier_of(MULTIPLICITY_TIERS, min(gens))


def _tier_candidates(args, kwargs):
    return tier_of(CANDIDATE_TIERS, args[0] ** args[1])


def _tier_length(args, kwargs):
    return tier_of(LENGTH_TIERS, len(args[1]))


def _note_validate(tr, parent, args, kwargs, result, exc):
    tr.count("semigroups.small_elements", len(args[0].small_elements))


def _note_found(tr, parent, args, kwargs, result, exc):
    if exc is None:
        tr.count("semigroups.enumerate_semigroups.found", len(result))


def _note_letters(tr, parent, args, kwargs, result, exc):
    tr.count("words.letters_scanned", len(args[0]))


def _note_count(tr, parent, args, kwargs, result, exc):
    candidates = args[0] ** args[1]
    tier = tier_of(CANDIDATE_TIERS, candidates)
    tr.count("languages.search_space", candidates)
    tr.count("languages.count_kunz.search_space", candidates)
    tr.count(f"languages.count_kunz.{tier}.search_space", candidates)
    if exc is None:
        tr.count("languages.words_found", result)


def _note_enumerate(tr, parent, args, kwargs, result, exc):
    if parent == "languages.count_kunz":
        return  # already counted at the outer call
    tr.count("languages.search_space", args[0] ** args[1])
    if exc is None:
        tr.count("languages.words_found", len(result))


def _note_separations(tr, parent, args, kwargs, result, exc):
    if exc is None:
        tr.count("languages.separations", len(result.separations))


def _note_decompositions(tr, parent, args, kwargs, result, exc):
    report = result if exc is None else getattr(exc, "report", None)
    if report is not None:
        tr.count("languages.decompositions", len(report.records))


def _note_compile(tr, parent, args, kwargs, result, exc):
    if exc is None:
        tr.count("lba.compile.table_entries",
                 len(result.state_names) * len(result.cells))


def probes(kz):
    """(span name, bindings, note, tier) for every traced entry point."""
    sg, wd, lg, lba = kz.semigroups, kz.words, kz.languages, kz.lba

    def note_run(tr, parent, args, kwargs, result, exc):
        tier = tier_of(LENGTH_TIERS, len(args[1]))
        if exc is None:
            steps = result.steps
        elif isinstance(exc, kz.StepBudgetExceeded):
            tr.count("lba.budget_exceeded")
            steps = kwargs.get("max_steps", args[2] if len(args) > 2
                               else lba.DEFAULT_STEP_BUDGET)
        else:
            return
        tr.count("lba.steps", steps)
        tr.count(f"lba.steps.{tier}", steps)

    return [
        ("semigroups.from_generators",
         [(sg, "from_generators"), (wd, "from_generators")], None, _tier_gens),
        ("semigroups.validate",
         [(sg.NumericalSemigroup, "__post_init__")], _note_validate, None),
        ("semigroups.enumerate_semigroups",
         [(sg, "enumerate_semigroups")], _note_found, None),
        ("words.is_kunz", [(wd, "is_kunz")], _note_letters, None),
        ("words.violations", [(wd, "violations")], _note_letters, None),
        ("words.to_semigroup", [(wd, "to_semigroup")], None, None),
        ("words.from_semigroup", [(wd, "from_semigroup")], None, None),
        ("languages.count_kunz", [(lg, "count_kunz")], _note_count, _tier_candidates),
        ("languages.enumerate_kunz", [(lg, "enumerate_kunz")], _note_enumerate, None),
        ("languages.nerode_evidence", [(lg, "nerode_evidence")], _note_separations, None),
        ("languages.bader_moura_refute",
         [(lg, "bader_moura_refute")], _note_decompositions, None),
        ("lba.compile",
         [(lba, "build_k3_machine"), (lba, "build_kn_machine")], _note_compile, None),
        ("lba.run", [(lba, "run")], note_run, _tier_length),
    ]


def _metrics_catalogue():
    s, ms, n = "s", "ms", "count"
    out = [
        ("semigroups.from_generators.s", s, "lower"),
        ("semigroups.from_generators.self_s", s, "lower"),
        ("semigroups.from_generators.calls", n, "lower"),
    ]
    for _, tier in MULTIPLICITY_TIERS:
        out += [(f"semigroups.from_generators.{tier}.ms_per_call", ms, "lower"),
                (f"semigroups.from_generators.{tier}.calls", n, "lower")]
    out += [
        ("semigroups.small_elements", n, "lower"),
        ("semigroups.validate.s", s, "lower"),
        ("semigroups.apery.s", s, "lower"),
        ("semigroups.contains.s", s, "lower"),
        ("semigroups.contains.calls", n, "lower"),
        ("semigroups.enumerate_semigroups.s", s, "lower"),
        ("semigroups.enumerate_semigroups.found", n, "higher"),
        ("words.is_kunz.s", s, "lower"),
        ("words.is_kunz.calls", n, "lower"),
        ("words.violations.s", s, "lower"),
        ("words.letters_scanned", n, "lower"),
        ("words.to_semigroup.s", s, "lower"),
        ("words.from_semigroup.s", s, "lower"),
        ("languages.count_kunz.s", s, "lower"),
        ("languages.count_kunz.self_s", s, "lower"),
        ("languages.enumerate_kunz.s", s, "lower"),
        ("languages.search_space", n, "lower"),
        ("languages.words_found", n, "higher"),
        ("languages.count_kunz.search_space", n, "lower"),
        ("languages.count_kunz.ns_per_candidate", "ns", "lower"),
    ]
    for _, tier in CANDIDATE_TIERS[:-1]:
        out += [(f"languages.count_kunz.{tier}.ns_per_candidate", "ns", "lower"),
                (f"languages.count_kunz.{tier}.search_space", n, "lower")]
    out += [
        ("languages.bader_moura_refute.s", s, "lower"),
        ("languages.decompositions", n, "lower"),
        ("languages.nerode_evidence.s", s, "lower"),
        ("languages.separations", n, "higher"),
        ("lba.compile.s", s, "lower"),
        ("lba.compile.table_entries", n, "lower"),
        ("lba.run.s", s, "lower"),
        ("lba.run.calls", n, "lower"),
        ("lba.steps", n, "lower"),
        ("lba.steps_per_s", "1/s", "higher"),
        ("lba.budget_exceeded", n, "lower"),
    ]
    for _, tier in LENGTH_TIERS:
        out += [(f"lba.steps.{tier}", n, "lower"),
                (f"lba.run.{tier}.calls", n, "lower")]
    for sub in SUBCOMMANDS:
        out.append((f"cli.{sub}.p50_ms", ms, "lower"))
    out += [
        ("cli.invocations", n, "lower"),
        ("cli.exit_mismatch", n, "lower"),
        ("cli.tracebacks", n, "lower"),
        ("ops", n, "higher"),
        ("error_rate", "ratio", "lower"),
        ("trace.overhead_share", "ratio", "lower"),
    ]
    return out


PER_LAYER = _metrics_catalogue()


def layer_metrics(setup: dict, reps: list[dict]) -> dict[str, float]:
    """Per-layer values for one traced run.

    Times are the setup phase's plus the median over traced repetitions
    (a repetition runs the whole batch once); counters are the setup
    phase's plus the first repetition's, and the caller checks that every
    repetition counted the same.  Ratios are formed from those values, so
    each one's base is reported beside it.
    """

    def time_of(kind, key):
        return setup[kind].get(key, 0.0) + statistics.median(
            r[kind].get(key, 0.0) for r in reps)

    def calls(key):
        return setup["calls"].get(key, 0) + reps[0]["calls"].get(key, 0)

    def count(key):
        return setup["counts"].get(key, 0) + reps[0]["counts"].get(key, 0)

    def per(numerator, denominator, scale=1.0):
        return numerator * scale / denominator if denominator else 0.0

    out = {}
    for name in ("semigroups.from_generators", "semigroups.validate",
                 "semigroups.apery", "semigroups.contains",
                 "semigroups.enumerate_semigroups", "words.is_kunz",
                 "words.violations", "words.to_semigroup", "words.from_semigroup",
                 "languages.count_kunz", "languages.enumerate_kunz",
                 "languages.bader_moura_refute", "languages.nerode_evidence",
                 "lba.compile", "lba.run"):
        out[f"{name}.s"] = time_of("busy", name)
        out[f"{name}.self_s"] = time_of("self", name)
        out[f"{name}.calls"] = calls(name)
    for _, tier in MULTIPLICITY_TIERS:
        key = ("semigroups.from_generators", tier)
        out[f"semigroups.from_generators.{tier}.calls"] = calls(key)
        out[f"semigroups.from_generators.{tier}.ms_per_call"] = per(
            time_of("busy", key), calls(key), 1e3)
    # the explicit contains span covers a batch of queries
    out["semigroups.contains.calls"] = count("semigroups.contains.calls")
    for key in ("semigroups.small_elements", "semigroups.enumerate_semigroups.found",
                "words.letters_scanned", "languages.search_space",
                "languages.words_found", "languages.count_kunz.search_space",
                "languages.decompositions", "languages.separations",
                "lba.compile.table_entries", "lba.steps", "lba.budget_exceeded",
                "cli.invocations", "cli.exit_mismatch", "cli.tracebacks"):
        out[key] = count(key)
    out["languages.count_kunz.ns_per_candidate"] = per(
        out["languages.count_kunz.s"], out["languages.count_kunz.search_space"], 1e9)
    for _, tier in CANDIDATE_TIERS[:-1]:
        space = count(f"languages.count_kunz.{tier}.search_space")
        out[f"languages.count_kunz.{tier}.search_space"] = space
        out[f"languages.count_kunz.{tier}.ns_per_candidate"] = per(
            time_of("busy", ("languages.count_kunz", tier)), space, 1e9)
    out["lba.steps_per_s"] = per(out["lba.steps"], out["lba.run.s"])
    for _, tier in LENGTH_TIERS:
        out[f"lba.steps.{tier}"] = count(f"lba.steps.{tier}")
        out[f"lba.run.{tier}.calls"] = calls(("lba.run", tier))
    wanted = {name for name, _, _ in PER_LAYER}
    return {k: v for k, v in out.items() if k in wanted}
