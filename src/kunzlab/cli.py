"""Command-line front end.

One subcommand per operation family; JSON on stdout (CSV for the
census), human-readable complaints on stderr.  Exit codes are stable:
0 for success / a positive answer, 1 for a domain-negative outcome
(word not Kunz, machine rejected, refutation incomplete, generators not
cofinite), 2 for usage or parse errors and ceilings (ResourceBound), 3
for an internal fault: a machine run that did not finish
(StepBudgetExceeded, MachineDefinitionError) or a result that failed
its own re-verification (SelfCheckFailed).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import lba
from .errors import (
    DomainError,
    KunzlabError,
    MachineDefinitionError,
    NoRefutation,
    NotCofinite,
    NotKunz,
    SelfCheckFailed,
    StepBudgetExceeded,
)
from .languages import (
    DEFAULT_CANDIDATE_CEILING,
    bader_moura_refute,
    count_kunz,
    enumerate_kunz,
    nerode_evidence,
)
from .semigroups import from_generators
from .words import (
    Word,
    is_kunz,
    to_semigroup,
    violations,
    witness_kunz,
    witness_nonkunz,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


def _emit(obj) -> None:
    print(json.dumps(obj))


def cmd_validate(args) -> int:
    word = Word.parse(args.word)
    found = violations(word)  # refuses an over-long word; empty iff Kunz
    kunz = not found
    _emit(
        {
            "word": str(word),
            "is_kunz": kunz,
            "depth": word.depth,
            "violations": [v.to_json_dict() for v in found],
        }
    )
    return EXIT_OK if kunz else EXIT_NEGATIVE


def cmd_semigroup(args) -> int:
    if args.gens is not None:
        try:
            gens = [int(part) for part in args.gens.split(",") if part.strip()]
        except ValueError as exc:
            raise DomainError(f"cannot parse generators {args.gens!r}") from exc
        semigroup = from_generators(gens)
    else:
        semigroup = to_semigroup(Word.parse(args.word))
    _emit(semigroup.to_json_dict())
    return EXIT_OK


def cmd_enumerate(args) -> int:
    if args.count_only:
        count = count_kunz(args.depth, args.length,
                           max_candidates=args.max_candidates)
        print("q,length,count")
        print(f"{args.depth},{args.length},{count}")
    else:
        words = enumerate_kunz(args.depth, args.length,
                               max_candidates=args.max_candidates)
        _emit([str(w) for w in words])
    return EXIT_OK


def cmd_lba(args) -> int:
    if args.depth == 3:
        machine = lba.build_k3_machine()
    else:
        machine = lba.build_kn_machine(args.depth)
    word = Word.parse(args.word)
    result = lba.run(machine, word, max_steps=args.max_steps,
                     want_trace=args.trace)
    if args.trace:
        for line in lba.format_trace(result):
            print(line, file=sys.stderr)
        if result.trace_truncated:
            print("... trace truncated", file=sys.stderr)
    _emit(result.to_json_dict())
    return EXIT_OK if result.accepted else EXIT_NEGATIVE


def cmd_witness(args) -> int:
    if args.kunz is not None:
        q, n = args.kunz
        word = witness_kunz(q, n)
    else:
        q, n, m = args.nonkunz
        word = witness_nonkunz(q, n, m)
    _emit({"word": str(word), "is_kunz": is_kunz(word), "depth": word.depth})
    return EXIT_OK


def cmd_nerode(args) -> int:
    report = nerode_evidence(args.depth, args.max)
    _emit(report.to_json_list())
    return EXIT_OK


def cmd_pumping(args) -> int:
    try:
        report = bader_moura_refute(args.depth, args.p, args.kmax,
                                    max_candidates=args.max_candidates)
    except NoRefutation as exc:
        _emit(exc.report.to_json_list())
        return EXIT_NEGATIVE
    _emit(report.to_json_list())
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kunzlab",
        description="Numerical semigroups as words over the positive integers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="test whether a word is Kunz")
    p.add_argument("word", help="comma-separated letters; '' is the empty word")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("semigroup", help="semigroup from generators or a Kunz word")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--gens", help="comma-separated generators")
    group.add_argument("--word", help="Kunz word")
    p.set_defaults(func=cmd_semigroup)

    p = sub.add_parser("enumerate", help="words of K_q at one length")
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--count-only", action="store_true")
    p.add_argument("--max-candidates", type=int,
                   default=DEFAULT_CANDIDATE_CEILING)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("lba", help="run the tape-bounded acceptor on a word")
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--word", required=True)
    p.add_argument("--trace", action="store_true",
                   help="dump the step trace to stderr")
    p.add_argument("--max-steps", type=int, default=lba.DEFAULT_STEP_BUDGET)
    p.set_defaults(func=cmd_lba)

    p = sub.add_parser("witness", help="block witness words")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--kunz", nargs=2, type=int, metavar=("Q", "N"))
    group.add_argument("--nonkunz", nargs=3, type=int, metavar=("Q", "N", "M"))
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("nerode", help="pairwise prefix separations for K_q")
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--max", type=int, required=True)
    p.set_defaults(func=cmd_nerode)

    p = sub.add_parser("pumping", help="marked pumping refutation for K_q")
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--kmax", type=int, required=True)
    p.add_argument("--max-candidates", type=int,
                   default=DEFAULT_CANDIDATE_CEILING)
    p.set_defaults(func=cmd_pumping)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (NotCofinite, NotKunz) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NEGATIVE
    except (StepBudgetExceeded, MachineDefinitionError, SelfCheckFailed) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except KunzlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
