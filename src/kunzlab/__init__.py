"""kunzlab: numerical semigroups represented as words.

A numerical semigroup (cofinite additive submonoid of the nonnegative
integers) of multiplicity m corresponds to exactly one Kunz word of
length m - 1, and the semigroups of depth q to the language K_q of Kunz
words over {1..q} whose largest letter is q.  This package realizes the
correspondence in both directions and treats the K_q as formal
languages: membership scans, censuses, finite accepters for q <= 2,
distinguishability and pumping experiments for q >= 3, and tape-bounded
machines that recognize K_3 and, generically, K_n.

The names below and the submodules are imported on first use (PEP 562),
so ``import kunzlab`` loads no computational module and a command-line
process pays only for the modules its subcommand reads.
"""

__version__ = "0.1.0"

# each exported name, by the submodule that defines it
_EXPORTS = {
    "errors": (
        "DomainError",
        "InvalidDecomposition",
        "KunzlabError",
        "LetterOutOfAlphabet",
        "MachineDefinitionError",
        "NoRefutation",
        "NotCofinite",
        "NotKunz",
        "ResourceBound",
        "SelfCheckFailed",
        "StepBudgetExceeded",
    ),
    "languages": (
        "Decomposition",
        "Dfa",
        "NerodeReport",
        "NerodeSeparation",
        "PositionMarking",
        "RefutationRecord",
        "RefutationReport",
        "bader_moura_refute",
        "count_kunz",
        "dfa_accepts",
        "dfa_k1",
        "dfa_k2",
        "enumerate_kunz",
        "in_kunz_language",
        "mark_for_refutation",
        "nerode_evidence",
        "pump",
    ),
    "semigroups": (
        "NATURALS",
        "AperyData",
        "NumericalSemigroup",
        "enumerate_semigroups",
        "from_generators",
    ),
    "words": (
        "Violation",
        "Word",
        "from_semigroup",
        "is_kunz",
        "to_semigroup",
        "violations",
        "witness_kunz",
        "witness_nonkunz",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = (*_EXPORTS, "lba")

__all__ = list(_HOME)


def __getattr__(name: str):
    import importlib

    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")  # binds it here too
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
