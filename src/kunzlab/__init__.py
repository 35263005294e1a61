"""kunzlab: numerical semigroups represented as words.

A numerical semigroup (cofinite additive submonoid of the nonnegative
integers) of multiplicity m corresponds to exactly one Kunz word of
length m - 1, and the semigroups of depth q to the language K_q of Kunz
words over {1..q} whose largest letter is q.  This package realizes the
correspondence in both directions and treats the K_q as formal
languages: membership scans, censuses, finite accepters for q <= 2,
distinguishability and pumping experiments for q >= 3, and tape-bounded
machines that recognize K_3 and, generically, K_n.
"""

from .errors import (
    DomainError,
    InvalidDecomposition,
    KunzlabError,
    LetterOutOfAlphabet,
    MachineDefinitionError,
    NoRefutation,
    NotCofinite,
    NotKunz,
    ResourceBound,
    SelfCheckFailed,
    StepBudgetExceeded,
)
from .languages import (
    Decomposition,
    Dfa,
    NerodeReport,
    NerodeSeparation,
    PositionMarking,
    RefutationRecord,
    RefutationReport,
    bader_moura_refute,
    count_kunz,
    dfa_accepts,
    dfa_k1,
    dfa_k2,
    enumerate_kunz,
    in_kunz_language,
    mark_for_refutation,
    nerode_evidence,
    pump,
)
from .semigroups import (
    NATURALS,
    AperyData,
    NumericalSemigroup,
    enumerate_semigroups,
    from_generators,
)
from .words import (
    Violation,
    Word,
    from_semigroup,
    is_kunz,
    to_semigroup,
    violations,
    witness_kunz,
    witness_nonkunz,
)

__version__ = "0.1.0"
