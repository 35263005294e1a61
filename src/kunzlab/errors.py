"""Exception types shared across the package."""


class KunzlabError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(KunzlabError, ValueError):
    """An argument is outside the domain an operation is defined on."""


class NotCofinite(DomainError):
    """The generators have gcd != 1, so the generated monoid misses
    infinitely many integers and is not a numerical semigroup."""


class NotKunz(DomainError):
    """A word that was required to satisfy the Kunz conditions does not."""


class LetterOutOfAlphabet(DomainError):
    """A word contains a letter outside the alphabet of the machine or
    automaton it was fed to."""


class InvalidDecomposition(DomainError):
    """Cut points do not describe a five-way split of the given word."""


def _shown(n: int) -> str:
    """A size for a ceiling message: in decimal below 2^64, else as that
    bound.  Python refuses to print an int of over 4,300 digits, and a
    size past 2^64 is over every default ceiling anyway."""
    return str(n) if n < 2**64 else "2^64 or more"


class ResourceBound(KunzlabError):
    """An enumeration or search would exceed its configured ceiling.

    Raised up front, before any partial output is produced: results are
    never silently truncated.
    """


class StepBudgetExceeded(KunzlabError):
    """A machine run did not halt within the step budget.  The machines
    shipped here always halt, but their steps grow as Theta(l^3) in the
    word length l: the depth-3 machine needs 700,557 steps at l = 139
    and 1,043,037 at l = 159 (witness_kunz(3, 79)), past the default
    budget of 10^6.  So a long word trips the default budget without
    any bug."""


class MachineDefinitionError(KunzlabError):
    """A run reached a (state, cell) pair with no transition.  Always a
    bug in the machine program, never a property of the input."""


class SelfCheckFailed(KunzlabError):
    """A result failed the package's own re-verification before being
    reported.  Always a bug in this package, never a property of the
    input."""


class NoRefutation(KunzlabError):
    """Some decomposition admitted by the pumping conditions survived all
    attempted pumping counts.

    Carries the full report; either the pumping count ceiling was too
    small or the word genuinely pumps, and both cases deserve eyes.
    """

    def __init__(self, report):
        self.report = report
        survivors = len(report.unrefuted)
        super().__init__(
            f"{survivors} decomposition(s) of {report.word} survived "
            f"k <= {report.k_max}"
        )
