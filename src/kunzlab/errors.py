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
    """A size for a ceiling message: in decimal below 2^64 in magnitude,
    else as that bound.  Python refuses to print an int of over 4,300
    digits, and a size past 2^64 is over every default ceiling anyway."""
    if n >= 2**64:
        return "2^64 or more"
    return str(n) if n > -2**64 else "-2^64 or less"


def _check_ints(held: tuple = (), what: str = "", **named) -> None:
    """DomainError unless each named argument is exactly an int, and then
    unless every value ``held`` in the collection named ``what`` is.  Run
    before any other check of them: a float or a bool (True == 1) would
    pass every comparison and reach the arithmetic, a count or a report,
    and a str would end in a TypeError."""
    for name, value in named.items():
        if type(value) is not int:
            raise DomainError(f"{name} must be an integer, got {type(value).__name__}")
    if held and not {int}.issuperset(map(type, held)):
        raise DomainError(f"{what} must hold integers")


def _check_at_least_one(value: int, what: str) -> None:
    """DomainError unless ``value`` is exactly an int >= 1; a value below 1
    is printed with _shown."""
    if type(value) is not int or value < 1:
        _check_ints(**{what: value})
        raise DomainError(f"{what} must be at least 1, got {_shown(value)}")


class ResourceBound(KunzlabError):
    """An enumeration or search would exceed its configured ceiling.

    Raised up front, before any partial output is produced: results are
    never silently truncated.
    """


class StepBudgetExceeded(KunzlabError):
    """A machine run did not halt within the step budget.  The machines
    shipped here always halt, but their steps grow as Theta(l^2) in the
    word length l: an accepted word with a letter below ceil(n/2) takes
    (2l+1)(l+1), under the default budget of 10^6 up to l = 706 and past
    it from l = 707 (1,001,820 steps for witness_kunz(3, 353)).  So a
    long word trips the default budget without any bug."""


class MachineDefinitionError(KunzlabError):
    """A machine program is broken: compiling it found an undefined start
    state or a rule jumping to an unknown state, or a run reached a
    (state, cell) pair with no transition.  Always a bug in the machine
    program, never a property of the input."""


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
