"""Exception types raised across the package.

Every error raised by this package derives from Corr2PhaseError so callers
can catch one base type. Subclasses distinguish conditions a caller may
want to handle differently (for example a degenerate resample inside a
simulation is skippable, while a malformed input file is not).
"""


class Corr2PhaseError(Exception):
    """Base class for all errors raised by corr2phase."""


class InvalidDesign(Corr2PhaseError):
    """Sample sizes violate 2 <= n <= n1 <= N, or sizes disagree with data."""


class InvalidParameter(Corr2PhaseError):
    """A supplied parameter is out of range or internally inconsistent."""


class MissingParameter(Corr2PhaseError):
    """A computation needs a moment or constant that was not supplied."""


class ZeroMean(Corr2PhaseError):
    """A coefficient of variation is needed but the mean is zero."""


class ZeroCorrelation(Corr2PhaseError):
    """Optimum constants are undefined because the correlation is zero."""


class DegenerateVariable(Corr2PhaseError):
    """A study or auxiliary variable is constant, so moments degenerate."""


class DegenerateSample(Corr2PhaseError):
    """A drawn sample has zero variance in a required variable."""


class NonPositiveRatio(Corr2PhaseError):
    """A power-transform base (mean or variance ratio) is not positive."""


class SingularDenominator(Corr2PhaseError):
    """A denominator is zero or too close to zero relative to its scale."""


class NonPositiveVariance(Corr2PhaseError):
    """A variance that must be positive is zero or negative."""


class NonFiniteEstimate(Corr2PhaseError):
    """An estimator evaluated to an infinity or NaN."""


class TooManySamples(Corr2PhaseError):
    """Exact enumeration would exceed its pair budget, or a simulation's
    replications would not fit in memory."""


class AllSamplesDegenerate(Corr2PhaseError):
    """Every replication was skipped; no estimate can be formed."""


class ExcessiveSkips(Corr2PhaseError):
    """The fraction of skipped replications exceeds the allowed budget."""


class ParseError(Corr2PhaseError):
    """An input file or estimator label could not be parsed."""


class HeaderMismatch(ParseError):
    """A population CSV does not start with the exact header 'y,x,z'."""
