"""Exception types raised across the package.

Every error raised by this package derives from Corr2PhaseError so callers
can catch one base type. Subclasses distinguish conditions a caller may
want to handle differently (for example a degenerate resample inside a
simulation is skippable, while a malformed input file is not).
"""

from collections import namedtuple


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


# Skip codes, one per pair, and the one table that names them: a code's
# report label, the error estimate() raises for it (None where
# sample_statistics or estimated_optimum_constants raises first) and its
# reason. The kernels write codes 1 to 3; the evaluator adds 4, 5 and 2.
SKIP_OK = 0  # the pair was used
SKIP_DEGENERATE = 1
SKIP_NONFINITE = 2
SKIP_PLUGIN = 3
SKIP_NONPOSITIVE = 4
SKIP_DENOMINATOR = 5

Skip = namedtuple("Skip", "label error reason")
SKIPS = {
    SKIP_DEGENERATE: Skip("degenerate_sample", None, "a required variable is constant"),
    SKIP_NONFINITE: Skip("nonfinite_value", NonFiniteEstimate, "the estimate is not finite"),
    SKIP_PLUGIN: Skip("singular_plugin_constants", None, "plug-in constants cannot be formed"),
    SKIP_NONPOSITIVE: Skip(
        "nonpositive_ratio", NonPositiveRatio, "a ratio raised to a power is not positive"
    ),
    SKIP_DENOMINATOR: Skip(
        "singular_denominator", SingularDenominator, "the denominator is not safely positive"
    ),
}
