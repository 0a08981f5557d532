"""Exception types shared across the toolkit.

Everything raised deliberately by this package derives from GspLabError, so
callers can catch one base class at the boundary.  A spec that is not
admissible raises Inadmissible (a CSV that does not parse is one); the CLI
ends it in exit 3, its own ConfigError in exit 2 and any other error in 1.
"""

__all__ = [
    "GspLabError", "NonPositiveInput", "DomainExceeded", "NonPositiveValue",
    "ToleranceNotReached", "NegativeVariance", "DegenerateWeight",
    "DegenerateFit", "ThetaOutOfRange", "NonPositiveExponent", "Inadmissible",
    "CsvFormatError",
]


class GspLabError(Exception):
    """Base class for all errors raised by gsp_lab."""


class NonPositiveInput(GspLabError):
    """An abscissa or parameter was <= 0 where only positive values make sense."""


class DomainExceeded(GspLabError):
    """A point fell outside the domain an object was built on."""


class NonPositiveValue(GspLabError):
    """A function evaluation produced a non-positive (or non-finite) value."""


class ToleranceNotReached(GspLabError):
    """Adaptive integration ran out of subdivision budget.

    The best-effort result (with its honest error estimate and
    ``converged=False``) is attached as ``result`` so callers that prefer a
    flagged value over an exception can still get one.
    """

    def __init__(self, message, result=None):
        super().__init__(message)
        self.result = result


class NegativeVariance(GspLabError):
    """A variance integral came out more negative than roundoff can explain."""


class DegenerateWeight(GspLabError):
    """The quadratic weight normalizer D(a) is numerically zero."""


class DegenerateFit(GspLabError):
    """A least-squares fit had nothing to fit against (zero normal matrix)."""


class ThetaOutOfRange(GspLabError):
    """A scale-free centroid landed outside the open interval (0, 1)."""


class NonPositiveExponent(GspLabError):
    """A power-law exponent must be strictly positive."""


class Inadmissible(GspLabError):
    """The spec is not an admissible f (f > 0 on (0, inf), f(0+) = 0); the
    message names the broken hypothesis, or the table's fault."""


class CsvFormatError(Inadmissible):
    """A tabulated CSV file failed to parse.

    ``line`` is the 1-based line number of the offending row.
    """

    def __init__(self, line, message):
        super().__init__(f"line {line}: {message}")
        self.line = line
