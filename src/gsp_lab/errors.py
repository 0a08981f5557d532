"""Exception types shared across the toolkit, and the plain record base of
its result carriers.

Everything raised deliberately by this package derives from GspLabError, so
callers can catch one base class at the boundary.  The subclasses keep only
the distinctions a caller acts on: DomainExceeded, an argument outside its
domain (specs, quadrature, sampler, detector); NonPositiveValue, a value of
f that is not positive (FunctionSpec.eval, Custom); ToleranceNotReached, a
missed tolerance, raised in place of any value (quadrature, sampler); and
Inadmissible, a spec that breaks the hypotheses (validate, Tabulated), with
CsvFormatError for a CSV that does not parse.  Any other failed computation
(moments, detector) raises GspLabError itself.  cli.main ends Inadmissible
in exit 3, its own ConfigError in exit 2 and every other error in exit 1.
"""

__all__ = [
    "GspLabError", "DomainExceeded", "NonPositiveValue", "ToleranceNotReached",
    "Inadmissible", "CsvFormatError",
]


class GspLabError(Exception):
    """Base class for all errors raised by gsp_lab."""


class DomainExceeded(GspLabError):
    """An argument outside its domain: an abscissa, scale, tolerance, count,
    exponent or interval."""


class NonPositiveValue(GspLabError):
    """A function evaluation produced a non-positive (or non-finite) value."""


class ToleranceNotReached(GspLabError):
    """A tolerance was missed: the kernel ran out of panels or of machine
    width, or the sampler's quantile solve fell short."""


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


class _Record:
    """A plain record: ``fields`` names its attributes in order, and a class
    attribute of the same name is a field's default.  ``__init__`` takes the
    fields by position or by name and sets each on the instance, in order,
    so ``vars()`` holds them all."""

    fields = ()

    def __init__(self, *args, **kwargs):
        given = dict(zip(self.fields, args))
        if len(args) > len(self.fields) or given.keys() & kwargs.keys():
            raise TypeError(f"{type(self).__name__}: too many or repeated arguments")
        given.update(kwargs)
        for name in self.fields:
            if name not in given and not hasattr(self, name):
                raise TypeError(f"{type(self).__name__}: missing field {name!r}")
            setattr(self, name, given.pop(name) if name in given else getattr(self, name))
        if given:
            raise TypeError(f"{type(self).__name__}: unknown fields {sorted(given)}")
