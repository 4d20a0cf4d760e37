"""Exception hierarchy shared by all wirepol modules."""


class WirepolError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(WirepolError, ValueError):
    """Argument outside the mathematical domain of an operation."""


class RangeError(WirepolError, ValueError):
    """Argument within the domain but beyond the supported numeric range."""


class ConvergenceError(WirepolError, RuntimeError):
    """A series or quadrature failed to meet its error target.

    Carries enough context (order, size parameter, complex argument) for
    sweep drivers to report which geometry failed.
    """

    def __init__(self, message, *, order=None, ka=None, nka=None, nodes=None):
        super().__init__(message)
        self.order = order
        self.ka = ka
        self.nka = nka
        self.nodes = nodes


class DegenerateInputError(WirepolError, ValueError):
    """Input that makes the requested quantity undefined (e.g. a vacuum
    wire, whose emissivities both vanish)."""


class IdentifiabilityError(WirepolError, ValueError):
    """Fit parameters cannot be determined from the given samples."""


class MaterialDataError(WirepolError, ValueError):
    """Malformed or inconsistent material database content."""
