"""Exception hierarchy shared by all wirepol modules."""


class WirepolError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(WirepolError, ValueError):
    """Argument outside the mathematical domain of an operation."""


class RangeError(WirepolError, ValueError):
    """Argument within the domain but beyond the supported numeric range."""


class ConvergenceError(WirepolError, RuntimeError):
    """A series or quadrature failed to meet its error target; its message
    ends with where, as in "(order=57, ka=1.5, nka=(1e8+1j))" or "(nodes=512)"."""


class DegenerateInputError(WirepolError, ValueError):
    """Input that makes the requested quantity undefined (e.g. a vacuum
    wire, whose emissivities both vanish)."""


class IdentifiabilityError(WirepolError, ValueError):
    """Fit parameters cannot be determined from the given samples."""


class MaterialDataError(WirepolError, ValueError):
    """Malformed or inconsistent material database content."""
