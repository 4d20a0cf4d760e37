"""Polarized thermal emission of thin incandescent metal wires.

The library computes the partial-wave emissivities of an infinite
circular wire for the two linear polarizations, folds them with the
Planck spectrum over a filter band, and provides the thick-wire
specular limit (the angular average of Fresnel absorption) plus a
rotating-analyzer polarimeter simulation.
"""

from .errors import (
    ConvergenceError,
    DegenerateInputError,
    DomainError,
    IdentifiabilityError,
    MaterialDataError,
    RangeError,
    WirepolError,
)
from .materials import (
    BoundTerm,
    DrudePermittivityModel,
    FreeTerm,
    load_database,
    model_for_temperature,
    permittivity,
    refraction_index,
)
from .scattering import (
    PolarizedEmissivity,
    emissivity_pair,
    polarization_of,
)
from .spectral import (
    BandAveragedResult,
    BandFilter,
    COMPUTED_BAND,
    band_averaged_polarization,
    planck_radiance,
)
from .asymptotic import thick_wire_polarization
from .polarimetry import (
    CosineSquaredFit,
    PolarimeterScan,
    PolarizationExtraction,
    SourceModel,
    extract_polarization,
    fit_cos_squared,
    measure,
    simulate_scan,
    write_scan,
)

__version__ = "0.1.0"

__all__ = [
    "BandAveragedResult",
    "BandFilter",
    "BoundTerm",
    "COMPUTED_BAND",
    "ConvergenceError",
    "CosineSquaredFit",
    "DegenerateInputError",
    "DomainError",
    "DrudePermittivityModel",
    "FreeTerm",
    "IdentifiabilityError",
    "MaterialDataError",
    "PolarimeterScan",
    "PolarizationExtraction",
    "PolarizedEmissivity",
    "RangeError",
    "SourceModel",
    "WirepolError",
    "band_averaged_polarization",
    "emissivity_pair",
    "extract_polarization",
    "fit_cos_squared",
    "load_database",
    "measure",
    "model_for_temperature",
    "permittivity",
    "planck_radiance",
    "polarization_of",
    "refraction_index",
    "simulate_scan",
    "thick_wire_polarization",
    "write_scan",
]
