"""Polarized thermal emission of thin incandescent metal wires.

The library computes the partial-wave emissivities of an infinite
circular wire for the two linear polarizations, folds them with the
Planck spectrum over a filter band, and provides the thick-wire
specular limit plus a rotating-analyzer polarimeter simulation.
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
    vacuum_model,
)
from .scattering import (
    PolarizedEmissivity,
    emissivity_pair,
    linear_polarization,
    polarization_of,
    transition_amplitude,
)
from .spectral import (
    BandAveragedResult,
    BandFilter,
    COMPUTED_BAND,
    MEASURED_BAND,
    band_averaged_polarization,
    planck_radiance,
)
from .asymptotic import (
    FresnelPair,
    fresnel_coefficients,
    thick_wire_polarization,
)
from .polarimetry import (
    CosineSquaredFit,
    PolarimeterScan,
    PolarizationExtraction,
    SourceModel,
    extract_polarization,
    fit_cos_squared,
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
    "FresnelPair",
    "IdentifiabilityError",
    "MEASURED_BAND",
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
    "fresnel_coefficients",
    "linear_polarization",
    "load_database",
    "model_for_temperature",
    "permittivity",
    "planck_radiance",
    "polarization_of",
    "refraction_index",
    "simulate_scan",
    "thick_wire_polarization",
    "transition_amplitude",
    "vacuum_model",
    "write_scan",
]
