"""Planck weighting and band-averaged polarization.

A polarimeter behind a bandpass filter measures not P(k) at one
wavelength but its average over the band, weighted by the thermal
spectrum:

    e_bar(alpha) ~ integral  chi(lambda) E(lambda, T) e_alpha(2 pi / lambda) dlambda
    P_avg = (e_bar_TE - e_bar_TM) / (e_bar_TE + e_bar_TM)

with chi the flat passband of the filter and E the Planck spectral
emittance.  The overall normalization of the weight cancels in the ratio
and is never computed.  P itself comes from ``scattering.polarization_of``.

The weight carries 1/lambda.  By Kirchhoff's law a unit length of wire emits
into each polarization the blackbody power E that it would absorb over its
cross-section per unit length, 2a * Q_abs, so at fixed a a flat-response
detector weights by chi E Q_abs.  e_alpha, the sum that
``scattering.emissivity_pair`` returns, is 2x * Q_abs = (4 pi a / lambda)
* Q_abs: 4 pi a cancels in P, 1/lambda does not.  Weighting by Q_abs
(e_alpha * lambda) would move the 2400 K P on COMPUTED_BAND by +2.3e-4 to
+3.5e-4 for d = 5-120 um and by -1.7e-3 at d = 0.5 um; the presets and the
benchmark reference keep the present weight until the choice is settled.

Quadrature is fixed-order Gauss-Legendre on the band (the integrand is
smooth and the band narrow).  The error estimate is |P - P'|, where P'
comes from the rule with 2 * nodes; an estimate above
QUADRATURE_TOLERANCE raises ConvergenceError.  Node sums are reduced
with math.fsum, which rounds the exact sum once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import constants as _const

from .errors import ConvergenceError, DomainError
from .materials import DrudePermittivityModel, permittivity, refraction_index
from .scattering import emissivity_pair, polarization_of

# Largest accepted |P(nodes) - P(2 * nodes)| of a band average.
QUADRATURE_TOLERANCE = 1e-6


@dataclass(frozen=True)
class BandFilter:
    """Flat passband [lambda_lo, lambda_hi], opaque outside."""
    lambda_lo_um: float
    lambda_hi_um: float

    def __post_init__(self):
        if not (0.0 < self.lambda_lo_um < self.lambda_hi_um < math.inf):
            raise DomainError(f"band requires 0 < lo < hi < inf, got {self}")


# The filter band used for the bundled comparison tables.
COMPUTED_BAND = BandFilter(0.5, 0.75)
# Nominal passband of the physical filter stack (450-750 nm).
MEASURED_BAND = BandFilter(0.45, 0.75)


@dataclass(frozen=True)
class BandAveragedResult:
    p_avg: float
    e_te_bar: float
    e_tm_bar: float
    quadrature_nodes: int
    est_quadrature_error: float


def planck_radiance(wavelength_um: float, temperature_k: float) -> float:
    """Planck spectral emittance 2 pi h c^2 / lambda^5 / (exp(hc/(lambda kB T)) - 1)
    in W m^-3 (power per emitting area per wavelength)."""
    if wavelength_um <= 0:
        raise DomainError(f"wavelength must be > 0, got {wavelength_um}")
    if temperature_k <= 0:
        raise DomainError(f"temperature must be > 0, got {temperature_k}")
    lam = wavelength_um * 1e-6
    x = _const.h * _const.c / (_const.k * temperature_k * lam)
    prefactor = 2.0 * math.pi * _const.h * _const.c ** 2 / lam ** 5
    if x > 700.0:
        # deep Wien tail: exp(x) would overflow; let the value underflow
        return prefactor * math.exp(-x)
    return prefactor / math.expm1(x)


def _band_integrals(temperature_k, band, nodes, emissivity_fn):
    xg, wg = np.polynomial.legendre.leggauss(nodes)
    half = 0.5 * (band.lambda_hi_um - band.lambda_lo_um)
    lam = band.lambda_lo_um + (xg + 1.0) * half
    w = wg * half
    te_parts = []
    tm_parts = []
    for lam_i, w_i in zip(lam, w):
        e_te, e_tm = emissivity_fn(lam_i)
        weight = w_i * planck_radiance(lam_i, temperature_k)
        te_parts.append(weight * e_te)
        tm_parts.append(weight * e_tm)
    return math.fsum(te_parts), math.fsum(tm_parts)


def band_averaged_polarization(a_um: float, temperature_k: float,
                               band: BandFilter,
                               model: DrudePermittivityModel,
                               nodes: int = 64,
                               emissivity_fn=None) -> BandAveragedResult:
    """Band-averaged linear polarization of a wire of radius ``a_um``.

    ``temperature_k`` sets the Planck weight; the optical response comes
    from ``model`` (usually, but not necessarily, at the same
    temperature).  ``emissivity_fn(lambda_um) -> (e_te, e_tm)`` may
    replace the partial-wave emissivities, mainly for testing.

    Raises ConvergenceError if the re-evaluation with 2 * ``nodes``
    differs from the primary result by more than QUADRATURE_TOLERANCE.
    """
    if a_um <= 0:
        raise DomainError(f"radius must be > 0, got {a_um}")
    if nodes < 2:
        raise DomainError(f"quadrature needs at least 2 nodes, got {nodes}")
    if emissivity_fn is None:
        def emissivity_fn(lam):
            pair = emissivity_pair(2.0 * math.pi / lam, a_um,
                                   refraction_index(permittivity(model, lam)))
            return pair.e_te, pair.e_tm
    e_te, e_tm = _band_integrals(temperature_k, band, nodes, emissivity_fn)
    p = polarization_of(e_te, e_tm)
    p2 = polarization_of(*_band_integrals(temperature_k, band, 2 * nodes,
                                          emissivity_fn))
    est = abs(p - p2)
    if est > QUADRATURE_TOLERANCE:
        raise ConvergenceError(
            f"band quadrature error estimate {est:g} exceeds "
            f"tolerance {QUADRATURE_TOLERANCE:g}", nodes=nodes)
    return BandAveragedResult(p_avg=p, e_te_bar=e_te, e_tm_bar=e_tm,
                              quadrature_nodes=nodes,
                              est_quadrature_error=est)
