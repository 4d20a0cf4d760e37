"""Planck weighting and band-averaged polarization.

A polarimeter behind a bandpass filter measures not P(k) at one
wavelength but its average over the band, weighted by the thermal
spectrum:

    e_bar(alpha) ~ integral  chi(lambda) E(lambda, T) e_alpha(2 pi / lambda) dlambda
    P_avg = (e_bar_TE - e_bar_TM) / (e_bar_TE + e_bar_TM)

with chi a stepwise-constant filter transmission and E the Planck
spectral emittance.  The overall normalization of the weight (including
the constant transmission value) cancels in the ratio and is never
computed.  e_alpha is the sum that ``scattering.emissivity_pair``
returns, 2x * Q_abs with x = 2 pi a / lambda, so the band is weighted by
an extra 1/lambda compared with Q_abs; which weight is intended is an
open question (CHANGES.md).  P itself comes from
``scattering.polarization_of``.

Quadrature is fixed-order Gauss-Legendre on the band (the integrand is
smooth and the band narrow); the error estimate comes from re-evaluating
at double the node count.  Node sums are reduced with math.fsum, which
rounds the exact sum once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import constants as _const

from .errors import ConvergenceError, DomainError
from .materials import DrudePermittivityModel, permittivity, refraction_index
from .scattering import emissivity_pair, polarization_of


@dataclass(frozen=True)
class BandFilter:
    """Stepwise-constant transmission: ``transmission`` inside
    [lambda_lo, lambda_hi], zero outside."""
    lambda_lo_um: float
    lambda_hi_um: float
    transmission: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.lambda_lo_um < self.lambda_hi_um < math.inf):
            raise DomainError(f"band requires 0 < lo < hi < inf, got {self}")
        if not (0.0 < self.transmission <= 1.0):
            raise DomainError(f"transmission must be in (0, 1], got {self.transmission}")


# The filter band used for the bundled comparison tables.
COMPUTED_BAND = BandFilter(0.5, 0.75)
# Nominal passband of the physical filter stack (450-750 nm).
MEASURED_BAND = BandFilter(0.45, 0.75)


@dataclass(frozen=True)
class QuadratureConfig:
    nodes: int = 64
    check_nodes: int = 128
    tolerance: float = 1e-6

    def __post_init__(self):
        if self.nodes < 2 or self.check_nodes < 2:
            raise DomainError("quadrature needs at least 2 nodes")
        if not self.tolerance > 0:
            raise DomainError(f"quadrature tolerance must be > 0, got {self.tolerance}")


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


def _band_integrals(a_um, temperature_k, band, model, nodes, emissivity_fn,
                    emissivity_tol):
    xg, wg = np.polynomial.legendre.leggauss(nodes)
    half = 0.5 * (band.lambda_hi_um - band.lambda_lo_um)
    lam = band.lambda_lo_um + (xg + 1.0) * half
    w = wg * half
    te_parts = []
    tm_parts = []
    for lam_i, w_i in zip(lam, w):
        if emissivity_fn is None:
            n = refraction_index(permittivity(model, lam_i))
            pair = emissivity_pair(2.0 * math.pi / lam_i, a_um, n,
                                   tol=emissivity_tol)
            e_te, e_tm = pair.e_te, pair.e_tm
        else:
            e_te, e_tm = emissivity_fn(lam_i)
        weight = w_i * band.transmission * planck_radiance(lam_i, temperature_k)
        te_parts.append(weight * e_te)
        tm_parts.append(weight * e_tm)
    return math.fsum(te_parts), math.fsum(tm_parts)


def band_averaged_polarization(a_um: float, temperature_k: float,
                               band: BandFilter,
                               model: DrudePermittivityModel,
                               quadrature: QuadratureConfig | None = None,
                               emissivity_tol: float = 1e-10,
                               emissivity_fn=None) -> BandAveragedResult:
    """Band-averaged linear polarization of a wire of radius ``a_um``.

    ``temperature_k`` sets the Planck weight; the optical response comes
    from ``model`` (usually, but not necessarily, at the same
    temperature).  ``emissivity_fn(lambda_um) -> (e_te, e_tm)`` may
    replace the partial-wave emissivities, mainly for testing.

    Raises ConvergenceError if the doubled-node re-evaluation differs
    from the primary result by more than the configured tolerance.
    """
    if a_um <= 0:
        raise DomainError(f"radius must be > 0, got {a_um}")
    quadrature = quadrature or QuadratureConfig()
    e_te, e_tm = _band_integrals(a_um, temperature_k, band, model,
                                 quadrature.nodes, emissivity_fn, emissivity_tol)
    p = polarization_of(e_te, e_tm)
    e_te2, e_tm2 = _band_integrals(a_um, temperature_k, band, model,
                                   quadrature.check_nodes, emissivity_fn,
                                   emissivity_tol)
    p2 = polarization_of(e_te2, e_tm2)
    est = abs(p - p2)
    if est > quadrature.tolerance:
        raise ConvergenceError(
            f"band quadrature error estimate {est:g} exceeds "
            f"tolerance {quadrature.tolerance:g}", nodes=quadrature.nodes)
    return BandAveragedResult(p_avg=p, e_te_bar=e_te, e_tm_bar=e_tm,
                              quadrature_nodes=quadrature.nodes,
                              est_quadrature_error=est)
