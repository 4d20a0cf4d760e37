"""Planck weighting and band-averaged polarization.

A polarimeter behind a bandpass filter measures not P(k) at one
wavelength but its average over the band, weighted by the thermal
spectrum:

    e_bar(alpha) ~ integral  chi(lambda) E(lambda, T) e_alpha(2 pi / lambda) dlambda
    P_avg = (e_bar_TE - e_bar_TM) / (e_bar_TE + e_bar_TM)

with chi the flat passband of the filter and E the Planck spectral
emittance.  P itself comes from ``scattering.polarization_of``.

E has one formula, in log space on the array of quadrature wavelengths:

    log E = log(2 pi h c^2) - 5 log(lambda) - x - log(1 - exp(-x)),
    x = (hc / kB / T) / lambda,

which stays finite deep in the Wien tail, where E itself underflows;
``planck_radiance`` is its exp.  The normalization of the weight cancels
in P, so each node's weight is w_i exp(log E_i - max log E): scaled to the
band's peak, the weights never all underflow, and P is defined wherever
the emissivities are.  e_bar keeps its units (the scaled sums times
exp(max log E)) and may underflow to 0 where E does, e.g. over 1-2 nm
at 300 K.

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
QUADRATURE_TOLERANCE raises ConvergenceError.  Each rule is built once
per node count (``gauss_legendre``) and shared, read-only, by later bands;
a band is array arithmetic over its nodes, and only the emissivities are
evaluated node by node, by ``wire_emissivities``: the one path from a
wavelength to the partial-wave kernel, which the CLI's single-wavelength
rows take too.  Node sums are reduced with math.fsum, which
rounds the exact sum once.
"""

from __future__ import annotations

import functools
import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, RangeError
from .materials import (SPEED_OF_LIGHT, DrudePermittivityModel, permittivity,
                        refraction_index)
from .scattering import PolarizedEmissivity, emissivity_pair, polarization_of

# Largest accepted |P(nodes) - P(2 * nodes)| of a band average.
QUADRATURE_TOLERANCE = 1e-6
# Most Gauss-Legendre nodes of a band average's primary rule: the rule
# costs an n x n eigenproblem, and its check rule has 2 * MAX_NODES.
MAX_NODES = 1024


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
    """A band average of one wire.

    e_te_bar and e_tm_bar are the Planck-weighted integrals of the
    emissivity sums over the band, in W m^-3 * micron (the emittance times
    the sum, per wavelength interval); either may underflow to 0.0 where
    the emittance itself does (deep Wien tail), while p_avg, taken from the
    integrals scaled to the band's peak weight, stays defined.
    est_quadrature_error is |P(nodes) - P(2 * nodes)|.
    """
    p_avg: float
    e_te_bar: float
    e_tm_bar: float
    quadrature_nodes: int
    est_quadrature_error: float


# SI constants, exact since 2019 (c is in materials)
PLANCK_CONSTANT = 6.62607015e-34               # J s
BOLTZMANN_CONSTANT = 1.380649e-23              # J K^-1
# log(2 pi h c^2) with lambda in micron, so that E comes out in W m^-3;
# and the second radiation constant hc/kB in micron kelvin
_LOG_2PI_HC2 = math.log(2.0 * math.pi * PLANCK_CONSTANT * SPEED_OF_LIGHT ** 2 / 1e-30)
_HC_OVER_KB = PLANCK_CONSTANT * SPEED_OF_LIGHT / BOLTZMANN_CONSTANT * 1e6
# the largest log E whose exp is finite
_LOG_MAX = math.log(sys.float_info.max)


def _log_emittance(lam_um, temperature_k):
    # x = (hc/kB/T)/lambda: no T * lambda product to overflow; x is inf
    # only where E is below the double range, and log E is then -inf.
    # Below 1e-300, where x may underflow, log(1 - exp(-x)) is log x to
    # the last digit, formed from its factors
    log_lam = np.log(lam_um)
    with np.errstate(over="ignore"):
        x = _HC_OVER_KB / temperature_k / lam_um
    log_1mexp = np.where(x < 1e-300,
                         math.log(_HC_OVER_KB / temperature_k) - log_lam,
                         np.log(-np.expm1(-np.maximum(x, 1e-300))))
    return _LOG_2PI_HC2 - 5.0 * log_lam - x - log_1mexp


def planck_radiance(wavelength_um: float, temperature_k: float) -> float:
    """Planck spectral emittance 2 pi h c^2 / lambda^5 / (exp(hc/(lambda kB T)) - 1)
    in W m^-3 (power per emitting area per wavelength)."""
    if not (0 < wavelength_um < math.inf and 0 < temperature_k < math.inf):
        raise DomainError("wavelength and temperature must be finite and > 0, "
                          f"got {wavelength_um}, {temperature_k}")
    log_e = _log_emittance(wavelength_um, temperature_k)
    if not log_e <= _LOG_MAX:
        raise RangeError(f"Planck emittance beyond the double range at {wavelength_um} um, "
                         f"{temperature_k} K")
    return float(np.exp(log_e))


def check_nodes(nodes, least: int) -> None:
    """DomainError unless ``nodes`` is an integer from ``least`` to MAX_NODES
    (numpy's integers pass; a bool does not)."""
    if not (isinstance(nodes, numbers.Integral) and not isinstance(nodes, bool)
            and least <= nodes <= MAX_NODES):
        raise DomainError(f"quadrature needs a node count from {least} to {MAX_NODES}, "
                          f"got {nodes!r}")


@functools.lru_cache(maxsize=8)
def gauss_legendre(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of ``leggauss(nodes)``, built once, read-only; callers
    check ``nodes`` (``check_nodes``)."""
    xg, wg = np.polynomial.legendre.leggauss(nodes)
    xg.flags.writeable = wg.flags.writeable = False
    return xg, wg


def wire_emissivities(a_um: float, model: DrudePermittivityModel,
                      wavelengths_um) -> list[PolarizedEmissivity]:
    """``emissivity_pair`` of a wire of radius ``a_um`` at each vacuum
    wavelength (micron) of ``wavelengths_um``, with n from ``model``: the
    one path from a wavelength to the kernel's (k, n), for the band's
    nodes and for a single wavelength alike."""
    return [emissivity_pair(2.0 * math.pi / lam, a_um,
                            refraction_index(permittivity(model, lam)))
            for lam in wavelengths_um]


def _band_integrals(temperature_k, band, nodes, emissivity_fn):
    """The two emissivity integrals over the band with the Planck weight
    divided by its largest node value, and the log of that value."""
    xg, wg = gauss_legendre(nodes)
    half = 0.5 * (band.lambda_hi_um - band.lambda_lo_um)
    lam = band.lambda_lo_um + (xg + 1.0) * half
    # the hook first: a band out of the kernel's range fails there
    e_te, e_tm = emissivity_fn(lam)
    log_e = _log_emittance(lam, temperature_k)
    peak = log_e.max()
    if peak == -math.inf:
        raise RangeError(f"Planck weight below the double range over all of {band}")
    weight = wg * half * np.exp(log_e - peak)
    return math.fsum(weight * e_te), math.fsum(weight * e_tm), peak


def band_averaged_polarization(a_um: float, temperature_k: float,
                               band: BandFilter,
                               model: DrudePermittivityModel,
                               nodes: int = 64,
                               emissivity_fn=None) -> BandAveragedResult:
    """Band-averaged linear polarization of a wire of radius ``a_um``.

    ``temperature_k`` sets the Planck weight; the optical response comes
    from ``model`` (usually, but not necessarily, at the same
    temperature).  ``emissivity_fn(lambda_um) -> (e_te, e_tm)`` may
    replace the partial-wave emissivities, mainly for testing: it takes
    the array of quadrature wavelengths and returns the emissivities at
    each, as two arrays or as scalars that broadcast.

    Raises ConvergenceError if the re-evaluation with 2 * ``nodes``
    differs from the primary result by more than QUADRATURE_TOLERANCE.
    """
    if not (0 < a_um < math.inf and 0 < temperature_k < math.inf):
        raise DomainError("radius and temperature must be finite and > 0, "
                          f"got {a_um}, {temperature_k}")
    check_nodes(nodes, 2)
    if emissivity_fn is None:
        def emissivity_fn(lam):
            return np.array([(pair.e_te, pair.e_tm)
                             for pair in wire_emissivities(a_um, model, lam.tolist())]).T
    e_te, e_tm, log_scale = _band_integrals(temperature_k, band, nodes,
                                            emissivity_fn)
    p = polarization_of(e_te, e_tm)
    p2 = polarization_of(*_band_integrals(temperature_k, band, 2 * nodes,
                                          emissivity_fn)[:2])
    est = abs(p - p2)
    if est > QUADRATURE_TOLERANCE:
        raise ConvergenceError(
            f"band quadrature error estimate {est:g} exceeds "
            f"tolerance {QUADRATURE_TOLERANCE:g}", nodes=nodes)
    scale = math.exp(log_scale) if log_scale <= _LOG_MAX else math.inf
    e_te_bar, e_tm_bar = e_te * scale, e_tm * scale
    if not (e_te_bar < math.inf and e_tm_bar < math.inf):
        raise RangeError(f"band-integrated emittance beyond the double range over {band} "
                         f"at {temperature_k} K")
    return BandAveragedResult(p_avg=p, e_te_bar=e_te_bar, e_tm_bar=e_tm_bar,
                              quadrature_nodes=nodes, est_quadrature_error=est)
