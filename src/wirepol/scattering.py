"""Partial-wave scattering by an infinite homogeneous cylinder at normal
incidence, and the per-wavelength emission quantities that follow from it
via Kirchhoff's law.

For a wire of radius a, size parameter x = k*a and complex refraction
index n, the transition amplitudes of angular momentum m are

    T_m(TE) = [J'_m(nx) J_m(x) - n J'_m(x) J_m(nx)]
              / [J'_m(nx) H_m(x) - n J_m(nx) H'_m(x)]

    T_m(TM) = [J_m(nx) J'_m(x) - n J'_m(nx) J_m(x)]
              / [J_m(nx) H'_m(x) - n J'_m(nx) H_m(x)]

with H = H^(1).  TE means the electric field lies in the plane
orthogonal to the wire axis, TM means it is parallel to the wire.  The
code divides numerator and denominator by J_m(nx) and works with the
logarithmic derivative D_m = J'_m/J_m, which stays O(1) where J_m(nx)
itself would overflow (thick absorbing wires).

What the code calls the per-polarization emissivity is the folded sum

    e = 4 * sum_m [Re(T_m) - |T_m|^2] = 2x * Q_abs,   T_{-m} = T_m,

that is 2x times the absorption efficiency Q_abs, which Kirchhoff's law
equates with the emissivity.  The factor 2x cancels in the linear
polarization P = (e_TE - e_TM) / (e_TE + e_TM) (``polarization_of``),
positive when the emitted field is polarized orthogonally to the wire.
The band average in ``spectral`` weights by this sum, not by Q_abs; its
docstring derives the extra 1/lambda that this carries.

Re(T) - |T|^2 cancels where a partial wave is barely absorbed
(Re T ~ |T|^2), so the sum is taken in the equivalent Wronskian form, in
xD_m = x D_m(nx) and p_m = x H'_m / H_m alone: the Wronskian J Y' - J' Y =
2/(pi x) (A&S 9.1.16) gives |H_m|^-2 = (pi/2) Im p_m, and

    TE:  4 [Re T_m - |T_m|^2] = -4 Im(xD_m conj(n)) Im p_m / |xD_m - n p_m|^2
    TM:  4 [Re T_m - |T_m|^2] = -4 Im(n xD_m)       Im p_m / |p_m - n xD_m|^2

Neither overflows for any x > 0 (H_m does from x ~ 1e-6), so the sums hold
until the emissivities (~ x^2) underflow.  Each term is >= 0 for Im n >= 0
(a rounding-level negative is clipped to 0), and a lossless (real) n gives
exactly 0 without a sum.  TE and TM are the two rows of one array, so each
step of the sum is written once.  Every sum runs over the fixed orders
0..order_ceiling(x), as Mie codes since Wiscombe (Appl. Opt. 19, 1505,
1980) do: D_m and p_m come from one pass each (``special_functions``), and
``emissivity_pair`` checks that the last three terms lie below the machine
epsilon of the sum.

All functions are pure.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DegenerateInputError, DomainError, RangeError
from .special_functions import bessel_j_log_derivative, hankel1_log_derivative

# Largest partial-wave order of any sum; order_ceiling keeps
# the sums below it up to x ~ 49 600 (d ~ 7.9 mm at lambda = 0.5 um).
MAX_ORDER = 50_000
# Smallest |n| of an absorbing wire.  Below it n xD_m ~ m cancels in its
# imaginary part, and the emissivities' relative error grows as eps/|n|^2:
# 2.7e-13 at |n| = 0.03 over x in [1e-3, 1e3], 1.6e-9 at 1.4e-4.
MIN_INDEX_MODULUS = 0.03


@dataclass(frozen=True)
class PolarizedEmissivity:
    """Emissivity sums e = 4 sum_m (Re T_m - |T_m|^2) = 2x * Q_abs (x = ka)
    for both polarizations; divide by 2x for Q_abs.

    terms_used is order_ceiling(x) + 1.  truncation_error_estimate is the
    largest of the last three terms relative to e_TE + e_TM, at most the
    machine epsilon.
    """
    e_te: float
    e_tm: float
    terms_used: int
    truncation_error_estimate: float


def order_ceiling(x: float) -> int:
    """Highest partial-wave order of the sum at size parameter x, where the
    sum stops: Wiscombe's x + 4x^(1/3) with a wide margin.  The index n
    does not enter.  Raises RangeError unless 0 < x <= MAX_ORDER."""
    if not 0.0 < x <= MAX_ORDER:    # nan and k a underflowed to 0 too; no inf in int()
        beyond = ": order exceeds ceiling" if x > MAX_ORDER else ""
        raise RangeError(f"size parameter x={x} outside 0 < x <= {MAX_ORDER}{beyond}")
    m = int(math.ceil(x)) + int(math.ceil(10.0 * x ** (1.0 / 3.0))) + 20
    if m > MAX_ORDER:
        raise RangeError(f"order |m|={m} exceeds ceiling {MAX_ORDER}")
    return m


def _check_inputs(k: float, a: float, n: complex) -> None:
    if k <= 0 or not math.isfinite(k):
        raise DomainError(f"wavenumber k must be > 0, got {k}")
    if a <= 0 or not math.isfinite(a):
        raise DomainError(f"radius a must be > 0, got {a}")
    n = complex(n)
    if n.imag < 0:
        raise DomainError(f"refraction index must have Im(n) >= 0, got {n}")
    if n.imag > 0 and math.hypot(n.real, n.imag) < MIN_INDEX_MODULUS:
        raise DomainError(f"absorbing refraction index {n} has |n| < {MIN_INDEX_MODULUS}, "
                          "where the partial-wave terms lose their precision")


def _emissivity_terms(k: float, a: float, n: complex) -> np.ndarray:
    """Per-order emissivity terms 4(Re T - |T|^2) in the Wronskian form of
    the module docstring, as the rows TE and TM of one (2, M+1) array over
    m = 0..M, M = order_ceiling(x), from one pass each of D_m(nx) and p_m(x)."""
    x = k * a
    n = complex(n)
    m_max = order_ceiling(x)
    if n.imag == 0.0:    # every term is exactly 0, and D_m(nx) may have a pole
        return np.zeros((2, m_max + 1))
    xd = x * bessel_j_log_derivative(n * x, m_max)
    p = hankel1_log_derivative(m_max, x)
    nxd = n * xd
    den = np.abs(np.array((xd - n * p, p - nxd)))
    # >= 0 in exact arithmetic for Im n >= 0; rounding in D_m can give a
    # term far below the sum's resolution the wrong sign, so clip.  Each factor
    # meets |den| alone: Im(xD_m) Im p_m can underflow, |den|^2 overflow
    terms = np.maximum(-4.0 * (np.array(((xd * n.conjugate()).imag, nxd.imag)) / den)
                       * (p.imag / den), 0.0)
    if not np.isfinite(terms).all():
        finite = np.isfinite(terms).all(axis=0)
        raise ConvergenceError("non-finite partial-wave term",
                               order=int(np.argmax(~finite)), ka=x, nka=n * x)
    return terms


def emissivity_pair(k: float, a: float, n: complex) -> PolarizedEmissivity:
    """Both polarized emissivity sums e = 4 sum_m (Re T_m - |T_m|^2) at
    wavenumber k (inverse micron) for a wire of radius a (micron) and
    refraction index n.

    Each sum is 2x * Q_abs with x = ka, not the absorption efficiency
    Q_abs itself; ``spectral`` derives what that means for the band weight.
    Raises ConvergenceError if the largest of the last three terms
    exceeds the machine epsilon of the sum.
    """
    _check_inputs(k, a, n)
    terms = _emissivity_terms(k, a, n)
    # fold T_{-m} = T_m: term 0 once (halving 2 * term 0 is exact), the
    # others twice; math.fsum rounds the exact sum once, whatever the order
    e_te, e_tm = (math.fsum([0.5 * row[0], *row[1:]])
                  for row in (2.0 * terms).tolist())
    total = e_te + e_tm
    est = float(terms[:, -3:].max()) / total if total > 0 else 0.0
    if est > sys.float_info.epsilon:
        raise ConvergenceError(
            f"partial-wave tail {est:g} of the sum exceeds machine epsilon",
            order=terms.shape[1] - 1, ka=k * a, nka=complex(n) * k * a)
    return PolarizedEmissivity(e_te, e_tm, terms.shape[1], est)


def polarization_of(e_te: float, e_tm: float) -> float:
    """P = (a - b) / (a + b) of a = e_TE and b = e_TM, or of any two such
    intensities: band averages, thick-wire integrals, fitted amplitudes.

    Raises DomainError unless both are finite and >= 0 (so |P| <= 1), and
    DegenerateInputError unless a + b >= sys.float_info.min (P of a subnormal
    sum is noise).  Where a + b overflows, both are halved first, which is
    exact wherever it can change P; elsewhere P is (a - b) / (a + b) as is.
    """
    if not (0.0 <= e_te < math.inf and 0.0 <= e_tm < math.inf):
        raise DomainError(f"intensities must be finite and >= 0, got {e_te}, {e_tm}")
    if e_te + e_tm == math.inf:
        e_te, e_tm = 0.5 * e_te, 0.5 * e_tm
    total = e_te + e_tm
    if not total >= sys.float_info.min:
        raise DegenerateInputError(
            "both intensities vanish or underflow (vacuum wire, dark source, or "
            "size parameter below about 1e-154?); polarization undefined")
    return (e_te - e_tm) / total


def linear_polarization(k: float, a: float, n: complex) -> float:
    """P = (e_TE - e_TM) / (e_TE + e_TM) at a single wavenumber."""
    pair = emissivity_pair(k, a, n)
    return polarization_of(pair.e_te, pair.e_tm)
