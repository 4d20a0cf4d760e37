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
(Re T ~ |T|^2), so the sum is taken in the equivalent Wronskian form,
with W = J Y' - J' Y = 2/(pi x), which needs only D_m, H_m and H'_m:

    TE:  4 [Re T_m - |T_m|^2] = -4W Im(D_m conj(n)) / |D_m H_m - n H'_m|^2
    TM:  4 [Re T_m - |T_m|^2] = -4W Im(n D_m)       / |H'_m - n D_m H_m|^2

Each term is >= 0 for Im n >= 0 (a rounding-level negative is clipped to
0) and exactly 0 for a lossless (real) n.  TE and TM are the two rows
of one array, so each step of the sum is written once.  Every sum runs
over the fixed orders 0..order_ceiling(x), as Mie codes since Wiscombe
(Appl. Opt. 19, 1505, 1980) do: D_m, H_m and H'_m come from one pass each
(``special_functions``), and ``emissivity_pair`` checks that the last
three terms lie below the machine epsilon of the sum.

All functions are pure.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DegenerateInputError, DomainError, RangeError
from .special_functions import (
    bessel_j_all_orders,
    bessel_j_log_derivative,
    hankel1_all_orders,
)

# Largest partial-wave order of any sum or amplitude; order_ceiling keeps
# the sums below it up to x ~ 49 600 (d ~ 7.9 mm at lambda = 0.5 um).
MAX_ORDER = 50_000
# Smallest size parameter of a sum (a = 0.04 nm at lambda = 2.65 um):
# below it H_m(x) at order_ceiling(x) passes the double range.
MIN_SIZE = 1e-4


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


def _check_order(m: int) -> None:
    if m > MAX_ORDER:
        raise RangeError(f"order |m|={m} exceeds ceiling {MAX_ORDER}")


def order_ceiling(x: float) -> int:
    """Highest partial-wave order of the sum at size parameter x, where the
    sum stops: Wiscombe's x + 4x^(1/3) with a wide margin.  The index n
    does not enter.  Raises RangeError below MIN_SIZE and above MAX_ORDER."""
    if not x >= MIN_SIZE:
        raise RangeError(f"size parameter x={x} below floor {MIN_SIZE}")
    if x > MAX_ORDER:    # also keeps x = inf out of the integer arithmetic
        raise RangeError(
            f"order at size parameter x={x} exceeds ceiling {MAX_ORDER}")
    m = int(math.ceil(x)) + int(math.ceil(10.0 * x ** (1.0 / 3.0))) + 20
    _check_order(m)
    return m


def _check_inputs(k: float, a: float, n: complex) -> None:
    if k <= 0 or not math.isfinite(k):
        raise DomainError(f"wavenumber k must be > 0, got {k}")
    if a <= 0 or not math.isfinite(a):
        raise DomainError(f"radius a must be > 0, got {a}")
    if complex(n).imag < 0:
        raise DomainError(f"refraction index must have Im(n) >= 0, got {n}")


def transition_amplitude(m: int, k: float, a: float,
                         n: complex) -> tuple[complex, complex]:
    """Transition amplitudes (T_m(TE), T_m(TM)) of one order.

    T_{-m} = T_m by parity, so negative orders map to |m|.  A wire with
    n = 1 is indistinguishable from vacuum and yields exactly 0.
    """
    _check_inputs(k, a, n)
    n = complex(n)
    m = abs(int(m))
    _check_order(m)
    if n == 1.0:
        return 0.0j, 0.0j
    x = k * a
    # one-element arrays: numpy's array and scalar complex arithmetic
    # may round differently
    d = bessel_j_log_derivative(n * x, m)[m:]
    j, jp = (c[m:] for c in bessel_j_all_orders(m, x))
    h, hp = (c[m:] for c in hankel1_all_orders(m, x))
    # the Hankel block is nan where H_m(x) overflows; there J_m(x) and
    # J'_m(x) have underflowed, and |T_m| <~ |J_m / H_m| < 1e-600 is 0
    if not (np.isfinite(h[0]) and np.isfinite(hp[0])):
        return 0.0j, 0.0j
    t_te = (d * j - n * jp) / (d * h - n * hp)
    t_tm = (jp - n * d * j) / (hp - n * d * h)
    if not (np.isfinite(t_te[0]) and np.isfinite(t_tm[0])):
        raise ConvergenceError("transition amplitude is not finite",
                               order=m, ka=x, nka=n * x)
    return complex(t_te[0]), complex(t_tm[0])


def _emissivity_terms(k: float, a: float, n: complex) -> np.ndarray:
    """Per-order emissivity terms 4(Re T - |T|^2) for both polarizations,
    in the Wronskian form of the module docstring, as the rows TE and TM
    of one (2, M+1) array over m = 0..M, M = order_ceiling(x).  D_m(nx)
    and H_m(x) come in one pass each, both over m = 0..M.
    """
    x = k * a
    n = complex(n)
    m_max = order_ceiling(x)
    d = bessel_j_log_derivative(n * x, m_max)
    h, hp = hankel1_all_orders(m_max, x)
    w4 = 8.0 / (math.pi * x)            # 4W, W = J Y' - J' Y = 2 / (pi x)
    nd = n * d
    den = np.array((d * h - n * hp, hp - nd * h))
    # >= 0 in exact arithmetic for Im n >= 0; rounding in D_m can give a
    # term far below the sum's resolution the wrong sign, so clip
    terms = np.maximum(-w4 * np.array(((d * n.conjugate()).imag, nd.imag))
                       / (den.real ** 2 + den.imag ** 2), 0.0)
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
    """P = (e_TE - e_TM) / (e_TE + e_TM), for one wavelength or for
    band-averaged emissivities alike.

    Raises DegenerateInputError unless e_TE + e_TM > 0: a vacuum wire
    emits nothing, and P is then undefined.
    """
    total = e_te + e_tm
    if not total > 0:
        raise DegenerateInputError(
            "both emissivities vanish (vacuum wire?); polarization undefined")
    return (e_te - e_tm) / total


def linear_polarization(k: float, a: float, n: complex) -> float:
    """P = (e_TE - e_TM) / (e_TE + e_TM) at a single wavenumber."""
    pair = emissivity_pair(k, a, n)
    return polarization_of(pair.e_te, pair.e_tm)
