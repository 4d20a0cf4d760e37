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
The band average in ``spectral`` weights by this sum, not by Q_abs;
which of the two weights is intended is an open question (CHANGES.md).

Re(T) - |T|^2 cancels where a partial wave is barely absorbed
(Re T ~ |T|^2), so the sum is taken in the equivalent Wronskian form,
with W = J Y' - J' Y = 2/(pi x), which needs only D_m, H_m and H'_m:

    TE:  4 [Re T_m - |T_m|^2] = -4W Im(D_m conj(n)) / |D_m H_m - n H'_m|^2
    TM:  4 [Re T_m - |T_m|^2] = -4W Im(n D_m)       / |H'_m - n D_m H_m|^2

Each term is >= 0 for Im n >= 0 (a rounding-level negative is clipped to
0) and exactly 0 for a lossless (real) n.  H'_m comes from the order
recurrence (``special_functions``): one AMOS call per block of orders.

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

DEFAULT_TOL = 1e-10

# Largest partial-wave order of any sum or amplitude; order_ceiling keeps
# the sums below it up to x ~ 49 600 (d ~ 7.9 mm at lambda = 0.5 um).
MAX_ORDER = 50_000


@dataclass(frozen=True)
class PolarizedEmissivity:
    """Emissivity sums e = 4 sum_m (Re T_m - |T_m|^2) = 2x * Q_abs (x = ka)
    for both polarizations; divide by 2x for Q_abs.

    truncation_error_estimate is relative to the emissivity magnitude and
    is bounded by the tolerance the sum was requested with.
    """
    e_te: float
    e_tm: float
    terms_used: int
    truncation_error_estimate: float


def _check_order(m: int) -> None:
    if m > MAX_ORDER:
        raise RangeError(f"order |m|={m} exceeds ceiling {MAX_ORDER}")


def order_ceiling(x: float) -> int:
    """Hard ceiling on the partial-wave order of the sum at size parameter
    x: Wiscombe's x + 4x^(1/3), where the sum stops, with a wide margin.
    The index n does not enter; |nx| sets only where the D recurrence
    starts.  Raises RangeError above MAX_ORDER."""
    m = max(int(math.ceil(x)) + int(math.ceil(10.0 * x ** (1.0 / 3.0))) + 20, 5)
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
    try:
        # one-element arrays: numpy's array and scalar complex arithmetic
        # may round differently
        d = bessel_j_log_derivative(n * x, m)[m:]
        j, jp = bessel_j_all_orders(m, x, m)
        h, hp = hankel1_all_orders(m, x, m)
        t_te = (d * j - n * jp) / (d * h - n * hp)
        t_tm = (jp - n * d * j) / (hp - n * d * h)
    except (OverflowError, FloatingPointError) as exc:
        raise ConvergenceError(f"transition amplitude failed: {exc}",
                               order=m, ka=x, nka=n * x) from exc
    if not (np.isfinite(t_te[0]) and np.isfinite(t_tm[0])):
        raise ConvergenceError("transition amplitude is not finite",
                               order=m, ka=x, nka=n * x)
    return complex(t_te[0]), complex(t_tm[0])


def _emissivity_terms(k: float, a: float, n: complex,
                      tol: float) -> tuple[np.ndarray, np.ndarray, float]:
    """Per-order emissivity terms 4(Re T - |T|^2) for both polarizations,
    in the Wronskian form of the module docstring, truncated adaptively.

    Returns (terms_te, terms_tm, relative_truncation_estimate) where the
    arrays run over m = 0..M.  Truncation: stop once three consecutive
    orders have both polarization terms below tol * (|partial| + 1e-300).
    The Hankel functions come in blocks: the first ends at Wiscombe's
    bound x + 4x^(1/3) plus a margin of 8, which the sum rarely passes;
    only while the rule has not fired is a block of 4x^(1/3) + 8 more
    orders added, and the rule is applied again to orders 0..m_hi.
    """
    x = k * a
    n = complex(n)
    m_ceil = order_ceiling(x)
    d = bessel_j_log_derivative(n * x, m_ceil)
    w4 = 8.0 / (math.pi * x)            # 4W, W = J Y' - J' Y = 2 / (pi x)
    airy = 4.0 * x ** (1.0 / 3.0)
    h = hp = np.empty(0, dtype=complex)
    m_lo, m_hi = 0, int(x + airy) + 8
    while True:
        m_hi = min(m_hi, m_ceil)
        h_blk, hp_blk = hankel1_all_orders(m_hi, x, m_lo)
        h, hp = np.concatenate((h, h_blk)), np.concatenate((hp, hp_blk))
        db = d[:m_hi + 1]
        den_te = db * h - n * hp
        den_tm = hp - n * db * h
        # >= 0 in exact arithmetic for Im n >= 0; rounding in D_m can give
        # a term far below the sum's resolution the wrong sign, so clip
        terms_te = np.maximum(-w4 * (db * n.conjugate()).imag
                              / (den_te.real ** 2 + den_te.imag ** 2), 0.0)
        terms_tm = np.maximum(-w4 * (n * db).imag
                              / (den_tm.real ** 2 + den_tm.imag ** 2), 0.0)
        finite = np.isfinite(terms_te) & np.isfinite(terms_tm)
        if not finite.all():
            raise ConvergenceError("non-finite partial-wave term",
                                   order=int(np.argmax(~finite)), ka=x, nka=n * x)
        # np.cumsum adds in order, as a running += over the terms would;
        # terms and partial sums are >= 0, so |.| of the rule is the value
        weight = np.full(m_hi + 1, 2.0)
        weight[0] = 1.0
        total = np.cumsum(weight * terms_te) + np.cumsum(weight * terms_tm) + 1e-300
        scale = tol * total
        small = (terms_te < scale) & (terms_tm < scale)
        hits = np.flatnonzero(small[:-2] & small[1:-1] & small[2:])
        if hits.size:
            m = hits[0] + 2
            tail = max(terms_te[m - 2:m + 1].max(), terms_tm[m - 2:m + 1].max())
            est = float(tail / total[m])
            return terms_te[:m + 1], terms_tm[:m + 1], est
        if m_hi == m_ceil:
            raise ConvergenceError(
                f"partial-wave sum did not converge within m_max = {m_ceil}",
                order=m_ceil, ka=x, nka=n * x)
        m_lo, m_hi = m_hi + 1, m_hi + int(airy) + 8


def _fold(terms: np.ndarray) -> float:
    # math.fsum rounds the exact sum once, so the result does not depend
    # on the order or grouping of the terms
    return math.fsum([terms[0], *(2.0 * terms[1:])])


def emissivity_pair(k: float, a: float, n: complex,
                    tol: float = DEFAULT_TOL) -> PolarizedEmissivity:
    """Both polarized emissivity sums e = 4 sum_m (Re T_m - |T_m|^2) at
    wavenumber k (inverse micron) for a wire of radius a (micron) and
    refraction index n.

    Each sum is 2x * Q_abs with x = ka, not the absorption efficiency
    Q_abs itself.  The band average weights by these sums; whether it
    should weight by Q_abs is an open question (CHANGES.md).
    """
    if not sys.float_info.epsilon <= tol < 1.0:
        raise DomainError(
            f"tolerance must be in [{sys.float_info.epsilon!r}, 1), got {tol}")
    _check_inputs(k, a, n)
    terms_te, terms_tm, est = _emissivity_terms(k, a, n, tol)
    return PolarizedEmissivity(_fold(terms_te), _fold(terms_tm),
                               len(terms_te), est)


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


def linear_polarization(k: float, a: float, n: complex,
                        tol: float = DEFAULT_TOL) -> float:
    """P = (e_TE - e_TM) / (e_TE + e_TM) at a single wavenumber."""
    pair = emissivity_pair(k, a, n, tol)
    return polarization_of(pair.e_te, pair.e_tm)
