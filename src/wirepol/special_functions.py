"""Cylinder Bessel and Hankel functions for the scattering code.

Only integer orders m >= 0 are needed, in blocks 0..m_max at the real
exterior argument x = k*a.  J_m comes from one call of the AMOS routines
that scipy.special wraps; H^(1)_m from AMOS at orders 0 and 1 and the
upward order recurrence, which is neutral for m < x and follows the
dominant Y_m past m ~ x (for J alone it would be unstable there).  The
derivatives follow from C'_m = (C_{m-1} - C_{m+1}) / 2 over orders
-1..m_max+1.  At the complex interior argument n*k*a only D_m = J'_m / J_m
is computed, by a downward recurrence from order m_max + 1, seeded there
by a continued fraction; it stays O(1) where J_m(n*k*a) overflows.

How many orders a sum needs is not decided here: ``scattering`` sizes
every request.  All functions are pure and thread-safe.
"""

from __future__ import annotations

import cmath
import math
import sys

import numpy as np
from scipy import special as _sp

from .errors import ConvergenceError, DomainError


def bessel_j_all_orders(m_max: int, x: float) -> tuple[np.ndarray, np.ndarray]:
    """J_m(x) and J'_m(x) for m = 0..m_max at real x > 0, as arrays.

    One jv call over orders -1..m_max+1; the derivatives follow from the
    order recurrence J'_m = (J_{m-1} - J_{m+1}) / 2.
    """
    if x <= 0.0 or not np.isfinite(x):
        raise DomainError(f"bessel_j_all_orders: need x > 0, got {x}")
    c = _sp.jv(np.arange(-1, m_max + 2), x)
    return c[1:-1], 0.5 * (c[:-2] - c[2:])


# orders 0 and 1 of hankel1_all_orders' AMOS call, built once as floats
_ORDERS_0_1 = np.array([0.0, 1.0])


def hankel1_all_orders(m_max: int, x: float) -> tuple[np.ndarray, np.ndarray]:
    """H^(1)_m(x) and H^(1)'_m(x) for m = 0..m_max at real x > 0.

    One hankel1 call at orders 0 and 1, then H_{m+1} = (2m/x) H_m - H_{m-1}
    (Abramowitz & Stegun 9.1.27) from H_{-1} = -H_1, so H'_0 = -H_1 exactly;
    H'_m = (H_{m-1} - H_{m+1}) / 2; nan from the first order that overflows.
    """
    x = float(x)    # numpy scalars would make each step slower and warn
    if x <= 0.0 or not math.isfinite(x):
        raise DomainError(f"hankel1_all_orders: need x > 0, got {x}")
    prev, h = _sp.hankel1(_ORDERS_0_1, x).tolist()
    c = [-h, prev, h]
    for m in range(1, m_max + 1):    # Python complex: cheaper than numpy's
        prev, h = h, 2.0 * m / x * h - prev
        c.append(h)
    c = np.array(c)
    if not cmath.isfinite(h):    # once inf or nan, H stays so at higher orders
        c[np.logical_or.accumulate(~np.isfinite(c))] = np.nan
    return c[1:-1], 0.5 * (c[:-2] - c[2:])


def bessel_j_log_derivative(z: complex, m_max: int) -> np.ndarray:
    """Logarithmic derivatives D_m(z) = J'_m(z) / J_m(z) for m = 0..m_max.

    r_k = J_{k-1}(z) / J_k(z) at k = m_max + 1 is the continued fraction
    r_k = 2k/z - 1 / r_{k+1}, summed by modified Lentz (Appl. Opt. 15, 668,
    1976) to machine precision; it converges once k passes |z|, and raises
    ConvergenceError if it has not well beyond.  From D_k = r_k - k/z the
    recurrence D_{m-1} = (m - 1)/z - 1 / (D_m + m/z), stable downward,
    runs k steps to D_0.  The ratio stays O(1) even when J_m(z) itself
    would overflow (|Im z| large), which is exactly why the scattering
    code works with D rather than with J_m(n*k*a) directly.
    """
    z = complex(z)
    if z == 0:
        raise DomainError("bessel_j_log_derivative: z must be nonzero")
    if not cmath.isfinite(z):
        raise DomainError("bessel_j_log_derivative: non-finite argument")
    zi = 1.0 / z    # plain Python complex: each step multiplies
    top = m_max + 1
    r = c = 2 * top * zi
    d = 0j
    # at real z it ends near k = |z| + 7.3 |z|^(1/3); allow twice that
    for k in range(top + 1, int(max(top, abs(z)) + 16 * abs(z) ** (1 / 3)) + 64):
        b = 2 * k * zi
        d = 1.0 / ((b - d) or 1e-300)
        c = (b - 1.0 / c) or 1e-300
        delta = c * d
        r *= delta
        if abs(delta - 1.0) < sys.float_info.epsilon:
            break
    else:
        raise ConvergenceError("continued fraction for J_m / J_(m+1) did not converge",
                               order=m_max, nka=z)
    d = r - top * zi
    # a list append is cheaper per step than numpy item assignment
    values = []
    for m in range(top, 0, -1):
        d = (m - 1) * zi - 1.0 / (d + m * zi)
        values.append(d)
    return np.array(values[::-1])
