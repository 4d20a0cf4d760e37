"""Cylinder Bessel and Hankel functions for the scattering code.

Only integer orders m >= 0 are needed, in blocks 0..m_max at the real
exterior argument x = k*a.  J_m comes from one call of the AMOS routines
that scipy.special wraps; H^(1)_m from AMOS at orders 0 and 1 and the
upward order recurrence, which is neutral for m < x and follows the
dominant Y_m past m ~ x (for J alone it would be unstable there).  The
derivatives follow from C'_m = (C_{m-1} - C_{m+1}) / 2 over orders
-1..m_max+1.  At the complex interior argument n*k*a only D_m = J'_m / J_m
is computed, by a recurrence that stays O(1) where J_m(n*k*a) overflows.

How many orders a sum needs is not decided here: ``scattering`` sizes
every request.  All functions are pure and thread-safe.
"""

from __future__ import annotations

import numpy as np
from scipy import special as _sp

from .errors import DomainError


def bessel_j_all_orders(m_max: int, x: float) -> tuple[np.ndarray, np.ndarray]:
    """J_m(x) and J'_m(x) for m = 0..m_max at real x > 0, as arrays.

    One jv call over orders -1..m_max+1; the derivatives follow from the
    order recurrence J'_m = (J_{m-1} - J_{m+1}) / 2.
    """
    if x <= 0.0 or not np.isfinite(x):
        raise DomainError(f"bessel_j_all_orders: need x > 0, got {x}")
    c = _sp.jv(np.arange(-1, m_max + 2), x)
    return c[1:-1], 0.5 * (c[:-2] - c[2:])


def hankel1_all_orders(m_max: int, x: float) -> tuple[np.ndarray, np.ndarray]:
    """H^(1)_m(x) and H^(1)'_m(x) for m = 0..m_max at real x > 0.

    One hankel1 call at orders 0 and 1, then H_{m+1} = (2m/x) H_m - H_{m-1}
    (Abramowitz & Stegun 9.1.27) from H_{-1} = -H_1, so H'_0 = -H_1 exactly;
    H'_m = (H_{m-1} - H_{m+1}) / 2; nan from the first order that overflows.
    """
    x = float(x)    # numpy scalars would make each step slower and warn
    if x <= 0.0 or not np.isfinite(x):
        raise DomainError(f"hankel1_all_orders: need x > 0, got {x}")
    prev, h = _sp.hankel1((0, 1), x).tolist()
    c = [-h, prev, h]
    for m in range(1, m_max + 1):    # Python complex: cheaper than numpy's
        prev, h = h, 2.0 * m / x * h - prev
        c.append(h)
    c = np.array(c)
    if not np.isfinite(h):    # once inf or nan, H stays so at higher orders
        c[np.logical_or.accumulate(~np.isfinite(c))] = np.nan
    return c[1:-1], 0.5 * (c[:-2] - c[2:])


def bessel_j_log_derivative(z: complex, m_max: int) -> np.ndarray:
    """Logarithmic derivatives D_m(z) = J'_m(z) / J_m(z) for m = 0..m_max.

    Computed by downward recurrence

        D_{m-1} = (m - 1)/z - 1 / (D_m + m/z),

    started well above max(m_max, |z|), which is stable for the decaying
    solution.  The ratio stays O(1) even when J_m(z) itself would
    overflow (|Im z| large), which is exactly why the scattering code
    works with D rather than with J_m(n*k*a) directly.
    """
    z = complex(z)
    if z == 0:
        raise DomainError("bessel_j_log_derivative: z must be nonzero")
    if not (np.isfinite(z.real) and np.isfinite(z.imag)):
        raise DomainError("bessel_j_log_derivative: non-finite argument")
    n_start = max(m_max, int(abs(z))) + 16
    # values[i] is D_{n_start-1-i}; a list append is cheaper per step
    # than numpy item assignment
    values = []
    d = 0.0 + 0.0j
    for m in range(n_start, 0, -1):
        d = (m - 1) / z - 1.0 / (d + m / z)
        values.append(d)
    return np.array(values[:-m_max - 2:-1])
