"""Cylinder Bessel and Hankel functions for the scattering code.

Only integer orders m >= 0 are needed.  J_m and the Hankel functions of
the first kind are evaluated in blocks of orders at the real positive
exterior argument x = k*a, backed by the AMOS routines that
scipy.special wraps.  At the complex interior argument n*k*a only the
logarithmic derivative D_m = J'_m / J_m is computed, by a recurrence
that stays O(1) where J_m(n*k*a) itself overflows at large |Im(n*k*a)|.

Derivatives are never asked of AMOS: they follow from the order
recurrence C'_m = (C_{m-1} - C_{m+1}) / 2, so the block functions make
one AMOS call over orders m_min-1..m_max+1 and difference the result.

How many orders a sum needs is not decided here: ``scattering`` sizes
every request.  All functions are pure and thread-safe.
"""

from __future__ import annotations

import numpy as np
from scipy import special as _sp

from .errors import DomainError


def _all_orders(func, name: str, m_max: int, x: float,
                m_min: int) -> tuple[np.ndarray, np.ndarray]:
    # C_m and C'_m for m = m_min..m_max from one call of func over orders
    # m_min-1..m_max+1 and the recurrence C'_m = (C_{m-1} - C_{m+1}) / 2
    if x <= 0.0 or not np.isfinite(x):
        raise DomainError(f"{name}: need x > 0, got {x}")
    c = func(np.arange(m_min - 1, m_max + 2), x)
    return c[1:-1], 0.5 * (c[:-2] - c[2:])


def bessel_j_all_orders(m_max: int, x: float,
                        m_min: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """J_m(x) and J'_m(x) for m = m_min..m_max at real x > 0, as arrays.

    One jv call over orders m_min-1..m_max+1; the derivatives follow
    from the order recurrence J'_m = (J_{m-1} - J_{m+1}) / 2.
    """
    return _all_orders(_sp.jv, "bessel_j_all_orders", m_max, x, m_min)


def hankel1_all_orders(m_max: int, x: float,
                       m_min: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """H^(1)_m(x) and H^(1)'_m(x) for m = m_min..m_max at real x > 0.

    One hankel1 call over orders m_min-1..m_max+1; the derivatives follow
    from H'_m = (H_{m-1} - H_{m+1}) / 2.
    """
    return _all_orders(_sp.hankel1, "hankel1_all_orders", m_max, x, m_min)


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
