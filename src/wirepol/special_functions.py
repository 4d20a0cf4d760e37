"""Cylinder Bessel and Hankel functions for the scattering code.

Only integer orders are needed.  J_m must accept complex argument (the
interior argument n*k*a is complex for an absorbing wire), while the
Hankel functions of the first kind are only ever evaluated at real
positive argument k*a.  Everything is backed by the AMOS routines that
scipy.special wraps; this module adds the domain guards, the negative
order symmetry mapping and the logarithmic derivative needed to evaluate
partial-wave amplitudes without overflowing at large |Im(n*k*a)|.

Derivatives are never asked of AMOS: they follow from the order
recurrence C'_m = (C_{m-1} - C_{m+1}) / 2, so the block functions make
one AMOS call over orders m_min-1..m_max+1 and difference the result.

All functions are pure and thread-safe.
"""

from __future__ import annotations

import numpy as np
from scipy import special as _sp

from .errors import DomainError, RangeError

# Largest supported order.  Partial-wave sums for the geometries of
# interest truncate near m ~ k*a, so this is far above any physical need.
ORDER_CEILING = 50_000

# exp(|Im z|) overflows double precision near 709; reject explicitly
# rather than returning Inf.
IMAG_GUARD = 700.0


def _check_order(order: int) -> int:
    order = int(order)
    if abs(order) > ORDER_CEILING:
        raise RangeError(f"order |m|={abs(order)} exceeds ceiling {ORDER_CEILING}")
    return order


def bessel_j(order: int, z: complex) -> complex:
    """Bessel function of the first kind J_m(z) for complex z.

    Negative orders are mapped through J_{-m}(z) = (-1)^m J_m(z), so the
    symmetry is exact by construction.

    Raises RangeError when |Im z| exceeds the overflow guard or the
    result is not finite, DomainError for non-finite input.
    """
    order = _check_order(order)
    z = complex(z)
    if not (np.isfinite(z.real) and np.isfinite(z.imag)):
        raise DomainError("bessel_j: non-finite argument")
    if abs(z.imag) > IMAG_GUARD:
        raise RangeError(
            f"bessel_j: |Im z| = {abs(z.imag):g} exceeds overflow guard {IMAG_GUARD:g}")
    sign = -1.0 if (order < 0 and order % 2) else 1.0
    value = sign * complex(_sp.jv(abs(order), z))
    if not (np.isfinite(value.real) and np.isfinite(value.imag)):
        raise RangeError(f"bessel_j: overflow at m={order}, z={z}")
    return value


def bessel_j_derivative(order: int, z: complex) -> complex:
    """J'_m(z) via the recurrence J'_m = (J_{m-1} - J_{m+1}) / 2."""
    order = _check_order(order)
    return 0.5 * (bessel_j(order - 1, z) - bessel_j(order + 1, z))


def hankel1(order: int, x: float) -> complex:
    """Hankel function of the first kind H^(1)_m(x) = J_m(x) + i Y_m(x).

    Only defined for real x > 0 (Y_m is singular at the origin).
    """
    order = _check_order(order)
    x = float(x)
    if not np.isfinite(x):
        raise DomainError("hankel1: non-finite argument")
    if x <= 0.0:
        raise DomainError(f"hankel1: argument must be > 0, got {x}")
    sign = -1.0 if (order < 0 and order % 2) else 1.0
    value = sign * complex(_sp.hankel1(abs(order), x))
    if not (np.isfinite(value.real) and np.isfinite(value.imag)):
        raise RangeError(f"hankel1: overflow at m={order}, x={x}")
    return value


def hankel1_derivative(order: int, x: float) -> complex:
    """H^(1)'_m(x) via (H_{m-1} - H_{m+1}) / 2."""
    order = _check_order(order)
    return 0.5 * (hankel1(order - 1, x) - hankel1(order + 1, x))


def bessel_j_all_orders(m_max: int, x: float,
                        m_min: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """J_m(x) and J'_m(x) for m = m_min..m_max at real x > 0, as arrays.

    One jv call over orders m_min-1..m_max+1; the derivatives follow
    from the order recurrence J'_m = (J_{m-1} - J_{m+1}) / 2.
    """
    if x <= 0.0 or not np.isfinite(x):
        raise DomainError(f"bessel_j_all_orders: need x > 0, got {x}")
    _check_order(m_max)
    j = _sp.jv(np.arange(m_min - 1, m_max + 2), x)
    return j[1:-1], 0.5 * (j[:-2] - j[2:])


def hankel1_all_orders(m_max: int, x: float,
                       m_min: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """H^(1)_m(x) and H^(1)'_m(x) for m = m_min..m_max at real x > 0.

    One hankel1 call over orders m_min-1..m_max+1; the derivatives follow
    from H'_m = (H_{m-1} - H_{m+1}) / 2.
    """
    if x <= 0.0 or not np.isfinite(x):
        raise DomainError(f"hankel1_all_orders: need x > 0, got {x}")
    _check_order(m_max)
    h = _sp.hankel1(np.arange(m_min - 1, m_max + 2), x)
    return h[1:-1], 0.5 * (h[:-2] - h[2:])


def bessel_j_log_derivative(z: complex, m_max: int) -> np.ndarray:
    """Logarithmic derivatives D_m(z) = J'_m(z) / J_m(z) for m = 0..m_max.

    Computed by downward recurrence

        D_{m-1} = (m - 1)/z - 1 / (D_m + m/z),

    started well above max(m_max, |z|), which is stable for the decaying
    solution.  The ratio stays O(1) even when J_m(z) itself would
    overflow (|Im z| large), which is exactly why the scattering code
    works with D rather than with J_m(n*k*a) directly.
    """
    _check_order(m_max)
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
