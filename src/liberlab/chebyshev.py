"""Chebyshev transforms on Gauss-Chebyshev angle grids.

Everything in this module works in angle order: the j-th node of an
m-point rule is theta_j = (2j+1)*pi/(2m), so u_j = cos(theta_j) runs
from near +1 down to near -1.  Callers that want increasing-x arrays
flip on the way in and on the way out.

The identities used downstream all reduce to cosine and sine series in
theta, which is why every routine here is a thin wrapper around a type
2 or type 3 trigonometric transform:

* values of g at the nodes  <->  coefficients of g = sum a_m T_m(u),
* node masses               ->   moments c_m = integral of T_m d(nu),
* coefficient arrays        ->   sum_m b_m sin(m theta_j) or
                                 sum_m b_m cos(m theta_j) at the nodes.
"""

from __future__ import annotations

import numpy as np
# the same kernels as scipy.fft, bit for bit, without its backend dispatch
from scipy.fftpack import dct, dst

__all__ = [
    "gc_angles",
    "coeffs_from_values",
    "values_from_coeffs",
    "moments_from_masses",
    "cosine_series_at_angles",
    "sine_series_at_angles",
]


def gc_angles(m: int) -> np.ndarray:
    """Angles theta_j = (2j+1)*pi/(2m) of the m-point Gauss-Chebyshev rule."""
    if m < 1:
        raise ValueError("need at least one node")
    return (np.arange(m) + 0.5) * (np.pi / m)


def coeffs_from_values(values: np.ndarray) -> np.ndarray:
    """Chebyshev coefficients a_m of g from samples g(cos theta_j).

    The returned array satisfies g(u) = sum_{m<M} a_m T_m(u) exactly at
    the nodes (it is the coefficient vector of the degree M-1
    interpolant through the samples).
    """
    values = np.asarray(values, dtype=float)
    m = values.shape[-1]
    out = dct(values, type=2, axis=-1) / m
    out[..., 0] *= 0.5
    return out


def values_from_coeffs(coeffs: np.ndarray) -> np.ndarray:
    """Evaluate g = sum a_m T_m at the nodes cos(theta_j), j < len(coeffs)."""
    x = np.array(coeffs, dtype=float)
    x[..., 1:] *= 0.5
    return dct(x, type=3, axis=-1)


def moments_from_masses(masses: np.ndarray) -> np.ndarray:
    """Chebyshev moments c_m = sum_j masses_j * cos(m * theta_j), m < M.

    If masses_j is the mass a measure assigns to the node u_j, the
    result is its vector of T_m moments, with c_0 the total mass.
    """
    masses = np.asarray(masses, dtype=float)
    return dct(masses, type=2, axis=-1) / 2.0


def cosine_series_at_angles(coeffs_from_1: np.ndarray, m_angles: int) -> np.ndarray:
    """Evaluate sum_{m>=1} coeffs_from_1[m-1] * cos(m*theta_j) at m_angles nodes."""
    c = np.asarray(coeffs_from_1, dtype=float)
    if c.shape[-1] > m_angles - 1:
        raise ValueError("too many coefficients for the requested node count")
    x = np.zeros(c.shape[:-1] + (m_angles,))
    x[..., 1 : 1 + c.shape[-1]] = 0.5 * c
    return dct(x, type=3, axis=-1)


def sine_series_at_angles(coeffs_from_1: np.ndarray, m_angles: int) -> np.ndarray:
    """Evaluate sum_{m>=1} coeffs_from_1[m-1] * sin(m*theta_j) at m_angles nodes."""
    c = np.asarray(coeffs_from_1, dtype=float)
    if c.shape[-1] > m_angles - 1:
        raise ValueError("too many coefficients for the requested node count")
    x = np.zeros(c.shape[:-1] + (m_angles,))
    x[..., : c.shape[-1]] = 0.5 * c
    return dst(x, type=3, axis=-1)
