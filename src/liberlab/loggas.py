"""Pair interaction of the beta = 2 Jacobi log-gas on (0,1).

The free eigenvalues of the two-projection model and the particles of
the liberation flow are the same gas, with pair energy
sum_{i<j} log|x_i - x_j|.  This module is the one implementation of
that sum, of its gradient (with the diagonal of its Hessian, which
bounds the flow's stiffness), of its change when one site moves,
and of the difference matrix they are built from.
The one-body edge and tilt terms stay with the callers because they
differ for a reason: the flow's velocity keeps the mobility form
c0 (1 - x) - c1 x, finite at the inner stages of a
Runge-Kutta-Chebyshev step, which may leave (0,1), where the eigenvalue
law has a log x + b log(1 - x).
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "difference_factors",
    "differences",
    "pair_energy",
    "pair_force",
    "pair_force_curvature",
    "site_energy_change",
]


def difference_factors(rows: np.ndarray, cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The factors [rows, 1] (n x 2) and [1; -cols] (2 x m) of differences.

    A caller that forms the matrix in blocks builds them once and hands
    row slices of the first and column slices of the second to np.matmul.
    """
    left = np.empty((rows.size, 2))
    left[:, 0] = rows
    left[:, 1] = 1.0
    right = np.empty((2, cols.size))
    right[0] = 1.0
    np.negative(cols, out=right[1])
    return left, right


def differences(rows: np.ndarray, cols: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """rows_i - cols_j for every i, j: np.subtract.outer as one k = 2 product.

    Entry (i, j) of [rows, 1] @ [1; -cols] sums rows_i * 1 and 1 * -cols_j.
    Both products are exact and a sum of two terms is rounded once,
    whatever order or fused multiply-add the BLAS kernel uses, so every
    entry is the correctly rounded rows_i - cols_j, bit for bit what
    np.subtract.outer gives, subnormals included.  Only an exact zero
    (coincident points) may differ in its sign, which pair_energy's abs
    and pair_force's overwritten diagonal never see.  A matrix product
    streams the output at BLAS speed, which the broadcast ufunc loop
    does not.
    """
    left, right = difference_factors(rows, cols)
    return np.matmul(left, right, out=out)


def pair_energy(x: np.ndarray) -> float:
    """sum_{i<j} log|x_i - x_j|, -inf on coincident points: half the
    log of the full gap matrix, taken in place with 1 on the diagonal."""
    gaps = differences(x, x)
    np.abs(gaps, out=gaps)
    np.fill_diagonal(gaps, 1.0)
    with np.errstate(divide="ignore"):
        np.log(gaps, out=gaps)
    return 0.5 * float(np.sum(gaps))


def _reciprocals(x: np.ndarray) -> np.ndarray:
    """1/(x_i - x_j), with 0 on the diagonal."""
    diff = differences(x, x)
    np.fill_diagonal(diff, np.inf)
    return np.reciprocal(diff, out=diff)


def pair_force(x: np.ndarray) -> np.ndarray:
    """sum_{j != i} 1/(x_i - x_j) for every i, the gradient of pair_energy."""
    return np.sum(_reciprocals(x), axis=1)


def pair_force_curvature(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """pair_force(x) and sum_{j != i} 1/(x_i - x_j)^2 for every i, minus
    the diagonal of pair_energy's Hessian, from one reciprocal matrix."""
    inv = _reciprocals(x)
    return np.sum(inv, axis=1), np.einsum("ij,ij->i", inv, inv)


def site_energy_change(x, i: int, y: float) -> float:
    """sum_{j != i} log|(y - x_j)/(x_i - x_j)|, pair_energy's change when site i moves to
    y (-inf on another point), in plain floats: numpy's per-call cost would swamp one site."""
    xi, total = x[i], 0.0
    for j, xj in enumerate(x):
        if j != i:
            ratio = abs((y - xj) / (xi - xj))
            total += math.log(ratio) if ratio else -math.inf
    return total
