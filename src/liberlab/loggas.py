"""Pair interaction of the beta = 2 Jacobi log-gas on (0,1).

The free eigenvalues of the two-projection model and the particles of
the liberation flow are the same gas, with pair energy
sum_{i<j} log|x_i - x_j|.  This module is the one implementation of
that sum, of its gradient and of one site's energy against the rest.
The one-body edge and tilt terms stay with the callers because they
differ for a reason: the flow's velocity keeps the mobility form
c0 (1 - x) - c1 x, finite at Runge-Kutta stage points that land on 0
or 1, where the eigenvalue law has a log x + b log(1 - x).
"""

from __future__ import annotations

import numpy as np

__all__ = ["pair_energy", "pair_force", "site_energy"]


def pair_energy(x: np.ndarray) -> float:
    """sum_{i<j} log|x_i - x_j|, -inf on coincident points: half the
    log of the full gap matrix, taken in place with 1 on the diagonal."""
    gaps = np.subtract.outer(x, x)
    np.abs(gaps, out=gaps)
    np.fill_diagonal(gaps, 1.0)
    with np.errstate(divide="ignore"):
        np.log(gaps, out=gaps)
    return 0.5 * float(np.sum(gaps))


def pair_force(x: np.ndarray) -> np.ndarray:
    """sum_{j != i} 1/(x_i - x_j) for every i, the gradient of pair_energy."""
    diff = np.subtract.outer(x, x)
    np.fill_diagonal(diff, np.inf)
    np.reciprocal(diff, out=diff)
    return np.sum(diff, axis=1)


def site_energy(x: np.ndarray, i: int, y: np.ndarray) -> np.ndarray:
    """sum_{j != i} log|y - x_j| for each candidate position y of site i.

    One row per candidate, so a Metropolis step scores its proposal and
    the current position in one call; a scalar y gives a scalar.  -inf,
    with numpy's divide warning, where y hits another point.
    """
    gaps = np.subtract.outer(y, x)
    np.abs(gaps, out=gaps)
    gaps[..., i] = 1.0
    np.log(gaps, out=gaps)
    return gaps.sum(axis=-1)
