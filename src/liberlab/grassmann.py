"""Geometry of the manifold of rank-k orthogonal projections.

Points are N x N complex projections P = U P_k U* with P_k the diagonal
model projection; tangent vectors at the model point are anti-Hermitian
matrices with vanishing diagonal blocks for the split k + (N-k), moved
around by the frame U.  The metric is Re Tr(X Y*) with the unnormalized
trace; the module exposes Haar sampling, the orthonormal commutator
basis, the curvature quadratic form, normal-coordinate moves, and exact
and finite-difference derivative checks for spectral trace functions of
PQP.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError

__all__ = [
    "GrassmannPoint",
    "TangentVector",
    "GradReport",
    "hs_inner",
    "hs_norm",
    "normalized_trace",
    "model_projection",
    "haar_unitary",
    "sample_haar_projection",
    "projection_point",
    "tangent_basis",
    "ricci_quadratic_form",
    "exp_normal_coordinate",
    "apply_spectral",
    "grad_norm_trace_fn",
    "hessian_fd",
]

_EIGENVALUE_SLACK = 1e-8
# matrix entries per block of stacked probes: bounds each complex
# temporary of the derivative checks at 4 MB
_PROBE_ENTRIES = 1 << 18


def hs_inner(x: np.ndarray, y: np.ndarray) -> float:
    """Real Hilbert-Schmidt inner product Re Tr(X Y*)."""
    return float(np.real(np.sum(x * np.conj(y))))


def hs_norm(x: np.ndarray) -> float:
    """Hilbert-Schmidt norm with the unnormalized trace."""
    return float(np.linalg.norm(x))


def normalized_trace(x: np.ndarray) -> float:
    """Trace divided by the matrix dimension."""
    n = x.shape[0]
    return float(np.real(np.trace(x))) / n


def model_projection(n: int, k: int) -> np.ndarray:
    """Diagonal projection onto the first k coordinates."""
    p = np.zeros((n, n), dtype=complex)
    p[np.arange(k), np.arange(k)] = 1.0
    return p


def _adjoint(x: np.ndarray) -> np.ndarray:
    return np.conj(np.swapaxes(x, -1, -2))


def _check_projections(p: np.ndarray, k: int) -> None:
    """Hermitian, idempotent and trace-k, for one matrix or a stack of them."""
    if np.any(np.linalg.norm(p - _adjoint(p), axis=(-2, -1)) > 1e-12):
        raise ValidationError("projection matrix must be Hermitian")
    if np.any(np.linalg.norm(p @ p - p, axis=(-2, -1)) > 1e-10):
        raise ValidationError("matrix is not idempotent")
    if np.any(np.abs(np.real(np.trace(p, axis1=-2, axis2=-1)) - k) > 1e-8):
        raise ValidationError("trace does not match the declared rank")


@dataclass(frozen=True)
class GrassmannPoint:
    """Rank-k orthogonal projection with an adapted unitary frame.

    The frame satisfies P = U P_k U*, so its first k columns span the
    range of P.  Normal-coordinate moves conjugate the model projection
    by the frame times a tangent exponential.
    """

    P: np.ndarray
    k: int
    frame: np.ndarray | None = None

    def __post_init__(self) -> None:
        p = np.asarray(self.P, dtype=complex)
        object.__setattr__(self, "P", p)
        n = p.shape[0]
        if p.shape != (n, n):
            raise ValidationError("projection matrix must be square")
        if not 0 <= self.k <= n:
            raise ValidationError("rank must lie between 0 and the dimension")
        _check_projections(p, self.k)

    @property
    def dim(self) -> int:
        return self.P.shape[0]


@dataclass(frozen=True)
class TangentVector:
    """Anti-Hermitian off-diagonal-block matrix in model coordinates.

    The two diagonal blocks of the split k + (N-k) vanish identically;
    frame records the unitary that carries the model point to the base
    point the vector is attached to (None means the model frame).
    """

    X: np.ndarray
    k: int
    frame: np.ndarray | None = None

    def __post_init__(self) -> None:
        x = np.asarray(self.X, dtype=complex)
        object.__setattr__(self, "X", x)
        n = x.shape[0]
        if x.shape != (n, n):
            raise ValidationError("tangent matrix must be square")
        if not 0 <= self.k <= n:
            raise ValidationError("rank must lie between 0 and the dimension")
        if np.linalg.norm(x + x.conj().T) > 1e-12:
            raise ValidationError("tangent matrix must be anti-Hermitian")
        k = self.k
        if np.linalg.norm(x[:k, :k]) > 1e-12 or np.linalg.norm(x[k:, k:]) > 1e-12:
            raise ValidationError("tangent matrix must have zero diagonal blocks")


def haar_unitary(
    n: int, rng: np.random.Generator, batch: tuple[int, ...] = (), columns: int | None = None
) -> np.ndarray:
    """Haar-distributed unitary from a complex Gaussian matrix.

    QR factorization of a Ginibre matrix followed by normalizing the
    diagonal of R to positive reals, which removes the phase ambiguity
    and makes the factor exactly Haar.  A nonempty batch draws a stack
    of independent unitaries of shape batch + (n, n).  columns = k
    draws only an n x k Ginibre block and returns its phase-fixed QR
    frame, which has the law of the first k columns of a Haar unitary;
    it consumes a different random stream than the full draw.
    """
    shape = (*batch, n, n if columns is None else columns)
    g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    g /= np.sqrt(2.0)
    q, r = np.linalg.qr(g)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def sample_haar_projection(n: int, k: int, seed) -> GrassmannPoint:
    """Uniformly distributed rank-k projection P = U P_k U*.

    seed may be anything numpy accepts as RNG seed material, including
    an already-constructed Generator for chained sampling.
    """
    if not 0 <= k <= n:
        raise ValidationError("rank must lie between 0 and the dimension")
    u = haar_unitary(n, np.random.default_rng(seed))
    cols = u[:, :k]
    p = cols @ cols.conj().T
    p = 0.5 * (p + p.conj().T)
    return GrassmannPoint(p, k, frame=u)


def projection_point(p: np.ndarray, k: int | None = None) -> GrassmannPoint:
    """Wrap a raw projection matrix, deriving rank and an adapted frame."""
    p = np.asarray(p, dtype=complex)
    vals, vecs = np.linalg.eigh(0.5 * (p + p.conj().T))
    order = np.argsort(-vals)
    frame = vecs[:, order]
    rank = int(np.round(np.sum(vals))) if k is None else k
    return GrassmannPoint(p, rank, frame=frame)


def tangent_basis(n: int, k: int) -> list[TangentVector]:
    """Orthonormal basis of the tangent space at the model projection.

    For each range index i < k and co-range index j >= k there are two
    vectors, the real rotation (e_ij - e_ji)/sqrt(2) and its imaginary
    partner i(e_ij + e_ji)/sqrt(2), for 2k(N-k) in total.
    """
    if not 1 <= k <= n - 1:
        raise ValidationError("the tangent space is trivial unless 0 < k < N")
    basis: list[TangentVector] = []
    root = 1.0 / np.sqrt(2.0)
    for i in range(k):
        for j in range(k, n):
            e = np.zeros((n, n), dtype=complex)
            e[i, j] = root
            e[j, i] = -root
            basis.append(TangentVector(e, k))
            f = np.zeros((n, n), dtype=complex)
            f[i, j] = 1j * root
            f[j, i] = 1j * root
            basis.append(TangentVector(f, k))
    return basis


def ricci_quadratic_form(n: int, k: int, x: TangentVector | np.ndarray) -> float:
    """Sum of squared commutator norms of x against the tangent basis.

    The value equals N times the squared norm of x; this is an exact
    identity of the geometry, so the function is mainly a target for
    verification at many random tangent vectors.
    """
    if not isinstance(x, TangentVector):
        x = TangentVector(np.asarray(x, dtype=complex), k)
    if x.X.shape[0] != n or x.k != k:
        raise ValidationError("tangent vector does not match the requested manifold")
    total = 0.0
    for b in tangent_basis(n, k):
        comm = x.X @ b.X - b.X @ x.X
        total += float(np.real(np.sum(comm * np.conj(comm))))
    return total


def _tangent_exponential(x: np.ndarray) -> np.ndarray:
    """Unitary exponential of an anti-Hermitian matrix, or of a stack of
    them, via eigh of iX."""
    herm = 1j * x
    vals, vecs = np.linalg.eigh(herm)
    return (vecs * np.exp(-1j * vals)[..., None, :]) @ _adjoint(vecs)


def _frame_of(point: GrassmannPoint) -> np.ndarray:
    if point.frame is not None:
        return np.asarray(point.frame, dtype=complex)
    return projection_point(point.P, point.k).frame


def exp_normal_coordinate(point: GrassmannPoint, x: TangentVector) -> GrassmannPoint:
    """Move a projection along a tangent vector: U e^X P_k e^-X U*.

    The move is an exact unitary conjugation, so the rank is preserved
    to machine precision; the returned point carries the rotated frame
    U e^X so that successive moves compose.
    """
    if x.k != point.k or x.X.shape[0] != point.dim:
        raise ValidationError("tangent vector does not match the point")
    u = _frame_of(point)
    if x.frame is not None and not np.allclose(x.frame, u, atol=1e-10):
        raise ValidationError("tangent vector frame differs from the point frame")
    rot = u @ _tangent_exponential(x.X)
    k = point.k
    cols = rot[:, :k]
    p = cols @ cols.conj().T
    return GrassmannPoint(0.5 * (p + p.conj().T), k, frame=rot)


def apply_spectral(psi, m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigendecompose a Hermitian matrix and apply a scalar function.

    Returns (eigenvalues clamped to [0,1], eigenvectors, psi at the
    clamped eigenvalues).  Eigenvalues may stray outside [0,1] only by
    numerical noise; beyond the documented slack the matrix is not a
    spectral product of projections and the call fails.
    """
    vals, vecs = np.linalg.eigh(m)
    _check_spectrum(vals)
    clamped = np.clip(vals, 0.0, 1.0)
    return clamped, vecs, np.asarray(psi(clamped), dtype=float)


def _check_spectrum(vals: np.ndarray) -> None:
    if vals.min() < -_EIGENVALUE_SLACK or vals.max() > 1.0 + _EIGENVALUE_SLACK:
        raise NumericalError("spectrum strays outside [0,1] beyond tolerance")


def _tangent_dim(n: int, k: int) -> int:
    """2k(N-k): the size of tangent_basis(n, k), 0 for a trivial rank."""
    return 2 * k * (n - k)


def _moved_projections(point: GrassmannPoint, coeffs: np.ndarray) -> np.ndarray:
    """exp_normal_coordinate(point, sum_d c_d b_d).P for each row c of coeffs.

    The generators X come from one contraction with the stacked tangent
    basis b, their exponentials from one batched eigh; every result
    passes the GrassmannPoint checks.
    """
    n, k = point.dim, point.k
    basis = np.stack([b.X for b in tangent_basis(n, k)])
    x = np.einsum("md,dij->mij", coeffs, basis, optimize=True)
    cols = _frame_of(point) @ _tangent_exponential(x)[..., :k]
    p = cols @ _adjoint(cols)
    p = 0.5 * (p + _adjoint(p))
    _check_projections(p, k)
    return p


def _stacked_trace_psi(
    p: GrassmannPoint, q: GrassmannPoint, psi, coeffs: np.ndarray
) -> np.ndarray:
    """Tr psi(P'Q'P') for each row of coeffs, in blocks of probes.

    A row holds normal coordinates along tangent_basis of P, then of Q;
    the pair moves to P' = exp_normal_coordinate(p, .) and likewise Q'.
    A factor that no row moves keeps its matrix.  The spectra come from
    one batched eigvalsh per block and pass the apply_spectral check.
    """
    n = p.dim
    split = _tangent_dim(n, p.k)
    cp, cq = coeffs[:, :split], coeffs[:, split:]
    move_p, move_q = cp.any(), cq.any()
    out = np.empty(coeffs.shape[0])
    rows = max(1, _PROBE_ENTRIES // (n * n))
    for start in range(0, out.size, rows):
        block = slice(start, start + rows)
        pm = _moved_projections(p, cp[block]) if move_p else p.P
        qm = _moved_projections(q, cq[block]) if move_q else q.P
        vals = np.linalg.eigvalsh(pm @ qm @ pm)
        _check_spectrum(vals)
        out[block] = np.sum(psi(np.clip(vals, 0.0, 1.0)), axis=-1)
    return out


@dataclass(frozen=True)
class GradReport:
    """Closed-form squared gradient norm next to its finite-difference twin.

    closed_form is 4 Tr((psi'(PQP))^2 PQP(I - PQP)); dirichlet_fd sums
    squared central-difference directional derivatives of Tr psi(PQP)
    over the tangent bases of both the P and Q factors.
    """

    closed_form: float
    dirichlet_fd: float
    rel_gap: float


def grad_norm_trace_fn(
    p: GrassmannPoint, q: GrassmannPoint, psi, step: float = 1e-4
) -> GradReport:
    """Squared gradient norm of (P, Q) -> Tr psi(PQP), two independent ways.

    The closed form evaluates the spectral expression
    4 sum psi'(x_i)^2 x_i (1 - x_i) over the eigenvalues of PQP; the
    Dirichlet route drives both factors through normal-coordinate moves
    with central differences and sums the squared directional
    derivatives.  The +-step probes along the tangent basis of one
    factor run as one stacked batch, with the other factor held fixed.
    psi must expose a derivative method (polynomial test functions do).
    """
    if p.dim != q.dim:
        raise ValidationError("the two projections live in different dimensions")
    vals, _, _ = apply_spectral(psi, p.P @ q.P @ p.P)
    dpsi = psi.derivative(vals)
    closed = 4.0 * float(np.sum(np.asarray(dpsi) ** 2 * vals * (1.0 - vals)))
    dims = (_tangent_dim(p.dim, p.k), _tangent_dim(q.dim, q.k))
    derivs = []
    for offset, width in ((0, dims[0]), (dims[0], dims[1])):
        # +step then -step along each basis vector of one factor
        coeffs = np.zeros((2 * width, sum(dims)))
        coeffs[:, offset : offset + width] = np.kron([[1.0], [-1.0]], step * np.eye(width))
        values = _stacked_trace_psi(p, q, psi, coeffs)
        derivs.append((values[:width] - values[width:]) / (2.0 * step))
    dirichlet = float(np.sum(np.concatenate(derivs) ** 2))
    scale = max(abs(closed), abs(dirichlet), 1e-30)
    return GradReport(closed, dirichlet, abs(closed - dirichlet) / scale)


def hessian_fd(
    p: GrassmannPoint, q: GrassmannPoint, psi, step: float = 5e-4
) -> np.ndarray:
    """Finite-difference Hessian of N Tr psi(PQP) in normal coordinates.

    Coordinates are the concatenated tangent bases of the P and Q
    factors, so the matrix has side d = 2k(N-k) + 2l(N-l).  Central
    second differences with the given step; diagonal entries are checked
    at half step and the call fails if the quadratic residual indicates
    the step is not in the asymptotic regime.  The 1 + 2d + 2 + 2d(d-1)
    probes (base point, +-step per axis, the half-step pair, four per
    off-diagonal pair) run as one stacked batch.  The eigenvalue floor
    of the result brackets the convexity defect constants empirically.
    """
    if p.dim != q.dim:
        raise ValidationError("the two projections live in different dimensions")
    n = p.dim
    dim = _tangent_dim(n, p.k) + _tangent_dim(n, q.k)
    if dim == 0:
        return np.zeros((0, 0))
    unit = np.eye(dim)
    a, b = np.triu_indices(dim, 1)
    half = 0.5 * step * unit[:1]
    coeffs = np.concatenate([
        np.zeros((1, dim)),
        step * unit,
        -step * unit,
        half,
        -half,
        step * (unit[a] + unit[b]),
        step * (unit[a] - unit[b]),
        step * (unit[b] - unit[a]),
        -step * (unit[a] + unit[b]),
    ])
    values = n * _stacked_trace_psi(p, q, psi, coeffs)
    base = values[0]
    plus, minus, half_pair, pairs = np.split(values[1:], [dim, 2 * dim, 2 * dim + 2])
    hess = np.empty((dim, dim))
    hess[np.diag_indices(dim)] = (plus - 2.0 * base + minus) / step**2
    probe = (half_pair[0] - 2.0 * base + half_pair[1]) / (0.5 * step) ** 2
    if abs(probe - hess[0, 0]) > 1e-3 * max(1.0, abs(hess[0, 0])):
        raise NumericalError("finite-difference step fails the quadratic check")
    pp, pm, mp, mm = pairs.reshape(4, -1)
    hess[a, b] = hess[b, a] = (pp - pm - mp + mm) / (4.0 * step**2)
    return hess
