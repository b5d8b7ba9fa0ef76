"""Spectral statistics of a pair of Haar projections, with tilts.

The eigenvalues of PQP for independent rank-k and rank-l projections in
dimension N split into structural batches pinned at 0 and 1 plus n free
points in (0,1) whose joint law is a Jacobi-type log-gas, optionally
tilted by exp(-N sum psi(x_i)).  The module provides the exact counts,
the unnormalized log density, a direct sampler from the exact
tridiagonal model of the untilted log-gas (Killip & Nenciu, IMRN 2004;
Edelman & Sutton, FoCM 8, 2008), a Markov-chain sampler for the tilted
one, the Selberg constant, and the orthogonal polynomials of the tilted
weight, which give the normalization and the one-point density exactly
and with them the relative-entropy versus Dirichlet-form comparison for
the tilted model.  Haar draws of the matrices themselves live in
grassmann and serve the tests as the reference law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal
from scipy.special import betaln, gammaln, xlogy

from .errors import NumericalError, ValidationError
from .loggas import pair_energy, site_energy_change

__all__ = [
    "EnsembleSpec",
    "McmcResult",
    "MatrixLsiReport",
    "structural_multiplicities",
    "sample_spectra",
    "selberg_log_z0",
    "log_z_quadrature",
    "mcmc_tilted_spectrum",
    "lsi_matrix_report",
]

_BATCH_ENTRIES = 1 << 20  # dense Jacobi-matrix entries per eigvalsh call: 8 MB


@dataclass(frozen=True)
class EnsembleSpec:
    """Pair-projection spectrum model: dimensions and an optional tilt.

    psi is a function on [0,1] entering through exp(-N sum psi(x_i));
    None means the untilted model.
    """

    N: int
    k: int
    l: int
    psi: object | None = None

    def __post_init__(self) -> None:
        if not (1 <= self.k <= self.N - 1 and 1 <= self.l <= self.N - 1):
            raise ValidationError("ranks must lie strictly between 0 and N")

    @property
    def counts(self) -> tuple[int, int, int]:
        return structural_multiplicities(self.N, self.k, self.l)

    @property
    def exponents(self) -> tuple[int, int]:
        return abs(self.k - self.l), abs(self.k + self.l - self.N)


@dataclass(frozen=True)
class McmcResult:
    """Thinned Markov-chain draws with the diagnostics that justify them."""

    samples: np.ndarray
    acceptance: float
    autocorr_time: float
    step: float


def structural_multiplicities(n_dim: int, k: int, l: int) -> tuple[int, int, int]:
    """Counts (n0 at 0, n1 at 1, n free) of the PQP spectrum.

    PQP always has N - min(k,l) kernel directions and, when the ranges
    must intersect, k + l - N eigenvalues pinned at 1; the remainder are
    free points in (0,1).
    """
    n0 = n_dim - min(k, l)
    n1 = max(k + l - n_dim, 0)
    return n0, n1, n_dim - n0 - n1


def _log_density(xs, spec: EnsembleSpec) -> float:
    """Unnormalized log joint density of the free eigenvalues.

    sum_i [a log x_i + b log(1-x_i) - N psi(x_i)] + 2 sum_{i<j}
    log|x_i - x_j| with a = |k-l|, b = |k+l-N|.  Coincident points give
    -inf, as does any point outside [0,1].  Zero exponents make the
    corresponding edge terms vanish even at the edge itself.
    """
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    if xs.min() < 0.0 or xs.max() > 1.0:
        return -math.inf
    a, b = spec.exponents
    with np.errstate(divide="ignore"):
        total = float(np.sum(xlogy(a, xs) + xlogy(b, 1.0 - xs)))
    if math.isnan(total):
        return -math.inf
    if spec.psi is not None:
        total -= spec.N * float(np.sum(spec.psi(xs)))
    return total + 2.0 * pair_energy(xs)


def sample_spectra(spec: EnsembleSpec, trials: int, seed) -> np.ndarray:
    """Free PQP eigenvalues for many independent Haar pairs at once.

    Returns an array of shape (trials, n), each row sorted increasing.
    The free eigenvalues are the beta = 2 Jacobi ensemble with exponents
    (a, b) = spec.exponents, which is drawn from its exact tridiagonal
    model (Killip & Nenciu, IMRN 2004; Edelman & Sutton, FoCM 8, 2008):
    2n - 1 independent Beta variables alpha_j give a Jacobi matrix with
    spectrum x in [-2, 2], and lambda = (2 - x)/4.  The draw depends on
    (n, a, b) only, so (k, l) -> (l, k) and (k, l) -> (N - k, N - l)
    give the same draws for the same seed.  No N x N or N x l matrix is
    formed; the tests check the law against PQP spectra of Haar frames.
    Jacobi matrices are stacked into batches of at most _BATCH_ENTRIES
    dense entries.
    """
    if spec.psi is not None:
        raise ValidationError("direct sampling is only defined for the untilted model")
    if trials < 0:
        raise ValidationError("trials must be nonnegative")
    a, b = spec.exponents
    n = spec.counts[2]
    rng = np.random.default_rng(seed)
    # alpha_j = 2 Y_j - 1 with Y_j ~ Beta(t_j, s_j), j = 0 .. 2n - 2, and alpha_{-1} = -1
    half, parity = np.divmod(np.arange(2 * n - 1), 2)
    shape_t = np.where(parity, n - half - 1, n - half + b)
    shape_s = np.where(parity, n - half + a + b, n - half + a)
    idx = np.arange(n)
    out = np.empty((trials, n))
    step = max(1, _BATCH_ENTRIES // (n * n))
    for start in range(0, trials, step):
        m = min(step, trials - start)
        alpha = 2.0 * rng.beta(shape_t, shape_s, size=(m, 2 * n - 1)) - 1.0
        even = alpha[:, ::2]
        odd = np.concatenate((np.full((m, 1), -1.0), alpha[:, 1::2]), axis=1)
        diag = (1.0 - odd) * even
        diag[:, 1:] -= (1.0 + odd[:, 1:]) * even[:, :-1]
        jac = np.zeros((m, n, n))
        jac[:, idx, idx] = diag
        # eigvalsh reads the lower triangle
        jac[:, idx[1:], idx[:-1]] = np.sqrt((1.0 - odd[:, :-1]) * (1.0 - even[:, :-1] ** 2) * (1.0 + odd[:, 1:]))
        out[start : start + m] = np.clip(0.5 - 0.25 * np.linalg.eigvalsh(jac)[:, ::-1], 0.0, 1.0)
    return out


def selberg_log_z0(spec: EnsembleSpec) -> float:
    """Exact log normalization of the untilted free-eigenvalue density.

    Product formula for the [0,1] log-gas with squared differences and
    edge exponents (a, b):
    prod_{j<n} Gamma(a+1+j) Gamma(b+1+j) Gamma(2+j) / Gamma(a+b+n+j+1).
    """
    a, b = spec.exponents
    _, _, n = spec.counts
    j = np.arange(n, dtype=float)
    return float(
        np.sum(
            gammaln(a + 1 + j)
            + gammaln(b + 1 + j)
            + gammaln(2 + j)
            - gammaln(a + b + n + j + 1)
        )
    )


def _gauss_jacobi(a: int, b: int, nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss rule for x^a (1-x)^b on [0,1]: the nodes and the log-weights.

    Nodes are the Jacobi-matrix eigenvalues; a weight is B(a+1, b+1) over
    the Christoffel sum of the orthonormal polynomials, rescaled per node
    and kept in logs, so that nothing overflows at large a + b.
    """
    k = np.arange(1.0, nodes)
    s = 2.0 * k + a + b
    diag = 0.5 + 0.5 * np.append((a - b) / (a + b + 2.0), (a * a - b * b) / (s * (s + 2.0)))
    off = np.sqrt(k * (k + a) * (k + b) * (k + a + b) / (s * s * (s + 1.0) * (s - 1.0)))
    x = eigvalsh_tridiagonal(diag, off)
    prev, cur, total, log_scale = np.zeros(nodes), np.ones(nodes), np.ones(nodes), 0.0
    for j in range(nodes - 1):
        prev, cur = cur, ((x - diag[j]) * cur - off[j - 1] * prev) / off[j]
        total += cur * cur
        if j % 8 == 7:
            scale = np.maximum(np.maximum(np.abs(cur), np.abs(prev)), 1.0)
            prev, cur, total = prev / scale, cur / scale, total / scale**2
            log_scale = log_scale + 2.0 * np.log(scale)
    return x, betaln(a + 1, b + 1) - np.log(total) - log_scale


def _node_count(spec: EnsembleSpec, grid: int | None) -> int:
    """The node count M: grid, by default max(96, 2n), and at least n."""
    _, _, n = spec.counts
    nodes = max(96, 2 * n) if grid is None else grid
    if nodes < n:
        raise ValidationError(f"the recurrence needs at least n = {n} nodes (--grid), got {nodes}")
    return nodes


def _christoffel(spec: EnsembleSpec, nodes: int) -> tuple[np.ndarray, np.ndarray, float]:
    """Exact beta = 2 side of the model from its orthogonal polynomials.

    The weight w = x^a (1-x)^b exp(-N psi) is discretized on `nodes`
    Gauss-Jacobi points for x^a (1-x)^b; a Lanczos (discretized
    Stieltjes) run of length n on diag(x), started from sqrt(w) and
    fully reorthogonalized, gives the orthonormal polynomials v_k at the
    nodes and the monic norms h_k = h_0 prod_{j<=k} beta_j^2.  Returns
    the nodes, the one-point weights sum_{k<n} v_k(x_m)^2 (so that
    E[sum f(x_i)] = sum_m f(x_m) times them, Christoffel-Darboux) and
    log Z_psi = log n! + sum_k log h_k (Heine).  Log-weights are shifted
    by their maximum before exponentiation; sqrt(w) spans half the
    log-range of w, so nodes drop out by underflow only once
    N (max psi - min psi) exceeds about 1.5e3.  A weight that is not
    finite, or a recurrence that stops short of n, raises NumericalError.
    """
    a, b = spec.exponents
    _, _, n = spec.counts
    x, log_w = _gauss_jacobi(a, b, nodes)
    if spec.psi is not None:
        log_w -= spec.N * np.asarray(spec.psi(x), dtype=float)
    shift = float(np.max(log_w))
    if not math.isfinite(shift):
        raise NumericalError("the tilted weight is not finite on the quadrature nodes")
    v = np.empty((n, nodes))
    v[0] = np.exp(0.5 * (log_w - shift))
    h0 = float(v[0] @ v[0])
    v[0] /= math.sqrt(h0)
    log_z = float(gammaln(n + 1)) + n * (math.log(h0) + shift)
    for k in range(1, n):
        r = x * v[k - 1]
        for _ in range(2):
            r -= (v[:k] @ r) @ v[:k]
        beta = float(np.linalg.norm(r))
        if not beta > 0.0:
            raise NumericalError(f"the recurrence broke down at degree {k} of {n}")
        v[k] = r / beta
        log_z += 2.0 * (n - k) * math.log(beta)
    return x, np.einsum("km,km->m", v, v), log_z


def log_z_quadrature(spec: EnsembleSpec, nodes: int | None = None) -> float:
    """log Z_psi of the free-eigenvalue density from the recurrence.

    Exact up to the Gauss-Jacobi rule on `nodes` points (default
    max(96, 2n), and at least the number n of free points) applied to
    exp(-N psi): for psi = None it reproduces the Selberg constant to
    rounding.
    """
    return _christoffel(spec, _node_count(spec, nodes))[2]


def mcmc_tilted_spectrum(
    spec: EnsembleSpec,
    seed,
    count: int = 4000,
    burn_in: int = 10_000,
) -> McmcResult:
    """Random-walk Metropolis chain for the tilted eigenvalue law.

    One sweep updates each coordinate with a Gaussian proposal; the
    shared step adapts toward 30-45% acceptance during burn-in and is
    frozen afterward.  The kept draws are thinned by the measured
    autocorrelation time of sum(x), so consumers may treat rows as
    roughly independent.  A chain whose final acceptance falls below 1%
    is reported as degenerate rather than returned.
    """
    _, _, n = spec.counts
    if n < 1:
        raise ValidationError("the model has no free eigenvalues to sample")
    rng = np.random.default_rng(seed)

    a, b = spec.exponents

    def logpdf_point(xi: float) -> float:
        if not 0.0 < xi < 1.0:
            return -math.inf
        val = a * math.log(xi) + b * math.log1p(-xi)
        if spec.psi is not None:
            val -= spec.N * float(spec.psi(xi))
        return val

    normal, uniform = rng.standard_normal, rng.random  # random() is uniform()'s double
    x = np.sort(rng.uniform(0.2, 0.8, size=n)).tolist()
    point_terms = [logpdf_point(xi) for xi in x]
    step = 0.25
    accepted = 0
    proposed = 0

    def sweep() -> None:
        nonlocal accepted, proposed
        proposed += n
        for i in range(n):
            xi = x[i] + step * normal()
            new_point = logpdf_point(xi)
            if new_point == -math.inf:
                continue
            delta = new_point - point_terms[i] + 2.0 * site_energy_change(x, i, xi)
            if delta >= 0.0 or math.log(uniform()) < delta:
                x[i] = xi
                point_terms[i] = new_point
                accepted += 1

    for it in range(burn_in):
        sweep()
        if it % 100 == 99:
            rate = accepted / max(proposed, 1)
            if rate < 0.30:
                step *= 0.8
            elif rate > 0.45:
                step *= 1.25
            step = min(max(step, 1e-4), 1.0)
            accepted = 0
            proposed = 0

    pilot = np.empty(2000)
    for i in range(pilot.size):
        sweep()
        pilot[i] = float(np.sum(x))
    tau = _autocorr_time(pilot)
    thin = max(1, int(math.ceil(tau)))

    accepted = 0
    proposed = 0
    samples = np.empty((count, n))
    for i in range(count):
        for _ in range(thin):
            sweep()
        samples[i] = sorted(x)
    rate = accepted / max(proposed, 1)
    if rate < 0.01:
        raise NumericalError("the chain degenerated: acceptance below 1%")
    return McmcResult(samples, rate, tau, step)


def _autocorr_time(series: np.ndarray) -> float:
    """Integrated autocorrelation time with a standard adaptive window."""
    y = series - series.mean()
    if np.allclose(y, 0.0):
        return 1.0
    m = y.size
    spectrum = np.abs(np.fft.rfft(y, n=2 * m)) ** 2
    acf = np.fft.irfft(spectrum)[:m]
    acf /= acf[0]
    tau = 1.0
    for lag in range(1, m):
        tau += 2.0 * acf[lag]
        if lag >= 5.0 * tau:
            break
    return max(tau, 1.0)


@dataclass(frozen=True)
class MatrixLsiReport:
    """Both sides of the finite-N entropy inequality for a tilted model.

    entropy is the relative entropy of the tilted spectrum law with
    respect to the untilted one; dirichlet is (1/2N) times the expected
    squared gradient of the log density ratio, evaluated through the
    spectral closed form.  margin = dirichlet - entropy, whose
    margin_se is the change of the margin when the quadrature is
    refined from M to 2M nodes; the inequality asserts margin >= 0.
    log_z_se is 0: the normalization has no sampling error.
    """

    entropy: float
    dirichlet: float
    margin: float
    margin_se: float
    log_z0: float
    log_z_psi: float
    log_z_se: float
    mean_psi_sum: float
    mode: str


def _exact_sides(spec: EnsembleSpec, nodes: int, log_z0: float) -> tuple[float, float, float, float]:
    """(entropy, dirichlet, log Z_psi, E[sum psi]) from the recurrence on `nodes` points."""
    x, rho, log_z_psi = _christoffel(spec, nodes)
    mean_psi = float(rho @ np.asarray(spec.psi(x), dtype=float))
    dpsi = np.asarray(spec.psi.derivative(x), dtype=float)
    dirichlet = 2.0 * spec.N * float(rho @ (dpsi**2 * x * (1.0 - x)))
    return log_z0 - log_z_psi - spec.N * mean_psi, dirichlet, log_z_psi, mean_psi


def lsi_matrix_report(
    spec: EnsembleSpec,
    grid: int | None = None,
    seed=0,
    count: int = 4000,
) -> MatrixLsiReport:
    """Relative entropy versus scaled Dirichlet form for a tilted model.

    entropy = log Z0 - log Zpsi - N E[sum psi]; the Dirichlet side is
    2N E[sum psi'(x_i)^2 x_i(1-x_i)].  At beta = 2 both are exact from
    the orthogonal polynomials of the weight (see _christoffel): grid is
    the number M of Gauss-Jacobi nodes, default max(96, 2n), and at
    least n.  The report carries the values at 2M nodes and
    margin_se = |margin(2M) - margin(M)|; a refinement error above
    1e-8 max(1, |margin|), as when exp(-N psi) spans more than the
    double range, raises NumericalError instead of returning a number.
    seed and count are accepted for compatibility and no longer change
    the result.
    """
    if spec.psi is None:
        raise ValidationError("the comparison needs a tilt; the untilted gap is zero")
    nodes = _node_count(spec, grid)
    log_z0 = selberg_log_z0(spec)
    coarse_entropy, coarse_dirichlet, _, _ = _exact_sides(spec, nodes, log_z0)
    entropy, dirichlet, log_z_psi, mean_psi = _exact_sides(spec, 2 * nodes, log_z0)
    margin = dirichlet - entropy
    margin_se = abs(margin - (coarse_dirichlet - coarse_entropy))
    if not margin_se <= 1e-8 * max(1.0, abs(margin)):
        raise NumericalError(
            f"the margin moved by {margin_se:.3e} from {nodes} to {2 * nodes} nodes; "
            "exp(-N psi) is not resolved"
        )
    return MatrixLsiReport(
        entropy, dirichlet, margin, margin_se, log_z0, log_z_psi, 0.0, mean_psi, "quadrature"
    )
