"""Spectral statistics of a pair of Haar projections, with tilts.

The eigenvalues of PQP for independent rank-k and rank-l projections in
dimension N split into structural batches pinned at 0 and 1 plus n free
points in (0,1) whose joint law is a Jacobi-type log-gas, optionally
tilted by exp(-N sum psi(x_i)).  The module provides the exact counts,
the unnormalized log density, direct and Markov-chain samplers, Selberg
and quadrature normalization constants, and the relative-entropy versus
Dirichlet-form comparison for the tilted model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, xlogy

from .errors import NumericalError, ValidationError

__all__ = [
    "EnsembleSpec",
    "SpectrumSample",
    "McmcResult",
    "MatrixLsiReport",
    "structural_multiplicities",
    "log_density",
    "sample_uniform_pair_spectrum",
    "sample_spectra",
    "selberg_log_z0",
    "log_z_quadrature",
    "log_z_thermodynamic",
    "mcmc_tilted_spectrum",
    "lsi_matrix_report",
]

_STRUCTURAL_TOL = 1e-8


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
class SpectrumSample:
    """Nontrivial eigenvalues of one PQP draw plus the pinned counts."""

    xs: np.ndarray
    n0: int
    n1: int


@dataclass(frozen=True)
class McmcResult:
    """Thinned Markov-chain draws with the diagnostics that justify them."""

    samples: np.ndarray
    acceptance: float
    autocorr_time: float
    step: float

    def spectrum_samples(self, n0: int, n1: int) -> list[SpectrumSample]:
        return [SpectrumSample(row, n0, n1) for row in self.samples]


def structural_multiplicities(n_dim: int, k: int, l: int) -> tuple[int, int, int]:
    """Counts (n0 at 0, n1 at 1, n free) of the PQP spectrum.

    PQP always has N - min(k,l) kernel directions and, when the ranges
    must intersect, k + l - N eigenvalues pinned at 1; the remainder are
    free points in (0,1).
    """
    n0 = n_dim - min(k, l)
    n1 = max(k + l - n_dim, 0)
    return n0, n1, n_dim - n0 - n1


def log_density(xs, spec: EnsembleSpec) -> float:
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
    if xs.size > 1:
        diff = np.abs(xs[:, None] - xs[None, :])
        iu = np.triu_indices(xs.size, k=1)
        gaps = diff[iu]
        if np.any(gaps == 0.0):
            return -math.inf
        total += 2.0 * float(np.sum(np.log(gaps)))
    return total


def _batched_haar_projections(
    n_dim: int, k: int, trials: int, rng: np.random.Generator
) -> np.ndarray:
    g = rng.standard_normal((trials, n_dim, n_dim)) + 1j * rng.standard_normal(
        (trials, n_dim, n_dim)
    )
    q, r = np.linalg.qr(g)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    u = q * (d / np.abs(d))[:, None, :]
    cols = u[:, :, :k]
    return cols @ np.conjugate(np.swapaxes(cols, -1, -2))


def sample_spectra(
    spec: EnsembleSpec, trials: int, seed, batch: int = 512
) -> np.ndarray:
    """Nontrivial PQP eigenvalues for many independent pairs at once.

    Returns an array of shape (trials, n), each row sorted increasing.
    Sampling, multiplication, and diagonalization run on stacked arrays
    in batches, which is what makes 1e5 draws at small N affordable.
    Structural eigenvalues must sit at 0 and 1 within tolerance or the
    draw is rejected as an eigensolver failure.
    """
    if spec.psi is not None:
        raise ValidationError("direct sampling is only defined for the untilted model")
    n0, n1, n = spec.counts
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    tol = max(_STRUCTURAL_TOL, spec.N * 64 * np.finfo(float).eps)
    rows = []
    remaining = trials
    while remaining > 0:
        t = min(batch, remaining)
        p = _batched_haar_projections(spec.N, spec.k, t, rng)
        q = _batched_haar_projections(spec.N, spec.l, t, rng)
        vals = np.linalg.eigvalsh(p @ q @ p)
        if n0 and float(np.max(np.abs(vals[:, :n0]))) > tol:
            raise NumericalError("structural zero eigenvalues stray beyond tolerance")
        if n1 and float(np.max(np.abs(vals[:, spec.N - n1 :] - 1.0))) > tol:
            raise NumericalError("structural unit eigenvalues stray beyond tolerance")
        rows.append(np.clip(vals[:, n0 : spec.N - n1], 0.0, 1.0))
        remaining -= t
    return np.concatenate(rows, axis=0)


def sample_uniform_pair_spectrum(spec: EnsembleSpec, seed) -> SpectrumSample:
    """One draw of the untilted model via two Haar projections."""
    n0, n1, _ = spec.counts
    xs = sample_spectra(spec, 1, seed)[0]
    return SpectrumSample(xs, n0, n1)


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


def _tilt_factor(spec: EnsembleSpec, x: np.ndarray, scale: float) -> np.ndarray:
    if spec.psi is None or scale == 0.0:
        return np.ones_like(x)
    return np.exp(-scale * spec.N * np.asarray(spec.psi(x), dtype=float))


def log_z_quadrature(spec: EnsembleSpec, nodes: int = 96, scale: float = 1.0) -> float:
    """Tensor Gauss-Legendre normalization constant for n <= 3.

    Integrates the tilted density over [0,1]^n exactly enough for
    acceptance work (the integrand is polynomial times a smooth tilt).
    scale multiplies the tilt exponent, which thermodynamic integration
    uses for intermediate temperatures.
    """
    _, _, n = spec.counts
    if n > 3:
        raise ValidationError("tensor quadrature is limited to three free points")
    a, b = spec.exponents
    t, w = np.polynomial.legendre.leggauss(nodes)
    x = 0.5 * (t + 1.0)
    w = 0.5 * w
    base = x**a * (1.0 - x) ** b * _tilt_factor(spec, x, scale)
    if n == 1:
        return float(np.log(np.sum(w * base)))
    if n == 2:
        dx = (x[:, None] - x[None, :]) ** 2
        kernel = (w * base)[:, None] * (w * base)[None, :] * dx
        return float(np.log(np.sum(kernel)))
    dx01 = (x[:, None, None] - x[None, :, None]) ** 2
    dx02 = (x[:, None, None] - x[None, None, :]) ** 2
    dx12 = (x[None, :, None] - x[None, None, :]) ** 2
    wb = w * base
    kernel = (
        wb[:, None, None]
        * wb[None, :, None]
        * wb[None, None, :]
        * dx01
        * dx02
        * dx12
    )
    return float(np.log(np.sum(kernel)))


def mcmc_tilted_spectrum(
    spec: EnsembleSpec,
    seed,
    count: int = 4000,
    burn_in: int = 10_000,
    scale: float = 1.0,
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
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)

    a, b = spec.exponents

    def logpdf_point(xi: float) -> float:
        if not 0.0 < xi < 1.0:
            return -math.inf
        val = a * math.log(xi) + b * math.log1p(-xi)
        if spec.psi is not None:
            val -= scale * spec.N * float(spec.psi(xi))
        return val

    x = np.sort(rng.uniform(0.2, 0.8, size=n))
    point_terms = np.array([logpdf_point(xi) for xi in x])
    step = 0.25
    accepted = 0
    proposed = 0

    def sweep() -> None:
        nonlocal accepted, proposed
        for i in range(n):
            xi = x[i] + step * rng.standard_normal()
            proposed += 1
            new_point = logpdf_point(xi)
            if new_point == -math.inf:
                continue
            delta = new_point - point_terms[i]
            others = np.delete(x, i)
            old_gaps = np.abs(x[i] - others)
            if np.any(old_gaps == 0.0):
                delta = math.inf
            else:
                new_gaps = np.abs(xi - others)
                if np.any(new_gaps == 0.0):
                    continue
                delta += 2.0 * float(np.sum(np.log(new_gaps) - np.log(old_gaps)))
            if delta >= 0.0 or math.log(rng.uniform()) < delta:
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
        samples[i] = np.sort(x)
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


def log_z_thermodynamic(
    spec: EnsembleSpec,
    seed,
    count: int = 2000,
    gauss_points: int = 16,
) -> tuple[float, float]:
    """Normalization of the tilted model by integrating over temperature.

    d/dt log Z(t) = -N E_t[sum psi(x_i)] for the model tilted by t*psi,
    integrated over t in [0,1] by a Gauss rule from the exact untilted
    constant.  Returns (log Z, standard error) with chain errors summed
    in quadrature across temperature nodes.
    """
    if spec.psi is None:
        return selberg_log_z0(spec), 0.0
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    t, w = np.polynomial.legendre.leggauss(gauss_points)
    t = 0.5 * (t + 1.0)
    w = 0.5 * w
    total = selberg_log_z0(spec)
    var = 0.0
    for ti, wi in zip(t, w):
        chain = mcmc_tilted_spectrum(spec, rng, count=count, scale=float(ti))
        vals = np.sum(np.asarray(spec.psi(chain.samples), dtype=float), axis=1)
        total += wi * (-spec.N) * float(np.mean(vals))
        var += (wi * spec.N) ** 2 * float(np.var(vals, ddof=1)) / vals.size
    return total, math.sqrt(var)


@dataclass(frozen=True)
class MatrixLsiReport:
    """Both sides of the finite-N entropy inequality for a tilted model.

    entropy is the relative entropy of the tilted spectrum law with
    respect to the untilted one; dirichlet is (1/2N) times the expected
    squared gradient of the log density ratio, evaluated through the
    spectral closed form.  margin = dirichlet - entropy, with a Monte
    Carlo standard error; the inequality asserts margin >= 0.
    """

    entropy: float
    dirichlet: float
    margin: float
    margin_se: float
    log_z0: float
    log_z_psi: float
    log_z_se: float
    mean_psi_sum: float
    acceptance: float
    autocorr_time: float
    samples: int
    mode: str


def lsi_matrix_report(
    spec: EnsembleSpec,
    grid: int = 96,
    seed=0,
    count: int = 4000,
) -> MatrixLsiReport:
    """Relative entropy versus scaled Dirichlet form for a tilted model.

    entropy = log Z0 - log Zpsi - N E[sum psi]; the Dirichlet side is
    2N E[sum psi'(x_i)^2 x_i(1-x_i)].  Normalization constants come from
    tensor quadrature (grid Gauss-Legendre nodes per axis, at most 256)
    when the model has at most three free points and from
    thermodynamic integration otherwise; expectations always come
    from the Metropolis chain, so the margin carries a standard error.
    Both per-sample statistics are combined into one margin series
    before the error is estimated, since they share the chain.
    """
    if spec.psi is None:
        raise ValidationError("the comparison needs a tilt; the untilted gap is zero")
    _, _, n = spec.counts
    log_z0 = selberg_log_z0(spec)
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    if n <= 3:
        log_z_psi = log_z_quadrature(spec, nodes=min(grid, 256))
        log_z_se = 0.0
        mode = "quadrature"
    else:
        log_z_psi, log_z_se = log_z_thermodynamic(spec, rng, count=count)
        mode = "thermodynamic"
    chain = mcmc_tilted_spectrum(spec, rng, count=count)
    xs = chain.samples
    psi_sum = np.sum(np.asarray(spec.psi(xs), dtype=float), axis=1)
    dpsi = np.asarray(spec.psi.derivative(xs), dtype=float)
    dirichlet_samples = 2.0 * spec.N * np.sum(dpsi**2 * xs * (1.0 - xs), axis=1)
    margin_samples = dirichlet_samples + spec.N * psi_sum
    margin = float(np.mean(margin_samples)) + log_z_psi - log_z0
    margin_se = float(np.std(margin_samples, ddof=1)) / math.sqrt(margin_samples.size)
    margin_se = math.hypot(margin_se, log_z_se)
    mean_psi = float(np.mean(psi_sum))
    entropy = log_z0 - log_z_psi - spec.N * mean_psi
    dirichlet = float(np.mean(dirichlet_samples))
    return MatrixLsiReport(
        entropy,
        dirichlet,
        margin,
        margin_se,
        log_z0,
        log_z_psi,
        log_z_se,
        mean_psi,
        chain.acceptance,
        chain.autocorr_time,
        int(xs.shape[0]),
        mode,
    )
