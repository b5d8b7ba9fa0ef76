"""Command-line entry point for the workbench.

One subcommand per workflow: entropy and Fisher evaluation, inequality
reports, spectrum sampling, matrix-geometry verification, the particle
flow, and the equilibrium solver.  Reports are JSON (CSV for the two
bulk-data commands), always embedding the parsed configuration, the
seed, and the package version, so a run can be reproduced from its own
output.  Infinities are serialized as the strings "inf" and "-inf"; a
NaN anywhere in a report is a numerical failure, and nothing is written.

Exit status: 0 on success, 1 when the input fails validation, 2 when a
computation fails numerically.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from dataclasses import asdict, dataclass

from .errors import NumericalError, ValidationError

_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _cap_threads() -> None:
    """Honor LIBERLAB_THREADS before any numeric library spins up a pool."""
    value = os.environ.get("LIBERLAB_THREADS")
    if value:
        for var in _THREAD_VARS:
            os.environ.setdefault(var, value)


@dataclass(frozen=True)
class RunConfig:
    """Everything a command run depends on, embedded in its report."""

    command: str
    law: str | None = None
    h: str | None = None
    psi: str | None = None
    grid: int | None = None
    N: int | None = None
    k: int | None = None
    l: int | None = None
    trials: int | None = None
    seed: int = 0
    out: str | None = None
    c1: float | None = None
    c2: float | None = None
    particles: int | None = None
    tmax: float | None = None


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors map to the validation exit code."""

    def error(self, message: str):
        raise ValidationError(message)


def _sanitize(value, where: str = "report"):
    """Make a report JSON-safe: infinities become strings, NaN is refused."""
    if isinstance(value, dict):
        return {key: _sanitize(inner, f"{where}.{key}") for key, inner in value.items()}
    if isinstance(value, (list, tuple)):
        return [_sanitize(inner, f"{where}[{i}]") for i, inner in enumerate(value)]
    if hasattr(value, "tolist"):
        return _sanitize(value.tolist(), where)
    if isinstance(value, float):
        if math.isnan(value):
            raise NumericalError(f"{where} is NaN")
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
    return value


def _write(text: str, config: RunConfig) -> None:
    """Print a report, or write it to --out atomically (temp file plus rename)."""
    if not config.out:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(config.out))
    fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".part")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp_path, config.out)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise
    print(f"wrote {config.out}")


def _emit_json(report: dict, config: RunConfig) -> None:
    from . import __version__

    payload = dict(report)
    payload["config"] = asdict(config)
    payload["version"] = __version__
    _write(json.dumps(_sanitize(payload), indent=2, sort_keys=True) + "\n", config)


def _emit_csv(header: list[str], rows, config: RunConfig) -> None:
    from . import __version__

    meta = json.dumps(_sanitize(asdict(config)), sort_keys=True)
    lines = [f"# liberlab {__version__} {meta}", ",".join(header)]
    for row in rows:
        lines.append(",".join(_format_cell(cell) for cell in row))
    _write("\n".join(lines) + "\n", config)


def _format_cell(cell) -> str:
    if isinstance(cell, float):
        if math.isnan(cell):
            raise NumericalError("a report cell is NaN")
        return repr(cell)
    return str(cell)


def _load_law(config: RunConfig):
    from .laws import load_law

    if config.law is None:
        raise ValidationError("this command needs --law")
    return load_law(config.law)


def _grid(config: RunConfig) -> int:
    from .grids import DEFAULT_GRID

    return DEFAULT_GRID if config.grid is None else config.grid


def _load_potential(config: RunConfig):
    from .potentials import load_potential, zero_potential

    if config.h is None:
        return zero_potential()
    return load_potential(config.h)


def _cmd_chi(config: RunConfig) -> None:
    from .entropy import chi_proj

    law = _load_law(config)
    report = chi_proj(law, _grid(config))
    _emit_json(
        {
            "chi": report.chi,
            "sigma": report.sigma,
            "moments": report.moments,
            "log_moment_at_0": report.log_moment_0,
            "log_moment_at_1": report.log_moment_1,
            "rho": report.rho,
            "C": report.C,
            "generic": report.generic,
            "cause": report.cause,
        },
        config,
    )


def _cmd_fisher(config: RunConfig) -> None:
    from .fisher import phi_star

    law = _load_law(config)
    report = phi_star(law, _grid(config))
    _emit_json(
        {
            "phi_star": report.phi_star,
            "integrability_ok": report.integrability_ok,
            "cause": report.cause,
            "nodes": int(report.phi.nodes.size),
        },
        config,
    )


def _cmd_lsi(config: RunConfig) -> None:
    from .fisher import check_lsi
    from .potentials import load_potential

    law = _load_law(config)
    h = load_potential(config.h) if config.h is not None else None
    c1 = 1.0 if config.c1 is None else config.c1
    c2 = 1.0 if config.c2 is None else config.c2
    report = check_lsi(law, h, c1, c2, _grid(config))
    if report.equilibrium_converged is False:
        raise NumericalError("the h-tilted equilibrium solve behind sigma_h did not converge")
    _emit_json(asdict(report), config)


def _cmd_sample(config: RunConfig) -> None:
    from .ensemble import EnsembleSpec, sample_spectra

    if config.N is None or config.k is None or config.l is None:
        raise ValidationError("sample needs --N, --k, and --l")
    trials = 1 if config.trials is None else config.trials
    spec = EnsembleSpec(config.N, config.k, config.l)
    spectra = sample_spectra(spec, trials, config.seed)
    rows = [
        (trial, index, float(value))
        for trial, row in enumerate(spectra)
        for index, value in enumerate(row)
    ]
    _emit_csv(["trial", "eigenvalue_index", "value"], rows, config)


def _cmd_lsi_matrix(config: RunConfig) -> None:
    from .ensemble import EnsembleSpec, lsi_matrix_report
    from .potentials import parse_psi

    if config.N is None or config.k is None or config.l is None:
        raise ValidationError("lsi-matrix needs --N, --k, and --l")
    if config.psi is None:
        raise ValidationError("lsi-matrix needs --psi (the comparison needs a tilt)")
    spec = EnsembleSpec(config.N, config.k, config.l, parse_psi(config.psi))
    report = lsi_matrix_report(spec, config.grid, config.seed)
    _emit_json(asdict(report), config)


def _cmd_verify_ricci(config: RunConfig) -> None:
    import numpy as np

    from .grassmann import ricci_quadratic_form, tangent_basis

    if config.N is None or config.k is None:
        raise ValidationError("verify-ricci needs --N and --k")
    trials = 100 if config.trials is None else config.trials
    rng = np.random.default_rng(config.seed)
    basis = tangent_basis(config.N, config.k)
    worst = 0.0
    for _ in range(trials):
        coeffs = rng.standard_normal(len(basis))
        x = sum(c * b.X for c, b in zip(coeffs, basis))
        value = ricci_quadratic_form(config.N, config.k, x)
        expected = config.N * float(np.linalg.norm(x)) ** 2
        worst = max(worst, abs(value - expected) / expected)
    _emit_json(
        {
            "identity": "commutator sum equals N times squared norm",
            "trials": trials,
            "max_relative_error": worst,
            "tolerance": 1e-10,
            "passed": worst <= 1e-10,
        },
        config,
    )


def _cmd_verify_gradient(config: RunConfig) -> None:
    import numpy as np

    from .grassmann import grad_norm_trace_fn, sample_haar_projection
    from .potentials import parse_psi

    if config.N is None:
        raise ValidationError("verify-gradient needs --N")
    psi = parse_psi(config.psi) if config.psi else parse_psi("poly:0,0,1")
    trials = 20 if config.trials is None else config.trials
    rng = np.random.default_rng(config.seed)
    rows = []
    worst = 0.0
    for trial in range(trials):
        k = int(rng.integers(1, config.N))
        l = int(rng.integers(1, config.N))
        p = sample_haar_projection(config.N, k, rng)
        q = sample_haar_projection(config.N, l, rng)
        rep = grad_norm_trace_fn(p, q, psi)
        worst = max(worst, rep.rel_gap)
        rows.append(
            {
                "trial": trial,
                "k": k,
                "l": l,
                "closed_form": rep.closed_form,
                "finite_difference": rep.dirichlet_fd,
                "relative_gap": rep.rel_gap,
            }
        )
    _emit_json(
        {
            "results": rows,
            "max_relative_gap": worst,
            "tolerance": 1e-5,
            "passed": worst <= 1e-5,
        },
        config,
    )


def _cmd_liberate(config: RunConfig) -> None:
    from .liberation import flow_diagnostics, flow_evolve, init_flow

    law = _load_law(config)
    n = 512 if config.particles is None else config.particles
    t_max = config.tmax if config.tmax is not None else 20.0
    state = init_flow(law, n, _grid(config))
    state = flow_evolve(state, t_max)
    diag = flow_diagnostics(state)
    columns = (diag.t, diag.chi, diag.phi_star, diag.half_integral)
    rows = zip(*(map(float, col) for col in columns))
    _emit_csv(["t", "chi", "phi_star", "half_integral"], rows, config)


def _cmd_equilibrium(config: RunConfig) -> None:
    import numpy as np

    from .densities import density_quantiles
    from .entropy import equilibrium_solve

    law = _load_law(config)
    h = _load_potential(config)
    result = equilibrium_solve(law.alpha, law.beta, h, _grid(config))
    if result.rho > 0.0:
        levels = result.density.mass * (np.arange(101) + 0.5) / 101
        quantiles = [float(q) for q in density_quantiles(result.density, levels)]
    else:
        quantiles = []
    _emit_json(
        {
            "alpha": result.alpha,
            "beta": result.beta,
            "objective": result.objective,
            "B_h": result.B_h,
            "C_h": result.C_h,
            "converged": result.converged,
            "flatness": result.flatness,
            "iterations": result.iterations,
            "solve_iterations": result.solve_iterations,
            "rho": result.rho,
            "mass": result.density.mass,
            "support": result.support,
            "density_quantiles": quantiles,
        },
        config,
    )


def _cmd_istar(config: RunConfig) -> None:
    from .liberation import istar

    law = _load_law(config)
    n = 512 if config.particles is None else config.particles
    t_max = config.tmax if config.tmax is not None else 20.0
    report = istar(law, n, t_max, _grid(config))
    _emit_json(
        {
            "istar": report.value,
            "integrated": report.integrated,
            "tail": report.tail,
            "minus_chi": report.minus_chi,
            "relative_gap": report.rel_gap,
            "decay_rate": report.decay_rate,
            "lower_bound_only": report.lower_bound_only,
            "floored": report.floored,
            "steps": report.steps,
            "rejected_steps": report.rejected_steps,
            "dt_min": report.dt_min,
            "dt_max": report.dt_max,
            "min_gap": report.min_gap,
            "energy_gap": report.energy_gap,
        },
        config,
    )


_COMMANDS = {
    "chi": _cmd_chi,
    "fisher": _cmd_fisher,
    "lsi": _cmd_lsi,
    "sample": _cmd_sample,
    "lsi-matrix": _cmd_lsi_matrix,
    "verify-ricci": _cmd_verify_ricci,
    "verify-gradient": _cmd_verify_gradient,
    "liberate": _cmd_liberate,
    "equilibrium": _cmd_equilibrium,
    "istar": _cmd_istar,
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="liberlab", description=__doc__)
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--law", help="law file (JSON)")
    parser.add_argument("--h", help="potential file (JSON)")
    parser.add_argument("--psi", help="matrix test function, poly:c0,c1,...")
    parser.add_argument("--grid", type=int, help="quadrature resolution (a positive int)")
    parser.add_argument("--N", type=int, help="matrix dimension")
    parser.add_argument("--k", type=int, help="first rank")
    parser.add_argument("--l", type=int, help="second rank")
    parser.add_argument("--trials", type=int, help="sample or trial count")
    parser.add_argument("--seed", type=int, default=0, help="RNG seed")
    parser.add_argument("--out", help="output file (written atomically)")
    parser.add_argument("--c1", type=float, help="first smallness constant")
    parser.add_argument("--c2", type=float, help="second smallness constant")
    parser.add_argument("--particles", type=int, help="flow particle count")
    parser.add_argument("--tmax", type=float, help="flow time horizon")
    return parser


def main(argv: list[str] | None = None) -> int:
    _cap_threads()
    try:
        args = _build_parser().parse_args(argv)
        for name in ("grid", "trials", "particles"):
            value = getattr(args, name)
            if value is not None and value < 1:
                raise ValidationError(f"--{name} must be a positive integer, got {value}")
        config = RunConfig(**vars(args))
        _COMMANDS[config.command](config)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
