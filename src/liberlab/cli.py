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
from dataclasses import asdict

from .errors import NumericalError, ValidationError


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


def _write(text: str, args: argparse.Namespace) -> None:
    """Print a report, or write it to --out atomically (temp file plus rename)."""
    if not args.out:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(args.out))
    fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".part")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp_path, args.out)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise
    print(f"wrote {args.out}")


def _emit_json(report: dict, args: argparse.Namespace) -> None:
    from . import __version__

    payload = dict(report)
    payload["config"] = vars(args)
    payload["version"] = __version__
    _write(json.dumps(_sanitize(payload), indent=2, sort_keys=True) + "\n", args)


def _emit_csv(
    header: list[str], rows, args: argparse.Namespace, notes: dict | None = None
) -> None:
    """CSV report: a "# liberlab" line with the configuration, then one
    "# key {json}" line per entry of notes, then the header and rows."""
    from . import __version__

    meta = json.dumps(_sanitize(vars(args)), sort_keys=True)
    lines = [f"# liberlab {__version__} {meta}"]
    for key, note in (notes or {}).items():
        lines.append(f"# {key} {json.dumps(_sanitize(note, key), sort_keys=True)}")
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_format_cell(cell) for cell in row))
    _write("\n".join(lines) + "\n", args)


def _format_cell(cell) -> str:
    if isinstance(cell, float):
        if math.isnan(cell):
            raise NumericalError("a report cell is NaN")
        return repr(cell)
    return str(cell)


def _load_law(args: argparse.Namespace):
    from .laws import load_law

    if args.law is None:
        raise ValidationError("this command needs --law")
    return load_law(args.law)


def _grid(args: argparse.Namespace) -> int:
    from .grids import DEFAULT_GRID

    return DEFAULT_GRID if args.grid is None else args.grid


def _load_potential(args: argparse.Namespace):
    from .potentials import load_potential, zero_potential

    if args.h is None:
        return zero_potential()
    return load_potential(args.h)


def _cmd_chi(args: argparse.Namespace) -> None:
    from .entropy import chi_proj

    law = _load_law(args)
    report = chi_proj(law, _grid(args))
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
        args,
    )


def _cmd_fisher(args: argparse.Namespace) -> None:
    from .fisher import phi_star

    law = _load_law(args)
    report = phi_star(law, _grid(args))
    _emit_json(
        {
            "phi_star": report.phi_star,
            "integrability_ok": report.integrability_ok,
            "cause": report.cause,
            "nodes": int(report.phi.nodes.size),
        },
        args,
    )


def _cmd_lsi(args: argparse.Namespace) -> None:
    from .fisher import check_lsi
    from .potentials import load_potential

    law = _load_law(args)
    h = load_potential(args.h) if args.h is not None else None
    c1 = 1.0 if args.c1 is None else args.c1
    c2 = 1.0 if args.c2 is None else args.c2
    report = check_lsi(law, h, c1, c2, _grid(args))
    if report.equilibrium_converged is False:
        raise NumericalError("the h-tilted equilibrium solve behind sigma_h did not converge")
    _emit_json(asdict(report), args)


def _cmd_sample(args: argparse.Namespace) -> None:
    from .ensemble import EnsembleSpec, sample_spectra

    if args.N is None or args.k is None or args.l is None:
        raise ValidationError("sample needs --N, --k, and --l")
    trials = 1 if args.trials is None else args.trials
    spec = EnsembleSpec(args.N, args.k, args.l)
    spectra = sample_spectra(spec, trials, args.seed)
    rows = [
        (trial, index, float(value))
        for trial, row in enumerate(spectra)
        for index, value in enumerate(row)
    ]
    _emit_csv(["trial", "eigenvalue_index", "value"], rows, args)


def _cmd_lsi_matrix(args: argparse.Namespace) -> None:
    from .ensemble import EnsembleSpec, lsi_matrix_report
    from .potentials import parse_psi

    if args.N is None or args.k is None or args.l is None:
        raise ValidationError("lsi-matrix needs --N, --k, and --l")
    if args.psi is None:
        raise ValidationError("lsi-matrix needs --psi (the comparison needs a tilt)")
    spec = EnsembleSpec(args.N, args.k, args.l, parse_psi(args.psi))
    report = lsi_matrix_report(spec, args.grid, args.seed)
    _emit_json(asdict(report), args)


def _cmd_verify_ricci(args: argparse.Namespace) -> None:
    import numpy as np

    from .grassmann import ricci_quadratic_form, tangent_basis

    if args.N is None or args.k is None:
        raise ValidationError("verify-ricci needs --N and --k")
    trials = 100 if args.trials is None else args.trials
    rng = np.random.default_rng(args.seed)
    basis = tangent_basis(args.N, args.k)
    worst = 0.0
    for _ in range(trials):
        coeffs = rng.standard_normal(len(basis))
        x = sum(c * b.X for c, b in zip(coeffs, basis))
        value = ricci_quadratic_form(args.N, args.k, x)
        expected = args.N * float(np.linalg.norm(x)) ** 2
        worst = max(worst, abs(value - expected) / expected)
    _emit_json(
        {
            "identity": "commutator sum equals N times squared norm",
            "trials": trials,
            "max_relative_error": worst,
            "tolerance": 1e-10,
            "passed": worst <= 1e-10,
        },
        args,
    )


def _cmd_verify_gradient(args: argparse.Namespace) -> None:
    import numpy as np

    from .grassmann import grad_norm_trace_fn, sample_haar_projection
    from .potentials import parse_psi

    if args.N is None or args.N < 2:
        raise ValidationError("verify-gradient needs --N of at least 2")
    psi = parse_psi(args.psi) if args.psi else parse_psi("poly:0,0,1")
    trials = 20 if args.trials is None else args.trials
    rng = np.random.default_rng(args.seed)
    rows = []
    worst = 0.0
    for trial in range(trials):
        k = int(rng.integers(1, args.N))
        l = int(rng.integers(1, args.N))
        p = sample_haar_projection(args.N, k, rng)
        q = sample_haar_projection(args.N, l, rng)
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
        args,
    )


def _cmd_liberate(args: argparse.Namespace) -> None:
    from .liberation import flow_diagnostics, flow_evolve, init_flow

    law = _load_law(args)
    n = 512 if args.particles is None else args.particles
    t_max = args.tmax if args.tmax is not None else 20.0
    state = init_flow(law, n, _grid(args))
    state = flow_evolve(state, t_max)
    diag = flow_diagnostics(state)
    columns = (diag.t, diag.chi, diag.phi_star, diag.half_integral)
    rows = zip(*(map(float, col) for col in columns))
    _emit_csv(["t", "chi", "phi_star", "half_integral"], rows, args, {"flow": _flow_run(diag)})


def _flow_run(run) -> dict:
    """How a flow ran, read off its FlowDiagnostics or IstarReport."""
    names = ("steps", "rejected_steps", "evals", "dt_min", "dt_max", "min_gap", "energy_gap")
    return {name: getattr(run, name) for name in names}


def _cmd_equilibrium(args: argparse.Namespace) -> None:
    import numpy as np

    from .densities import density_quantiles
    from .entropy import equilibrium_solve

    law = _load_law(args)
    h = _load_potential(args)
    result = equilibrium_solve(law.alpha, law.beta, h, _grid(args))
    if result.law.rho > 0.0:
        levels = result.density.mass * (np.arange(101) + 0.5) / 101
        quantiles = [float(q) for q in density_quantiles(result.density, levels)]
    else:
        quantiles = []
    _emit_json(
        {
            "alpha": result.law.alpha,
            "beta": result.law.beta,
            "objective": result.objective,
            "B_h": result.B_h,
            "C_h": result.C_h,
            "converged": result.converged,
            "flatness": result.flatness,
            "iterations": result.iterations,
            "solve_iterations": result.solve_iterations,
            "rho": result.law.rho,
            "mass": result.density.mass,
            "support": result.support,
            "density_quantiles": quantiles,
        },
        args,
    )


def _cmd_istar(args: argparse.Namespace) -> None:
    from .liberation import istar

    law = _load_law(args)
    n = 512 if args.particles is None else args.particles
    t_max = args.tmax if args.tmax is not None else 20.0
    report = istar(law, n, t_max, _grid(args))
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
            **_flow_run(report),
        },
        args,
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
    try:
        args = _build_parser().parse_args(argv)
        for name in ("grid", "trials", "particles"):
            value = getattr(args, name)
            if value is not None and value < 1:
                raise ValidationError(f"--{name} must be a positive integer, got {value}")
        if args.seed < 0:
            raise ValidationError(f"--seed must be nonnegative, got {args.seed}")
        for name in ("c1", "c2"):
            value = getattr(args, name)
            if value is not None and not math.isfinite(value):
                raise ValidationError(f"--{name} must be finite, got {value}")
        if args.out and not os.path.isdir(os.path.dirname(os.path.abspath(args.out))):
            raise ValidationError(f"--out {args.out}: its directory does not exist")
        _COMMANDS[args.command](args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
