"""The three closed-loop workloads and the output check of every call.

A workload is a list of calls built from the seed during set-up.  One
pass issues the calls back to back, each after the previous one has
returned, as a research script or a CLI user does.  Every call has a
check; a call fails when it raises, exits non-zero, produces a
non-finite value or fails its check.

Library functions are always looked up through their module at call
time (``fisher.check_lsi``, not a local alias), so that the tracer's
replacements are the functions that run.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.stats import kstest

from liberlab import cli, ensemble, entropy, fisher, grassmann, liberation
from liberlab.densities import (
    arcsine_density,
    density_values,
    free_pair_density,
    table_density,
    uniform_density,
    w1_empirical_to_density,
)
from liberlab.ensemble import EnsembleSpec
from liberlab.laws import ProjectionPairLaw, generic_atoms
from liberlab.potentials import PsiSpec, poly_potential

CHI_UNIFORM = -3.0 / 8.0 + math.log(2.0) / 2.0
PHI_UNIFORM = math.pi**2 / 18.0 - 1.0 / 3.0
UNIFORM = ProjectionPairLaw(0.5, 0.5, 0.0, 0.0, 0.0, 0.0, uniform_density(1.0))
FREE_TRACES = ((0.5, 0.5), (0.3, 0.6), (0.7, 0.2))

# The atom law of the flow workload is pinned: at this generator seed
# the anchored entropy of the particle flow drops on 3 accepted steps
# (all at t > 3.29), a known defect the benchmark keeps visible.
FLOW_ATOM_LAW_SEED = 7

# The Metropolis chains of the matrix workload, including the one inside
# lsi_matrix_report, run for a number of sweeps set by the autocorrelation
# time they measure, which swings 3x from one chain seed to the next.
# Their seeds are fixed so that the work in a pass does not depend on the
# workload seed.
MATRIX_CHAIN_SEEDS = (101, 102)
MATRIX_REPORT_SEED = 103

# Full sizes, and the toy sizes the self-test runs.
SIZES = {
    False: {
        "plain_laws": 12, "plain_grid": 4096,
        "tilted_laws": 14, "tilted_grid": 1024, "ref_grid": 2048,
        "flow_uniform": (384, 1.5), "flow_atoms": (256, 4.0),
        "n3_draws": 100_000, "big_n": 400, "big_draws": 2,
        "mcmc_chains": 2, "mcmc_count": 100, "mcmc_burn_in": 2000,
        "lsi_matrix_count": 2000, "grad_pairs": 20, "hessian": (6, 1, 2),
    },
    True: {
        "plain_laws": 2, "plain_grid": 256,
        "tilted_laws": 2, "tilted_grid": 128, "ref_grid": 256,
        "flow_uniform": (192, 1.5), "flow_atoms": (64, 4.0),
        "n3_draws": 50_000, "big_n": 200, "big_draws": 1,
        "mcmc_chains": 1, "mcmc_count": 50, "mcmc_burn_in": 200,
        "lsi_matrix_count": 300, "grad_pairs": 2, "hessian": (4, 1, 2),
    },
}


class CheckFailed(Exception):
    """A call returned, but its output is wrong."""


@dataclass
class Call:
    """One closed-loop request: the timed call and the check of its output.

    ``check`` raises CheckFailed on a wrong output and otherwise returns
    accuracy readings (possibly none) for the run's report.
    """

    label: str
    run: Callable[[], object]
    check: Callable[[object], dict]


@dataclass
class Workload:
    name: str
    calls: list[Call]
    state: dict = field(default_factory=dict)
    reported: set = field(default_factory=set)


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def require_finite(values: dict) -> None:
    for key, value in values.items():
        if value is None or isinstance(value, bool):
            continue
        require(
            isinstance(value, (int, float)) and math.isfinite(value),
            f"{key} is not a finite number: {value!r}",
        )


def random_generic_law(rng: np.random.Generator, n_nodes: int = 801) -> ProjectionPairLaw:
    """A generic law with a smooth interior bump density.

    The same generator as the test suite's: atoms in the generic pattern
    of random traces, and a wobbled sine-squared bump strictly inside
    (0,1), with first-order edge decay, carrying the remaining mass.
    """
    alpha, beta = rng.uniform(0.12, 0.88, size=2)
    atoms = generic_atoms(alpha, beta)
    mass = 1.0 - sum(atoms.values())
    lo = rng.uniform(0.02, 0.3)
    hi = rng.uniform(0.7, 0.98)
    nodes = np.linspace(lo, hi, n_nodes)
    u = (nodes - lo) / (hi - lo)
    envelope = np.sin(np.pi * u) ** 2
    wobble = 1.0 + 0.6 * np.sin(
        (2 + rng.integers(0, 3)) * np.pi * u + rng.uniform(0, np.pi)
    )
    raw = envelope * wobble**2
    base = table_density(nodes, raw, (1.0, 1.0))
    density = table_density(nodes, raw * (mass / base.mass), (1.0, 1.0), mass)
    return ProjectionPairLaw(alpha, beta, density=density, **atoms)


def law_document(law: ProjectionPairLaw) -> dict:
    """The law-file form of a table-density law."""
    d = law.density
    return {
        "alpha": law.alpha,
        "beta": law.beta,
        "atoms": law.atoms,
        "density": {
            "kind": "table",
            "nodes": d.nodes.tolist(),
            "values": d.values.tolist(),
            "edge_exponents": list(d.edge_exponents),
            "mass": d.mass,
        },
    }


# --------------------------------------------------------------------- lsi_plain


def _cli_lsi(law_path: Path, out_path: Path, grid: int):
    def run():
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli.main(["lsi", "--law", str(law_path), "--grid", str(grid), "--out", str(out_path)])
        return code, stdout.getvalue()

    return run


def _lsi_report(result, out_path: Path) -> tuple[dict, bytes]:
    code, stdout = result
    require(code == 0, f"exit code {code}")
    require(stdout == f"wrote {out_path}\n", f"unexpected stdout {stdout!r}")
    raw = out_path.read_bytes()
    report = json.loads(raw)
    require_finite({k: report[k] for k in ("chi", "phi_star", "margin")})
    require(report["margin"] >= -1e-6, f"margin {report['margin']} < -1e-6")
    return report, raw


def build_lsi_plain(seed: int, workdir: Path, toy: bool) -> Workload:
    size = SIZES[toy]
    grid = size["plain_grid"]
    rng = np.random.default_rng(seed)
    workload = Workload("lsi_plain", [])
    calls = workload.calls

    def table_check(out_path: Path, keep: bool):
        def check(result):
            _, raw = _lsi_report(result, out_path)
            if keep:
                workload.state["first_report"] = raw
            return {}

        return check

    for i in range(size["plain_laws"]):
        law_path = workdir / f"law_{i:02d}.json"
        law_path.write_text(json.dumps(law_document(random_generic_law(rng))))
        out_path = workdir / f"lsi_{i:02d}.json"
        calls.append(Call(f"law_{i:02d}", _cli_lsi(law_path, out_path, grid), table_check(out_path, i == 0)))

    uniform_path = workdir / "uniform.json"
    uniform_path.write_text(json.dumps({
        "alpha": 0.5, "beta": 0.5, "atoms": generic_atoms(0.5, 0.5),
        "density": {"kind": "uniform", "mass": 1.0, "support": [0.0, 1.0]},
    }))
    uniform_out = workdir / "lsi_uniform.json"

    def uniform_check(result):
        report, _ = _lsi_report(result, uniform_out)
        err = max(abs(report["chi"] - CHI_UNIFORM), abs(report["phi_star"] - PHI_UNIFORM))
        require(err <= 1e-5, f"uniform law off its closed form by {err:.2e}")
        return {"ref_err": err}

    calls.append(Call("uniform", _cli_lsi(uniform_path, uniform_out, grid), uniform_check))

    for a, b in FREE_TRACES:
        law_path = workdir / f"free_{a}_{b}.json"
        law_path.write_text(json.dumps({
            "alpha": a, "beta": b, "atoms": generic_atoms(a, b), "density": {"kind": "free_pair"},
        }))
        out_path = workdir / f"lsi_free_{a}_{b}.json"

        def free_check(result, out_path=out_path):
            report, _ = _lsi_report(result, out_path)
            err = max(abs(report["chi"]), abs(report["phi_star"]))
            require(err <= 1e-5, f"free pair gives {err:.2e}, expected 0")
            return {"ref_err": err}

        calls.append(Call(f"free_{a}_{b}", _cli_lsi(law_path, out_path, grid), free_check))

    rerun_out = workdir / "lsi_00.json"

    def rerun_check(result):
        _, raw = _lsi_report(result, rerun_out)
        require(raw == workload.state.get("first_report"), "rerun report is not byte-identical")
        return {}

    calls.append(Call("rerun_00", _cli_lsi(workdir / "law_00.json", rerun_out, grid), rerun_check))
    return workload


# -------------------------------------------------------------------- lsi_tilted


def build_lsi_tilted(seed: int, workdir: Path, toy: bool) -> Workload:
    size = SIZES[toy]
    grid = size["tilted_grid"]
    rng = np.random.default_rng(seed)
    xs = np.linspace(0.0, 1.0, 2001)
    c1, c2 = fisher.EMPIRICAL_C1, fisher.EMPIRICAL_C2
    calls = []

    def tilted_check(report):
        values = {k: v for k, v in vars(report).items()}
        require_finite(values)
        require(report.smallness_ok, "smallness condition fails")
        require(report.relative_margin >= -1e-6, f"relative margin {report.relative_margin} < -1e-6")
        # relative_sigma_h does not look at the solver's converged flag,
        # so the sign of sigma_h is checked here
        require(report.sigma_h >= -1e-6, f"sigma_h {report.sigma_h} < -1e-6")
        return {}

    poly = np.polynomial.polynomial
    for i in range(size["tilted_laws"]):
        law = random_generic_law(rng)
        raw = rng.standard_normal(4)
        raw[0] = 0.0
        dh = poly.polyval(xs, poly.polyder(raw))
        d2h = poly.polyval(xs, poly.polyder(raw, 2))
        norm = c1 * np.max(np.abs(dh)) + c2 * np.max(np.abs(d2h))
        h = poly_potential(tuple(raw * rng.uniform(0.2, 0.85) / norm))
        calls.append(Call(
            f"tilted_{i:02d}",
            lambda law=law, h=h: fisher.check_lsi(law, h, c1, c2, grid),
            tilted_check,
        ))

    ref_grid = size["ref_grid"]
    probe = np.linspace(1e-3, 1.0 - 1e-3, 2001)
    for a, b in FREE_TRACES[:2]:
        want = density_values(free_pair_density(a, b), probe)

        def ref_check(result, want=want):
            require(result.converged, "free-pair equilibrium did not converge")
            require_finite({"B_h": result.B_h, "flatness": result.flatness})
            got = density_values(result.density, probe)
            l1 = float(np.trapezoid(np.abs(got - want), probe))
            require(l1 <= 1e-3, f"L1 gap {l1:.2e} to the free-pair density")
            return {"ref_err": max(l1, abs(result.B_h))}

        calls.append(Call(
            f"equilibrium_{a}_{b}",
            lambda a=a, b=b: entropy.equilibrium_solve(a, b, None, ref_grid),
            ref_check,
        ))
    return Workload("lsi_tilted", calls)


# -------------------------------------------------------------------------- flow


def _istar_check(closed_form: float | None):
    def check(report):
        require_finite({"value": report.value, "rel_gap": report.rel_gap})
        require(not report.lower_bound_only, "I* is only a lower bound at this horizon")
        require(report.rel_gap <= 0.02, f"I* off -chi by {report.rel_gap:.2%}")
        chi_hat = np.array([r.chi_hat for r in report.state.history])
        readings = {
            "istar_rel_gap": report.rel_gap,
            "chi_drops": int(np.sum(np.diff(chi_hat) < -1e-12)),
        }
        if closed_form is not None:
            readings["ref_err"] = abs(report.value - closed_form)
        return readings

    return check


def build_flow(seed: int, workdir: Path, toy: bool) -> Workload:
    # The flow is deterministic and both laws are reference cases, so
    # the seed does not change these calls' inputs.
    size = SIZES[toy]
    atom_law = random_generic_law(np.random.default_rng(FLOW_ATOM_LAW_SEED))
    n_u, t_u = size["flow_uniform"]
    n_a, t_a = size["flow_atoms"]
    return Workload("flow", [
        Call("istar_uniform", lambda: liberation.istar(UNIFORM, n_u, t_u), _istar_check(-CHI_UNIFORM)),
        Call("istar_atoms", lambda: liberation.istar(atom_law, n_a, t_a), _istar_check(None)),
    ])


# ------------------------------------------------------------------------ matrix


def build_matrix(seed: int, workdir: Path, toy: bool) -> Workload:
    size = SIZES[toy]
    rng = np.random.default_rng(seed)

    def sub_seed() -> int:
        return int(rng.integers(2**32))

    calls = []
    n3 = EnsembleSpec(3, 2, 2)

    def n3_check(xs):
        ks = kstest(np.ravel(xs), lambda t: 2.0 * t - t**2).statistic
        require(ks < 0.01, f"KS {ks:.4f} against the exact N=3 law")
        return {}

    s = sub_seed()
    calls.append(Call("sample_N3", lambda: ensemble.sample_spectra(n3, size["n3_draws"], s), n3_check))

    big_n = size["big_n"]
    big = EnsembleSpec(big_n, big_n // 2, big_n // 2)

    def big_check(rows):
        arcsine = arcsine_density(1.0)
        worst = max(w1_empirical_to_density(row, arcsine) for row in rows)
        require(worst <= 0.02, f"W1 {worst:.4f} against the arcsine law")
        return {}

    s = sub_seed()
    calls.append(Call(f"sample_N{big_n}", lambda: ensemble.sample_spectra(big, size["big_draws"], s), big_check))

    tilted16 = EnsembleSpec(16, 8, 8, PsiSpec((0.0, 1.0)))

    def chain_check(result):
        x = result.samples
        require(bool(np.all(np.isfinite(x))) and bool(np.all((x > 0.0) & (x < 1.0))), "draws outside (0,1)")
        require_finite({"acceptance": result.acceptance, "tau": result.autocorr_time})
        return {}

    for i, s in enumerate(MATRIX_CHAIN_SEEDS[:size["mcmc_chains"]]):
        calls.append(Call(
            f"mcmc_{i}",
            lambda s=s: ensemble.mcmc_tilted_spectrum(
                tilted16, s, count=size["mcmc_count"], burn_in=size["mcmc_burn_in"]
            ),
            chain_check,
        ))

    model4 = EnsembleSpec(4, 2, 2, PsiSpec((0.0, 0.0, 0.5)))

    def lsi_matrix_check(rep):
        require_finite({"margin": rep.margin, "margin_se": rep.margin_se})
        require(rep.mode == "quadrature", f"mode {rep.mode}")
        require(rep.margin >= -3.0 * rep.margin_se, f"margin {rep.margin:.4f} below -3 standard errors")
        return {}

    calls.append(Call(
        "lsi_matrix_N4",
        lambda: ensemble.lsi_matrix_report(model4, seed=MATRIX_REPORT_SEED, count=size["lsi_matrix_count"]),
        lsi_matrix_check,
    ))

    def grad_check(rep):
        require_finite({"closed_form": rep.closed_form, "rel_gap": rep.rel_gap})
        require(rep.rel_gap <= 1e-5, f"gradient routes differ by {rep.rel_gap:.2e}")
        return {}

    # ranks cycle through a fixed list, so the cost of a pass does not
    # depend on the seed; points and test functions are random
    ranks = {4: ((1, 2), (2, 2), (3, 1), (2, 3), (1, 1)), 6: ((1, 2), (2, 3), (3, 3), (4, 2), (5, 1))}
    for i in range(size["grad_pairs"]):
        n = 4 if i % 2 == 0 else 6
        k, l = ranks[n][(i // 2) % 5]
        coeffs = np.concatenate([[0.0], 0.5 * rng.standard_normal(3)])
        p = grassmann.sample_haar_projection(n, k, rng)
        q = grassmann.sample_haar_projection(n, l, rng)
        psi = PsiSpec(tuple(coeffs))
        calls.append(Call(
            f"grad_{i:02d}",
            lambda p=p, q=q, psi=psi: grassmann.grad_norm_trace_fn(p, q, psi),
            grad_check,
        ))

    n, k, l = size["hessian"]
    hp = grassmann.sample_haar_projection(n, k, rng)
    hq = grassmann.sample_haar_projection(n, l, rng)

    def hessian_check(hess):
        require(bool(np.all(np.isfinite(hess))), "non-finite Hessian entries")
        require(bool(np.allclose(hess, hess.T)), "Hessian is not symmetric")
        return {}

    calls.append(Call(
        f"hessian_N{n}",
        lambda: grassmann.hessian_fd(hp, hq, PsiSpec((0.0, 1.0))),
        hessian_check,
    ))
    return Workload("matrix", calls)


def build_flow_matrix(seed: int, workdir: Path, toy: bool) -> Workload:
    """The flow calls, then the matrix calls, in one pass.

    The two share no layer.  They are one workload so that the three
    workloads fit runs long enough to average over the host's slow spells.
    """
    calls = build_flow(seed, workdir, toy).calls + build_matrix(seed, workdir, toy).calls
    return Workload("flow_matrix", calls)


BUILDERS = {
    "lsi_plain": build_lsi_plain,
    "lsi_tilted": build_lsi_tilted,
    "flow_matrix": build_flow_matrix,
}


@dataclass
class CallResult:
    label: str
    seconds: float
    ok: bool
    readings: dict


def run_pass(workload: Workload, clock, fits=None) -> list[CallResult]:
    """Issue every call once, in order; time the call, then check it.

    With ``fits``, the pass stops before the first call ``i`` for which
    ``fits(i)`` is false.
    """
    results = []
    for i, call in enumerate(workload.calls):
        if fits is not None and not fits(i):
            break
        start = clock()
        try:
            output = call.run()
            error = None
        except Exception as exc:  # a raising call is a failed call
            output, error = None, exc
        seconds = clock() - start
        readings: dict = {}
        if error is None:
            try:
                readings = call.check(output)
            except Exception as exc:  # includes CheckFailed and malformed output
                error = exc
        if error is not None:
            message = f"{workload.name}/{call.label} failed: {type(error).__name__}: {error}"
            if message not in workload.reported:
                workload.reported.add(message)
                print(message, file=sys.stderr)
        results.append(CallResult(call.label, seconds, error is None, readings))
    return results
