"""Span tracing of the workbench's layers, installed from outside the package.

The tracer replaces public functions under the names their callers bind
(``liberlab.fisher.density_transport`` is the name ``phi_star`` looks up,
``liberlab.entropy.moments_from_masses`` the one the equilibrium solver
uses), so nothing under ``src/`` changes.  Each call becomes a span with
a name, start, end and parent; spans stay in memory until the run ends.
A layer is the first component of a span name; its self time is the
span duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import time
from dataclasses import dataclass, field

import numpy as np

LAYERS = (
    "cli",
    "laws",
    "densities",
    "chebyshev",
    "entropy",
    "fisher",
    "potentials",
    "liberation",
    "ensemble",
    "grassmann",
)


def _size_of_first(args, kwargs, result):
    return {"points": int(np.size(args[0]))}


def _transport_nodes(args, kwargs, result):
    return {"nodes": int(result.x.size)}


def _equilibrium(args, kwargs, result):
    return {
        "iterations": int(result.iterations),
        "converged": bool(result.converged),
        "flatness": float(result.flatness),
    }


def _flow(args, kwargs, result):
    # the history gains one record per accepted step; the last step is
    # clipped to the horizon, so it is left out of the smallest step
    start = max(len(args[0].history), 1)
    t = np.array([r.t for r in result.history[start - 1 :]])
    dt = np.diff(t)
    x = result.particles
    return {
        "steps": int(dt.size),
        "t_span": float(t[-1] - t[0]),
        "dt_min": float(dt[:-1].min()) if dt.size > 1 else float(dt.sum()),
        "min_gap": float(np.diff(x).min()) if x.size > 1 else 0.0,
    }


def _sample(args, kwargs, result):
    spec, trials = args[0], args[1]
    return {"N": int(spec.N), "draws": int(trials)}


def _mcmc(args, kwargs, result):
    return {
        "kept": int(result.samples.shape[0]),
        "acceptance": float(result.acceptance),
        "tau": float(result.autocorr_time),
    }


def _hessian(args, kwargs, result):
    side = int(result.shape[0])
    # one base value, 2 per diagonal entry, 2 for the half-step probe,
    # 4 per off-diagonal pair
    return {"evals": 1 + 2 * side + 2 + 2 * side * (side - 1)}


# (module, attribute, span name, counter extractor).  The module is the
# one whose namespace the caller reads; a function bound in several
# modules is listed once per binding.
TARGETS = (
    ("liberlab.cli", "main", "cli.main", None),
    ("liberlab.laws", "load_law", "laws.load_law", None),
    ("liberlab.fisher", "check_integrability", "laws.check_integrability", None),
    ("liberlab.fisher", "weighted_norm", "laws.weighted_norm", None),
    ("liberlab.fisher", "density_transport", "densities.transport", _transport_nodes),
    ("liberlab.entropy", "density_log_energy", "densities.log_energy", None),
    ("liberlab.entropy", "density_log_moments", "densities.log_moments", None),
    ("liberlab.laws", "density_log_moments", "densities.log_moments", None),
    ("liberlab.entropy", "density_integrate", "densities.integrate", None),
    ("liberlab.laws", "density_integrate", "densities.integrate", None),
    ("liberlab.laws", "density_weighted_p_norm", "densities.weighted_p_norm", None),
    ("liberlab.liberation", "density_quantiles", "densities.quantiles", None),
    ("liberlab.entropy", "moments_from_masses", "chebyshev.moments", _size_of_first),
    ("liberlab.entropy", "cosine_series_at_angles", "chebyshev.cosine_series", _size_of_first),
    ("liberlab.densities", "moments_from_masses", "chebyshev.moments", _size_of_first),
    ("liberlab.densities", "coeffs_from_values", "chebyshev.coeffs", _size_of_first),
    ("liberlab.densities", "sine_series_at_angles", "chebyshev.sine_series", _size_of_first),
    ("liberlab.entropy", "equilibrium_solve", "entropy.equilibrium", _equilibrium),
    ("liberlab.entropy", "chi_proj", "entropy.chi_proj", None),
    ("liberlab.fisher", "chi_proj", "entropy.chi_proj", None),
    ("liberlab.liberation", "chi_proj", "entropy.chi_proj", None),
    ("liberlab.fisher", "relative_sigma_h", "entropy.relative_sigma_h", None),
    ("liberlab.entropy", "tau_of_potential", "entropy.tau", None),
    ("liberlab.fisher", "check_lsi", "fisher.check_lsi", None),
    ("liberlab.fisher", "phi_star", "fisher.phi_star", None),
    ("liberlab.fisher", "relative_phi_h", "fisher.relative_phi_h", None),
    ("liberlab.potentials.PotentialSpec", "sup_norm", "potentials.sup_norm", None),
    ("liberlab.liberation", "istar", "liberation.istar", None),
    ("liberlab.liberation", "init_flow", "liberation.init_flow", None),
    ("liberlab.liberation", "flow_evolve", "liberation.flow_evolve", _flow),
    ("liberlab.ensemble", "sample_spectra", "ensemble.sample", _sample),
    ("liberlab.ensemble", "mcmc_tilted_spectrum", "ensemble.mcmc", _mcmc),
    ("liberlab.ensemble", "lsi_matrix_report", "ensemble.lsi_matrix", None),
    ("liberlab.ensemble", "log_z_quadrature", "ensemble.log_z_quadrature", None),
    ("liberlab.grassmann", "grad_norm_trace_fn", "grassmann.grad", None),
    ("liberlab.grassmann", "hessian_fd", "grassmann.hessian", _hessian),
)


@dataclass
class Span:
    ident: int
    name: str
    parent: int | None
    start: int
    end: int = 0
    counters: dict = field(default_factory=dict)


def _resolve(path: str):
    """Import a module, or a class inside one, from its dotted path."""
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        module, _, attr = path.rpartition(".")
        return getattr(importlib.import_module(module), attr)


class Tracer:
    """Records spans for every target while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str, counters):
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(len(spans) + len(stack), name, stack[-1].ident if stack else None, clock())
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
                spans.append(span)
            if counters is not None:
                span.counters = counters(args, kwargs, result)
            return result

        return traced

    def __enter__(self) -> "Tracer":
        for path, attr, name, counters in TARGETS:
            owner = _resolve(path)
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, counters))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def write(self, path) -> None:
        """Write every span as one JSON line (gzip-compressed)."""
        with gzip.open(path, "wt", compresslevel=1) as handle:
            for s in self.spans:
                handle.write(
                    json.dumps(
                        {"id": s.ident, "name": s.name, "parent": s.parent,
                         "start_ns": s.start, "end_ns": s.end, **s.counters},
                        separators=(",", ":"),
                    )
                    + "\n"
                )


def self_times(spans: list[Span]) -> dict[int, int]:
    """Span duration minus the time covered by its direct children, in ns.

    The workbench is single-threaded, so children of one span never
    overlap and their durations add.
    """
    child_time: dict[int, int] = {}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0) + (s.end - s.start)
    return {s.ident: (s.end - s.start) - child_time.get(s.ident, 0) for s in spans}


def layer_metrics(spans: list[Span], passes: int, traced_wall_s: float) -> dict[str, float]:
    """Per-pass layer numbers from the spans of ``passes`` traced passes.

    Counts and times are means over the traced passes; ``traced_wall_s``
    is the mean traced pass, so the layers' self times add up to it.
    """
    selft = self_times(spans)
    per = 1.0 / max(passes, 1)
    out: dict[str, float] = {}

    def ms(ns: float) -> float:
        return ns * 1e-6 * per

    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def named(name):
        return by_name.get(name, [])

    by_id = {s.ident: s for s in spans}

    def inclusive(*names) -> int:
        # outermost spans only, so a function re-entered through another
        # binding is not counted twice
        wanted = set(names)
        total = 0
        for n in names:
            for s in named(n):
                p = s.parent
                nested = False
                while p is not None:
                    if by_id[p].name in wanted:
                        nested = True
                        break
                    p = by_id[p].parent
                if not nested:
                    total += s.end - s.start
        return total

    for layer in LAYERS:
        members = [s for s in spans if s.name.split(".", 1)[0] == layer]
        out[f"{layer}.calls"] = len(members) * per
        out[f"{layer}.self_ms"] = ms(sum(selft[s.ident] for s in members))

    transport = named("densities.transport")
    out["densities.transport.calls"] = len(transport) * per
    out["densities.transport.ms"] = ms(inclusive("densities.transport"))
    out["densities.transport.nodes"] = sum(s.counters["nodes"] for s in transport) * per
    out["densities.log_energy.ms"] = ms(inclusive("densities.log_energy"))
    out["densities.log_moments.ms"] = ms(inclusive("densities.log_moments"))
    out["densities.quantiles.ms"] = ms(inclusive("densities.quantiles"))

    cheb = [s for s in spans if s.name.startswith("chebyshev.")]
    out["chebyshev.ms"] = ms(sum(s.end - s.start for s in cheb))
    out["chebyshev.points"] = sum(s.counters["points"] for s in cheb) * per

    eq = named("entropy.equilibrium")
    out["entropy.equilibrium.calls"] = len(eq) * per
    out["entropy.equilibrium.ms"] = ms(inclusive("entropy.equilibrium"))
    out["entropy.equilibrium.iterations"] = (
        float(np.mean([s.counters["iterations"] for s in eq])) if eq else 0.0
    )
    out["entropy.equilibrium.converged_share"] = (
        float(np.mean([s.counters["converged"] for s in eq])) if eq else 0.0
    )
    out["entropy.equilibrium.flatness_max"] = (
        max(s.counters["flatness"] for s in eq) if eq else 0.0
    )
    out["entropy.chi_proj.calls"] = len(named("entropy.chi_proj")) * per
    out["entropy.chi_proj.ms"] = ms(inclusive("entropy.chi_proj"))

    out["fisher.check_lsi.self_ms"] = ms(sum(selft[s.ident] for s in named("fisher.check_lsi")))
    out["fisher.phi_star.ms"] = ms(inclusive("fisher.phi_star"))
    out["fisher.relative_phi_h.ms"] = ms(inclusive("fisher.relative_phi_h"))

    out["laws.load_law.ms"] = ms(inclusive("laws.load_law"))
    out["laws.check_integrability.ms"] = ms(inclusive("laws.check_integrability"))
    out["potentials.sup_norm.ms"] = ms(inclusive("potentials.sup_norm"))

    flows = named("liberation.flow_evolve")
    steps = sum(s.counters["steps"] for s in flows)
    t_span = sum(s.counters["t_span"] for s in flows)
    flow_ns = inclusive("liberation.flow_evolve")
    out["liberation.flow_evolve.ms"] = ms(flow_ns)
    out["liberation.flow_evolve.steps"] = steps * per
    out["liberation.flow_evolve.step_ms"] = flow_ns * 1e-6 / steps if steps else 0.0
    out["liberation.flow_evolve.steps_per_time"] = steps / t_span if t_span else 0.0
    out["liberation.flow_evolve.dt_min"] = min((s.counters["dt_min"] for s in flows), default=0.0)
    out["liberation.flow_evolve.min_gap"] = min((s.counters["min_gap"] for s in flows), default=0.0)

    for label, n_dim, scale, unit in (("N3", 3, 1e6, "us"), ("N400", 400, 1e3, "ms")):
        draws = [s for s in named("ensemble.sample") if s.counters["N"] == n_dim]
        count = sum(s.counters["draws"] for s in draws)
        secs = sum(s.end - s.start for s in draws) * 1e-9
        out[f"ensemble.sample.{label}.{unit}_per_draw"] = secs * scale / count if count else 0.0
    chains = named("ensemble.mcmc")
    kept = sum(s.counters["kept"] for s in chains)
    out["ensemble.mcmc.ms_per_kept_draw"] = (
        sum(s.end - s.start for s in chains) * 1e-6 / kept if kept else 0.0
    )
    out["ensemble.mcmc.acceptance"] = (
        float(np.mean([s.counters["acceptance"] for s in chains])) if chains else 0.0
    )
    out["ensemble.mcmc.tau"] = float(np.mean([s.counters["tau"] for s in chains])) if chains else 0.0
    out["ensemble.lsi_matrix.ms"] = ms(inclusive("ensemble.lsi_matrix"))

    out["grassmann.grad.ms"] = ms(inclusive("grassmann.grad"))
    out["grassmann.hessian.ms"] = ms(inclusive("grassmann.hessian"))
    out["grassmann.hessian.evals"] = sum(s.counters["evals"] for s in named("grassmann.hessian")) * per

    out["trace.wall_s"] = traced_wall_s
    return out
