"""Numerical workbench for the free entropy and free Fisher information
of a pair of projections, the matrix model behind them, and the flow
that interpolates between a coupled pair and a free one.

Submodules are imported lazily so that lightweight uses (reading a law
file, parsing a potential) do not pay for the numerical stack.
"""

from __future__ import annotations

__version__ = "0.1.0"

_EXPORTS = {
    # errors
    "ValidationError": "errors",
    "NumericalError": "errors",
    # densities
    "DensitySpec": "densities",
    "zero_density": "densities",
    "arcsine_density": "densities",
    "uniform_density": "densities",
    "free_pair_density": "densities",
    "free_pair_support": "densities",
    "table_density": "densities",
    "cheb_density": "densities",
    "density_values": "densities",
    "density_integrate": "densities",
    "density_moments": "densities",
    "density_log_moments": "densities",
    "density_log_energy": "densities",
    "density_weighted_p_norm": "densities",
    "density_transport": "densities",
    "density_cdf": "densities",
    "density_quantiles": "densities",
    "w1_empirical_to_density": "densities",
    # laws
    "ProjectionPairLaw": "laws",
    "free_pair_law": "laws",
    "generic_atoms": "laws",
    "load_law": "laws",
    "law_to_dict": "laws",
    "integrate_against": "laws",
    "weighted_norm": "laws",
    "check_integrability": "laws",
    "IntegrabilityReport": "laws",
    # potentials
    "PotentialSpec": "potentials",
    "zero_potential": "potentials",
    "poly_potential": "potentials",
    "cosine_potential": "potentials",
    "load_potential": "potentials",
    "PsiSpec": "potentials",
    "parse_psi": "potentials",
    # entropy
    "EntropyReport": "entropy",
    "chi_proj": "entropy",
    "b_function": "entropy",
    "constant_C": "entropy",
    "rate_function": "entropy",
    "EquilibriumResult": "entropy",
    "equilibrium_solve": "entropy",
    "equilibrium_field": "entropy",
    "equilibrium_objective": "entropy",
    "tau_of_potential": "entropy",
    "relative_sigma_h": "entropy",
    "log_energy": "entropy",
    # fisher
    "GridFunction": "fisher",
    "FisherReport": "fisher",
    "LsiReport": "fisher",
    "hilbert_transform": "fisher",
    "phi_star": "fisher",
    "relative_phi_h": "fisher",
    "check_lsi": "fisher",
    "EMPIRICAL_C1": "fisher",
    "EMPIRICAL_C2": "fisher",
    # grassmann
    "GrassmannPoint": "grassmann",
    "TangentVector": "grassmann",
    "GradReport": "grassmann",
    "haar_unitary": "grassmann",
    "sample_haar_projection": "grassmann",
    "projection_point": "grassmann",
    "model_projection": "grassmann",
    "tangent_basis": "grassmann",
    "ricci_quadratic_form": "grassmann",
    "exp_normal_coordinate": "grassmann",
    "grad_norm_trace_fn": "grassmann",
    "hessian_fd": "grassmann",
    "hs_inner": "grassmann",
    "hs_norm": "grassmann",
    "normalized_trace": "grassmann",
    "apply_spectral": "grassmann",
    # ensemble
    "EnsembleSpec": "ensemble",
    "SpectrumSample": "ensemble",
    "McmcResult": "ensemble",
    "MatrixLsiReport": "ensemble",
    "structural_multiplicities": "ensemble",
    "log_density": "ensemble",
    "sample_spectra": "ensemble",
    "sample_uniform_pair_spectrum": "ensemble",
    "selberg_log_z0": "ensemble",
    "log_z_quadrature": "ensemble",
    "mcmc_tilted_spectrum": "ensemble",
    "lsi_matrix_report": "ensemble",
    # liberation
    "FlowState": "liberation",
    "FlowRecord": "liberation",
    "FlowDiagnostics": "liberation",
    "IstarReport": "liberation",
    "init_flow": "liberation",
    "particle_velocity": "liberation",
    "flow_evolve": "liberation",
    "flow_diagnostics": "liberation",
    "istar": "liberation",
}

__all__ = ["__version__", *sorted(_EXPORTS)]


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(f".{module_name}", __name__)
    value = getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
