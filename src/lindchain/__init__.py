"""Deterministic simulator for decoherence of two-basis-state entangled
states in an Ising nuclear-spin chain under Lindblad environments."""

from .catalog import CatalogEntry, catalog_entry, catalog_states, default_parameters
from .engine import (EngineKind, EvolutionConfig, IntegrationDivergedError, Trajectory,
                     closed_form_dephasing, make_rhs, rk4_evolve)
from .environments import EnvironmentModel, EnvironmentSpec, dephasing_rate_matrix
from .metrics import (Diagnostics, analytic_decay_oracle, diagnostics, family_of_pair, gme,
                      initial_bell_density, partial_trace, purity, validate_density_matrix)
from .register import SpinChainParams, all_energies, basis_bits, omega_table
from .runner import (ConfigError, RunConfig, compare_engines, parse_config,
                     run_scenario, sweep, tau_first_below)
from .svgplot import emit_svg_plot

__version__ = "0.1.0"

__all__ = [
    "CatalogEntry", "ConfigError", "Diagnostics", "EngineKind",
    "EnvironmentModel", "EnvironmentSpec",
    "EvolutionConfig", "IntegrationDivergedError", "RunConfig",
    "SpinChainParams", "Trajectory", "all_energies",
    "analytic_decay_oracle", "basis_bits", "catalog_entry",
    "catalog_states", "closed_form_dephasing", "compare_engines",
    "default_parameters", "dephasing_rate_matrix", "diagnostics",
    "emit_svg_plot", "family_of_pair", "gme", "initial_bell_density",
    "make_rhs", "omega_table", "parse_config", "partial_trace", "purity",
    "rk4_evolve", "run_scenario", "sweep", "tau_first_below",
    "validate_density_matrix",
]
