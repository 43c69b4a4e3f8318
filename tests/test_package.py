import ast
from pathlib import Path

import lindchain

EXPORTS = [
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

# the package's modules in import order: each imports only modules before it
LAYERS = ("register", "environments", "metrics", "engine", "catalog", "svgplot",
          "runner", "cli")


def test_package_surface():
    """Every export is listed here, so adding one is a deliberate change."""
    assert sorted(lindchain.__all__) == EXPORTS
    for name in EXPORTS:
        assert getattr(lindchain, name) is not None
    # test-only references live in tests/helpers.py, not in the package
    for module in (lindchain, lindchain.engine, lindchain.register):
        for gone in ("energy_gap", "lindblad_rhs_operator", "tilde_jump_operators"):
            assert not hasattr(module, gone)
    assert not hasattr(lindchain.EnvironmentSpec, "active_rates")
    # a state's family and GME partners are read from its pair's bits
    for gone in ("EntanglementFamily", "GME_ABC_PAIRS"):
        assert not hasattr(lindchain.metrics, gone)
    # EnvironmentSpec is the one constructor of an environment
    assert len(EXPORTS) == 35
    for module in (lindchain, lindchain.environments):
        assert not hasattr(module, "make_environment")


def _relative_imports(path: Path) -> set[str]:
    """Modules named by the `from .x import` statements anywhere in path,
    function bodies included."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level:
            names.update([node.module] if node.module else [a.name for a in node.names])
    return names


def test_modules_import_only_earlier_layers():
    package = Path(lindchain.__file__).parent
    assert not (package / "states.py").exists()  # folded into metrics
    assert sorted(p.stem for p in package.glob("*.py")) == sorted(("__init__", "__main__",
                                                                   *LAYERS))
    for rank, name in enumerate(LAYERS):
        imported = _relative_imports(package / f"{name}.py")
        assert imported <= set(LAYERS[:rank]), f"{name} imports {imported - set(LAYERS[:rank])}"
    assert "svgplot" in _relative_imports(package / "runner.py")  # lazy, in run_scenario
