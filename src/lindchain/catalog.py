"""Canonical parameter set and the 16-state entangled catalog.

The catalog lists every two-basis-state Bell superposition of the 3-qubit
chain, grouped by entanglement family and ordered by the energy separation
quoted in the source table.  A row names only the pair; its family, the
letters of the qubits the pair entangles ("ABC", "AB", "BC" or "AC"), is
read from the pair's bits (metrics.family_of_pair).  Each entry carries
the quoted gap alongside the gap recomputed from the Ising energies;
several bipartite rows disagree (the quoted values mix the J/2 and J
conventions), and the discrepancy is reported rather than reconciled.
"""

from __future__ import annotations

from dataclasses import dataclass

from .environments import EnvironmentModel, EnvironmentSpec
from .metrics import family_of_pair
from .register import SpinChainParams, all_energies


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    pair: tuple[int, int]
    paper_delta_e: float
    computed_delta_e: float

    @property
    def family(self) -> str:
        return family_of_pair(*self.pair)


# (name, pair, quoted gap)
_TABLE = (
    ("psi_18", (1, 8), 700.0),
    ("psi_27", (2, 7), 500.0),
    ("psi_36", (3, 6), 300.0),
    ("psi_45", (4, 5), 100.0),
    ("alpha_17", (1, 7), 605.2),
    ("alpha_28", (2, 8), 594.8),
    ("alpha_46", (4, 6), 209.8),
    ("alpha_35", (3, 5), 195.2),
    ("beta_14", (1, 4), 305.2),
    ("beta_58", (5, 8), 294.8),
    ("beta_23", (2, 3), 104.8),
    ("beta_67", (6, 7), 95.2),
    ("xi_16", (1, 6), 510.0),
    ("xi_38", (3, 8), 490.0),
    ("xi_25", (2, 5), 300.0),
    ("xi_47", (4, 7), 300.0),
)


def default_rate_matrix() -> list[list[float]]:
    """A fresh copy of the default rate matrix, used for both gamma and Gamma."""
    return [[0.05, 0.05, 0.0125],
            [0.05, 0.05, 0.025],
            [0.0125, 0.025, 0.05]]


def default_parameters() -> tuple[SpinChainParams, dict[EnvironmentModel, EnvironmentSpec]]:
    """Chain parameters and one environment per model, default rates.

    omega = (400, 200, 100), J = 10, J' = 0.4, all in 2*pi*MHz; every
    per-qubit rate is 0.05 and the correlated models add the cross rates
    gamma_12 = 0.05, gamma_23 = 0.025, gamma_13 = 0.0125 (same for Gamma).
    The uncorrelated models' EnvironmentSpec drops the cross rates.
    """
    params = SpinChainParams()
    rates = default_rate_matrix()
    environments = {model: EnvironmentSpec(model, rates)
                    for model in EnvironmentModel}
    return params, environments


def catalog_states(params: SpinChainParams | None = None) -> list[CatalogEntry]:
    """All 16 catalog entries with quoted and recomputed energy gaps, the
    gap of pair (i, j) being E_j - E_i."""
    energies = all_energies(params or SpinChainParams())
    return [CatalogEntry(name, (i, j), quoted, float(energies[j - 1] - energies[i - 1]))
            for name, (i, j), quoted in _TABLE]


def catalog_entry(name: str) -> CatalogEntry:
    """Look up a single entry by name, e.g. "psi_18", at the default chain."""
    for entry in catalog_states():
        if entry.name == name:
            return entry
    known = ", ".join(row[0] for row in _TABLE)
    raise KeyError(f"unknown catalog state {name!r}; known states: {known}")
