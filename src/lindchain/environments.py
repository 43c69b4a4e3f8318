"""Environment models and their qubit-resolved coupling-rate matrices."""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .register import N_QUBITS

SYMMETRY_TOL = 1e-12
PSD_TOL = 1e-10


class EnvironmentModel(Enum):
    INDEPENDENT_DISSIPATION = "independent_dissipation"
    CORRELATED_DISSIPATION = "correlated_dissipation"
    DEPHASING = "dephasing"
    CORRELATED_DEPHASING = "correlated_dephasing"

    @property
    def dissipative(self) -> bool:
        return self in (EnvironmentModel.INDEPENDENT_DISSIPATION,
                        EnvironmentModel.CORRELATED_DISSIPATION)

    @property
    def correlated(self) -> bool:
        return self in (EnvironmentModel.CORRELATED_DISSIPATION,
                        EnvironmentModel.CORRELATED_DEPHASING)


@dataclass(frozen=True, eq=False)
class EnvironmentSpec:
    """A model tag plus dissipation (gamma) and dephasing (Gamma) rate matrices.

    Both matrices are (n_qubits, n_qubits), symmetric, with nonnegative
    diagonals, and held as read-only copies.  For the uncorrelated models
    the off-diagonal entries are zeroed at construction so the engines
    never see them.
    """

    model: EnvironmentModel
    gamma: np.ndarray = field(repr=False)
    gamma_dephase: np.ndarray = field(repr=False)

    def __post_init__(self):
        # the integrator caches its transfer matrices per spec object, which
        # is only sound while the rates cannot change: keep read-only copies,
        # so neither the spec nor a caller's array (or its base) can alter them
        for name in ("gamma", "gamma_dephase"):
            rates = np.array(getattr(self, name), dtype=float)
            rates.setflags(write=False)
            object.__setattr__(self, name, rates)

    @property
    def n_qubits(self) -> int:
        return self.gamma.shape[0]

    def active_rates(self) -> np.ndarray:
        """The rate matrix the model actually uses."""
        return self.gamma if self.model.dissipative else self.gamma_dephase


def _as_rate_matrix(rates, n_qubits: int, name: str) -> np.ndarray:
    """Scalar -> uniform diagonal, 1-D -> diagonal, 2-D -> full matrix."""
    arr = np.asarray(rates, dtype=float)
    if arr.ndim == 0:
        arr = np.eye(n_qubits) * float(arr)
    elif arr.ndim == 1:
        if arr.shape != (n_qubits,):
            raise ValueError(f"{name}: expected {n_qubits} diagonal rates, got {arr.shape}")
        arr = np.diag(arr)
    elif arr.shape != (n_qubits, n_qubits):
        raise ValueError(f"{name}: expected shape {(n_qubits, n_qubits)}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name}: non-finite rate")
    if np.max(np.abs(arr - arr.T)) > SYMMETRY_TOL:
        raise ValueError(f"{name}: rate matrix must be symmetric")
    if np.any(np.diag(arr) < 0.0):
        raise ValueError(f"{name}: negative diagonal rate")
    return 0.5 * (arr + arr.T)


def make_environment(model: EnvironmentModel, gamma, gamma_dephase,
                     n_qubits: int = N_QUBITS) -> EnvironmentSpec:
    """Validate and freeze an EnvironmentSpec.

    Rates may be scalars, per-qubit vectors, or full symmetric matrices.
    A rate matrix that is not positive semidefinite only warns: the
    generator then need not be completely positive, but every other
    contract (trace preservation, hermiticity) still holds.
    """
    if not isinstance(model, EnvironmentModel):
        raise ValueError(f"unknown environment model {model!r}")
    g = _as_rate_matrix(gamma, n_qubits, "gamma")
    gd = _as_rate_matrix(gamma_dephase, n_qubits, "Gamma")
    if not model.correlated:
        g = np.diag(np.diag(g))
        gd = np.diag(np.diag(gd))
    active = g if model.dissipative else gd
    low = float(np.linalg.eigvalsh(active)[0])
    if low < -PSD_TOL:
        warnings.warn(
            f"rate matrix for {model.value} is not positive semidefinite "
            f"(min eigenvalue {low:.3e}); the map may not be completely positive",
            UserWarning,
            stacklevel=2,
        )
    return EnvironmentSpec(model=model, gamma=g, gamma_dephase=gd)
