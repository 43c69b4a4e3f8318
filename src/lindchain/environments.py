"""Environment models, their qubit-resolved coupling-rate matrices, and
the per-element dephasing rates those matrices give."""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .register import basis_bits

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
    """A model tag plus the one rate matrix that model reads, validated.

    The model picks its rate family: gamma for the dissipative models,
    Gamma for the dephasing ones.  rates must be a square, finite,
    symmetric (n_qubits, n_qubits) matrix with a nonnegative diagonal;
    the spec holds its symmetrized, read-only copy.  For the uncorrelated
    models the off-diagonal entries are zeroed, so the engines never see
    them.  A matrix that is not positive semidefinite only warns: the
    generator then need not be completely positive, but trace preservation
    and hermiticity still hold.
    """

    model: EnvironmentModel
    rates: np.ndarray = field(repr=False)

    def __post_init__(self):
        if not isinstance(self.model, EnvironmentModel):
            raise ValueError(f"unknown environment model {self.model!r}")
        name = "gamma" if self.model.dissipative else "Gamma"
        rates = np.array(self.rates, dtype=float)
        if rates.ndim != 2 or rates.shape[0] != rates.shape[1] or not rates.size:
            raise ValueError(f"{name}: expected a square rate matrix, got shape {rates.shape}")
        if not np.all(np.isfinite(rates)):
            raise ValueError(f"{name}: non-finite rate")
        # halved first, so that rates near the float maximum cannot overflow
        half, half_t = 0.5 * rates, 0.5 * rates.T
        if np.max(np.abs(half - half_t)) > 0.5 * SYMMETRY_TOL:
            raise ValueError(f"{name}: rate matrix must be symmetric")
        if np.any(np.diag(rates) < 0.0):
            raise ValueError(f"{name}: negative diagonal rate")
        rates = half + half_t
        if not self.model.correlated:
            rates = np.diag(np.diag(rates))
        low = float(np.linalg.eigvalsh(rates)[0])
        if low < -PSD_TOL:
            # stacklevel 3 skips __post_init__ and the generated __init__
            warnings.warn(
                f"rate matrix for {self.model.value} is not positive semidefinite "
                f"(min eigenvalue {low:.3e}); the map may not be completely positive",
                UserWarning,
                stacklevel=3,
            )
        # the integrator caches its transfer matrices per spec object, which
        # is only sound while the rates cannot change: keep a read-only copy,
        # so neither the spec nor a caller's array (or its base) can alter it
        rates.setflags(write=False)
        object.__setattr__(self, "rates", rates)

    @property
    def n_qubits(self) -> int:
        return self.rates.shape[0]


def dephasing_rate_matrix(env: EnvironmentSpec) -> np.ndarray:
    """Per-element dephasing rates R so that d(rho_mn)/dt = -R_mn rho_mn.

    R_mn = (1/4) (v_m - v_n)^T Gamma (v_m - v_n) with v_m the vector of
    spin signs (-1)^bit of state m.  Diagonal entries are exactly zero;
    with a diagonal Gamma this reduces to the sum of Gamma_k over the
    qubits whose bits differ between m and n.
    """
    signs = 1.0 - 2.0 * basis_bits(env.n_qubits)
    quad = signs @ env.rates @ signs.T
    quad = 0.5 * (quad + quad.T)  # matmul rounding must not break R = R^T
    diag = np.diag(quad)
    return 0.25 * (diag[:, None] + diag[None, :] - 2.0 * quad)
