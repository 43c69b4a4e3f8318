"""Density-matrix construction, validation, and physicality diagnostics."""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .register import N_QUBITS

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
EIGENVALUE_FLOOR = -1e-12


class Diagnostics(NamedTuple):
    """Floats for one matrix, length-n arrays for a stack of n."""

    trace_error: float | np.ndarray
    hermiticity_error: float | np.ndarray
    min_eigenvalue: float | np.ndarray


def initial_bell_density(i: int, j: int, n_qubits: int = N_QUBITS) -> np.ndarray:
    """Density matrix of (|i> + |j>)/sqrt(2) for basis states i < j.

    All four nonzero entries are exactly 0.5.
    """
    dim = 2 ** n_qubits
    if not (1 <= i <= dim and 1 <= j <= dim):
        raise ValueError(f"state indices ({i}, {j}) outside 1..{dim}")
    if i >= j:
        raise ValueError(f"need i < j, got ({i}, {j})")
    rho = np.zeros((dim, dim), dtype=complex)
    a, b = i - 1, j - 1
    rho[a, a] = rho[b, b] = rho[a, b] = rho[b, a] = 0.5
    return rho


def validate_density_matrix(rho: np.ndarray) -> np.ndarray:
    """Check hermiticity, unit trace, and positivity; return a complex copy.

    Raises ValueError when any check fails.  The three errors come from
    `diagnostics`; positivity allows eigenvalues down to -1e-12 to absorb
    rounding.
    """
    arr = np.asarray(rho)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"density matrix must be square, got shape {arr.shape}")
    trace_error, herm, low = diagnostics(arr)  # raises on non-finite entries
    if herm > HERMITICITY_TOL:
        raise ValueError(f"density matrix not Hermitian (max asymmetry {herm:.3e})")
    if trace_error > TRACE_TOL:
        raise ValueError(f"density matrix trace differs from 1 by {trace_error:.3e}")
    if low < EIGENVALUE_FLOOR:
        raise ValueError(f"density matrix has negative eigenvalue {low:.3e}")
    return arr.astype(complex)


def diagnostics(rho: np.ndarray) -> Diagnostics:
    """(trace error, hermiticity error, minimum eigenvalue) of rho.

    rho is one (d, d) matrix or a stack (..., d, d).  The minimum
    eigenvalue comes from the Hermitian part (rho + rho^dagger)/2, with one
    LAPACK `eigvalsh` call over the whole stack.  A single matrix gives
    floats; a stack gives arrays of its leading shape, each entry equal bit
    for bit to the result for that matrix alone.  Raises ValueError on
    non-square or non-finite input.
    """
    arr = np.asarray(rho, dtype=complex)
    if arr.ndim < 2 or arr.shape[-1] != arr.shape[-2]:
        raise ValueError(f"expected (..., d, d) matrices, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("density matrix has non-finite entries")
    adjoint = np.swapaxes(arr.conj(), -1, -2)
    trace_error = np.abs(np.trace(arr, axis1=-2, axis2=-1) - 1.0)
    hermiticity_error = np.max(np.abs(arr - adjoint), axis=(-2, -1))
    # the Hermitian part overwrites the adjoint: one stack-sized temporary less
    adjoint += arr
    adjoint *= 0.5
    low = np.linalg.eigvalsh(adjoint)[..., 0]
    return Diagnostics(*map(scalar_or_stack, (trace_error, hermiticity_error, low)))


def scalar_or_stack(value: np.ndarray) -> float | np.ndarray:
    """A per-matrix result: a Python float when it came from one matrix
    (0-d), the array of the stack's leading shape otherwise."""
    return float(value) if np.ndim(value) == 0 else value
