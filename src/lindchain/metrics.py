"""Functions of a density matrix: the initial Bell states, validation,
physicality diagnostics, purity, partial trace, and GME-concurrence
lower bounds.

The implemented entanglement quantity is a computable lower bound on the
GME-concurrence.  For the three-qubit catalog states it specializes to

    C >= 2 |rho_ij| - 2 * sum of sqrt(rho_pp rho_qq)

over complementary index pairs.  The pair (i, j) is the whole
description of a state: gme(rho, pair) reads from the bits of i and j
whether the state is tripartite (no shared bit) or which qubit to trace
out (the one bit they share).  The bound may go negative; negative
values mean the bound is uninformative, not that entanglement is gone,
so nothing here clamps them.

Each function of rho takes one matrix or a stack (..., d, d) and returns
numpy results of the input's leading shape (0-d for one matrix), each
equal to the result for that matrix alone (purity to rounding, the rest
bit for bit).
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

import numpy as np

from .environments import EnvironmentSpec, dephasing_rate_matrix
from .register import N_QUBITS, basis_bits

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
EIGENVALUE_FLOOR = -1e-12


class Diagnostics(NamedTuple):
    """Arrays of the input's leading shape: 0-d for one matrix, length n
    for a stack of n."""

    trace_error: np.ndarray
    hermiticity_error: np.ndarray
    min_eigenvalue: np.ndarray


def initial_bell_density(i: int, j: int) -> np.ndarray:
    """Density matrix of (|i> + |j>)/sqrt(2) for basis states i < j.

    All four nonzero entries are exactly 0.5.
    """
    dim = 2 ** N_QUBITS
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
    LAPACK `eigvalsh` call over the whole stack.  Each entry equals bit for
    bit the result for that matrix alone.  Raises ValueError on non-square
    or non-finite input.
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
    return Diagnostics(trace_error, hermiticity_error, low)


# ABC-family partners: complementary basis pairs of the 3-qubit register.
GME_ABC_PAIRS = ((1, 8), (2, 7), (3, 6), (4, 5))


class EntanglementFamily(Enum):
    """Which qubits a catalog state entangles, read from its pair by
    family_of_pair."""

    ABC = "ABC"
    AB = "AB"
    BC = "BC"
    AC = "AC"


def family_of_pair(i: int, j: int) -> EntanglementFamily:
    """Entanglement family of the Bell pair (i, j) from which qubits differ."""
    dim = 2 ** N_QUBITS
    if not (1 <= i < j <= dim):
        raise ValueError(f"pair ({i}, {j}) must satisfy 1 <= i < j <= {dim}")
    bits = basis_bits(N_QUBITS)
    differing = tuple((bits[i - 1] != bits[j - 1]).tolist())
    families = {
        (True, True, True): EntanglementFamily.ABC,
        (True, True, False): EntanglementFamily.AB,
        (False, True, True): EntanglementFamily.BC,
        (True, False, True): EntanglementFamily.AC,
    }
    if differing not in families:
        raise ValueError(
            f"pair ({i}, {j}) differs on a single qubit and is not entangled"
        )
    return families[differing]


def purity(rho: np.ndarray) -> np.ndarray:
    """Tr(rho^2) = sum of |rho_mn|^2, one vector dot product per matrix."""
    rho = np.asarray(rho)
    flat = rho.reshape(*rho.shape[:-2], 1, -1)
    return (flat.conj() @ np.swapaxes(flat, -1, -2))[..., 0, 0].real


def partial_trace(rho: np.ndarray, qubit: int) -> np.ndarray:
    """Reduced 4x4 density matrix after tracing out one qubit of three.

    Kept-qubit order is preserved (qubit 1 before 2 before 3).  A stack
    (..., 8, 8) gives a stack (..., 4, 4).
    """
    rho = np.asarray(rho)
    if rho.shape[-2:] != (8, 8):
        raise ValueError(f"partial_trace supports 3 qubits only, got shape {rho.shape}")
    if qubit not in (1, 2, 3):
        raise ValueError(f"qubit must be 1, 2, or 3, got {qubit}")
    lead = rho.shape[:-2]
    tensor = rho.reshape(*lead, 2, 2, 2, 2, 2, 2)
    # row bit k sits on axis k - 7 from the end, column bit k on k - 4
    reduced = np.trace(tensor, axis1=qubit - 7, axis2=qubit - 4)
    return reduced.reshape(*lead, 4, 4)


def gme(rho: np.ndarray, pair: tuple[int, int]) -> np.ndarray:
    """GME-concurrence lower bound for the catalog pair (i, j).

    When i and j share no bit the state is tripartite: 2|rho_ij| minus 2
    sum over the three complementary pairs (p, q) of sqrt(rho_pp rho_qq).
    Otherwise the qubit whose bit they share is traced out and the
    two-qubit bound |<il|rho|kj>| - sqrt(<ij|rho|ij><kl|rho|kl>) (times 2)
    is evaluated on the reduced state.  The kept bits of state i select
    which reduced coherence carries the entanglement: equal bits pair
    |00> with |11>, unequal bits pair |01> with |10>.  No clamping.
    """
    i, j = int(pair[0]), int(pair[1])
    rho = np.asarray(rho)
    if family_of_pair(i, j) is EntanglementFamily.ABC:
        coherence = np.abs(rho[..., i - 1, j - 1])
        pops = np.maximum(np.diagonal(rho, axis1=-2, axis2=-1).real, 0.0)
        cross = sum(np.sqrt(pops[..., p - 1] * pops[..., q - 1])
                    for p, q in GME_ABC_PAIRS if (p, q) != (i, j))
        return 2.0 * coherence - 2.0 * cross
    bits = basis_bits(N_QUBITS)
    traced = int(np.flatnonzero(bits[i - 1] == bits[j - 1])[0]) + 1
    reduced = partial_trace(rho, traced)
    kept = np.delete(bits[i - 1], traced - 1)
    if kept[0] == kept[1]:
        coherence = np.abs(reduced[..., 0, 3])
        pops = reduced[..., 1, 1].real * reduced[..., 2, 2].real
    else:
        coherence = np.abs(reduced[..., 1, 2])
        pops = reduced[..., 0, 0].real * reduced[..., 3, 3].real
    return 2.0 * (coherence - np.sqrt(np.maximum(pops, 0.0)))


def analytic_decay_oracle(family: EntanglementFamily, pair: tuple[int, int],
                          env: EnvironmentSpec, t):
    """Closed-form (gme, purity) decay of a catalog Bell state under dephasing.

    gme(t) = 2 |rho_ij(0)| exp(-R_ij t) and purity(t) = rho_ii(0)^2
    + rho_jj(0)^2 + 2 |rho_ij(0)|^2 exp(-2 R_ij t), with R_ij the
    element-wise dephasing rate; both diagonal and correlated Gamma are
    covered.  Bell initial values make these 1 at t = 0.
    """
    if env.model.dissipative:
        raise ValueError(f"analytic decay requires a dephasing model, got {env.model.value}")
    i, j = int(pair[0]), int(pair[1])
    if family_of_pair(i, j) is not family:
        raise ValueError(f"pair ({i}, {j}) does not belong to family {family.value}")
    rate = dephasing_rate_matrix(env)[i - 1, j - 1]
    t = np.asarray(t, dtype=float)
    gme_value = 2.0 * 0.5 * np.exp(-rate * t)
    purity_value = 0.25 + 0.25 + 2.0 * 0.25 * np.exp(-2.0 * rate * t)
    return gme_value, purity_value

