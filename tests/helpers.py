"""Shared test utilities."""

from __future__ import annotations

import warnings

import numpy as np
from hypothesis import strategies as st

from lindchain import EngineKind, EnvironmentSpec, SpinChainParams, make_rhs, omega_table
from lindchain.engine import _check_sizes, frame_frequencies, lowering_operators, sz_operators


def random_density(rng: np.random.Generator, dim: int = 8,
                   noise: float = 0.2) -> np.ndarray:
    """Haar-like random pure state mixed with a random full-rank state."""
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    psi /= np.linalg.norm(psi)
    rho = np.outer(psi, psi.conj())
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    mixer = raw @ raw.conj().T
    mixer /= np.trace(mixer).real
    return (1.0 - noise) * rho + noise * mixer


@st.composite
def chains_and_rates(draw, n_qubits=None):
    """A 2- or 3-qubit chain (n_qubits when given) and a symmetric rate
    matrix for it, some of whose entries are exactly zero."""
    if n_qubits is None:
        n_qubits = draw(st.integers(min_value=2, max_value=3))
    omegas = draw(st.lists(st.floats(min_value=10.0, max_value=500.0), min_size=3, max_size=3))
    coupling_j = draw(st.floats(min_value=0.0, max_value=20.0))
    coupling_jp = draw(st.floats(min_value=0.0, max_value=2.0))
    rates = draw(st.lists(st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=0.1)),
                          min_size=6, max_size=6))
    gamma = np.zeros((n_qubits, n_qubits))
    gamma[np.triu_indices(n_qubits)] = rates[:n_qubits * (n_qubits + 1) // 2]
    chain = SpinChainParams(omegas[:n_qubits], coupling_j, coupling_jp)
    return chain, gamma + np.triu(gamma, 1).T


# the Bell pairs (i, j) whose bits differ in at least two of three qubits
ENTANGLED_PAIRS = [(i, j) for i in range(1, 9) for j in range(i + 1, 9)
                   if bin((i - 1) ^ (j - 1)).count("1") >= 2]


def quiet_environment(model, rates):
    """EnvironmentSpec without the warning a random indefinite matrix draws."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return EnvironmentSpec(model, rates)


def dense_diagnostics(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(trace error, hermiticity error, minimum eigenvalue) of a stack
    (n, d, d), each from whole matrices: the trace, max |rho - rho^dagger|
    and one LAPACK eigvalsh of the Hermitian part (conj rho^T + rho) * 0.5.
    The oracle for metrics.diagnostics, which reads only each matrix's
    support."""
    adjoint = np.swapaxes(rho.conj(), -1, -2)
    trace_error = np.abs(np.trace(rho, axis1=-2, axis2=-1) - 1.0)
    hermiticity_error = np.max(np.abs(rho - adjoint), axis=(-2, -1))
    return trace_error, hermiticity_error, np.linalg.eigvalsh((adjoint + rho) * 0.5)[..., 0]


def tilde_jump_operators(t: float, params: SpinChainParams,
                         env: EnvironmentSpec) -> np.ndarray:
    """Rotating-frame jump operators at time t, stacked as (n_qubits, dim, dim).

    Dissipative models: S_k^- with column phases exp(-i Omega_{k,p} t),
    Omega being the neighbour-conditioned transition frequency.  Dephasing
    models: the diagonal S_k^z, which the frame change leaves untouched.
    """
    _check_sizes(params, env)
    if env.model.dissipative:
        phases = np.exp(omega_table(params) * (-1j * t))  # (n, dim) per source column
        return lowering_operators(params.n_qubits) * phases[:, None, :]
    return sz_operators(params.n_qubits).astype(complex)


def lindblad_rhs_operator(rho: np.ndarray, t: float, params: SpinChainParams,
                          env: EnvironmentSpec) -> np.ndarray:
    """d(rho)/dt at time t, literally from operator products of the jump
    operators: the reference both compiled engines are tested against.

    sum_{k,l} c_kl (2 O_k rho O_l^dagger - O_l^dagger O_k rho
    - rho O_l^dagger O_k), with c = gamma/2 for dissipation and c = Gamma
    for dephasing.
    """
    stack = tilde_jump_operators(t, params, env)
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (params.dim, params.dim):
        raise ValueError(f"rho shape {rho.shape} does not match operators of dim {params.dim}")
    fac = 0.5 if env.model.dissipative else 1.0
    w = env.rates
    prod = stack @ rho  # (n, dim, dim)
    feed = np.einsum("kl,kab,lcb->ac", w, prod, stack.conj())
    anti = np.einsum("kl,lba,kbc->ac", w, stack.conj(), stack)
    return fac * (2.0 * feed - anti @ rho - rho @ anti)


def apply_generator(generator, rho: np.ndarray, t: float) -> np.ndarray:
    """d(rho)/dt = unvec(A(t) vec rho) for a generator A returned by make_rhs."""
    return (generator(t) @ rho.reshape(-1)).reshape(rho.shape)


def secular_split(params: SpinChainParams, env: EnvironmentSpec,
                  kind: EngineKind) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(A(0), its secular part, the frame frequency of each entry) for the
    engine kind.

    A(t) = D(t) A(0) D(-t), so entry (row, col) turns at Delta_row -
    Delta_col, Delta from frame_frequencies.  The secular part keeps the
    entries whose frequency is zero, to round-off in the energies, and
    zeroes the rest.
    """
    delta = frame_frequencies(params, env).reshape(-1)
    freqs = delta[:, None] - delta[None, :]
    a0 = make_rhs(params, env, kind)(0.0)
    still = np.abs(freqs) <= 1e-12 * (1.0 + np.max(np.abs(delta)))
    return a0, np.where(still, a0, 0.0), freqs


# Full-matrix bipartite GME bounds, written directly against the 8x8 rho
# (no partial trace), as an oracle independent of the library's reduction
# route.  Per pair: the two coherence entries to sum, then the two
# population groups whose sums multiply under the square root.
# All indices 0-based.
TABLE_GME_FORMS = {
    (1, 7): (((0, 6), (1, 7)), (2, 3), (4, 5)),
    (2, 8): (((0, 6), (1, 7)), (2, 3), (4, 5)),
    (4, 6): (((2, 4), (3, 5)), (0, 1), (6, 7)),
    (3, 5): (((2, 4), (3, 5)), (0, 1), (6, 7)),
    (1, 4): (((0, 3), (4, 7)), (1, 5), (2, 6)),
    (5, 8): (((0, 3), (4, 7)), (1, 5), (2, 6)),
    (2, 3): (((1, 2), (5, 6)), (0, 4), (3, 7)),
    (6, 7): (((1, 2), (5, 6)), (0, 4), (3, 7)),
    (1, 6): (((0, 5), (2, 7)), (1, 3), (4, 6)),
    (3, 8): (((0, 5), (2, 7)), (1, 3), (4, 6)),
    (2, 5): (((1, 4), (3, 6)), (0, 2), (5, 7)),
    (4, 7): (((1, 4), (3, 6)), (0, 2), (5, 7)),
}


def table_gme(rho: np.ndarray, pair: tuple[int, int]) -> float:
    """Bipartite GME bound evaluated from the full 8x8 matrix entries."""
    (c1, c2), group_a, group_b = TABLE_GME_FORMS[pair]
    coherence = abs(rho[c1] + rho[c2])
    pop_a = sum(rho[m, m].real for m in group_a)
    pop_b = sum(rho[m, m].real for m in group_b)
    return float(2.0 * coherence - 2.0 * np.sqrt(max(pop_a * pop_b, 0.0)))
