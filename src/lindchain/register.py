"""Basis bookkeeping and eigen-energies of the Ising spin-chain register.

States of the N-qubit chain are labelled 1..2**N.  Qubit 1 holds the most
significant bit, so state m carries the bit string of m-1 read left to
right: state 1 is |00..0> and state 2**N is |11..1>.  Bit 0 is the
single-qubit ground state (spin up, S^z eigenvalue +1/2); dissipation
drives every bit toward 0.

`basis_bits` is the one place that convention is written down: every other
module reads a state's bits from that table.  N_QUBITS is the size of the
paper's chain, which the CSV columns, the config keys, the default rates
and the entanglement metrics assume.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

N_QUBITS = 3


@dataclass(frozen=True)
class SpinChainParams:
    """Larmor frequencies and Ising couplings, all in units of 2*pi*MHz.

    omegas : per-qubit Larmor frequencies, one entry per qubit.
    coupling_j : nearest-neighbour Ising coupling J.
    coupling_jp : next-nearest-neighbour coupling J'.
    """

    omegas: tuple[float, ...] = (400.0, 200.0, 100.0)
    coupling_j: float = 10.0
    coupling_jp: float = 0.4

    def __post_init__(self):
        omegas = tuple(float(w) for w in self.omegas)
        object.__setattr__(self, "omegas", omegas)
        object.__setattr__(self, "coupling_j", float(self.coupling_j))
        object.__setattr__(self, "coupling_jp", float(self.coupling_jp))
        if len(omegas) < 1:
            raise ValueError("need at least one qubit frequency")
        values = omegas + (self.coupling_j, self.coupling_jp)
        if not all(np.isfinite(v) for v in values):
            raise ValueError(f"non-finite chain parameter in {values}")

    @property
    def n_qubits(self) -> int:
        return len(self.omegas)

    @property
    def dim(self) -> int:
        return 2 ** self.n_qubits


def basis_bits(n_qubits: int) -> np.ndarray:
    """(2**n, n) table of 0/1 ints: row m-1 holds the bits of state m and
    column k-1 the bit of qubit k."""
    states = np.arange(2 ** n_qubits)
    return (states[:, None] >> np.arange(n_qubits - 1, -1, -1)) & 1


def all_energies(params: SpinChainParams) -> np.ndarray:
    """Diagonal energy of every basis state (hbar = 1), index 0 holding state 1.

    Zeeman term -(1/2) sum_k (-1)^bit_k omega_k plus Ising terms
    -(J/2) sum over nearest-neighbour bit products and -(J'/2) over
    next-nearest neighbours.
    """
    n = params.n_qubits
    s = 1.0 - 2.0 * basis_bits(n)  # (-1)**bit, column k-1 = qubit k
    e = -0.5 * sum(w * s[:, k] for k, w in enumerate(params.omegas))
    e -= 0.5 * params.coupling_j * sum(s[:, k] * s[:, k + 1] for k in range(n - 1))
    e -= 0.5 * params.coupling_jp * sum(s[:, k] * s[:, k + 2] for k in range(n - 2))
    return e


def omega_table(params: SpinChainParams) -> np.ndarray:
    """Transition frequencies on a (n_qubits, dim) grid; [k-1, m-1] = Omega_{k,m}.

    Omega_{k,m} is omega_k plus (J/2) times the spin signs of qubits k-1,
    k+1 in state m plus (J'/2) times those of k-2, k+2; neighbours outside
    the open chain are dropped.  Independent of bit k itself.
    """
    s = 1.0 - 2.0 * basis_bits(params.n_qubits)
    table = np.repeat(np.asarray(params.omegas)[:, None], params.dim, axis=1)
    for step, coupling in ((1, params.coupling_j), (2, params.coupling_jp)):
        table[step:] += 0.5 * coupling * s[:, :-step].T  # neighbour k - step
        table[:-step] += 0.5 * coupling * s[:, step:].T  # neighbour k + step
    return table
