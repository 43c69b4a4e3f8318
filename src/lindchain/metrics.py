"""Functions of a density matrix and of the basis pair that defines it:
the initial Bell states, the entanglement family, validation,
physicality diagnostics, purity, partial trace, and GME-concurrence
lower bounds.

The implemented entanglement quantity is a computable lower bound on the
GME-concurrence.  For the three-qubit catalog states it specializes to

    C >= 2 |rho_ij| - 2 * sum of sqrt(rho_pp rho_qq)

over complementary index pairs.  The pair (i, j) is the whole
description of a state, and everything else about it is read from the
bits of i and j: family_of_pair names the qubits it entangles (the
letters of the bits that differ), and gme(rho, pair) learns from them
whether the state is tripartite (no shared bit) or which qubit to trace
out (the one bit they share).  The bound may go negative; negative
values mean the bound is uninformative, not that entanglement is gone,
so nothing here clamps them.

Each function of rho takes one matrix or a stack (..., d, d) and returns
numpy results of the input's leading shape (0-d for one matrix), each
equal to the result for that matrix alone (purity to rounding, the rest
bit for bit).

diagnostics costs what each matrix's support needs: it splits the
support into its connected blocks and takes the minimum eigenvalue block
by block, in closed form for blocks of one or two entries and with LAPACK
on larger ones.  Its components routine, connected_blocks, also splits
vec(rho) into the engine's invariant blocks.
"""

from __future__ import annotations

import functools
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

    rho is one (d, d) matrix or a stack (..., d, d).  The hermiticity
    error is max |rho_mn - conj rho_nm|, read over the upper triangle of
    the support S = (rho != 0) | (rho != 0)^T (it is 0 off S and symmetric
    in m, n).  The minimum eigenvalue is that of the Hermitian part
    (rho + rho^dagger)/2, the minimum over the connected blocks of S: a 1x1
    block is its real diagonal entry, exactly; a 2x2 block [[a, h],
    [conj h, c]] is (a + c - hypot(a - c, 2|h|))/2; the blocks of each size
    k >= 3 go through one LAPACK `eigvalsh` call, so a dense matrix, one
    d-block, gets the whole-matrix call.  Matrices with one pattern of
    nonzero entries share one plan of indices; no group of them is copied
    whole, only their entries in S are gathered.  Each entry equals bit
    for bit the result for that matrix alone.  Raises ValueError on
    non-square or non-finite input.
    """
    arr = np.asarray(rho, dtype=complex)
    if arr.ndim < 2 or arr.shape[-1] != arr.shape[-2]:
        raise ValueError(f"expected (..., d, d) matrices, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("density matrix has non-finite entries")
    lead, dim = arr.shape[:-2], arr.shape[-1]
    flat = arr.reshape(-1, dim * dim)
    trace_error = np.abs(arr.trace(axis1=-2, axis2=-1) - 1.0)
    # matrices with one pattern of nonzero entries have one support
    keys = np.packbits(flat != 0, axis=1)
    if (keys == keys[:1]).all():  # one support, the common case: no sort
        patterns, group = keys[:1], None
    else:
        patterns, group = np.unique(keys.view(f"V{keys.shape[1]}").ravel(), return_inverse=True)
    hermiticity_error, low = np.empty(len(flat)), np.empty(len(flat))
    for g, pattern in enumerate(patterns):
        # group g's rows of flat, gathered entry by entry in S: no group is
        # copied whole, and a lone group is indexed by a slice
        out = slice(None) if group is None else np.flatnonzero(group == g)
        rows = out if group is None else out[:, None]
        small, (n_upper, n_one, n_two), blocks = _support_plan(pattern.tobytes(), dim)
        lows = [_lowest_eigenvalue(flat, rows, *block) for block in blocks]
        values = flat[rows, small]
        upper, mirror = values[:, :n_upper], values[:, n_upper:2 * n_upper]
        hermiticity_error[out] = np.abs(upper - mirror.conj()).max(axis=1, initial=0.0)
        diagonal = values[:, 2 * n_upper:]
        # a 1x1 block is its real diagonal entry; a 2x2 block (p, q) with
        # a = rho_pp, c = rho_qq and 2h = rho_pq + conj rho_qp, twice its
        # Hermitian part's entry (p, q), has (a + c - hypot(a - c, 2|h|))/2
        lows.append(diagonal[:, :n_one].real.min(axis=1, initial=np.inf))
        if n_two:
            a, c, pq, qp = diagonal[:, n_one:].reshape(-1, 4, n_two).swapaxes(0, 1)
            a, c = a.real, c.real
            lows.append(((a + c - np.hypot(a - c, np.abs(pq + qp.conj()))) * 0.5).min(axis=1))
        low[out] = functools.reduce(np.minimum, lows)
    return Diagnostics(trace_error, hermiticity_error.reshape(lead), low.reshape(lead))


def _lowest_eigenvalue(flat: np.ndarray, rows, entries: np.ndarray,
                       mirrored: np.ndarray) -> np.ndarray:
    """The smallest eigenvalue over the (b, k, k) blocks at entries of the
    Hermitian part of each row of flat, from one LAPACK `eigvalsh` call.

    The Hermitian part is (conj rho^T + rho) * 0.5 in this order of
    operations, as a whole matrix's was: a dense matrix keeps its bits.
    """
    part = flat[rows, mirrored.ravel()].reshape(-1, *mirrored.shape)
    np.conjugate(part, out=part)
    part += flat[rows, entries.ravel()].reshape(part.shape)
    part *= 0.5
    return np.linalg.eigvalsh(part)[..., 0].min(axis=1)


@functools.lru_cache(maxsize=256)
def _support_plan(key: bytes, dim: int) -> tuple[np.ndarray, ...]:
    """How diagnostics reads a (dim, dim) matrix whose nonzero entries are
    packed in key: (small, (n_upper, n_one, n_two), blocks).

    small holds flat indices: the n_upper entries (m, n) of the support S
    with m <= n, then their mirrors (n, m), then the diagonal entry of each
    of the n_one 1x1 blocks, then, over the n_two 2x2 blocks (p, q), the
    entries pp, then qq, pq and qp.  blocks holds one (entries, mirrored)
    pair of flat (b, k, k) index arrays per block size k >= 3, mirrored[i,
    r, c] being entries[i, c, r].
    """
    nonzero = np.unpackbits(np.frombuffer(key, dtype=np.uint8), count=dim * dim)
    nonzero = nonzero.reshape(dim, dim).astype(bool)
    row, col = np.nonzero(np.triu(nonzero | nonzero.T))
    by_size = {index.shape[1]: index for index in connected_blocks(nonzero)}
    singles = by_size.get(1, np.empty((0, 1), dtype=np.intp))[:, 0]
    first, second = by_size.get(2, np.empty((0, 2), dtype=np.intp)).T
    small = np.concatenate([row * dim + col, col * dim + row, singles * (dim + 1),
                            first * (dim + 1), second * (dim + 1),
                            first * dim + second, second * dim + first])
    small.setflags(write=False)  # cached: every caller shares the plan
    blocks = []
    for index in (index for k, index in by_size.items() if k > 2):
        entries = index[:, :, None] * dim + index[:, None, :]
        entries.setflags(write=False)
        blocks.append((entries, entries.swapaxes(1, 2)))
    return small, (len(row), len(singles), len(first)), tuple(blocks)


def connected_blocks(coupled: np.ndarray) -> list[np.ndarray]:
    """Split the indices of a square boolean pattern into the blocks it
    never links: the connected components of its graph.

    Returns one (b, k) index array per block size k, largest first, each
    row one block in increasing index order.
    """
    reach = coupled | coupled.T | np.eye(len(coupled), dtype=bool)
    while True:  # transitive closure by squaring: at most log2(len) rounds
        linked = reach.astype(float)
        grown = linked @ linked > 0.0
        if np.array_equal(grown, reach):
            break
        reach = grown
    root = reach.argmax(axis=1)  # the first index of each index's block
    size = np.bincount(root)[root]
    order = np.lexsort((root, -size))  # stable: indices of one block stay sorted
    return [order[size[order] == k].reshape(-1, k) for k in np.unique(size)[::-1]]


def family_of_pair(i: int, j: int) -> str:
    """Entanglement family of the Bell pair (i, j): the letters of the
    qubits whose bits differ, "ABC", "AB", "BC" or "AC" (qubit 1 is A)."""
    dim = 2 ** N_QUBITS
    if not (1 <= i < j <= dim):
        raise ValueError(f"pair ({i}, {j}) must satisfy 1 <= i < j <= {dim}")
    bits = basis_bits(N_QUBITS)
    family = "".join(letter for letter, a, b in zip("ABC", bits[i - 1], bits[j - 1])
                     if a != b)
    if len(family) < 2:
        raise ValueError(f"pair ({i}, {j}) differs on a single qubit and is not entangled")
    return family


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
    sum over the three other complementary pairs (p, q = 9 - p) of
    sqrt(rho_pp rho_qq).
    Otherwise the qubit whose bit they share is traced out and the
    two-qubit bound |<il|rho|kj>| - sqrt(<ij|rho|ij><kl|rho|kl>) (times 2)
    is evaluated on the reduced state.  The kept bits of state i select
    which reduced coherence carries the entanglement: equal bits pair
    |00> with |11>, unequal bits pair |01> with |10>.  No clamping.
    """
    i, j = int(pair[0]), int(pair[1])
    rho = np.asarray(rho)
    if family_of_pair(i, j) == "ABC":
        coherence = np.abs(rho[..., i - 1, j - 1])
        pops = np.maximum(np.diagonal(rho, axis1=-2, axis2=-1).real, 0.0)
        cross = sum(np.sqrt(pops[..., p - 1] * pops[..., 8 - p])
                    for p in range(1, 5) if p != i)
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


def analytic_decay_oracle(family: str, pair: tuple[int, int],
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
    if family_of_pair(i, j) != family:
        raise ValueError(f"pair ({i}, {j}) does not belong to family {family}")
    rate = dephasing_rate_matrix(env)[i - 1, j - 1]
    t = np.asarray(t, dtype=float)
    gme_value = 2.0 * 0.5 * np.exp(-rate * t)
    purity_value = 0.25 + 0.25 + 2.0 * 0.25 * np.exp(-2.0 * rate * t)
    return gme_value, purity_value

