"""Open-system generators for the spin chain and a fixed-step RK4 integrator.

Two independently derived engines produce the same generator:

* element-wise: per-entry rate equations for d(rho_mn)/dt, one class: a
  static decay on the diagonal (the whole generator under dephasing)
  plus, under dissipation, three rules written with basis-bit tests,
  index shifts and oscillating phase factors;
* operator-built: the Lindblad sum over the rate matrix, contracted in
  one pass from the bare jump operators (S_k^- or S_k^z) into a constant
  superoperator conjugated by the frame unitary.

Everything evolves in the rotating frame that removes the fast Larmor
phases, so trajectories carry coherence magnitudes directly.  Each engine
is a callable returning its 64x64 (for three qubits) Liouville matrix A(t)
acting on vec(rho).

Both generators are covariant under that frame: A(t + c) = D(t) A(c) D(-t)
with D(t) = diag(exp(i Delta t)) and Delta_mn = eps_m - eps_n from the
half-coupling energies.  One classical RK4 step from time s*dt is therefore
D(s dt) M0 D(-s dt), M0 being the step matrix at t = 0, and N steps
collapse to D(N dt) Q^N with the constant transfer matrix
Q = D(-dt) M0.  The build relies on this symmetry without checking it;
tests/test_engine.py proves it for both engines on random chains.

The generators never couple most entries of vec(rho).  A(t) is nonzero
only where A(0) is, each entry being a constant times a phase, so the
connected components of the sparsity pattern of A(0) split vec(rho) into
blocks that no step couples (metrics.connected_blocks finds them, the
routine that also splits each record's support for diagnostics).  On the
default chain they are 64 singletons under both dephasing models, 27
blocks of up to 8 entries under independent dissipation, and the 7
sectors of the excitation difference, sizes 20, 15, 15, 6, 6, 1, 1,
under correlated dissipation.  M0, Q and all its powers are block
diagonal in that partition, so they are built only on the blocks, those
of equal size k stacked into (b, k, k) arrays for numpy's batched matmul,
matrix_power and eigvals.  A run fills, checks and phase-multiplies each
stack on its own, and only the blocks its initial state occupies: its
records hold those blocks' entries alone, every other entry being +0.0.

A stack's records are filled by doubling: record i is H^i vec(rho0) with
H = Q^stride, so once records 0..m-1 exist, one product with H^m yields
records m..2m-1.  Of n records, the first n - 1 take ceil(log2(n - 1))
batched products instead of n - 2 matrix-vector products; the last is
one product with H, or with its own power of Q when the final gap is
shorter.  Each stack squares up to its own first power that is not
finite, and its largest finite power advances the rest in runs of its
size: an unstable mode the state does not carry can overflow a power,
and 0 * inf would turn a finite record into NaN, but only in that
stack's own entries.  This is the same RK4 discretization without a
per-step loop.  When a stack's record turns non-finite, single products
with its Q from its last finite record find the step at which it
diverged; the run reports the earliest over all stacks.

Everything that depends only on (params, env, cfg) is one _Propagator,
cached with one entry: Q on every stack, the spectral radius and the
record times, built at once, then a stack's record powers and an entry's
frame phases exp(i tau Delta), built when a run first reads them and kept
for the runs after it.  The key hashes params and cfg by value and env by
identity; an EnvironmentSpec's rates are read-only, so a spec cannot
change under its entry.  A sweep runs the 16 states of one model back to
back and builds 4 propagators, not 64, each building a stack's powers
and an entry's phases at most once.
"""

from __future__ import annotations

import functools
import warnings
from collections.abc import Callable
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .environments import EnvironmentSpec, dephasing_rate_matrix
from .metrics import connected_blocks, validate_density_matrix
from .register import SpinChainParams, all_energies, basis_bits, omega_table


# a simulate run peaks at about 1.6 KiB per record (ru_maxrss of a dephasing
# run: 76 MiB at 25,001 records, 115 MiB at 50,001), so about 1.6 GiB at the
# cap; the records are 16 B per occupied entry of that (64-800 B), the CSV
# render most of the rest
MAX_RECORDS = 2 ** 20
# past 2**53 steps, step * dt no longer tells steps apart
MAX_STEPS = 2 ** 53


class EngineKind(Enum):
    ELEMENT_WISE = "element_wise"
    OPERATOR_BUILT = "operator_built"


@dataclass(frozen=True)
class EvolutionConfig:
    """Fixed-step integration settings; the defaults are a config's.

    record_stride is the number of steps between recorded samples; the
    initial and final states are always recorded.  t_max must be a whole
    number of dt steps, so the final sample lands on t_max, and the grid
    holds at most MAX_RECORDS records and MAX_STEPS steps.  Each ValueError
    message starts with the name of the field at fault.
    """

    t_max: float = 50.0
    dt: float = 1e-3
    record_stride: int = 100
    engine: EngineKind = EngineKind.ELEMENT_WISE

    def __post_init__(self):
        if not (np.isfinite(self.dt) and self.dt > 0.0):
            raise ValueError(f"dt must be positive, got {self.dt}")
        if not (np.isfinite(self.t_max) and self.t_max >= 0.0):
            raise ValueError(f"t_max must be nonnegative, got {self.t_max}")
        n_steps = self.t_max / self.dt
        if not np.isfinite(n_steps):
            raise ValueError(f"dt = {self.dt:g} is too small for t_max = {self.t_max:g}: "
                             f"the step count overflows")
        if abs(round(n_steps) * self.dt - self.t_max) > 1e-9 * max(self.dt, self.t_max):
            raise ValueError(f"t_max = {self.t_max:g} is not a whole number of "
                             f"dt = {self.dt:g} steps")
        if int(self.record_stride) != self.record_stride or self.record_stride < 1:
            raise ValueError(f"record_stride must be a positive integer, got {self.record_stride}")
        n_records = -(-round(n_steps) // int(self.record_stride)) + 1
        if n_records > MAX_RECORDS:
            raise ValueError(f"t_max = {self.t_max:g} at dt = {self.dt:g} and record_stride = "
                             f"{self.record_stride} gives {n_records} records, more than "
                             f"{MAX_RECORDS}")
        if round(n_steps) > MAX_STEPS:
            raise ValueError(f"t_max = {self.t_max:g} at dt = {self.dt:g} gives "
                             f"{round(n_steps)} steps, more than {MAX_STEPS}")
        if not isinstance(self.engine, EngineKind):
            raise ValueError(f"unknown engine {self.engine!r}")


@dataclass
class Trajectory:
    """Recorded samples of an integration run: values (n_records, s) at the
    s flat indices entries of vec(rho), (dim, dim); every other entry +0.0."""

    taus: np.ndarray
    values: np.ndarray
    entries: np.ndarray
    dim: int

    @property
    def n_records(self) -> int:
        return len(self.taus)

    @property
    def rhos(self) -> np.ndarray:
        """The records as a new dense (n_records, dim, dim) stack."""
        rhos = np.zeros((len(self.values), self.dim * self.dim), dtype=complex)
        rhos[:, self.entries] = self.values
        return rhos.reshape(-1, self.dim, self.dim)


class IntegrationDivergedError(RuntimeError):
    def __init__(self, step: int, tau: float):
        self.step = step
        self.tau = tau
        super().__init__(f"state became non-finite at step {step} (tau = {tau:g})")


# ---------------------------------------------------------------- operators

def lowering_operators(n_qubits: int) -> np.ndarray:
    """Stack of S_k^- matrices; entry (m, p) = 1 when m = p with bit k lowered."""
    bits = basis_bits(n_qubits)
    one_flip = (bits[:, None, :] != bits[None, :, :]).sum(axis=-1) == 1  # [m, p]
    lowered = (bits.T[:, :, None] == 0) & (bits.T[:, None, :] == 1)  # [k, m, p]
    return (lowered & one_flip).astype(float)


def sz_operators(n_qubits: int) -> np.ndarray:
    """Stack of S_k^z matrices, diagonal with entries +-1/2."""
    halves = 0.5 * (1.0 - 2.0 * basis_bits(n_qubits))
    return np.stack([np.diag(column) for column in halves.T])


# -------------------------------------------------------------- closed form

def closed_form_dephasing(rho0: np.ndarray, t, env: EnvironmentSpec) -> np.ndarray:
    """Exact dephasing solution rho_mn(t) = rho_mn(0) exp(-R_mn t)."""
    if env.model.dissipative:
        raise ValueError(f"closed_form_dephasing called with dissipative model {env.model.value}")
    rho0 = np.asarray(rho0, dtype=complex)
    dim = 2 ** env.n_qubits
    if rho0.shape != (dim, dim):
        raise ValueError(f"rho shape {rho0.shape} does not match {env.n_qubits} qubits")
    rates = dephasing_rate_matrix(env)
    t = np.asarray(t, dtype=float)
    return rho0 * np.exp(-rates * t[..., None, None])


# -------------------------------------------------------------- generators

def frame_frequencies(params: SpinChainParams, env: EnvironmentSpec) -> np.ndarray:
    """Rotating-frame frequencies Delta_mn = eps_m - eps_n.

    eps are the energies of the chain with half couplings, whose
    differences are the transition frequencies the dissipative jump
    operators carry; Delta is zero for the static dephasing generators.
    """
    _check_sizes(params, env)
    if not env.model.dissipative:
        return np.zeros((params.dim, params.dim))
    half = SpinChainParams(params.omegas, 0.5 * params.coupling_j, 0.5 * params.coupling_jp)
    eps = all_energies(half)
    return eps[:, None] - eps[None, :]


class _ElementWise:
    """Per-entry rate equations compiled to a frequency-tagged sparse form.

    Every entry (m, n) decays at a static rate: -R_mn rho_mn from
    dephasing_rate_matrix under the dephasing models, which is all of
    their generator, and -(h_m + h_n) rho_mn under dissipation, with
    h_m = (1/2) sum_k gamma_kk bit_k(m).  Under dissipation, for each
    ordered qubit pair (k, l) with rate gamma_kl != 0, entry (m, n) also
    receives three rules:

      feed   + gamma_kl  e^{i(Om_{l,n} - Om_{k,m}) t} rho_{m + 2^(N-k), n + 2^(N-l)}
               when bit_k(m) = 0 and bit_l(n) = 0
      left   - gamma_kl/2  e^{i(Om_{l,r} - Om_{k,r}) t} rho_{r + 2^(N-k), n},
               r = m - 2^(N-l), when bit_l(m) = 1 and bit_k(m) = 0
      right  - gamma_kl/2  e^{i(Om_{l,r} - Om_{k,r}) t} rho_{m, r + 2^(N-l)},
               r = n - 2^(N-k), when bit_k(n) = 1 and bit_l(n) = 0

    The left and right conditions exclude k = l: those terms carry no
    phase and are the static decay.
    """

    def __init__(self, params: SpinChainParams, env: EnvironmentSpec):
        dim = params.dim
        bits = basis_bits(params.n_qubits)
        if env.model.dissipative:
            half_rate = 0.5 * (bits * np.diag(env.rates)).sum(axis=1)
            static = half_rate[:, None] + half_rate[None, :]
        else:
            static = dephasing_rate_matrix(env)
        m, n = np.indices((dim, dim)).reshape(2, -1)
        # (row m, row n, source m, source n, coefficient, frequency) per term
        terms = [(m, n, m, n, -static.reshape(-1), np.zeros(dim * dim))]
        if env.model.dissipative:
            k, l = np.nonzero(env.rates)  # the ordered pairs with a nonzero rate
            g = env.rates[k, l]
            om = omega_table(params)
            shift = 1 << np.arange(params.n_qubits - 1, -1, -1)  # 2^(N-k) per qubit
            bit_k, bit_l = bits[:, k].T, bits[:, l].T  # [pair, m]

            def where(cond):
                """(pair, m, n) of every term whose condition holds."""
                return np.nonzero(np.broadcast_to(cond, (len(g), dim, dim)))

            p, m, n = where((bit_k[:, :, None] == 0) & (bit_l[:, None, :] == 0))
            terms.append((m, n, m + shift[k[p]], n + shift[l[p]], g[p],
                          om[l[p], n] - om[k[p], m]))
            p, m, n = where(((bit_l == 1) & (bit_k == 0))[:, :, None])
            r = m - shift[l[p]]
            terms.append((m, n, r + shift[k[p]], n, -0.5 * g[p], om[l[p], r] - om[k[p], r]))
            p, m, n = where(((bit_k == 1) & (bit_l == 0))[:, None, :])
            r = n - shift[k[p]]
            terms.append((m, n, m, r + shift[l[p]], -0.5 * g[p], om[l[p], r] - om[k[p], r]))
        row_m, row_n, src_m, src_n, coeffs, freqs = map(np.concatenate, zip(*terms))
        self._size = dim * dim
        self._slots = (row_m * dim + row_n) * self._size + src_m * dim + src_n
        self._coeffs = coeffs.astype(complex)
        self._freqs = freqs

    def __call__(self, t: float) -> np.ndarray:
        mat = np.zeros((self._size, self._size), dtype=complex)
        mat.flat[self._slots] = self._coeffs * np.exp(self._freqs * (1j * t))
        return mat


# ------------------------------------------------------ operator-built path

class _OperatorBuilt:
    """Constant superoperator, conjugated by the diagonal frame unitary.

    The superoperator is the Lindblad sum written as one contraction over
    the rate matrix, L = c sum_kl gamma_kl (2 S_k (x) conj(S_l)
    - S_l^dag S_k (x) I - I (x) (S_l^dag S_k)^T), with c = 1/2 for
    dissipation and 1 for dephasing.  It is built from the bare S_k^- (or
    S_k^z): the rotating-frame phases of S_k^- are differences of the
    half-coupling energies eps, so the time dependence is exactly a
    conjugation by diag(exp(i eps_m t)).
    """

    def __init__(self, params: SpinChainParams, env: EnvironmentSpec):
        n = params.n_qubits
        ops = lowering_operators(n) if env.model.dissipative else sz_operators(n)
        dim = params.dim
        fac = 0.5 if env.model.dissipative else 1.0
        eye = np.eye(dim)
        # sum_kl gamma_kl S_k (x) conj(S_l) and sum_kl gamma_kl S_l^dag S_k
        feed = np.einsum("kl,kac,lbd->abcd", env.rates, ops, ops.conj())
        anti = np.einsum("kl,lba,kbc->ac", env.rates, ops.conj(), ops)
        # anti (x) I and I (x) anti^T as [a, b, c, d], the products np.kron forms
        self._liouville = fac * (2.0 * feed - anti[:, None, :, None] * eye[:, None]
                                 - eye[:, None, :, None] * anti.T[:, None]).reshape(dim * dim, -1)
        self._delta = frame_frequencies(params, env).reshape(-1)

    def __call__(self, t: float) -> np.ndarray:
        frame = np.exp(self._delta * (1j * t))
        return frame[:, None] * self._liouville * frame.conj()[None, :]


# ----------------------------------------------------------------- stepping

_ENGINES = {EngineKind.ELEMENT_WISE: _ElementWise, EngineKind.OPERATOR_BUILT: _OperatorBuilt}


def make_rhs(params: SpinChainParams, env: EnvironmentSpec,
             kind: EngineKind) -> Callable[[float], np.ndarray]:
    """Compile the chosen engine's generator: a callable A with A(t) the
    (dim**2, dim**2) Liouville matrix, so d(vec rho)/dt = A(t) vec rho."""
    _check_sizes(params, env)
    if not isinstance(kind, EngineKind):
        raise ValueError(f"unknown engine {kind!r}")
    return _ENGINES[kind](params, env)


def rk4_evolve(rho0: np.ndarray, cfg: EvolutionConfig, params: SpinChainParams,
               env: EnvironmentSpec) -> Trajectory:
    """Integrate d(rho)/dt with classical fixed-step fourth-order Runge-Kutta,
    as powers of the transfer matrix Q (see the module docstring).

    The state is never renormalized; trace and positivity drift are left
    visible for the diagnostics.  Warns before integrating when the
    spectral radius of Q exceeds 1, i.e. dt lies outside RK4's stability
    region.  Raises IntegrationDivergedError at the first step whose state
    is non-finite.
    """
    rho = validate_density_matrix(rho0)
    if rho.shape[0] != params.dim:
        raise ValueError(f"rho dim {rho.shape[0]} does not match params dim {params.dim}")
    propagator = _propagator(params, env, cfg)
    if propagator.radius > 1.0 + 1e-9:
        warnings.warn(f"dt = {cfg.dt:g} lies outside the RK4 stability region: the one-step "
                      f"transfer matrix has spectral radius {propagator.radius:.6g} > 1",
                      UserWarning, stacklevel=2)
    values, entries, diverged = propagator.records(rho.reshape(-1))
    if diverged is not None:
        raise IntegrationDivergedError(diverged, diverged * cfg.dt)
    return Trajectory(propagator.taus.copy(), values, entries, params.dim)


class _Propagator:
    """What rk4_evolve needs that depends only on (params, env, cfg), and the
    record fill that reads it.

    stacks   one (index, transfer) per block size k, largest first, over
             the b invariant blocks of that size: index (b, k) holds their
             entries of vec(rho), transfer (b, k, k) Q on each block;
    radius   the spectral radius of Q, the largest over all blocks;
    steps    the step index of each record, an int array;
    taus     the record times.

    Q and the radius cover every stack, since the stability warning reads
    all of Q; a stack's powers are built when a run first occupies it (a
    lone run under a dissipative model occupies 2 of its 4 stacks), and
    records() writes only the entries of the occupied blocks.  The
    arrays of stacks, powers, steps and taus are read-only: cache hits
    share them.  The frame phase table, one row per entry of vec(rho) so
    that an entry's phases are contiguous, is written only by phases(),
    which hands out copies.  The build and the fill run with numpy's
    overflow warnings off: rates too large for RK4 overflow Q, its powers
    and the records, which the stability warning and the divergence check
    report instead.
    """

    def __init__(self, params: SpinChainParams, env: EnvironmentSpec, cfg: EvolutionConfig):
        with np.errstate(over="ignore", invalid="ignore"):
            generator = make_rhs(params, env, cfg.engine)
            dt = cfg.dt
            n_steps = int(round(cfg.t_max / dt))
            stride = min(int(cfg.record_stride), max(n_steps, 1))  # steps stays int64
            delta = frame_frequencies(params, env).reshape(-1)
            a0 = generator(0.0)
            liouville = (a0, generator(0.5 * dt), generator(dt))
            back = np.exp(delta * (-1j * dt))
            steps = np.append(np.arange(0, n_steps, stride), n_steps)
            taus = steps * dt
            last_gap = int(steps[-1] - steps[-2]) if len(steps) > 1 else stride
            stacks = []
            for index in connected_blocks(a0 != 0):
                rows, cols = index[:, :, None], index[:, None, :]
                transfer = back[rows] * _rk4_step_matrix(*(a[rows, cols] for a in liouville), dt)
                stacks.append((index, transfer))
            radius = max(_spectral_radius(transfer) for _, transfer in stacks)
        for array in (*(a for stack in stacks for a in stack), steps, taus):
            array.setflags(write=False)
        self.stacks, self.radius, self.steps, self.taus = tuple(stacks), radius, steps, taus
        self._stride, self._last_gap = stride, last_gap
        self._powers = [None] * len(stacks)
        self._delta = delta
        self._table = np.empty((len(delta), len(taus)), dtype=complex)
        self._filled = np.zeros(len(delta), dtype=bool)

    def powers(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Stack i's powers (p, b, k, k), the transposed H^(2^j) for j < p,
        H = Q^stride, and last_hop (b, k, k), the transposed Q^gap for the
        final gap (powers[0] when gap = stride), built on the first call.
        p is as many powers as the doubling over the records needs, cut at
        the stack's first square that is not finite (at least 1)."""
        if self._powers[i] is None:
            transfer = self.stacks[i][1]
            with np.errstate(over="ignore", invalid="ignore"):
                powers = [np.linalg.matrix_power(transfer, self._stride).swapaxes(-1, -2)]
                # doubling n - 1 rows from one takes ceil(log2(n - 1)) products
                for _ in range(1, (len(self.steps) - 2).bit_length()):
                    square = powers[-1] @ powers[-1]
                    if not np.isfinite(square).all():
                        break  # this stack goes on with its largest finite power
                    powers.append(square)
                last_hop = (powers[0] if self._last_gap == self._stride else
                            np.linalg.matrix_power(transfer, self._last_gap).swapaxes(-1, -2))
            self._powers[i] = np.stack(powers), last_hop
            for array in self._powers[i]:
                array.setflags(write=False)
        return self._powers[i]

    def phases(self, index: np.ndarray) -> np.ndarray:
        """The (n, b, k) phases exp(i tau Delta) at the n records of a (b, k)
        index of distinct entries, computing those no earlier call read."""
        new = index[~self._filled[index]]
        if len(new):
            # the product of np.outer commutes exactly: each phase has the
            # bits of the full table exp(outer(taus, delta) * 1j)
            self._table[new] = np.exp(np.outer(self._delta[new], self.taus) * 1j)
            self._filled[new] = True
        return self._table[index].transpose(2, 0, 1)

    def records(self, vec0: np.ndarray) -> tuple[np.ndarray, np.ndarray, int | None]:
        """(values, entries, diverged): the (n, s) records of vec(rho0) on the s
        entries of the blocks it occupies, and the first step whose state is
        non-finite in any stack, None when every record is finite."""
        n = len(self.steps)
        values, entries = [], []  # per occupied stack
        diverged = []  # the first non-finite step of each stack that has one
        with np.errstate(over="ignore", invalid="ignore"):
            for i, (index, transfer) in enumerate(self.stacks):
                occupied = (vec0[index] != 0).any(axis=1)
                if not occupied.any():
                    continue
                powers, last_hop = self.powers(i)
                index, transfer = index[occupied], transfer[occupied]
                powers, last_hop = powers[:, occupied], last_hop[occupied]
                # rows[:, i] are H^i on the blocks' entries: with rows
                # 0..m-1 known, one product with (H^h)^T, h = 2^j <= m,
                # yields rows m..m+h-1; h doubles while the powers last,
                # then stays at the largest
                rows = np.empty((len(index), n, index.shape[1]), dtype=complex)
                rows[:, 0] = vec0[index]
                m, j = 1, 0
                while m < n - 1:
                    hop = 1 << j
                    size = min(hop, n - 1 - m)
                    np.matmul(rows[:, m - hop:m - hop + size], powers[j],
                              out=rows[:, m:m + size])
                    m += size
                    j = min(j + 1, len(powers) - 1)
                if n > 1:
                    np.matmul(rows[:, -2:-1], last_hop, out=rows[:, -1:])
                finite = np.isfinite(rows).all(axis=(0, 2))
                if not finite.all():
                    # single steps with Q from the last finite record; the
                    # next record's step when none is non-finite, the
                    # powered Q having overflowed although single steps did not
                    first = int(np.argmin(finite))
                    part, step = rows[:, first - 1, :, None], int(self.steps[first - 1]) + 1
                    while step < self.steps[first]:
                        part = transfer @ part
                        if not np.isfinite(part).all():
                            break
                        step += 1
                    diverged.append(step)
                entries.append(index.ravel())
                # phase first, into a temporary: a fused product, or one
                # written into a strided slice, moves the last bit
                values.append((self.phases(index) * rows.swapaxes(0, 1)).reshape(n, -1))
        return np.concatenate(values, axis=1), np.concatenate(entries), min(diverged, default=None)


_propagator = functools.lru_cache(maxsize=1)(_Propagator)


def _rk4_step_matrix(a0: np.ndarray, a_half: np.ndarray, a1: np.ndarray,
                     dt: float) -> np.ndarray:
    """M0, the matrix of one RK4 step from t = 0 for the linear ODE
    d(vec rho)/dt = A(t) vec rho, given A(0), A(dt/2) and A(dt), or stacks
    of their blocks."""
    eye = np.eye(a0.shape[-1])
    k2 = a_half @ (eye + (0.5 * dt) * a0)
    k3 = a_half @ (eye + (0.5 * dt) * k2)
    k4 = a1 @ (eye + dt * k3)
    return eye + (dt / 6.0) * (a0 + 2.0 * k2 + 2.0 * k3 + k4)


def _spectral_radius(transfer: np.ndarray) -> float:
    """The largest eigenvalue modulus over a stack of matrices."""
    if not np.isfinite(transfer).all():
        return float("inf")
    return float(np.max(np.abs(np.linalg.eigvals(transfer))))


def _check_sizes(params: SpinChainParams, env: EnvironmentSpec) -> None:
    if params.n_qubits != env.n_qubits:
        raise ValueError(
            f"chain has {params.n_qubits} qubits but environment rates are "
            f"{env.n_qubits}x{env.n_qubits}"
        )
