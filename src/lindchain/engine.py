"""Open-system generators for the spin chain and a fixed-step RK4 integrator.

Two independently derived engines produce the same generator:

* element-wise: per-entry rate equations for d(rho_mn)/dt, written with
  bit tests, index shifts, and oscillating phase factors;
* operator-built: matrix products of jump operators dressed with the
  per-qubit transition phases.

Everything evolves in the rotating frame that removes the fast Larmor
phases, so trajectories carry coherence magnitudes directly.  Each engine
is a callable returning its 64x64 (for three qubits) Liouville matrix A(t)
acting on vec(rho).

Both generators are covariant under that frame: A(t + c) = D(t) A(c) D(-t)
with D(t) = diag(exp(i Delta t)) and Delta_mn = eps_m - eps_n from the
half-coupling energies.  One classical RK4 step from time s*dt is therefore
D(s dt) M0 D(-s dt), M0 being the step matrix at t = 0, and N steps
collapse to D(N dt) Q^N with the constant transfer matrix
Q = D(-dt) M0.  The integrator builds Q once and jumps between recorded
samples with Q^stride, which is the same RK4 discretization without a
per-step loop.  When a record turns non-finite, single products with Q
from the last finite record name the step at which the run diverged.

Everything that depends only on (params, env, cfg) is built once and
cached with one entry: the generator, Delta and the covariance check, Q,
its spectral radius, Q^stride and the power for a final shorter gap, the
record times and the frame-phase table exp(i tau Delta).  The key hashes
params and cfg by value and env by identity; an EnvironmentSpec's rates
are read-only, so a spec cannot change under its entry.  A sweep runs the 16
states of one model back to back and builds 4 transfer matrices, not 64.
Each state still gets its own rk4_evolve call rather than one product
over a (64, 16) block of states: the bench tracer (bench/tracing.py)
counts integrated steps once per call, so batching waits until it counts
states as well.
"""

from __future__ import annotations

import functools
import warnings
from collections.abc import Callable
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .environments import EnvironmentSpec
from .register import SpinChainParams, all_energies, basis_bits, omega_table
from .states import validate_density_matrix


class EngineKind(Enum):
    ELEMENT_WISE = "element_wise"
    OPERATOR_BUILT = "operator_built"


@dataclass(frozen=True)
class EvolutionConfig:
    """Fixed-step integration settings.

    record_stride is the number of steps between recorded samples; the
    initial and final states are always recorded.  t_max must be a whole
    number of dt steps, so the final sample lands on t_max.  Each ValueError
    message starts with the name of the field at fault.
    """

    t_max: float
    dt: float = 1e-3
    record_stride: int = 100
    engine: EngineKind = EngineKind.ELEMENT_WISE

    def __post_init__(self):
        if not (np.isfinite(self.dt) and self.dt > 0.0):
            raise ValueError(f"dt must be positive, got {self.dt}")
        if not (np.isfinite(self.t_max) and self.t_max >= 0.0):
            raise ValueError(f"t_max must be nonnegative, got {self.t_max}")
        if abs(round(self.t_max / self.dt) * self.dt - self.t_max) > 1e-9 * max(1.0, self.t_max):
            raise ValueError(f"t_max = {self.t_max:g} is not a whole number of "
                             f"dt = {self.dt:g} steps")
        if int(self.record_stride) != self.record_stride or self.record_stride < 1:
            raise ValueError(f"record_stride must be a positive integer, got {self.record_stride}")
        if not isinstance(self.engine, EngineKind):
            raise ValueError(f"unknown engine {self.engine!r}")


@dataclass
class Trajectory:
    """Recorded samples of an integration run."""

    taus: np.ndarray
    rhos: np.ndarray  # (n_records, dim, dim)

    @property
    def n_records(self) -> int:
        return len(self.taus)


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
    w = env.active_rates()
    prod = stack @ rho  # (n, dim, dim)
    feed = np.einsum("kl,kab,lcb->ac", w, prod, stack.conj())
    anti = np.einsum("kl,lba,kbc->ac", w, stack.conj(), stack)
    return fac * (2.0 * feed - anti @ rho - rho @ anti)


# ---------------------------------------------------------- dephasing rates

def dephasing_rate_matrix(env: EnvironmentSpec) -> np.ndarray:
    """Per-element dephasing rates R so that d(rho_mn)/dt = -R_mn rho_mn.

    R_mn = (1/4) (v_m - v_n)^T Gamma (v_m - v_n) with v_m the vector of
    spin signs (-1)^bit of state m.  Diagonal entries are exactly zero;
    with a diagonal Gamma this reduces to the sum of Gamma_k over the
    qubits whose bits differ between m and n.
    """
    signs = 1.0 - 2.0 * basis_bits(env.n_qubits)
    quad = signs @ env.gamma_dephase @ signs.T
    quad = 0.5 * (quad + quad.T)  # matmul rounding must not break R = R^T
    diag = np.diag(quad)
    return 0.25 * (diag[:, None] + diag[None, :] - 2.0 * quad)


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


class _ElementWiseDephasing:
    """d(rho_mn)/dt = -R_mn rho_mn: a static diagonal Liouville matrix."""

    def __init__(self, params: SpinChainParams, env: EnvironmentSpec):
        self._rates = -dephasing_rate_matrix(env).reshape(-1).astype(complex)

    def __call__(self, t: float) -> np.ndarray:
        return np.diag(self._rates)


class _ElementWiseDissipation:
    """Per-entry rate equations compiled to a frequency-tagged sparse form.

    For each ordered qubit pair (k, l) with rate gamma_kl, entry (m, n)
    receives:

      feed   + gamma_kl  e^{i(Om_{l,n} - Om_{k,m}) t} rho_{m + 2^(N-k), n + 2^(N-l)}
               when bit_k(m) = 0 and bit_l(n) = 0
      left   - gamma_kl/2  e^{i(Om_{l,r} - Om_{k,r}) t} rho_{r + 2^(N-k), n},
               r = m - 2^(N-l), when bit_l(m) = 1 and bit_k(r) = 0
      right  - gamma_kl/2  e^{i(Om_{l,r} - Om_{k,r}) t} rho_{m, r + 2^(N-l)},
               r = n - 2^(N-k), when bit_k(n) = 1 and bit_l(r) = 0

    The k = l left/right terms carry no phase and fold into a static decay
    -(1/2) sum_k gamma_kk (bit_k(m) + bit_k(n)) rho_mn.
    """

    def __init__(self, params: SpinChainParams, env: EnvironmentSpec):
        n = params.n_qubits
        dim = params.dim
        gamma = env.gamma
        om = omega_table(params)
        bits = basis_bits(n).tolist()

        slots: list[int] = []
        coeffs: list[complex] = []
        freqs: list[float] = []
        size = dim * dim

        def add(row_m, row_n, col_m, col_n, coeff, freq):
            row = row_m * dim + row_n
            col = col_m * dim + col_n
            slots.append(row * size + col)
            coeffs.append(coeff)
            freqs.append(freq)

        # static decay on the superoperator diagonal
        half_rate = 0.5 * np.array(
            [sum(gamma[k, k] * bits[m][k] for k in range(n)) for m in range(dim)]
        )
        for m in range(dim):
            for nn in range(dim):
                add(m, nn, m, nn, -(half_rate[m] + half_rate[nn]), 0.0)

        for k in range(n):
            sk = 1 << (n - 1 - k)
            for l in range(n):
                g = float(gamma[k, l])
                if g == 0.0:
                    continue
                sl = 1 << (n - 1 - l)
                for m in range(dim):
                    for nn in range(dim):
                        if not bits[m][k] and not bits[nn][l]:
                            add(m, nn, m + sk, nn + sl, g, om[l, nn] - om[k, m])
                if k == l:
                    continue  # phase-free decay already in the static part
                for m in range(dim):
                    if bits[m][l] and not bits[m][k]:
                        r = m - sl
                        freq = om[l, r] - om[k, r]
                        for nn in range(dim):
                            add(m, nn, r + sk, nn, -0.5 * g, freq)
                for nn in range(dim):
                    if bits[nn][k] and not bits[nn][l]:
                        r = nn - sk
                        freq = om[l, r] - om[k, r]
                        for m in range(dim):
                            add(m, nn, m, r + sl, -0.5 * g, freq)

        slot_arr = np.asarray(slots, dtype=np.intp)
        if len(np.unique(slot_arr)) != len(slot_arr):
            raise AssertionError("element-wise term slots collide")
        self._size = size
        self._slots = slot_arr
        self._coeffs = np.asarray(coeffs, dtype=complex)
        self._freqs = np.asarray(freqs, dtype=float)

    def __call__(self, t: float) -> np.ndarray:
        mat = np.zeros((self._size, self._size), dtype=complex)
        mat.flat[self._slots] = self._coeffs * np.exp(self._freqs * (1j * t))
        return mat


# ------------------------------------------------------ operator-built path

class _OperatorBuilt:
    """Constant superoperator from jump-operator products, conjugated by the
    diagonal frame unitary.

    The frame phases of the dissipative jump operators are transition
    energies of the chain with half couplings, so the time dependence is
    exactly a conjugation by diag(exp(i eps_m t)).
    """

    def __init__(self, params: SpinChainParams, env: EnvironmentSpec):
        stack = tilde_jump_operators(0.0, params, env)
        rates = env.active_rates()
        dim = params.dim
        fac = 0.5 if env.model.dissipative else 1.0
        eye = np.eye(dim)
        liouville = np.zeros((dim * dim, dim * dim), dtype=complex)
        for k in range(params.n_qubits):
            for l in range(params.n_qubits):
                w = float(rates[k, l])
                if w == 0.0:
                    continue
                anti = stack[l].conj().T @ stack[k]
                liouville += (w * fac) * (
                    2.0 * np.kron(stack[k], stack[l].conj())
                    - np.kron(anti, eye)
                    - np.kron(eye, anti.T)
                )
        self._liouville = liouville
        self._delta = frame_frequencies(params, env).reshape(-1)

    def __call__(self, t: float) -> np.ndarray:
        frame = np.exp(self._delta * (1j * t))
        return frame[:, None] * self._liouville * frame.conj()[None, :]


# ----------------------------------------------------------------- stepping

def make_rhs(params: SpinChainParams, env: EnvironmentSpec,
             kind: EngineKind) -> Callable[[float], np.ndarray]:
    """Compile the chosen engine's generator: a callable A with A(t) the
    (dim**2, dim**2) Liouville matrix, so d(vec rho)/dt = A(t) vec rho."""
    _check_sizes(params, env)
    if kind is EngineKind.OPERATOR_BUILT:
        return _OperatorBuilt(params, env)
    if kind is not EngineKind.ELEMENT_WISE:
        raise ValueError(f"unknown engine {kind!r}")
    if env.model.dissipative:
        return _ElementWiseDissipation(params, env)
    return _ElementWiseDephasing(params, env)


def rk4_evolve(rho0: np.ndarray, cfg: EvolutionConfig, params: SpinChainParams,
               env: EnvironmentSpec) -> Trajectory:
    """Integrate d(rho)/dt with classical fixed-step fourth-order Runge-Kutta.

    The steps are applied as powers of the constant transfer matrix Q (see
    the module docstring): one product with Q^stride advances the state
    from one recorded sample to the next.  The state is never
    renormalized; trace and positivity drift are left visible for the
    diagnostics.  Warns before integrating when the spectral radius of Q
    exceeds 1, i.e. dt lies outside RK4's stability region.  Raises
    IntegrationDivergedError at the first step whose state is non-finite.
    """
    rho = validate_density_matrix(rho0)
    if rho.shape[0] != params.dim:
        raise ValueError(f"rho dim {rho.shape[0]} does not match params dim {params.dim}")
    transfer, hop, last_hop, radius, steps, taus, phases = _propagator(params, env, cfg)
    if radius > 1.0 + 1e-9:
        warnings.warn(f"dt = {cfg.dt:g} lies outside the RK4 stability region: the one-step "
                      f"transfer matrix has spectral radius {radius:.6g} > 1",
                      UserWarning, stacklevel=2)

    vecs = np.empty((len(steps), rho.size), dtype=complex)
    vecs[0] = rho.reshape(-1)
    # a diverging run overflows here; the finiteness check turns every inf
    # or NaN into IntegrationDivergedError, so numpy need not warn as well
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(1, len(steps)):
            np.matmul(hop if i < len(steps) - 1 else last_hop, vecs[i - 1], out=vecs[i])
        finite = np.isfinite(vecs).all(axis=1)
        if not finite.all():
            first = int(np.argmin(finite))
            _locate_divergence(transfer, vecs[first - 1], steps[first - 1], steps[first],
                               cfg.dt)
        # phase first: a fused complex product is not symmetric in the last bit
        np.multiply(phases, vecs, out=vecs)
    return Trajectory(taus=taus.copy(), rhos=vecs.reshape(len(steps), *rho.shape))


@functools.lru_cache(maxsize=1)
def _propagator(params: SpinChainParams, env: EnvironmentSpec, cfg: EvolutionConfig):
    """What rk4_evolve needs that depends only on (params, env, cfg):

    transfer   Q, one RK4 step in the co-rotating variable;
    hop        Q^stride, between consecutive records;
    last_hop   Q^gap for the final, possibly shorter gap;
    radius     the spectral radius of Q;
    steps      the step index of each record;
    taus       the record times;
    phases     exp(i tau Delta) per record.

    Every returned array is read-only: cache hits share them.
    """
    generator = make_rhs(params, env, cfg.engine)
    dt = cfg.dt
    stride = int(cfg.record_stride)
    n_steps = int(round(cfg.t_max / dt))
    delta = frame_frequencies(params, env).reshape(-1)
    _check_covariance(generator, delta, n_steps * dt)
    transfer = np.exp(delta * (-1j * dt))[:, None] * _rk4_step_matrix(generator, dt)
    radius = _spectral_radius(transfer)

    steps = (*range(0, n_steps, stride), n_steps)
    taus = np.asarray(steps) * dt
    with np.errstate(over="ignore", invalid="ignore"):
        hop = np.linalg.matrix_power(transfer, stride)
        last_gap = steps[-1] - steps[-2] if len(steps) > 1 else stride
        last_hop = hop if last_gap == stride else np.linalg.matrix_power(transfer, last_gap)
    phases = np.exp(np.outer(taus, delta) * 1j)
    for array in (transfer, hop, last_hop, taus, phases):
        array.setflags(write=False)
    return transfer, hop, last_hop, radius, steps, taus, phases


def _rk4_step_matrix(generator, dt: float) -> np.ndarray:
    """M0, the matrix of one RK4 step from t = 0 for the linear ODE
    d(vec rho)/dt = A(t) vec rho."""
    a0, a_half, a1 = generator(0.0), generator(0.5 * dt), generator(dt)
    eye = np.eye(len(a0))
    k2 = a_half @ (eye + (0.5 * dt) * a0)
    k3 = a_half @ (eye + (0.5 * dt) * k2)
    k4 = a1 @ (eye + dt * k3)
    return eye + (dt / 6.0) * (a0 + 2.0 * k2 + 2.0 * k3 + k4)


def _check_covariance(generator, delta: np.ndarray, t: float) -> None:
    """Raise unless A(t) = D(t) A(0) D(-t), the symmetry the transfer
    matrix rests on.

    Round-off in the phase arguments grows as |Delta| t, so the mismatch
    is measured relative to max|A(0)| (1 + max|Delta| t).
    """
    frame = np.exp(delta * (1j * t))
    a0 = generator(0.0)
    mismatch = np.max(np.abs(generator(t) - frame[:, None] * a0 * frame.conj()[None, :]))
    if mismatch > 1e-12 * np.max(np.abs(a0)) * (1.0 + np.max(np.abs(delta)) * t):
        raise RuntimeError(f"generator is not covariant under the rotating frame: "
                           f"|A(t) - D(t) A(0) D(-t)| = {mismatch:.3e} at t = {t:g}")


def _spectral_radius(transfer: np.ndarray) -> float:
    if not np.isfinite(transfer).all():
        return float("inf")
    return float(np.max(np.abs(np.linalg.eigvals(transfer))))


def _locate_divergence(transfer: np.ndarray, vec: np.ndarray, start: int, stop: int,
                       dt: float) -> None:
    """Apply the one-step transfer matrix to the finite co-rotating state
    vec of step start, one step at a time up to stop, and raise
    IntegrationDivergedError at the first non-finite state."""
    for step in range(start + 1, stop + 1):
        vec = transfer @ vec
        if not np.isfinite(vec).all():
            raise IntegrationDivergedError(step, step * dt)
    # the powered transfer matrix overflowed although single steps did not
    raise IntegrationDivergedError(stop, stop * dt)


def _check_sizes(params: SpinChainParams, env: EnvironmentSpec) -> None:
    if params.n_qubits != env.n_qubits:
        raise ValueError(
            f"chain has {params.n_qubits} qubits but environment rates are "
            f"{env.n_qubits}x{env.n_qubits}"
        )
