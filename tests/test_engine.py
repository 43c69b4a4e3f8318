import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

import lindchain as lc
from helpers import (apply_generator, lindblad_rhs_operator, random_density, secular_split,
                     tilde_jump_operators)
from lindchain import (EngineKind, EnvironmentModel, EnvironmentSpec, EvolutionConfig,
                       dephasing_rate_matrix, engine)
from lindchain.catalog import default_rate_matrix
from lindchain.engine import MAX_RECORDS, frame_frequencies, lowering_operators, sz_operators
from lindchain.runner import SWEEP_GRID

M = EnvironmentModel
MODELS = tuple(M)


# ------------------------------------------------------------- jump operators

def test_lowering_operators_move_one_excitation():
    ops = lowering_operators(3)
    assert ops.shape == (3, 8, 8)
    # qubit 1 lowers state 5 (|100>) to state 1 with unit matrix element
    assert ops[0, 0, 4] == 1.0
    assert ops[0].sum() == 4.0  # four states have bit 1 set
    bits = lc.basis_bits(3)
    for k in range(3):
        assert ops[k].sum() == 4.0
        # qubit k + 1 carries place value 2**(2 - k) in the 0-based state index
        for p in np.flatnonzero(bits[:, k]):
            assert ops[k, p - 2 ** (2 - k), p] == 1.0


def test_sz_operators_are_half_signs():
    ops = sz_operators(3)
    bits = lc.basis_bits(3)
    for k in range(3):
        diag = np.diag(ops[k])
        assert np.array_equal(diag, 0.5 * (1 - 2 * bits[:, k]))
        assert np.array_equal(ops[k], np.diag(diag))


def test_tilde_operators_at_zero_time(default_setup):
    params, envs = default_setup
    ops = tilde_jump_operators(0.0, params, envs[M.INDEPENDENT_DISSIPATION])
    assert ops.shape == (3, 8, 8)
    assert np.array_equal(ops, lowering_operators(3).astype(complex))


def test_tilde_operators_carry_transition_phases(default_setup):
    params, envs = default_setup
    t = 0.83
    ops = tilde_jump_operators(t, params, envs[M.CORRELATED_DISSIPATION])
    table = lc.omega_table(params)
    # entry (m, p) of qubit k oscillates at the source column's frequency
    assert ops[0, 0, 4] == pytest.approx(np.exp(-1j * table[0, 4] * t))
    assert ops[2, 6, 7] == pytest.approx(np.exp(-1j * table[2, 7] * t))
    assert abs(ops[0, 0, 0]) == 0.0


def test_tilde_operators_dephasing_is_static(default_setup):
    params, envs = default_setup
    env = envs[M.CORRELATED_DEPHASING]
    ops = tilde_jump_operators(7.7, params, env)
    assert np.array_equal(ops, sz_operators(3).astype(complex))


# ------------------------------------------------------------ dephasing rates

def test_dephasing_rate_values(default_setup):
    _, envs = default_setup
    diag = lc.dephasing_rate_matrix(envs[M.DEPHASING])
    corr = lc.dephasing_rate_matrix(envs[M.CORRELATED_DEPHASING])
    assert diag[0, 7] == pytest.approx(0.15, abs=1e-15)
    assert diag[0, 6] == pytest.approx(0.10, abs=1e-15)  # qubits 1, 2 differ
    assert diag[0, 3] == pytest.approx(0.10, abs=1e-15)  # qubits 2, 3 differ
    assert diag[0, 5] == pytest.approx(0.10, abs=1e-15)  # qubits 1, 3 differ
    assert corr[0, 7] == pytest.approx(0.325, abs=1e-15)
    assert corr[3, 4] == pytest.approx(0.075, abs=1e-15)
    assert corr[2, 4] == pytest.approx(0.0, abs=1e-15)  # protected coherence
    for mat in (diag, corr):
        assert np.array_equal(np.diag(mat), np.zeros(8))
        assert np.array_equal(mat, mat.T)


def test_dephasing_rhs_and_closed_form(default_setup):
    params, envs = default_setup
    env = envs[M.DEPHASING]
    rho = lc.initial_bell_density(1, 8)
    rhs = apply_generator(lc.make_rhs(params, env, EngineKind.ELEMENT_WISE), rho, 0.0)
    assert rhs[0, 7] == pytest.approx(-0.075, abs=1e-15)
    assert rhs[0, 0] == 0.0
    assert rhs[7, 7] == 0.0
    at_ten = lc.closed_form_dephasing(rho, 10.0, env)
    assert at_ten[0, 7] == pytest.approx(0.5 * np.exp(-1.5), abs=1e-15)
    assert at_ten[0, 0] == 0.5
    series = lc.closed_form_dephasing(rho, [0.0, 1.0, 2.0], env)
    assert series.shape == (3, 8, 8)
    assert np.array_equal(series[0], rho)


def test_dephasing_model_guards(default_setup):
    _, envs = default_setup
    rho = lc.initial_bell_density(1, 8)
    with pytest.raises(ValueError, match="dissipative"):
        lc.closed_form_dephasing(rho, 1.0, envs[M.CORRELATED_DISSIPATION])
    with pytest.raises(ValueError, match=r"^rho shape \(4, 4\) does not match 3 qubits$"):
        lc.closed_form_dephasing(np.eye(4) / 4, 1.0, envs[M.DEPHASING])


# -------------------------------------------------------- right-hand sides

def test_bell_rhs_values_independent_dissipation(default_setup):
    params, envs = default_setup
    env = envs[M.INDEPENDENT_DISSIPATION]
    rho = lc.initial_bell_density(1, 8)
    rhs = apply_generator(lc.make_rhs(params, env, EngineKind.ELEMENT_WISE), rho, 0.0)
    # the all-excited population decays at (gamma/2) * 6, feeding state 4
    assert rhs[7, 7].real == pytest.approx(-0.075, abs=1e-15)
    assert rhs[3, 3].real == pytest.approx(0.025, abs=1e-15)
    assert rhs[0, 7] == pytest.approx(-0.0375, abs=1e-15)
    assert abs(np.trace(rhs)) < 1e-15


@st.composite
def chains_and_rates(draw):
    """A 2- or 3-qubit chain and a symmetric rate matrix for it, some of
    whose entries are exactly zero."""
    n_qubits = draw(st.integers(min_value=2, max_value=3))
    omegas = draw(st.lists(st.floats(min_value=10.0, max_value=500.0), min_size=3, max_size=3))
    coupling_j = draw(st.floats(min_value=0.0, max_value=20.0))
    coupling_jp = draw(st.floats(min_value=0.0, max_value=2.0))
    rates = draw(st.lists(st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=0.1)),
                          min_size=6, max_size=6))
    gamma = np.zeros((n_qubits, n_qubits))
    gamma[np.triu_indices(n_qubits)] = rates[:n_qubits * (n_qubits + 1) // 2]
    chain = lc.SpinChainParams(omegas[:n_qubits], coupling_j, coupling_jp)
    return chain, gamma + np.triu(gamma, 1).T


def _quiet_environment(model, rates):
    """EnvironmentSpec without the warning a random indefinite matrix draws."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return EnvironmentSpec(model, rates)


TWO_QUBIT_CHAIN = lc.SpinChainParams(omegas=(300.0, 150.0), coupling_j=8.0, coupling_jp=0.0)
TWO_QUBIT_ENV = lc.EnvironmentSpec(M.CORRELATED_DISSIPATION, [[0.05, 0.02], [0.02, 0.04]])


@given(st.integers(min_value=0, max_value=2**32 - 1),
       st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
       chains_and_rates())
@example(seed=0, t=1.3, chain_and_rates=(lc.SpinChainParams(), default_rate_matrix()))
@example(seed=11, t=0.7, chain_and_rates=(TWO_QUBIT_CHAIN, TWO_QUBIT_ENV.rates))
@settings(max_examples=40, deadline=None)
def test_compiled_engines_match_literal_operator_form(seed, t, chain_and_rates):
    chain, rates = chain_and_rates
    rho = random_density(np.random.default_rng(seed), dim=chain.dim)
    for model in MODELS:
        env = _quiet_environment(model, rates)
        literal = lindblad_rhs_operator(rho, t, chain, env)
        for kind in EngineKind:
            generator = lc.make_rhs(chain, env, kind)
            if kind is EngineKind.ELEMENT_WISE:
                # a repeated slot would keep one of its terms and drop the rest
                assert len(np.unique(generator._slots)) == len(generator._slots)
            compiled = apply_generator(generator, rho, t)
            assert np.max(np.abs(compiled - literal)) < 1e-12


@given(st.integers(min_value=0, max_value=2**32 - 1),
       st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
       chains_and_rates(), st.booleans())
@settings(max_examples=50, deadline=None)
def test_generator_preserves_trace_and_hermiticity(seed, t, chain_and_rates, psd):
    """For both engines and all four models, on random chains with
    symmetric or positive-semidefinite B B^T rates: vec(I)^H A(t) = 0, i.e.
    every column of A(t) sums to zero over the population rows, and
    A(t) vec(rho^dagger) = vec((A(t) vec rho)^dagger) for a random complex
    rho."""
    chain, rates = chain_and_rates
    rng = np.random.default_rng(seed)
    if psd:
        root = rng.uniform(-0.3, 0.3, size=rates.shape)
        rates = root @ root.T
    dim = chain.dim
    rho = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    populations = np.arange(dim) * (dim + 1)  # the rows of vec rho's diagonal
    for model in MODELS:
        env = _quiet_environment(model, rates)
        for kind in EngineKind:
            generator = lc.make_rhs(chain, env, kind)
            assert np.max(np.abs(generator(t)[populations].sum(axis=0))) < 1e-15
            image = apply_generator(generator, rho, t)
            assert np.max(np.abs(apply_generator(generator, rho.conj().T, t)
                                 - image.conj().T)) < 1e-14


def test_zeroed_correlations_reduce_bitwise(default_setup):
    params, _ = default_setup
    diag = [0.05, 0.03, 0.02]
    rho = random_density(np.random.default_rng(21))
    for plain, correlated in ((M.INDEPENDENT_DISSIPATION, M.CORRELATED_DISSIPATION),
                              (M.DEPHASING, M.CORRELATED_DEPHASING)):
        independent = lc.EnvironmentSpec(plain, np.diag(diag))
        zeroed = lc.EnvironmentSpec(correlated, np.diag(diag))
        for t in (0.0, 0.45, 2.3):
            for kind in EngineKind:
                a = apply_generator(lc.make_rhs(params, independent, kind), rho, t)
                b = apply_generator(lc.make_rhs(params, zeroed, kind), rho, t)
                assert np.array_equal(a, b)


# ------------------------------------------------------- Liouville matrices

@given(chains_and_rates())
@example(chain_and_rates=(lc.SpinChainParams(), default_rate_matrix()))
@example(chain_and_rates=(TWO_QUBIT_CHAIN, TWO_QUBIT_ENV.rates))
@settings(max_examples=25, deadline=None)
def test_operator_built_liouville_has_the_bits_of_the_kron_formula(chain_and_rates):
    """The broadcast anti (x) I and I (x) anti^T multiply the pairs np.kron
    multiplies, so the Liouville matrix keeps every bit."""
    chain, rates = chain_and_rates
    dim = chain.dim
    for model in MODELS:
        env = _quiet_environment(model, rates)
        ops = (lowering_operators if model.dissipative else sz_operators)(chain.n_qubits)
        feed = np.einsum("kl,kac,lbd->abcd", env.rates, ops, ops.conj()).reshape(dim * dim, -1)
        anti = np.einsum("kl,lba,kbc->ac", env.rates, ops.conj(), ops)
        eye = np.eye(dim)
        kron = ((0.5 if model.dissipative else 1.0)
                * (2.0 * feed - np.kron(anti, eye) - np.kron(eye, anti.T)))
        liouville = lc.make_rhs(chain, env, EngineKind.OPERATOR_BUILT)._liouville
        assert liouville.shape == kron.shape and liouville.tobytes() == kron.tobytes()


@given(chains_and_rates())
@example(chain_and_rates=(lc.SpinChainParams(), default_rate_matrix()))
@example(chain_and_rates=(TWO_QUBIT_CHAIN, TWO_QUBIT_ENV.rates))
@settings(max_examples=60, deadline=None)
def test_generators_are_frame_covariant(chain_and_rates):
    """A(t + c) = D(t) A(c) D(-t) with D(t) = diag(exp(i Delta t)): the
    symmetry that turns RK4 into powers of one transfer matrix, which the
    propagator build relies on without checking.  A(t) is nonzero only
    where A(0) is, so A(0) alone gives the invariant blocks."""
    chain, rates = chain_and_rates
    for model in MODELS:
        env = _quiet_environment(model, rates)
        delta = frame_frequencies(chain, env).reshape(-1)
        for kind in EngineKind:
            generator = lc.make_rhs(chain, env, kind)
            silent = generator(0.0) == 0
            for t, c in ((0.37, 0.0), (2.9, 0.0005), (4.4, 1.3)):
                frame = np.exp(1j * delta * t)
                moved = frame[:, None] * generator(c) * frame.conj()[None, :]
                assert np.max(np.abs(generator(t + c) - moved)) < 1e-12
                assert np.all(generator(t + c)[silent] == 0)


def test_correlations_change_only_turning_entries(default_setup):
    """The secular split (Breuer & Petruccione, The Theory of Open Quantum
    Systems, 2002, sec. 3.3) on the default chain, in both engines: the
    correlated and independent dissipation generators have the same
    secular part, bit for bit, and all 288 entries the cross rates add
    turn at 84.8 to 310.4, the Larmor differences shifted by J and J'.
    Independent dissipation turns in 34 entries of its own, at the J and
    J' splittings; the dephasing generators turn nowhere."""
    params, envs = default_setup
    for kind in EngineKind:
        independent, independent_secular, freqs = secular_split(
            params, envs[M.INDEPENDENT_DISSIPATION], kind)
        correlated, correlated_secular, _ = secular_split(
            params, envs[M.CORRELATED_DISSIPATION], kind)
        assert np.array_equal(correlated_secular, independent_secular)
        added = correlated != independent
        assert np.count_nonzero(added) == 288
        assert np.abs(freqs[added]).min() == pytest.approx(84.8)
        assert np.abs(freqs[added]).max() == pytest.approx(310.4)
        turning = independent != independent_secular
        assert np.count_nonzero(turning) == 34
        assert np.abs(freqs[turning]).min() == pytest.approx(0.4)
        assert np.abs(freqs[turning]).max() == pytest.approx(20.0)
        for model in (M.DEPHASING, M.CORRELATED_DEPHASING):
            a0, secular, _ = secular_split(params, envs[model], kind)
            assert np.array_equal(a0, secular)


@pytest.mark.parametrize("seed", range(6))
def test_correlations_keep_the_secular_part_on_random_chains(seed):
    """Each frame transition frequency of qubit k lies within |J| + |J'| of
    omega_k, so where the Larmor gaps exceed 2(|J| + |J'|) every entry the
    cross rates add turns, at no less than the smallest gap minus that
    spread, and the correlated and independent secular parts agree."""
    rng = np.random.default_rng(seed)
    coupling_j, coupling_jp = rng.uniform(-20.0, 20.0), rng.uniform(-2.0, 2.0)
    spread = 2.0 * (abs(coupling_j) + abs(coupling_jp))
    omegas = 10.0 + np.cumsum(spread + rng.uniform(0.5, 100.0, size=3))
    rng.shuffle(omegas)
    gap = np.min(np.diff(np.sort(omegas)))
    assert gap > spread
    chain = lc.SpinChainParams(tuple(omegas), coupling_j, coupling_jp)
    rates = rng.uniform(0.0, 0.1, size=(3, 3))
    rates = rates + rates.T
    for kind in EngineKind:
        independent, independent_secular, freqs = secular_split(
            chain, _quiet_environment(M.INDEPENDENT_DISSIPATION, rates), kind)
        correlated, correlated_secular, _ = secular_split(
            chain, _quiet_environment(M.CORRELATED_DISSIPATION, rates), kind)
        assert np.max(np.abs(correlated_secular - independent_secular)) < 1e-15
        added = np.abs(correlated - independent) > 1e-12
        assert np.count_nonzero(added) == 288
        assert np.abs(freqs[added]).min() > gap - spread - 1e-9


def test_dephasing_never_moves_populations_exactly(default_setup):
    """Every entry of a population row (a * dim + a) of A(t) is exactly 0:
    in the operator sum the feed and the two anticommutator terms cancel
    as 2x - x - x, which must hold bit for bit, not to round-off."""
    params, envs = default_setup
    cases = [(params, envs[model]) for model in (M.DEPHASING, M.CORRELATED_DEPHASING)]
    cases += [(TWO_QUBIT_CHAIN, lc.EnvironmentSpec(model, [[0.05, 0.02], [0.02, 0.04]]))
              for model in (M.DEPHASING, M.CORRELATED_DEPHASING)]
    for chain, env in cases:
        populations = np.arange(chain.dim) * (chain.dim + 1)
        for kind in EngineKind:
            generator = lc.make_rhs(chain, env, kind)
            for t in (0.0, 0.37):
                assert np.all(generator(t)[populations] == 0.0), (env.model, kind, t)


# ------------------------------------------------------------------ stepping

def test_rk4_recording_grid(default_setup):
    params, envs = default_setup
    cfg = EvolutionConfig(t_max=1.0, dt=0.1, record_stride=3)
    traj = lc.rk4_evolve(lc.initial_bell_density(1, 8), cfg, params, envs[M.DEPHASING])
    assert traj.taus == pytest.approx([0.0, 0.3, 0.6, 0.9, 1.0])
    assert traj.rhos.shape == (5, 8, 8)
    assert traj.n_records == 5
    single = lc.rk4_evolve(lc.initial_bell_density(1, 8),
                           EvolutionConfig(t_max=0.0), params, envs[M.DEPHASING])
    assert single.taus == pytest.approx([0.0])


def _reference_rk4(generator, rho, n_steps, dt, stride):
    """The classical step-by-step RK4 loop, four RHS evaluations per step."""

    def rhs(rho, t):
        return apply_generator(generator, rho, t)

    records = []
    for step in range(n_steps):
        if step % stride == 0:
            records.append(rho.copy())
        t = step * dt
        k1 = rhs(rho, t)
        k2 = rhs(rho + (0.5 * dt) * k1, t + 0.5 * dt)
        k3 = rhs(rho + (0.5 * dt) * k2, t + 0.5 * dt)
        k4 = rhs(rho + dt * k3, t + dt)
        rho = rho + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    records.append(rho)
    return np.asarray(records)


def test_transfer_matrix_matches_step_loop(default_setup):
    params, envs = default_setup
    rho0 = lc.initial_bell_density(1, 8)
    cfg = EvolutionConfig(t_max=0.37, dt=0.01, record_stride=5)  # 37 steps
    for env in envs.values():
        for kind in EngineKind:
            traj = lc.rk4_evolve(rho0, replace(cfg, engine=kind), params, env)
            reference = _reference_rk4(lc.make_rhs(params, env, kind),
                                       rho0.astype(complex), 37, 0.01, 5)
            assert traj.taus == pytest.approx([0.0, 0.05, 0.1, 0.15, 0.2, 0.25,
                                               0.3, 0.35, 0.37])
            assert np.max(np.abs(traj.rhos - reference)) < 1e-12


def _dense_transfer(params, env, cfg):
    """Q = D(-dt) M0 as one dense 64x64 matrix, from the full Liouville
    matrices: the block stacks of the integrator restrict this matrix."""
    generator = lc.make_rhs(params, env, cfg.engine)
    delta = frame_frequencies(params, env).reshape(-1)
    step = engine._rk4_step_matrix(generator(0.0), generator(0.5 * cfg.dt),
                                   generator(cfg.dt), cfg.dt)
    return np.exp(-1j * delta * cfg.dt)[:, None] * step


def _sequential_records(transfer, rho0, steps, dt, delta):
    """The record loop the doubling replaced: one product with the dense
    Q^stride per record, then Q^gap for the final gap, then the frame
    phases."""
    hop = np.linalg.matrix_power(transfer, steps[1] - steps[0]) if len(steps) > 1 else None
    vecs = [rho0.reshape(-1).astype(complex)]
    for i in range(1, len(steps)):
        gap = steps[i] - steps[i - 1]
        power = hop if gap == steps[1] - steps[0] else np.linalg.matrix_power(transfer, gap)
        vecs.append(power @ vecs[-1])
    taus = np.asarray(steps) * dt
    phased = np.exp(1j * np.outer(taus, delta)) * np.asarray(vecs)
    return phased.reshape(len(steps), *rho0.shape)


def _stacks_with_powers(propagator):
    """(index, transfer, powers, last_hop) per stack, building the powers
    of any stack no run has occupied yet."""
    return [(*stack, *propagator.powers(i)) for i, stack in enumerate(propagator.stacks)]


@pytest.mark.parametrize("n_steps, n_records", [
    (0, 1), (3, 2), (6, 3), (90, 31), (93, 32), (96, 33), (99, 34), (1200, 401), (100, 35),
], ids=["1", "2", "3", "2^5-1", "2^5", "2^5+1", "2^5+2", "sweep_401", "short_final_gap"])
def test_doubled_records_match_sequential_loop(default_setup, propagator_cache,
                                               n_steps, n_records):
    params, envs = default_setup
    rho0 = lc.initial_bell_density(2, 7)
    cfg = EvolutionConfig(t_max=n_steps * 1e-2, dt=1e-2, record_stride=3)
    for env in envs.values():
        traj = lc.rk4_evolve(rho0, cfg, params, env)
        propagator = propagator_cache(params, env, cfg)
        steps = propagator.steps
        assert traj.n_records == len(steps) == n_records
        for _, _, powers, _ in _stacks_with_powers(propagator):
            assert len(powers) == max(1, (n_records - 2).bit_length())
        reference = _sequential_records(_dense_transfer(params, env, cfg), rho0, steps, cfg.dt,
                                        frame_frequencies(params, env).reshape(-1))
        assert np.max(np.abs(traj.rhos - reference)) < 1e-13


def test_overflowing_power_leaves_finite_records_finite(propagator_cache):
    # Gamma dt = 1: the 3-bit coherences decay at 3 Gamma, past RK4's limit
    # (|R(-3)| = 1.375), the 2-bit ones at 2 Gamma are stable.  H^256 =
    # Q^2560 overflows on those 3-bit entries, which this state leaves at 0
    params = lc.SpinChainParams()
    env = lc.EnvironmentSpec(M.DEPHASING, 1.0 * np.eye(3))
    cfg = EvolutionConfig(t_max=4000.0, dt=1.0, record_stride=10)
    rho0 = lc.initial_bell_density(1, 7)
    with pytest.warns(UserWarning, match="spectral radius"):
        traj = lc.rk4_evolve(rho0, cfg, params, env)
    propagator = propagator_cache(params, env, cfg)
    steps = propagator.steps
    assert traj.n_records == len(steps) == 401
    # the one stack of 64 singletons stopped squaring at the overflow
    assert [len(powers) for _, _, powers, _ in _stacks_with_powers(propagator)] == [8]
    reference = _sequential_records(_dense_transfer(params, env, cfg), rho0, steps, cfg.dt,
                                    frame_frequencies(params, env).reshape(-1))
    assert np.isfinite(traj.rhos).all()
    assert np.max(np.abs(traj.rhos - reference)) < 1e-13


def test_each_stack_squares_to_its_own_first_overflow(propagator_cache):
    # gamma dt = 1: only the block of the populations has |R(-3)| = 1.375 > 1,
    # so it stops squaring at its first overflow while the stable stacks
    # square on to the 9 powers that doubling 401 records takes
    params = lc.SpinChainParams()
    env = lc.EnvironmentSpec(M.INDEPENDENT_DISSIPATION, 1.0 * np.eye(3))
    cfg = EvolutionConfig(t_max=4000.0, dt=1.0, record_stride=10)
    with pytest.warns(UserWarning, match="spectral radius 1.375 "):
        with pytest.raises(lc.IntegrationDivergedError) as err:
            lc.rk4_evolve(lc.initial_bell_density(1, 8), cfg, params, env)
    assert err.value.step == 2232
    propagator = propagator_cache(params, env, cfg)
    stacks, steps = _stacks_with_powers(propagator), propagator.steps
    assert [index.shape for index, *_ in stacks] == [(1, 8), (6, 4), (12, 2), (8, 1)]
    assert [len(powers) for _, _, powers, _ in stacks] == [8, 9, 9, 9]
    powers = stacks[0][2]  # of the population block
    with np.errstate(over="ignore", invalid="ignore"):
        assert not np.isfinite(powers[-1] @ powers[-1]).all()
    # psi_27 leaves the unstable population of |111> at 0, so the overflow
    # of its stack's next square cannot reach its records
    rho0 = lc.initial_bell_density(2, 7)
    with pytest.warns(UserWarning, match="spectral radius"):
        traj = lc.rk4_evolve(rho0, cfg, params, env)
    reference = _sequential_records(_dense_transfer(params, env, cfg), rho0, steps, cfg.dt,
                                    frame_frequencies(params, env).reshape(-1))
    assert np.isfinite(traj.rhos).all()
    assert np.max(np.abs(traj.rhos - reference)) < 1e-13


def test_rk4_warns_outside_stability_region(default_setup):
    params, envs = default_setup
    hot = lc.EnvironmentSpec(M.INDEPENDENT_DISSIPATION, 5000.0 * np.eye(3))
    cfg = EvolutionConfig(t_max=1.0, dt=1e-3, record_stride=100)
    with pytest.warns(UserWarning, match="spectral radius"):
        with pytest.raises(lc.IntegrationDivergedError):
            lc.rk4_evolve(lc.initial_bell_density(1, 8), cfg, params, hot)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for env in envs.values():
            lc.rk4_evolve(lc.initial_bell_density(1, 8), cfg, params, env)


@pytest.mark.parametrize("factor, warns", [(1 + 2e-4, True), (1 - 2e-4, False)])
def test_stability_warning_has_no_slack_past_the_boundary(propagator_cache, factor, warns):
    # under dephasing Q is diagonal, so its radius is RK4's |1 + z + ... + z**4/24|
    # at z = -3 g dt, the fastest coherence decay, or 1 (the populations);
    # the real-axis boundary is z = -2.785293...
    dt = 1e-3
    g = 2.785293 * factor / (3 * dt)
    env = lc.EnvironmentSpec(M.DEPHASING, g * np.eye(3))
    cfg = EvolutionConfig(t_max=0.01, dt=dt, record_stride=10)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        lc.rk4_evolve(lc.initial_bell_density(1, 8), cfg, lc.SpinChainParams(), env)
    assert [str(w.message) for w in caught] == [
        "dt = 0.001 lies outside the RK4 stability region: the one-step transfer "
        "matrix has spectral radius 1.00084 > 1"] * warns


def test_spectral_radius_is_the_modulus_of_complex_eigenvalues():
    angle = 0.3
    rotation = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
    assert engine._spectral_radius(1.01 * rotation[None]) == pytest.approx(1.01, rel=1e-14)


def test_correlated_dephasing_is_not_positive_off_the_catalog(default_setup):
    """The default correlated dephasing map takes |+++><+++| out of the PSD
    cone; plain dephasing does not.  Every rate R_mn is >= 0, so a Bell
    pair's 2x2 block keeps populations 1/2 and a coherence that only
    shrinks, and no catalog state shows it."""
    params, envs = default_setup
    plus = np.full((8, 8), 1 / 8, dtype=complex)
    cfg = SWEEP_GRID
    low = {}
    for model in (M.CORRELATED_DEPHASING, M.DEPHASING):
        traj = lc.rk4_evolve(plus, cfg, params, envs[model])
        low[model] = lc.diagnostics(traj.rhos).min_eigenvalue
        assert dephasing_rate_matrix(envs[model]).min() == 0.0
    k = int(np.argmin(low[M.CORRELATED_DEPHASING]))
    assert low[M.CORRELATED_DEPHASING][k] < -1e-2
    assert k * cfg.dt * cfg.record_stride == pytest.approx(33.1)
    assert low[M.DEPHASING].min() > -1e-15


def test_rk4_matches_closed_form_dephasing(default_setup):
    params, envs = default_setup
    env = envs[M.CORRELATED_DEPHASING]
    rho0 = lc.initial_bell_density(1, 8)
    cfg = EvolutionConfig(t_max=2.0, dt=1e-3, record_stride=200)
    traj = lc.rk4_evolve(rho0, cfg, params, env)
    exact = lc.closed_form_dephasing(rho0, traj.taus, env)
    assert np.max(np.abs(traj.rhos - exact)) < 1e-12


@pytest.mark.parametrize("stride", [1, 2, 5, 10, 94, 95, 96, 100, 1000])
def test_rk4_divergence_raises(default_setup, stride):
    params, _ = default_setup
    cfg = EvolutionConfig(t_max=1.0, dt=1e-3, record_stride=stride)
    # one-step products with Q from the last finite record name the first
    # non-finite step, wherever the records fall
    for gamma, step in ((5000.0, 96), (3000.0, 137)):
        hot = lc.EnvironmentSpec(M.INDEPENDENT_DISSIPATION, gamma * np.eye(3))
        with pytest.warns(UserWarning, match="spectral radius"):
            with pytest.raises(lc.IntegrationDivergedError, match="step") as err:
                lc.rk4_evolve(lc.initial_bell_density(1, 8), cfg, params, hot)
        assert err.value.step == step
        assert err.value.tau == pytest.approx(step * 1e-3)


def test_rk4_input_validation(default_setup):
    params, envs = default_setup
    cfg = EvolutionConfig(t_max=1.0)
    with pytest.raises(ValueError):
        lc.rk4_evolve(np.eye(4) / 4, cfg, params, envs[M.DEPHASING])
    with pytest.raises(ValueError):
        lc.rk4_evolve(np.zeros((8, 8)), cfg, params, envs[M.DEPHASING])
    two_qubit = lc.SpinChainParams(omegas=(300.0, 150.0))
    with pytest.raises(ValueError, match="qubits"):
        lc.make_rhs(two_qubit, envs[M.INDEPENDENT_DISSIPATION], EngineKind.ELEMENT_WISE)


def _block_sizes(stacks):
    return [index.shape[1] for index, *_ in stacks for _ in index]


def _partition(params, env, kind):
    cfg = EvolutionConfig(t_max=1.0, dt=1e-3, engine=kind)
    stacks = engine._propagator.__wrapped__(params, env, cfg).stacks
    blocks = sorted(tuple(block) for index, *_ in stacks for block in index.tolist())
    assert sorted(entry for block in blocks for entry in block) == list(range(params.dim ** 2))
    return stacks, blocks


def test_invariant_blocks_of_the_default_chain(default_setup):
    params, envs = default_setup
    sizes = {M.CORRELATED_DISSIPATION: [20, 15, 15, 6, 6, 1, 1],
             M.DEPHASING: [1] * 64, M.CORRELATED_DEPHASING: [1] * 64}
    for chain in (params, TWO_QUBIT_CHAIN):
        rates = np.full((chain.n_qubits, chain.n_qubits), 0.05)
        for model in MODELS:
            env = envs[model] if chain is params else EnvironmentSpec(model, rates)
            stacks, blocks = _partition(chain, env, EngineKind.ELEMENT_WISE)
            assert _partition(chain, env, EngineKind.OPERATOR_BUILT)[1] == blocks
            if chain is params and model in sizes:
                assert _block_sizes(stacks) == sizes[model]
            if chain is params and model is M.INDEPENDENT_DISSIPATION:
                assert len(blocks) == 27 and max(map(len, blocks)) == 8


@given(chains_and_rates(), st.integers(min_value=0, max_value=3))
@settings(max_examples=25, deadline=None)
def test_engines_agree_on_invariant_blocks(chain_and_rates, model_index):
    chain, rates = chain_and_rates
    env = _quiet_environment(MODELS[model_index], rates)
    assert (_partition(chain, env, EngineKind.ELEMENT_WISE)[1]
            == _partition(chain, env, EngineKind.OPERATOR_BUILT)[1])


def test_records_outside_the_occupied_blocks_are_exactly_zero(default_setup,
                                                              propagator_cache):
    params, envs = default_setup
    cfg = EvolutionConfig(t_max=1.0, dt=1e-3, record_stride=50)
    for pair in ((1, 8), (2, 7), (4, 6), (2, 3)):
        rho0 = lc.initial_bell_density(*pair)
        for env in envs.values():
            traj = lc.rk4_evolve(rho0, cfg, params, env)
            stacks = propagator_cache(params, env, cfg).stacks
            occupied = np.zeros(params.dim ** 2, dtype=bool)
            for block in (block for index, *_ in stacks for block in index):
                occupied[block] = np.any(rho0.reshape(-1)[block] != 0)
            records = traj.rhos.reshape(traj.n_records, -1)
            assert np.all(records[:, ~occupied] == 0.0)


def test_rk4_converges_to_the_exact_solution_at_fourth_order(default_setup):
    """vec rho(tau) = D(tau) expm(tau (A(0) - i diag Delta)) vec rho0 is the
    exact solution in the co-rotating variable; halving dt must cut the
    largest RK4 error on the records by about 2^4."""
    params, envs = default_setup
    env = envs[M.CORRELATED_DISSIPATION]
    delta = frame_frequencies(params, env).reshape(-1)
    generator = _lab_generator(params, env, EngineKind.ELEMENT_WISE)
    taus = np.linspace(0.0, 2.0, 9)
    flows = np.exp(1j * np.outer(taus, delta))[:, :, None] * np.stack(
        [expm(tau * generator) for tau in taus])
    for name in ("psi_27", "alpha_46", "alpha_35"):
        rho0 = lc.initial_bell_density(*lc.catalog_entry(name).pair)
        exact = (flows @ rho0.reshape(-1)).reshape(-1, 8, 8)
        errors = []
        for dt, stride in ((2e-3, 125), (1e-3, 250)):
            traj = lc.rk4_evolve(rho0, EvolutionConfig(t_max=2.0, dt=dt, record_stride=stride),
                                 params, env)
            assert traj.taus == pytest.approx(taus)
            errors.append(np.max(np.abs(traj.rhos - exact)))
        assert 12.0 < errors[0] / errors[1] < 20.0, (name, errors)


# -------------------------------------------------------- complete positivity

def _lab_generator(params, env, kind):
    """G = A(0) - i diag(Delta): vec rho(tau) = D(tau) expm(tau G) vec rho0,
    with D(tau) = diag(exp(i tau Delta)) a unitary change of frame."""
    delta = frame_frequencies(params, env).reshape(-1)
    return lc.make_rhs(params, env, kind)(0.0) - 1j * np.diag(delta)


def _choi(superoperator, dim):
    """C[(m,p),(n,q)] = S[(p,q),(m,n)], i.e. sum_mn |m><n| (x) S(|m><n|).
    A map is completely positive iff its Choi matrix is PSD (Choi, Linear
    Algebra Appl. 10 (1975) 285)."""
    return superoperator.reshape((dim,) * 4).transpose(2, 0, 3, 1).reshape(dim**2, dim**2)


def _gks_minimum(generator, dim):
    """The smallest eigenvalue of G's Choi matrix compressed to the
    complement of Omega = sum_m |mm>/sqrt(dim).  For a generator that keeps
    trace and hermiticity, expm(tau G) is completely positive at every
    tau >= 0 iff this is >= 0 (Gorini, Kossakowski & Sudarshan, J. Math.
    Phys. 17 (1976) 821; Lindblad, Commun. Math. Phys. 48 (1976) 119)."""
    omega = np.eye(dim).reshape(-1) / np.sqrt(dim)
    outside = np.eye(dim**2) - np.outer(omega, omega)
    return np.linalg.eigvalsh(outside @ _choi(generator, dim) @ outside)[0]


@given(st.integers(min_value=0, max_value=2**32 - 1), chains_and_rates())
@settings(max_examples=30, deadline=None)
def test_psd_rates_generate_completely_positive_maps(seed, chain_and_rates):
    """With PSD rates B B^T, every model's generator, from either engine,
    passes the GKS/Lindblad test: a certificate for all states and times,
    where diagnostics' min_eig samples one trajectory at its records."""
    chain, rates = chain_and_rates
    root = np.random.default_rng(seed).uniform(-0.3, 0.3, size=rates.shape)
    for model in MODELS:
        env = _quiet_environment(model, root @ root.T)
        for kind in EngineKind:
            assert _gks_minimum(_lab_generator(chain, env, kind), chain.dim) >= -1e-11


def test_default_correlated_generators_fail_the_gks_test(default_setup):
    """The paper's correlated rates have a negative eigenvalue, and the
    property above can fail: both correlated models, both engines."""
    params, envs = default_setup
    for model in MODELS:
        for kind in EngineKind:
            low = _gks_minimum(_lab_generator(params, envs[model], kind), params.dim)
            if model.correlated:
                assert low == pytest.approx(-6.97e-3, rel=1e-3)
            else:
                assert low >= -1e-12


# floor(log10 |min eigenvalue|) of the Choi matrix of the default map
# expm(tau G), wherever that eigenvalue is negative beyond round-off.
# Correlated dephasing only gets worse; correlated dissipation is not CP at
# short times only.
NOT_CP_EXPONENTS = {
    M.CORRELATED_DEPHASING: {1e-3: -6, 3e-3: -5, 3e-2: -4, 0.1: -4, 1.0: -3, 40.0: -2},
    M.CORRELATED_DISSIPATION: {1e-3: -6, 3e-3: -5, 3e-2: -9},
}


def test_default_maps_are_completely_positive_except_where_pinned(default_setup):
    params, envs = default_setup
    for model in MODELS:
        generator = _lab_generator(params, envs[model], EngineKind.ELEMENT_WISE)
        pinned = NOT_CP_EXPONENTS.get(model, {})
        for tau in (1e-3, 3e-3, 3e-2, 0.1, 1.0, 40.0):
            low = np.linalg.eigvalsh(_choi(expm(tau * generator), params.dim))[0]
            if tau in pinned:
                assert low < 0 and np.floor(np.log10(-low)) == pinned[tau], (model, tau, low)
            else:
                assert low >= -1e-12, (model, tau, low)


def test_correlated_dissipation_dips_on_the_sweep_grid_are_rk4s(default_setup):
    """beta_23's deepest min_eig under correlated dissipation on the sweep
    grid (dt = 1e-2, stride 10) is -6.32e-7 at tau = 20.1.  At that tau the
    dip shrinks at least 16x per halving of dt, as RK4's fourth-order error
    does, and the exact state there is positive to round-off: the dip is
    the integrator's, not the model's."""
    params, envs = default_setup
    env = envs[M.CORRELATED_DISSIPATION]
    rho0 = lc.initial_bell_density(2, 3)
    sweep_run = lc.rk4_evolve(rho0, SWEEP_GRID, params, env)
    low = lc.diagnostics(sweep_run.rhos).min_eigenvalue
    assert sweep_run.taus[np.argmin(low)] == pytest.approx(20.1)
    dips = []
    for halvings in range(3):
        cfg = EvolutionConfig(t_max=20.1, dt=1e-2 / 2 ** halvings,
                              record_stride=10 * 2 ** halvings)
        traj = lc.rk4_evolve(rho0, cfg, params, env)
        assert traj.taus[-1] == pytest.approx(20.1)
        dips.append(float(lc.diagnostics(traj.rhos[-1]).min_eigenvalue))
    assert np.min(low) == pytest.approx(dips[0], rel=1e-9)
    assert dips[0] == pytest.approx(-6.320e-7, rel=1e-3)
    assert dips[1] == pytest.approx(-2.316e-8, rel=1e-3)
    assert dips[2] == pytest.approx(-7.534e-10, rel=1e-3)
    assert all(16 * abs(finer) <= abs(coarser) for coarser, finer in zip(dips, dips[1:]))
    delta = frame_frequencies(params, env).reshape(-1)
    generator = _lab_generator(params, env, EngineKind.ELEMENT_WISE)
    exact = np.exp(20.1j * delta) * (expm(20.1 * generator) @ rho0.reshape(-1))
    assert lc.diagnostics(exact.reshape(8, 8)).min_eigenvalue >= -1e-13


def test_rk4_record_map_of_a_cp_generator_is_not_cp_on_the_sweep_grid(default_setup):
    """Correlated dissipation with its negative rate eigenvalue clipped has
    PSD rates, so its generator passes the GKS test and its exact map is
    CP.  The RK4 map over one record, D(h) Q^stride with h = stride * dt,
    is not CP on the sweep grid (Choi minimum -3.1e-8); at the simulate
    defaults it is, to round-off (-3.5e-13).  RK4 alone can take a state
    out of the PSD cone."""
    params, envs = default_setup
    values, vectors = np.linalg.eigh(envs[M.CORRELATED_DISSIPATION].rates)
    assert values[0] < 0.0
    env = _quiet_environment(M.CORRELATED_DISSIPATION,
                             (vectors * np.clip(values, 0.0, None)) @ vectors.T)
    generator = _lab_generator(params, env, EngineKind.ELEMENT_WISE)
    assert _gks_minimum(generator, params.dim) >= -1e-11
    delta = frame_frequencies(params, env).reshape(-1)
    lows = []
    for cfg in (SWEEP_GRID, EvolutionConfig(t_max=1.0)):
        h = cfg.dt * cfg.record_stride
        phases = np.exp(1j * delta * h)[:, None]
        record_map = phases * np.linalg.matrix_power(_dense_transfer(params, env, cfg),
                                                     cfg.record_stride)
        lows.append(np.linalg.eigvalsh(_choi(record_map, params.dim))[0])
        exact = phases * expm(h * generator)
        assert np.linalg.eigvalsh(_choi(exact, params.dim))[0] >= -1e-12
    assert lows[0] < -1e-8
    assert lows[1] >= -1e-12


# ------------------------------------------------------ transfer-matrix cache

def test_cache_hit_miss_and_fresh_environment_agree(default_setup, propagator_cache):
    params, envs = default_setup
    rho0 = lc.initial_bell_density(2, 7)
    cfg = EvolutionConfig(t_max=0.5, dt=1e-2, record_stride=7)
    for env in envs.values():
        miss = lc.rk4_evolve(rho0, cfg, params, env)
        hits = propagator_cache.cache_info().hits
        hit = lc.rk4_evolve(rho0, cfg, params, env)
        assert propagator_cache.cache_info().hits == hits + 1
        # a spec with equal rates is another key: it hashes by identity
        copy = EnvironmentSpec(env.model, env.rates.copy())
        fresh = lc.rk4_evolve(rho0, cfg, params, copy)
        assert propagator_cache.cache_info().hits == hits + 1
        for traj in (hit, fresh):
            assert np.array_equal(traj.taus, miss.taus)
            assert np.array_equal(traj.rhos, miss.rhos)


def test_stability_warning_fires_on_every_call(propagator_cache):
    params = lc.SpinChainParams()
    hot = lc.EnvironmentSpec(M.INDEPENDENT_DISSIPATION, 5000.0 * np.eye(3))
    cfg = EvolutionConfig(t_max=0.05, dt=1e-3, record_stride=10)  # stops before step 96
    for _ in range(2):
        with pytest.warns(UserWarning, match="spectral radius") as caught:
            lc.rk4_evolve(lc.initial_bell_density(1, 8), cfg, params, hot)
        assert [w.filename for w in caught] == [__file__]  # the caller's line
    assert propagator_cache.cache_info().hits == 1


def test_cached_arrays_are_not_handed_out(default_setup, propagator_cache):
    params, envs = default_setup
    env = envs[M.CORRELATED_DISSIPATION]
    rho0 = lc.initial_bell_density(1, 8)
    cfg = EvolutionConfig(t_max=0.3, dt=1e-2, record_stride=10)
    traj = lc.rk4_evolve(rho0, cfg, params, env)
    first = traj.rhos.copy()
    traj.taus[:] = -1.0
    traj.rhos[:] = 0.0
    again = lc.rk4_evolve(rho0, cfg, params, env)
    assert propagator_cache.cache_info().hits == 1
    assert again.taus == pytest.approx([0.0, 0.1, 0.2, 0.3])
    assert np.array_equal(again.rhos, first)
    propagator = propagator_cache(params, env, cfg)
    for index, transfer, powers, last_hop in _stacks_with_powers(propagator):
        assert len(powers) == 2  # 3 rows from one by doubling: H^T and (H^2)^T
        for array in (index, transfer, powers, last_hop):
            assert not array.flags.writeable
    assert not propagator.taus.flags.writeable
    # the phase table is the one cached array that is written, and only by
    # phases(): what it returns is a copy
    index = propagator.stacks[0][0]
    handed = propagator.phases(index)
    expected = handed.copy()
    handed[:] = 0.0
    assert np.array_equal(propagator.phases(index), expected)


def test_frame_phases_are_filled_once_in_any_order(default_setup, propagator_cache,
                                                   monkeypatch):
    """The store computes an entry's phases when a run first reads it.  The
    16 catalog states, run through one cache entry in catalog order or in
    reverse, keep the bits of the full exp(i tau Delta) table multiplied
    phase first, and no entry is computed twice."""
    params, envs = default_setup
    cfg = SWEEP_GRID
    rho0s = [lc.initial_bell_density(*entry.pair) for entry in lc.catalog_states(params)]
    exp = np.exp
    for model, count in zip(MODELS, (40, 64, 40, 40)):
        env = envs[model]
        built = engine._Propagator(params, env, cfg)
        table = exp(np.outer(built.taus, frame_frequencies(params, env).reshape(-1)) * 1j)
        built.phases = lambda index: table[:, index]
        with monkeypatch.context() as patch:
            patch.setattr(engine, "_propagator", lambda *key: built)
            reference = [lc.rk4_evolve(rho0, cfg, params, env).rhos for rho0 in rho0s]
        for order in (1, -1):
            propagator_cache.cache_clear()
            propagator = propagator_cache(params, env, cfg)
            computed = []  # the rows of every exp call, once the entry is built
            with monkeypatch.context() as patch:
                patch.setattr(np, "exp", lambda x: computed.append(len(x)) or exp(x))
                for rho0, rhos in list(zip(rho0s, reference))[::order]:
                    assert np.array_equal(lc.rk4_evolve(rho0, cfg, params, env).rhos, rhos)
            assert sum(computed) == propagator._filled.sum() == count
    # a single run computes only the entries it reads
    rho0 = lc.initial_bell_density(*lc.catalog_entry("psi_18").pair)
    for model, count in ((M.INDEPENDENT_DISSIPATION, 10), (M.DEPHASING, 4)):
        lc.rk4_evolve(rho0, cfg, params, envs[model])
        assert propagator_cache(params, envs[model], cfg)._filled.sum() == count


def _count_power_builds(patch):
    """Patch matrix_power to log the shape of each stack it powers: one
    call per stack build on a grid whose final gap is a whole stride."""
    built, matrix_power = [], np.linalg.matrix_power
    patch.setattr(np.linalg, "matrix_power",
                  lambda a, n: built.append(a.shape[:2]) or matrix_power(a, n))
    return built


def test_a_lone_run_builds_the_powers_of_the_stacks_it_occupies(default_setup,
                                                                 propagator_cache, monkeypatch):
    params, envs = default_setup
    cfg = SWEEP_GRID
    rho0 = lc.initial_bell_density(*lc.catalog_entry("psi_18").pair)
    occupied = {M.INDEPENDENT_DISSIPATION: [(1, 8), (8, 1)],
                M.CORRELATED_DISSIPATION: [(1, 20), (2, 1)],
                M.DEPHASING: [(64, 1)], M.CORRELATED_DEPHASING: [(64, 1)]}
    for model, shapes in occupied.items():
        with monkeypatch.context() as patch:
            built = _count_power_builds(patch)
            lc.rk4_evolve(rho0, cfg, params, envs[model])
        propagator = propagator_cache(params, envs[model], cfg)
        assert len(propagator.stacks) == (4 if model.dissipative else 1)
        assert built == shapes
        assert [index.shape for (index, _), powers in zip(propagator.stacks, propagator._powers)
                if powers is not None] == shapes


def test_record_powers_are_built_once_in_any_order(default_setup, propagator_cache,
                                                   monkeypatch):
    """The 16 catalog states, run through one cache entry in catalog order
    or in reverse, build each stack's powers at most once, never those of
    independent dissipation's (6, 4) stack, which no state occupies, and
    the bits of an eager build."""
    params, envs = default_setup
    cfg = SWEEP_GRID
    rho0s = [lc.initial_bell_density(*entry.pair) for entry in lc.catalog_states(params)]
    for model in MODELS:
        env = envs[model]
        eager = _stacks_with_powers(engine._Propagator(params, env, cfg))
        for order in (1, -1):
            propagator_cache.cache_clear()
            with monkeypatch.context() as patch:
                built = _count_power_builds(patch)
                for rho0 in rho0s[::order]:
                    lc.rk4_evolve(rho0, cfg, params, env)
            propagator = propagator_cache(params, env, cfg)
            filled = [i for i, powers in enumerate(propagator._powers) if powers is not None]
            shapes = [eager[i][0].shape for i in filled]
            assert sorted(built) == sorted(shapes) and len(set(built)) == len(built)
            never = [(6, 4)] if model is M.INDEPENDENT_DISSIPATION else []
            assert [index.shape for index, *_ in eager if index.shape not in shapes] == never
            for i in filled:
                for lazy, full in zip(propagator.powers(i), eager[i][2:]):
                    assert lazy.tobytes() == full.tobytes()


def test_directly_built_environment_is_read_only():
    base = np.full((3, 3), 0.05)
    spec = EnvironmentSpec(M.CORRELATED_DEPHASING, base[:])
    with pytest.raises(ValueError, match="read-only"):
        spec.rates[0, 0] = 1.0
    base[0, 0] = 1.0  # the caller's array stays its own
    assert spec.rates[0, 0] == 0.05


def test_evolution_config_validation(default_setup):
    params, envs = default_setup
    with pytest.raises(ValueError):
        EvolutionConfig(t_max=1.0, dt=0.0)
    with pytest.raises(ValueError):
        EvolutionConfig(t_max=-1.0)
    with pytest.raises(ValueError):
        EvolutionConfig(t_max=1.0, record_stride=0)
    with pytest.raises(ValueError, match="whole number"):
        EvolutionConfig(t_max=1.0, dt=0.3)
    # the tolerance scales with dt as well as t_max: a t_max far below one
    # step is an error, not a run of zero steps; grids of whole steps pass
    with pytest.raises(ValueError, match="^t_max = 1e-10 is not a whole number"):
        EvolutionConfig(t_max=1e-10)
    for t_max, dt in ((0.37, 0.01), (0.3, 0.1), (0.2, 1e-3), (2.0000000009, 1.0), (1e-12, 1e-13)):
        EvolutionConfig(t_max=t_max, dt=dt)
    # t_max / dt overflows to inf: a config error, not an OverflowError
    for t_max, dt in ((1.0, 1e-320), (1e300, 1e-10)):
        with pytest.raises(ValueError, match="^dt .*step count overflows"):
            EvolutionConfig(t_max=t_max, dt=dt)
    # the record cap is arithmetic on the grid: these configs are only
    # constructed, never run; with stride 100 the final gap is one step
    for stride, n_steps in ((1, MAX_RECORDS - 1), (100, 100 * (MAX_RECORDS - 2) + 1)):
        EvolutionConfig(t_max=float(n_steps), dt=1.0, record_stride=stride)
        with pytest.raises(ValueError, match=f"^t_max .* {MAX_RECORDS + 1} records"):
            EvolutionConfig(t_max=float(n_steps + stride), dt=1.0, record_stride=stride)
    with pytest.raises(ValueError):
        EvolutionConfig(t_max=1.0, engine="element_wise")
    with pytest.raises(ValueError):
        lc.make_rhs(params, envs[M.DEPHASING], "element_wise")
