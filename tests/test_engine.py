import functools
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lindchain as lc
from helpers import apply_generator, random_density
from lindchain import EngineKind, EnvironmentModel, EnvironmentSpec, EvolutionConfig, engine
from lindchain.engine import frame_frequencies, lowering_operators, sz_operators

M = EnvironmentModel
MODELS = tuple(M)


@functools.lru_cache(maxsize=1)
def _setup():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return lc.default_parameters()


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
    ops = lc.tilde_jump_operators(0.0, params, envs[M.INDEPENDENT_DISSIPATION])
    assert ops.shape == (3, 8, 8)
    assert np.array_equal(ops, lowering_operators(3).astype(complex))


def test_tilde_operators_carry_transition_phases(default_setup):
    params, envs = default_setup
    t = 0.83
    ops = lc.tilde_jump_operators(t, params, envs[M.CORRELATED_DISSIPATION])
    table = lc.omega_table(params)
    # entry (m, p) of qubit k oscillates at the source column's frequency
    assert ops[0, 0, 4] == pytest.approx(np.exp(-1j * table[0, 4] * t))
    assert ops[2, 6, 7] == pytest.approx(np.exp(-1j * table[2, 7] * t))
    assert abs(ops[0, 0, 0]) == 0.0


def test_tilde_operators_dephasing_is_static(default_setup):
    params, envs = default_setup
    env = envs[M.CORRELATED_DEPHASING]
    ops = lc.tilde_jump_operators(7.7, params, env)
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


@given(st.integers(min_value=0, max_value=2**32 - 1),
       st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
       st.integers(min_value=0, max_value=3))
@settings(max_examples=80, deadline=None)
def test_element_wise_matches_operator_form(seed, t, model_index):
    """The per-entry rate equations and the jump-operator products are the
    same generator."""
    params, envs = _setup()
    env = envs[MODELS[model_index]]
    rho = random_density(np.random.default_rng(seed))
    element = apply_generator(lc.make_rhs(params, env, EngineKind.ELEMENT_WISE), rho, t)
    operator = lc.lindblad_rhs_operator(rho, t, params, env)
    assert np.max(np.abs(element - operator)) < 1e-12


@given(st.integers(min_value=0, max_value=2**32 - 1),
       st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
       st.integers(min_value=0, max_value=3))
@settings(max_examples=60, deadline=None)
def test_compiled_engines_match_literal_operator_form(seed, t, model_index):
    params, envs = _setup()
    env = envs[MODELS[model_index]]
    rho = random_density(np.random.default_rng(seed))
    literal = lc.lindblad_rhs_operator(rho, t, params, env)
    for kind in (EngineKind.ELEMENT_WISE, EngineKind.OPERATOR_BUILT):
        compiled = apply_generator(lc.make_rhs(params, env, kind), rho, t)
        assert np.max(np.abs(compiled - literal)) < 1e-12


@given(st.integers(min_value=0, max_value=2**32 - 1),
       st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
       st.integers(min_value=0, max_value=3))
@settings(max_examples=40, deadline=None)
def test_generator_preserves_trace_and_hermiticity(seed, t, model_index):
    params, envs = _setup()
    env = envs[MODELS[model_index]]
    rho = random_density(np.random.default_rng(seed))
    rhs = lc.lindblad_rhs_operator(rho, t, params, env)
    assert abs(np.trace(rhs)) < 1e-13
    assert np.max(np.abs(rhs - rhs.conj().T)) < 1e-13


def test_two_qubit_chain_equivalence():
    params = lc.SpinChainParams(omegas=(300.0, 150.0), coupling_j=8.0, coupling_jp=0.0)
    env = lc.make_environment(M.CORRELATED_DISSIPATION,
                              [[0.05, 0.02], [0.02, 0.04]], 0.05, n_qubits=2)
    rho = random_density(np.random.default_rng(11), dim=4)
    for kind in EngineKind:
        generator = lc.make_rhs(params, env, kind)
        for t in (0.0, 0.7, 3.1):
            literal = lc.lindblad_rhs_operator(rho, t, params, env)
            assert np.max(np.abs(apply_generator(generator, rho, t) - literal)) < 1e-12


def test_zeroed_correlations_reduce_bitwise(default_setup):
    params, _ = default_setup
    diag = [0.05, 0.03, 0.02]
    rho = random_density(np.random.default_rng(21))
    for plain, correlated in ((M.INDEPENDENT_DISSIPATION, M.CORRELATED_DISSIPATION),
                              (M.DEPHASING, M.CORRELATED_DEPHASING)):
        independent = lc.make_environment(plain, diag, diag)
        zeroed = lc.make_environment(correlated, np.diag(diag), np.diag(diag))
        for t in (0.0, 0.45, 2.3):
            for kind in EngineKind:
                a = apply_generator(lc.make_rhs(params, independent, kind), rho, t)
                b = apply_generator(lc.make_rhs(params, zeroed, kind), rho, t)
                assert np.array_equal(a, b)


# ------------------------------------------------------- Liouville matrices

TWO_QUBIT_CHAIN = lc.SpinChainParams(omegas=(300.0, 150.0), coupling_j=8.0, coupling_jp=0.0)
TWO_QUBIT_ENV = lc.make_environment(M.CORRELATED_DISSIPATION,
                                    [[0.05, 0.02], [0.02, 0.04]], 0.05, n_qubits=2)


def test_generators_are_frame_covariant(default_setup):
    """A(t + c) = D(t) A(c) D(-t) with D(t) = diag(exp(i Delta t)): the
    symmetry that turns RK4 into powers of one transfer matrix."""
    params, envs = default_setup
    cases = [(params, env) for env in envs.values()]
    cases.append((TWO_QUBIT_CHAIN, TWO_QUBIT_ENV))
    cases.append((lc.SpinChainParams(coupling_j=12.0, coupling_jp=0.5),
                  envs[M.CORRELATED_DISSIPATION]))
    for chain, env in cases:
        delta = frame_frequencies(chain, env).reshape(-1)
        for kind in EngineKind:
            generator = lc.make_rhs(chain, env, kind)
            for t, c in ((0.37, 0.0), (2.9, 0.0005), (4.4, 1.3)):
                frame = np.exp(1j * delta * t)
                moved = frame[:, None] * generator(c) * frame.conj()[None, :]
                assert np.max(np.abs(generator(t + c) - moved)) < 1e-12


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


def test_rk4_warns_outside_stability_region(default_setup):
    params, envs = default_setup
    hot = lc.make_environment(M.INDEPENDENT_DISSIPATION, 5000.0, 0.05)
    cfg = EvolutionConfig(t_max=1.0, dt=1e-3, record_stride=100)
    with pytest.warns(UserWarning, match="spectral radius"):
        with pytest.raises(lc.IntegrationDivergedError):
            lc.rk4_evolve(lc.initial_bell_density(1, 8), cfg, params, hot)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for env in envs.values():
            lc.rk4_evolve(lc.initial_bell_density(1, 8), cfg, params, env)


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
        hot = lc.make_environment(M.INDEPENDENT_DISSIPATION, gamma, 0.05)
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
        copy = EnvironmentSpec(env.model, env.gamma.copy(), env.gamma_dephase.copy())
        fresh = lc.rk4_evolve(rho0, cfg, params, copy)
        assert propagator_cache.cache_info().hits == hits + 1
        for traj in (hit, fresh):
            assert np.array_equal(traj.taus, miss.taus)
            assert np.array_equal(traj.rhos, miss.rhos)


def test_stability_warning_fires_on_every_call(propagator_cache):
    params = lc.SpinChainParams()
    hot = lc.make_environment(M.INDEPENDENT_DISSIPATION, 5000.0, 0.05)
    cfg = EvolutionConfig(t_max=0.05, dt=1e-3, record_stride=10)  # stops before step 96
    for _ in range(2):
        with pytest.warns(UserWarning, match="spectral radius") as caught:
            lc.rk4_evolve(lc.initial_bell_density(1, 8), cfg, params, hot)
        assert [w.filename for w in caught] == [__file__]  # the caller's line
    assert propagator_cache.cache_info().hits == 1


def test_covariance_error_is_not_cached(default_setup, monkeypatch, propagator_cache):
    params, envs = default_setup
    builds = []
    make_rhs = engine.make_rhs

    def skewed_make_rhs(*args):
        builds.append(args)
        generator = make_rhs(*args)
        return lambda t: generator(t) * (1.0 + t)  # breaks A(t) = D(t) A(0) D(-t)

    monkeypatch.setattr(engine, "make_rhs", skewed_make_rhs)
    cfg = EvolutionConfig(t_max=0.1, dt=1e-2, record_stride=5)
    for _ in range(2):
        with pytest.raises(RuntimeError, match="not covariant"):
            lc.rk4_evolve(lc.initial_bell_density(1, 8), cfg, params, envs[M.DEPHASING])
    assert len(builds) == 2


def test_cached_arrays_are_not_handed_out(default_setup, propagator_cache):
    params, envs = default_setup
    env = envs[M.CORRELATED_DISSIPATION]
    rho0 = lc.initial_bell_density(1, 8)
    cfg = EvolutionConfig(t_max=0.3, dt=1e-2, record_stride=10)
    traj = lc.rk4_evolve(rho0, cfg, params, env)
    traj.taus[:] = -1.0
    traj.rhos[:] = 0.0
    again = lc.rk4_evolve(rho0, cfg, params, env)
    assert propagator_cache.cache_info().hits == 1
    assert again.taus == pytest.approx([0.0, 0.1, 0.2, 0.3])
    assert np.array_equal(again.rhos[0], rho0)
    transfer, hop, last_hop, _, _, taus, phases = propagator_cache(params, env, cfg)
    for array in (transfer, hop, last_hop, taus, phases):
        assert not array.flags.writeable


def test_directly_built_environment_is_read_only():
    base = np.full((3, 3), 0.05)
    spec = EnvironmentSpec(M.CORRELATED_DEPHASING, base[:], base[:])
    for rates in (spec.gamma, spec.gamma_dephase):
        with pytest.raises(ValueError, match="read-only"):
            rates[0, 0] = 1.0
    base[0, 0] = 1.0  # the caller's array stays its own
    assert spec.gamma[0, 0] == spec.gamma_dephase[0, 0] == 0.05


def test_evolution_config_validation():
    with pytest.raises(ValueError):
        EvolutionConfig(t_max=1.0, dt=0.0)
    with pytest.raises(ValueError):
        EvolutionConfig(t_max=-1.0)
    with pytest.raises(ValueError):
        EvolutionConfig(t_max=1.0, record_stride=0)
    with pytest.raises(ValueError, match="whole number"):
        EvolutionConfig(t_max=1.0, dt=0.3)
    with pytest.raises(ValueError):
        EvolutionConfig(t_max=1.0, engine="element_wise")
    with pytest.raises(ValueError):
        lc.make_rhs(lc.SpinChainParams(), _setup()[1][M.DEPHASING], "element_wise")
