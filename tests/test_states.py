import numpy as np
import pytest

from helpers import random_density
from lindchain import (Diagnostics, EvolutionConfig, default_parameters, diagnostics,
                       initial_bell_density, rk4_evolve, validate_density_matrix)


def test_bell_density_entries():
    rho = initial_bell_density(1, 8)
    assert rho.shape == (8, 8)
    assert rho.dtype == complex
    expected = np.zeros((8, 8), dtype=complex)
    expected[0, 0] = expected[7, 7] = expected[0, 7] = expected[7, 0] = 0.5
    assert np.array_equal(rho, expected)


def test_bell_density_other_sizes():
    rho = initial_bell_density(1, 4, n_qubits=2)
    assert rho.shape == (4, 4)
    assert rho[0, 3] == 0.5


def test_bell_density_validation():
    with pytest.raises(ValueError):
        initial_bell_density(8, 1)
    with pytest.raises(ValueError):
        initial_bell_density(3, 3)
    with pytest.raises(ValueError):
        initial_bell_density(0, 5)
    with pytest.raises(ValueError):
        initial_bell_density(1, 9)


def test_validate_accepts_physical_states():
    rho = initial_bell_density(2, 7)
    out = validate_density_matrix(rho)
    assert np.array_equal(out, rho)
    out[1, 1] = 99.0  # returned matrix is a copy
    assert rho[1, 1] == 0.5
    mixed = random_density(np.random.default_rng(5))
    validate_density_matrix(mixed)


def test_validate_rejects_bad_states():
    good = initial_bell_density(1, 8)
    with pytest.raises(ValueError, match="square"):
        validate_density_matrix(np.zeros((3, 4)))
    with pytest.raises(ValueError, match="non-finite"):
        bad = good.copy()
        bad[0, 0] = np.inf
        validate_density_matrix(bad)
    with pytest.raises(ValueError, match="Hermitian"):
        bad = good.copy()
        bad[0, 7] = 0.5 + 1e-6j
        validate_density_matrix(bad)
    with pytest.raises(ValueError, match="trace"):
        validate_density_matrix(0.5 * good)
    with pytest.raises(ValueError, match="negative eigenvalue"):
        validate_density_matrix(np.diag([1.5, -0.5] + [0.0] * 6).astype(complex))


def test_diagnostics_on_clean_state():
    diag = diagnostics(initial_bell_density(1, 8))
    assert isinstance(diag, Diagnostics)
    assert diag.trace_error == 0.0
    assert diag.hermiticity_error == 0.0
    assert diag.min_eigenvalue == pytest.approx(0.0, abs=1e-14)


def test_diagnostics_measures_defects():
    rho = initial_bell_density(1, 8)
    rho[0, 7] += 1e-9j  # one-sided defect: max |rho - rho^dagger| = 1e-9
    diag = diagnostics(rho)
    assert diag.hermiticity_error == pytest.approx(1e-9, rel=1e-6)
    rho2 = initial_bell_density(1, 8) * (1.0 + 3e-9)
    assert diagnostics(rho2).trace_error == pytest.approx(3e-9, rel=1e-6)
    # min eigenvalue of a slightly unphysical matrix goes negative
    rho3 = np.diag([1.01, -0.01] + [0.0] * 6).astype(complex)
    assert diagnostics(rho3).min_eigenvalue == pytest.approx(-0.01, abs=1e-12)


def test_diagnostics_stack_matches_per_record_loop():
    params, envs = default_parameters()
    cfg = EvolutionConfig(t_max=2.0, dt=1e-2, record_stride=10)
    rng = np.random.default_rng(11)
    stacks = [rk4_evolve(initial_bell_density(2, 7), cfg, params, env).rhos
              for env in envs.values()]
    stacks.append(np.array([random_density(rng) for _ in range(30)]))
    for stack in stacks:
        batched = diagnostics(stack)
        loop = [diagnostics(rho) for rho in stack]
        for k, column in enumerate(batched):
            assert column.shape == (len(stack),)
            assert np.array_equal(column, [diag[k] for diag in loop])
    # any leading shape: (2, 15, 8, 8) gives (2, 15) arrays
    grid = diagnostics(stacks[-1].reshape(2, 15, 8, 8))
    assert np.array_equal(grid.min_eigenvalue.ravel(), batched.min_eigenvalue)


def test_min_eigenvalue_recovers_spectrum():
    rng = np.random.default_rng(7)
    for _ in range(20):
        raw = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        unitary, _ = np.linalg.qr(raw)
        spectrum = rng.uniform(-0.5, 1.0, size=8)
        rho = unitary @ np.diag(spectrum) @ unitary.conj().T
        assert abs(diagnostics(rho).min_eigenvalue - spectrum.min()) < 1e-14


def test_diagnostics_rejects_bad_input():
    good = initial_bell_density(1, 8)
    for bad_value in (np.nan, np.inf):
        bad = np.array([good, good])
        bad[1, 3, 4] = bad_value
        for arr in (bad[1], bad):
            with pytest.raises(ValueError, match="non-finite") as info:
                diagnostics(arr)
            assert type(info.value) is ValueError
    for shape in ((8,), (3, 4), (2, 8, 7)):
        with pytest.raises(ValueError, match="shape"):
            diagnostics(np.zeros(shape))


def test_diagnostics_does_not_mutate_input():
    stack = np.array([random_density(np.random.default_rng(seed)) for seed in range(4)])
    stack[:, 0, 5] += 1e-9j  # non-Hermitian: the Hermitian part is a new array
    before = stack.copy()
    diagnostics(stack)
    diagnostics(stack[2])
    assert np.array_equal(stack, before)
