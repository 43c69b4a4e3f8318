from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lindchain as lc
from helpers import TABLE_GME_FORMS, dense_diagnostics, random_density, table_gme
from lindchain import (Diagnostics, EvolutionConfig, diagnostics, initial_bell_density,
                       rk4_evolve, validate_density_matrix)
from lindchain.metrics import connected_blocks

MIXED = np.eye(8, dtype=complex) / 8.0

CATALOG_PAIRS = {
    "ABC": [(1, 8), (2, 7), (3, 6), (4, 5)],
    "AB": [(1, 7), (2, 8), (4, 6), (3, 5)],
    "BC": [(1, 4), (5, 8), (2, 3), (6, 7)],
    "AC": [(1, 6), (3, 8), (2, 5), (4, 7)],
}


# ------------------------------------------------------------------- purity

def test_purity_trivials():
    assert lc.purity(lc.initial_bell_density(1, 8)) == 1.0
    assert lc.purity(MIXED) == 0.125


def test_purity_of_dephased_bell(default_setup):
    _, envs = default_setup
    rho = lc.closed_form_dephasing(lc.initial_bell_density(1, 8), 10.0,
                                   envs[lc.EnvironmentModel.DEPHASING])
    assert lc.purity(rho) == pytest.approx(0.5 * (1.0 + np.exp(-3.0)), abs=1e-12)


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_purity_invariant_under_diagonal_phases(seed):
    rng = np.random.default_rng(seed)
    rho = random_density(rng)
    phases = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=8))
    rotated = phases[:, None] * rho * phases.conj()[None, :]
    assert lc.purity(rotated) == pytest.approx(lc.purity(rho), abs=1e-12)
    assert 0.125 <= lc.purity(rho) <= 1.0 + 1e-12


# ------------------------------------------------------------ partial trace

def test_partial_trace_of_shared_bit_keeps_coherence():
    # states 1 (|000>) and 7 (|110>) agree on qubit 3, so tracing it out
    # leaves the two-qubit Bell state intact
    reduced = lc.partial_trace(lc.initial_bell_density(1, 7), 3)
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 0] = expected[3, 3] = expected[0, 3] = expected[3, 0] = 0.5
    assert np.array_equal(reduced, expected)


def test_partial_trace_of_differing_bit_kills_coherence():
    reduced = lc.partial_trace(lc.initial_bell_density(1, 8), 3)
    assert np.array_equal(reduced, np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex))


def test_partial_trace_of_mixed_state():
    for qubit in (1, 2, 3):
        assert np.array_equal(lc.partial_trace(MIXED, qubit), np.eye(4) / 4.0)


def test_partial_trace_validation():
    with pytest.raises(ValueError):
        lc.partial_trace(np.eye(4) / 4.0, 1)
    with pytest.raises(ValueError):
        lc.partial_trace(MIXED, 4)
    with pytest.raises(ValueError):
        lc.partial_trace(np.zeros((3, 4, 4)), 1)


@given(st.integers(min_value=0, max_value=2**32 - 1),
       st.integers(min_value=1, max_value=3))
@settings(max_examples=50, deadline=None)
def test_partial_trace_preserves_trace_and_hermiticity(seed, qubit):
    rho = random_density(np.random.default_rng(seed))
    reduced = lc.partial_trace(rho, qubit)
    # random_density carries matmul rounding dust at ~1e-18, so the
    # reduction is Hermitian only to that level, not bitwise
    assert np.max(np.abs(reduced - reduced.conj().T)) < 1e-15
    assert complex(np.trace(reduced)) == pytest.approx(complex(np.trace(rho)), abs=1e-14)


# -------------------------------------------------------------- family maps

def test_family_of_pair_matches_catalog():
    for family, pairs in CATALOG_PAIRS.items():
        for pair in pairs:
            assert lc.family_of_pair(*pair) == family


def test_family_of_pair_rejects_single_qubit_pairs():
    with pytest.raises(ValueError, match="single qubit"):
        lc.family_of_pair(1, 2)
    with pytest.raises(ValueError):
        lc.family_of_pair(3, 3)
    with pytest.raises(ValueError):
        lc.family_of_pair(0, 8)


# ---------------------------------------------------------------- gme bounds

def test_gme_of_pure_catalog_states_is_one():
    for pairs in CATALOG_PAIRS.values():
        for pair in pairs:
            rho = lc.initial_bell_density(*pair)
            assert lc.gme(rho, pair) == 1.0


def test_gme_of_maximally_mixed_state():
    for pair in CATALOG_PAIRS["ABC"]:
        assert lc.gme(MIXED, pair) == pytest.approx(-0.75, abs=1e-15)
    for family in ("AB", "BC", "AC"):
        for pair in CATALOG_PAIRS[family]:
            assert lc.gme(MIXED, pair) == pytest.approx(-0.5, abs=1e-15)


def test_gme_argument_errors():
    rho = lc.initial_bell_density(1, 8)
    with pytest.raises(ValueError, match="single qubit"):
        lc.gme(rho, (1, 2))
    with pytest.raises(ValueError):
        lc.gme(rho, (3, 3))
    with pytest.raises(ValueError):
        lc.gme(rho, (0, 8))
    with pytest.raises(ValueError):
        lc.gme(rho, (8, 1))


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_gme_pair_matches_full_matrix_forms(seed):
    """Reduction route equals the direct full-matrix expressions."""
    rho = random_density(np.random.default_rng(seed))
    for pair in TABLE_GME_FORMS:
        assert abs(lc.gme(rho, pair) - table_gme(rho, pair)) < 1e-12


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_gme_stays_in_bounds(seed):
    rho = random_density(np.random.default_rng(seed))
    for pairs in CATALOG_PAIRS.values():
        for pair in pairs:
            value = lc.gme(rho, pair)
            assert -2.0 <= value <= 1.0 + 1e-12


# ------------------------------------------------------------ record stacks

@pytest.fixture(scope="module", params=["dissipative_trajectory", "random_states"])
def record_stack(request, default_setup):
    """A (n, 8, 8) stack: the records of a correlated-dissipation run from
    a generic initial state, or independent random states."""
    rng = np.random.default_rng(11)
    if request.param == "random_states":
        return np.array([random_density(rng) for _ in range(24)])
    params, envs = default_setup
    cfg = lc.EvolutionConfig(t_max=2.0, dt=1e-2, record_stride=10)
    return lc.rk4_evolve(random_density(rng), cfg, params,
                         envs[lc.EnvironmentModel.CORRELATED_DISSIPATION]).rhos


def test_stacked_metrics_match_per_record_loop(record_stack):
    for pairs in CATALOG_PAIRS.values():
        for pair in pairs:
            loop = np.array([lc.gme(rho, pair) for rho in record_stack])
            assert np.array_equal(lc.gme(record_stack, pair), loop)
    for qubit in (1, 2, 3):
        loop = np.array([lc.partial_trace(rho, qubit) for rho in record_stack])
        assert np.array_equal(lc.partial_trace(record_stack, qubit), loop)
    loop = np.array([lc.purity(rho) for rho in record_stack])
    assert np.max(np.abs(lc.purity(record_stack) - loop)) <= 1e-15


def test_metrics_accept_nested_stacks(record_stack):
    k = len(record_stack) // 2
    flat = record_stack[:2 * k]
    nested = flat.reshape(2, k, 8, 8)
    assert lc.purity(nested).shape == (2, k)
    assert np.array_equal(lc.purity(nested), lc.purity(flat).reshape(2, k))
    for pairs in CATALOG_PAIRS.values():
        for pair in pairs:
            assert np.array_equal(lc.gme(nested, pair),
                                  lc.gme(flat, pair).reshape(2, k))
    for qubit in (1, 2, 3):
        assert np.array_equal(lc.partial_trace(nested, qubit),
                              lc.partial_trace(flat, qubit).reshape(2, k, 4, 4))


# ------------------------------------------------------------ decay oracles

def test_analytic_decay_oracle_values(default_setup):
    _, envs = default_setup
    diag = envs[lc.EnvironmentModel.DEPHASING]
    corr = envs[lc.EnvironmentModel.CORRELATED_DEPHASING]
    gme_10, purity_10 = lc.analytic_decay_oracle("ABC", (1, 8), diag, 10.0)
    assert gme_10 == pytest.approx(np.exp(-1.5), abs=1e-12)
    assert purity_10 == pytest.approx(0.5 * (1.0 + np.exp(-3.0)), abs=1e-12)
    gme_0, purity_0 = lc.analytic_decay_oracle("AB", (1, 7), diag, 0.0)
    assert (gme_0, purity_0) == (1.0, 1.0)
    taus = np.linspace(0.0, 20.0, 7)
    gme_c, _ = lc.analytic_decay_oracle("ABC", (1, 8), corr, taus)
    assert gme_c == pytest.approx(np.exp(-0.325 * taus), abs=1e-12)
    gme_45, _ = lc.analytic_decay_oracle("ABC", (4, 5), corr, taus)
    assert gme_45 == pytest.approx(np.exp(-0.075 * taus), abs=1e-12)


def test_analytic_decay_oracle_guards(default_setup):
    _, envs = default_setup
    with pytest.raises(ValueError, match="dephasing"):
        lc.analytic_decay_oracle("ABC", (1, 8),
                                 envs[lc.EnvironmentModel.INDEPENDENT_DISSIPATION], 1.0)
    with pytest.raises(ValueError):
        lc.analytic_decay_oracle("AB", (1, 8), envs[lc.EnvironmentModel.DEPHASING], 1.0)


@given(st.integers(min_value=0, max_value=2**32 - 1),
       st.floats(min_value=0.0, max_value=30.0, allow_nan=False))
@settings(max_examples=40, deadline=None)
def test_dephased_gme_matches_oracle(default_setup, seed, tau):
    """Closed-form dephasing of any catalog Bell state tracks the oracle."""
    _, envs = default_setup
    rng = np.random.default_rng(seed)
    family = list(CATALOG_PAIRS)[rng.integers(4)]
    pair = CATALOG_PAIRS[family][rng.integers(4)]
    env = envs[lc.EnvironmentModel.CORRELATED_DEPHASING]
    rho = lc.closed_form_dephasing(lc.initial_bell_density(*pair), tau, env)
    expected_gme, expected_purity = lc.analytic_decay_oracle(family, pair, env, tau)
    assert lc.gme(rho, pair) == pytest.approx(expected_gme, abs=1e-12)
    assert lc.purity(rho) == pytest.approx(expected_purity, abs=1e-12)


# ---------------------------------------------------- states and validation

def test_bell_density_entries():
    rho = initial_bell_density(1, 8)
    assert rho.shape == (8, 8)
    assert rho.dtype == complex
    expected = np.zeros((8, 8), dtype=complex)
    expected[0, 0] = expected[7, 7] = expected[0, 7] = expected[7, 0] = 0.5
    assert np.array_equal(rho, expected)


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
    # just below the -1e-12 rounding allowance, not only far below it
    with pytest.raises(ValueError, match="negative eigenvalue -1.000e-09"):
        validate_density_matrix(np.diag([1.0 + 1e-9, -1e-9] + [0.0] * 6).astype(complex))


# -------------------------------------------------------------- diagnostics

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


def test_diagnostics_stack_matches_per_record_loop(default_setup):
    params, envs = default_setup
    cfg = EvolutionConfig(t_max=2.0, dt=1e-2, record_stride=10)
    rng = np.random.default_rng(11)
    stacks = [rk4_evolve(initial_bell_density(2, 7), cfg, params, env).rhos
              for env in envs.values()]
    stacks.append(np.array([random_density(rng) for _ in range(30)]))
    # supports of three kinds in one stack: a Bell pair, a dense state and
    # a block-diagonal state with blocks of sizes 3, 2, 2 and 1
    blocks = np.zeros((8, 8), dtype=complex)
    for start, size, weight in ((0, 3, 0.4), (3, 2, 0.3), (5, 2, 0.2), (7, 1, 0.1)):
        blocks[start:start + size, start:start + size] = weight * random_density(rng, size)
    stacks.append(np.array([initial_bell_density(2, 7), random_density(rng), blocks]))
    for stack in stacks:
        batched = diagnostics(stack)
        loop = [diagnostics(rho) for rho in stack]
        for k, column in enumerate(batched):
            assert column.shape == (len(stack),)
            assert np.array_equal(column, [diag[k] for diag in loop])
    # any leading shape: (2, 15, 8, 8) gives (2, 15) arrays
    grid = diagnostics(stacks[-2].reshape(2, 15, 8, 8))
    assert np.array_equal(grid.min_eigenvalue.ravel(), diagnostics(stacks[-2]).min_eigenvalue)


@st.composite
def block_stacks(draw):
    """A stack of (d, d) matrices, d = 8 or 4: Hermitian blocks of sizes 1
    to d along the diagonal, some entry pairs zeroed, rows and columns
    permuted; among them zero matrices and matrices with one one-sided
    (non-Hermitian) entry."""
    dim = draw(st.sampled_from([8, 4]))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    kinds = draw(st.lists(st.sampled_from(["hermitian", "zero", "one-sided"]),
                          min_size=1, max_size=6))
    stack = np.zeros((len(kinds), dim, dim), dtype=complex)
    for rho, kind in zip(stack, kinds):
        if kind == "zero":
            continue
        cuts = sorted(draw(st.sets(st.integers(min_value=1, max_value=dim - 1))))
        for start, stop in zip([0, *cuts], [*cuts, dim]):
            shape = (stop - start, stop - start)
            raw = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            rho[start:stop, start:stop] = raw + raw.conj().T
        dropped = np.triu(rng.random((dim, dim)) < 0.2, 1)
        rho[dropped | dropped.T] = 0.0
        rho *= 10.0 ** rng.uniform(-3, 3)
        order = rng.permutation(dim)
        rho[:] = rho[order][:, order]
        if kind == "one-sided":
            m, n = rng.integers(dim, size=2)
            rho[m, n] += 1e-3 * np.max(np.abs(rho)) * (rng.normal() + 1j * rng.normal())
    return stack


@given(block_stacks())
@settings(max_examples=80, deadline=None)
def test_diagnostics_match_the_dense_oracle(stack):
    """Per block of the support, the result of the whole matrix: trace and
    hermiticity errors bit for bit, the minimum eigenvalue to 4 eps d
    max|rho| (d max|rho| bounds the spectral norm, the scale of LAPACK's
    own error: on such matrices the whole-matrix eigvalsh is off the exact
    value by up to about 10 eps max|rho|), and bit for bit where the
    support is connected (one LAPACK call on the same matrix)."""
    trace_error, hermiticity_error, low = dense_diagnostics(stack)
    diag = diagnostics(stack)
    assert np.array_equal(diag.trace_error, trace_error)
    assert np.array_equal(diag.hermiticity_error, hermiticity_error)
    scale = stack.shape[-1] * np.max(np.abs(stack), axis=(1, 2))
    assert np.all(np.abs(diag.min_eigenvalue - low) <= 4 * np.finfo(float).eps * scale)
    for rho, mine, oracle in zip(stack, diag.min_eigenvalue, low):
        if connected_blocks(rho != 0)[0].shape == (1, len(rho)):
            assert mine == oracle


def test_closed_form_of_a_nearly_pure_pair():
    """A 2x2 block with eigenvalues 1 and 1e-17: the closed form's absolute
    error against the exact smallest eigenvalue of the stored entries."""
    c, s = np.cos(0.3), np.sin(0.3) * np.exp(1.1j)
    psi, perp = np.array([c, s]), np.array([-s.conjugate(), c])
    rho = np.outer(psi, psi.conj()) + 1e-17 * np.outer(perp, perp.conj())
    a, d = Fraction(rho[0, 0].real), Fraction(rho[1, 1].real)
    h_re = (Fraction(rho[0, 1].real) + Fraction(rho[1, 0].real)) / 2
    h_im = (Fraction(rho[0, 1].imag) - Fraction(rho[1, 0].imag)) / 2
    det = a * d - h_re ** 2 - h_im ** 2
    larger = float(a + d) / 2 + np.sqrt(float((a - d) ** 2 / 4 + h_re ** 2 + h_im ** 2))
    exact = float(det) / larger  # det / lambda_max: no cancellation
    assert abs(exact) < 1e-15
    bound = 4 * np.finfo(float).eps * np.max(np.abs(rho))
    assert abs(diagnostics(rho).min_eigenvalue - exact) <= bound
    assert abs(dense_diagnostics(rho)[2] - exact) <= bound


def test_min_eigenvalue_recovers_spectrum():
    rng = np.random.default_rng(7)
    for _ in range(20):
        raw = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        unitary, _ = np.linalg.qr(raw)
        spectrum = rng.uniform(-0.5, 1.0, size=8)
        rho = unitary @ np.diag(spectrum) @ unitary.conj().T
        assert abs(diagnostics(rho).min_eigenvalue - spectrum.min()) < 1e-14


@given(st.integers(min_value=0, max_value=2**32 - 1), st.sampled_from([2, 4, 8]),
       st.sampled_from([0.0, 0.3]))
@settings(max_examples=40, deadline=None)
def test_diagnostics_of_a_support_equal_the_dense_call(seed, dim, zeroed):
    """diagnostics reads a Trajectory's values at its entries, bit for bit
    as it reads the dense stack traj.rhos: random entries, so that a
    mirror may lie off them, and with zeroed > 0 records of several
    patterns, some holding an entry whose mirror is zero."""
    rng = np.random.default_rng(seed)
    entries = rng.choice(dim * dim, size=rng.integers(1, dim * dim + 1), replace=False)
    values = np.array([random_density(rng, dim=dim) for _ in range(12)]).reshape(12, -1)[:, entries]
    values[rng.random(values.shape) < zeroed] = 0.0
    traj = lc.Trajectory(np.zeros(12), values, entries, dim)
    for support, dense in zip(diagnostics(traj), diagnostics(traj.rhos)):
        assert support.tobytes() == dense.tobytes()


def test_diagnostics_of_a_support_with_a_zero_and_an_absent_mirror():
    """Entry (0, 1) is nonzero where its mirror (1, 0) is zero, and entry
    (0, 2)'s mirror is not among the entries: three records, three
    patterns, each read as the dense call reads it."""
    entries = np.array([0, 1, 4, 5, 15, 2])
    values = np.array([[0.5, 0.0, 0.0, 0.5, 0.0, 0.0],
                       [0.5, 0.1j, 0.0, 0.4, 0.1, 0.0],
                       [0.6, 0.1j, -0.1j, 0.3, 0.1, 0.2]])
    traj = lc.Trajectory(np.arange(3.0), values, entries, 4)
    assert len({tuple(row != 0) for row in values}) == 3
    for support, dense in zip(diagnostics(traj), diagnostics(traj.rhos)):
        assert support.tobytes() == dense.tobytes()
    assert diagnostics(traj).hermiticity_error[1] == 0.1


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
