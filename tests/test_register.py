import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lindchain import SpinChainParams, all_energies, basis_bits, omega_table

# spectrum of the default chain (omega = 400, 200, 100; J = 10, J' = 0.4)
EXPECTED_ENERGIES = (-360.2, -249.8, -140.2, -49.8, 50.2, 159.8, 250.2, 339.8)


@pytest.fixture(scope="module")
def params():
    return SpinChainParams()


def _loop_energies(p):
    """Reference: the energy of each state summed term by term from its bits,
    in the order all_energies accumulates them."""
    energies = []
    for row in basis_bits(p.n_qubits):
        s = [1.0 - 2.0 * int(b) for b in row]
        e = -0.5 * sum(w * s[k] for k, w in enumerate(p.omegas))
        e -= 0.5 * p.coupling_j * sum(s[k] * s[k + 1] for k in range(p.n_qubits - 1))
        e -= 0.5 * p.coupling_jp * sum(s[k] * s[k + 2] for k in range(p.n_qubits - 2))
        energies.append(e)
    return np.array(energies)


def _loop_omegas(p):
    """Reference: Omega_{k,m} neighbour by neighbour, in omega_table's order."""
    n = p.n_qubits
    table = np.empty((n, p.dim))
    for m, row in enumerate(basis_bits(n)):
        s = [1.0 - 2.0 * int(b) for b in row]
        for k in range(n):
            value = p.omegas[k]
            for step, coupling in ((1, p.coupling_j), (2, p.coupling_jp)):
                for j in (k - step, k + step):
                    if 0 <= j < n:
                        value += 0.5 * coupling * s[j]
            table[k, m] = value
    return table


def test_default_energies(params):
    energies = all_energies(params)
    assert np.allclose(energies, EXPECTED_ENERGIES, atol=1e-12)
    assert np.array_equal(energies, _loop_energies(params))


def test_omega_eigenvalues(params):
    table = omega_table(params)
    assert table.shape == (3, 8)
    assert table[0, 0] == pytest.approx(405.2, abs=1e-12)  # Omega_{1,1}
    assert table[1, 0] == pytest.approx(210.0, abs=1e-12)  # Omega_{2,1}
    assert table[2, 7] == pytest.approx(94.8, abs=1e-12)  # Omega_{3,8}
    assert np.array_equal(table, _loop_omegas(params))


def test_bit_convention():
    # qubit 1 is the most significant bit; state 1 is all zeros
    bits = basis_bits(3)
    assert bits.shape == (8, 3)
    assert bits[0].tolist() == [0, 0, 0]
    assert bits[7].tolist() == [1, 1, 1]
    assert bits[1].tolist() == [0, 0, 1]
    assert bits[4].tolist() == [1, 0, 0]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_basis_bits_read_as_binary(n):
    # row m-1 spells m-1 in binary, most significant qubit first
    rows = ["".join(map(str, row)) for row in basis_bits(n)]
    assert rows == [np.binary_repr(m, width=n) for m in range(2 ** n)]


def test_omega_ignores_own_bit(params):
    # the transition frequency of qubit k depends on its neighbours only:
    # states that differ in bit k alone share Omega_k
    bits = basis_bits(3)
    table = omega_table(params)
    for k in range(3):
        for m in range(8):
            for other in range(8):
                if np.flatnonzero(bits[m] != bits[other]).tolist() == [k]:
                    assert table[k, m] == table[k, other]


@st.composite
def chain_params(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    omegas = tuple(
        draw(st.floats(min_value=-500.0, max_value=500.0, allow_nan=False))
        for _ in range(n))
    j = draw(st.floats(min_value=-50.0, max_value=50.0, allow_nan=False))
    jp = draw(st.floats(min_value=-50.0, max_value=50.0, allow_nan=False))
    return SpinChainParams(omegas, j, jp)


@given(chain_params())
@settings(max_examples=60, deadline=None)
def test_omega_equals_half_coupling_energy_difference(p):
    """Omega_{k,m} is the excitation energy of qubit k in the chain whose
    couplings are halved; this identity powers the operator-built engine."""
    half = SpinChainParams(p.omegas, 0.5 * p.coupling_j, 0.5 * p.coupling_jp)
    eps = all_energies(half)
    table = omega_table(p)
    bits = basis_bits(p.n_qubits)
    for k in range(p.n_qubits):
        for m in np.flatnonzero(bits[:, k] == 0):
            excited = 2 ** (p.n_qubits - 1 - k) + m  # same state with bit k set
            assert table[k, m] == pytest.approx(eps[excited] - eps[m], abs=1e-9)


@given(chain_params())
@settings(max_examples=60, deadline=None)
def test_energies_are_traceless(p):
    # every term of the diagonal Hamiltonian is traceless
    assert abs(all_energies(p).sum()) < 1e-9


@given(chain_params())
@settings(max_examples=60, deadline=None)
def test_tables_equal_loop_reference(p):
    assert np.array_equal(all_energies(p), _loop_energies(p))
    assert np.array_equal(omega_table(p), _loop_omegas(p))


def test_validation():
    with pytest.raises(ValueError):
        SpinChainParams(omegas=())
    with pytest.raises(ValueError):
        SpinChainParams(omegas=(400.0, float("nan")))
    with pytest.raises(ValueError):
        SpinChainParams(coupling_j=float("inf"))


def test_small_chains_drop_missing_couplings():
    # with one qubit neither coupling contributes; with two only J does
    single = SpinChainParams(omegas=(250.0,), coupling_j=10.0, coupling_jp=5.0)
    assert all_energies(single) == pytest.approx([-125.0, 125.0])
    double = SpinChainParams(omegas=(300.0, 100.0), coupling_j=10.0, coupling_jp=7.0)
    no_jp = SpinChainParams(omegas=(300.0, 100.0), coupling_j=10.0, coupling_jp=0.0)
    assert np.array_equal(all_energies(double), all_energies(no_jp))
