import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lindchain import EnvironmentModel, EnvironmentSpec
from lindchain.catalog import default_rate_matrix

M = EnvironmentModel


def test_model_flags():
    assert M.INDEPENDENT_DISSIPATION.dissipative
    assert M.CORRELATED_DISSIPATION.dissipative
    assert not M.DEPHASING.dissipative
    assert not M.CORRELATED_DEPHASING.dissipative
    assert M.CORRELATED_DISSIPATION.correlated
    assert M.CORRELATED_DEPHASING.correlated
    assert not M.INDEPENDENT_DISSIPATION.correlated
    assert not M.DEPHASING.correlated


def test_uncorrelated_models_drop_off_diagonals():
    full = [[0.05, 0.01, 0.0], [0.01, 0.05, 0.02], [0.0, 0.02, 0.05]]
    env = EnvironmentSpec(M.INDEPENDENT_DISSIPATION, full)
    assert np.array_equal(env.rates, 0.05 * np.eye(3))
    corr = EnvironmentSpec(M.CORRELATED_DISSIPATION, full)
    assert np.array_equal(corr.rates, np.asarray(full))


def test_rate_matrices_are_frozen():
    env = EnvironmentSpec(M.DEPHASING, 0.05 * np.eye(3))
    with pytest.raises(ValueError):
        env.rates[0, 0] = 1.0


def test_validation_errors():
    with pytest.raises(ValueError, match="symmetric"):
        EnvironmentSpec(M.CORRELATED_DISSIPATION,
                        [[0.05, 0.01, 0.0], [0.02, 0.05, 0.0], [0.0, 0.0, 0.05]])
    with pytest.raises(ValueError, match="negative diagonal"):
        EnvironmentSpec(M.DEPHASING, np.diag([-0.1, 0.05, 0.05]))
    with pytest.raises(ValueError, match="shape"):
        EnvironmentSpec(M.DEPHASING, np.zeros((2, 3)))
    with pytest.raises(ValueError, match="non-finite"):
        EnvironmentSpec(M.DEPHASING, float("nan") * np.eye(3))
    with pytest.raises(ValueError, match="model"):
        EnvironmentSpec("dephasing", 0.05 * np.eye(3))


def test_indefinite_rate_matrix_warns_not_raises():
    # the canonical correlated matrix has a small negative eigenvalue;
    # sacrificing complete positivity is reported, not fatal
    full = [[0.05, 0.05, 0.0125], [0.05, 0.05, 0.025], [0.0125, 0.025, 0.05]]
    assert full == default_rate_matrix()
    for model in (M.CORRELATED_DISSIPATION, M.CORRELATED_DEPHASING):
        with pytest.warns(UserWarning, match=r"not positive semidefinite "
                                             r"\(min eigenvalue -1\.743e-03\)"):
            env = EnvironmentSpec(model, full)
    assert env.n_qubits == 3


def test_psd_matrix_does_not_warn():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        EnvironmentSpec(M.CORRELATED_DISSIPATION,
                        [[0.05, 0.01, 0.0], [0.01, 0.05, 0.0], [0.0, 0.0, 0.05]])
        # the uncorrelated models keep only the diagonal of the default rates
        for model in (M.INDEPENDENT_DISSIPATION, M.DEPHASING):
            EnvironmentSpec(model, default_rate_matrix())
        EnvironmentSpec(M.DEPHASING, [[0.05]])


def test_off_diagonals_may_be_negative():
    # negative cross rates are legal as long as the matrix stays symmetric
    mat = [[0.05, -0.01, 0.0], [-0.01, 0.05, 0.0], [0.0, 0.0, 0.05]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        env = EnvironmentSpec(M.CORRELATED_DISSIPATION, mat)
    assert env.rates[0, 1] == -0.01


def test_direct_spec_is_validated():
    # the constructor itself validates: no factory to go through
    for model in (M.INDEPENDENT_DISSIPATION, M.DEPHASING):
        env = EnvironmentSpec(model, default_rate_matrix())
        assert np.array_equal(env.rates, 0.05 * np.eye(3))
    bad = {
        "symmetric": [[0.05, 1.0], [0.0, 0.05]],
        "negative diagonal": [[0.05, 0.0], [0.0, -3.0]],
        "shape": np.zeros((3, 2)),
        "non-finite": [[0.05, float("nan")], [float("nan"), 0.05]],
    }
    for model in M:
        family = "gamma" if model.dissipative else "Gamma"
        for match, rates in bad.items():
            with pytest.raises(ValueError, match=f"^{family}: .*{match}"):
                EnvironmentSpec(model, rates)
        for rates in (np.zeros((0, 0)), 0.05, [0.05, 0.05, 0.05], np.zeros((1, 1, 1))):
            with pytest.raises(ValueError, match=rf"^{family}: .*shape"):
                EnvironmentSpec(model, rates)


def test_psd_warning_names_the_line_that_built_the_spec():
    with pytest.warns(UserWarning, match="not positive semidefinite") as caught:
        EnvironmentSpec(M.CORRELATED_DEPHASING, default_rate_matrix())
    assert [w.filename for w in caught] == [__file__]


def test_huge_cross_rate_does_not_overflow():
    rates = default_rate_matrix()
    rates[0][1] = rates[1][0] = 1e308
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for model in (M.INDEPENDENT_DISSIPATION, M.DEPHASING):
            assert np.array_equal(EnvironmentSpec(model, rates).rates, 0.05 * np.eye(3))
    # the correlated models keep the rate, and its indefiniteness is reported
    with pytest.warns(UserWarning, match="not positive semidefinite") as caught:
        env = EnvironmentSpec(M.CORRELATED_DEPHASING, rates)
    assert [w.category for w in caught] == [UserWarning]
    assert env.rates[0, 1] == env.rates[1, 0] == 1e308
    # nor does the symmetry check of opposite huge cross rates
    rates[1][0] = -1e308
    with pytest.raises(ValueError, match="symmetric"):
        EnvironmentSpec(M.CORRELATED_DEPHASING, rates)


_finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _symmetric_rates(draw):
    """A 1-3 qubit matrix with a nonnegative diagonal, symmetric to within
    the tolerance: each lower entry is the upper one plus a tiny offset."""
    n = draw(st.integers(1, 3))
    rates = np.zeros((n, n))
    for k in range(n):
        rates[k, k] = draw(st.floats(min_value=0.0, allow_infinity=False))
        for j in range(k + 1, n):
            rates[k, j] = draw(_finite)
            rates[j, k] = rates[k, j] + draw(st.floats(-4e-13, 4e-13))
    return rates


@given(_symmetric_rates(), st.sampled_from(list(M)))
@settings(max_examples=200, deadline=None)
def test_spec_rates_are_frozen_and_exactly_symmetric(rates, model):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        env = EnvironmentSpec(model, rates)
    # at most the positivity warning, never a numpy overflow
    assert all("positive semidefinite" in str(w.message) for w in caught)
    assert not env.rates.flags.writeable
    assert env.n_qubits == len(rates)
    assert np.array_equal(env.rates, env.rates.T)
    assert np.array_equal(np.diag(env.rates), 0.5 * np.diag(rates) + 0.5 * np.diag(rates))
    off = ~np.eye(len(rates), dtype=bool)
    if model.correlated:
        assert np.array_equal(env.rates, 0.5 * rates + 0.5 * rates.T)
    else:
        assert np.all(env.rates[off] == 0.0)
