import warnings

import numpy as np
import pytest

from lindchain import EnvironmentModel, make_environment
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


def test_scalar_and_vector_rates():
    env = make_environment(M.INDEPENDENT_DISSIPATION, 0.05)
    assert np.array_equal(env.rates, 0.05 * np.eye(3))
    env = make_environment(M.DEPHASING, (0.4, 0.5, 0.6))
    assert np.array_equal(env.rates, np.diag([0.4, 0.5, 0.6]))


def test_uncorrelated_models_drop_off_diagonals():
    full = [[0.05, 0.01, 0.0], [0.01, 0.05, 0.02], [0.0, 0.02, 0.05]]
    env = make_environment(M.INDEPENDENT_DISSIPATION, full)
    assert np.array_equal(env.rates, 0.05 * np.eye(3))
    corr = make_environment(M.CORRELATED_DISSIPATION, full)
    assert np.array_equal(corr.rates, np.asarray(full))


def test_rate_matrices_are_frozen():
    env = make_environment(M.DEPHASING, 0.05)
    with pytest.raises(ValueError):
        env.rates[0, 0] = 1.0


def test_validation_errors():
    with pytest.raises(ValueError, match="symmetric"):
        make_environment(M.CORRELATED_DISSIPATION,
                         [[0.05, 0.01, 0.0], [0.02, 0.05, 0.0], [0.0, 0.0, 0.05]])
    with pytest.raises(ValueError, match="negative diagonal"):
        make_environment(M.DEPHASING, [-0.1, 0.05, 0.05])
    with pytest.raises(ValueError, match="shape"):
        make_environment(M.DEPHASING, np.zeros((2, 2)))
    with pytest.raises(ValueError, match="diagonal rates"):
        make_environment(M.DEPHASING, [0.05, 0.05])
    with pytest.raises(ValueError, match="non-finite"):
        make_environment(M.DEPHASING, float("nan"))
    with pytest.raises(ValueError, match="model"):
        make_environment("dephasing", 0.05)


def test_indefinite_rate_matrix_warns_not_raises():
    # the canonical correlated matrix has a small negative eigenvalue;
    # sacrificing complete positivity is reported, not fatal
    full = [[0.05, 0.05, 0.0125], [0.05, 0.05, 0.025], [0.0125, 0.025, 0.05]]
    assert full == default_rate_matrix()
    for model in (M.CORRELATED_DISSIPATION, M.CORRELATED_DEPHASING):
        with pytest.warns(UserWarning, match=r"not positive semidefinite "
                                             r"\(min eigenvalue -1\.743e-03\)"):
            env = make_environment(model, full)
    assert env.n_qubits == 3


def test_psd_matrix_does_not_warn():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        make_environment(M.CORRELATED_DISSIPATION,
                         [[0.05, 0.01, 0.0], [0.01, 0.05, 0.0], [0.0, 0.0, 0.05]])
        # the uncorrelated models keep only the diagonal of the default rates
        for model in (M.INDEPENDENT_DISSIPATION, M.DEPHASING):
            make_environment(model, default_rate_matrix())
        make_environment(M.DEPHASING, 0.05, n_qubits=1)


def test_off_diagonals_may_be_negative():
    # negative cross rates are legal as long as the matrix stays symmetric
    mat = [[0.05, -0.01, 0.0], [-0.01, 0.05, 0.0], [0.0, 0.0, 0.05]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        env = make_environment(M.CORRELATED_DISSIPATION, mat)
    assert env.rates[0, 1] == -0.01
