import warnings

import pytest

from lindchain import default_parameters


@pytest.fixture(scope="session")
def default_setup():
    """Canonical chain parameters plus one environment per model.

    The correlated rate matrices are indefinite by construction, so the
    positivity warning is silenced here once for the whole suite.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return default_parameters()


@pytest.fixture
def propagator_cache():
    """The integrator's transfer-matrix cache, emptied before and after the
    test, so entries built under monkeypatched engine internals never leak
    into other tests."""
    from lindchain import engine

    engine._propagator.cache_clear()
    yield engine._propagator
    engine._propagator.cache_clear()
