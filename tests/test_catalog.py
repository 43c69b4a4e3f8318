import numpy as np
import pytest

import lindchain as lc
from lindchain import EntanglementFamily as F

PAPER_GAPS = {
    "psi_18": 700.0, "psi_27": 500.0, "psi_36": 300.0, "psi_45": 100.0,
    "alpha_17": 605.2, "alpha_28": 594.8, "alpha_46": 209.8, "alpha_35": 195.2,
    "beta_14": 305.2, "beta_58": 294.8, "beta_23": 104.8, "beta_67": 95.2,
    "xi_16": 510.0, "xi_38": 490.0, "xi_25": 300.0, "xi_47": 300.0,
}

# qubits whose bits differ between the pair members, per family
FAMILY_XOR = {F.ABC: 0b111, F.AB: 0b110, F.BC: 0b011, F.AC: 0b101}


def test_catalog_has_sixteen_entries():
    entries = lc.catalog_states()
    assert len(entries) == 16
    counts = {}
    for entry in entries:
        counts[entry.family] = counts.get(entry.family, 0) + 1
    assert counts == {F.ABC: 4, F.AB: 4, F.BC: 4, F.AC: 4}


def test_quoted_gaps_match_source_table():
    for entry in lc.catalog_states():
        assert entry.paper_delta_e == PAPER_GAPS[entry.name]


def test_computed_gaps_come_from_the_energies():
    energies = lc.all_energies(lc.SpinChainParams())
    for entry in lc.catalog_states():
        i, j = entry.pair
        assert entry.computed_delta_e == energies[j - 1] - energies[i - 1]


def test_tripartite_computed_gaps_are_exact():
    got = [e.computed_delta_e for e in lc.catalog_states() if e.family is F.ABC]
    assert got == pytest.approx([700.0, 500.0, 300.0, 100.0], abs=1e-9)


def test_quoted_vs_computed_discrepancies_are_retained():
    by_name = {e.name: e for e in lc.catalog_states()}
    # several bipartite rows disagree with the recomputed gap; both survive
    assert by_name["alpha_17"].computed_delta_e == pytest.approx(610.4, abs=1e-9)
    assert by_name["alpha_17"].paper_delta_e == 605.2
    assert by_name["beta_14"].computed_delta_e == pytest.approx(310.4, abs=1e-9)
    assert by_name["xi_16"].computed_delta_e == pytest.approx(520.0, abs=1e-9)
    # while the AC rows quoted as 300 agree exactly
    assert by_name["xi_25"].computed_delta_e == pytest.approx(300.0, abs=1e-9)
    assert by_name["xi_47"].computed_delta_e == pytest.approx(300.0, abs=1e-9)


def test_pair_bit_structure_matches_family():
    for entry in lc.catalog_states():
        i, j = entry.pair
        assert 1 <= i < j <= 8
        assert (i - 1) ^ (j - 1) == FAMILY_XOR[entry.family]


def test_catalog_entry_lookup():
    entry = lc.catalog_entry("psi_18")
    assert entry.pair == (1, 8)
    with pytest.raises(KeyError, match="known states"):
        lc.catalog_entry("psi_99")


def test_default_parameters(default_setup):
    params, envs = default_setup
    assert params.omegas == (400.0, 200.0, 100.0)
    assert params.coupling_j == 10.0
    assert params.coupling_jp == 0.4
    assert set(envs) == set(lc.EnvironmentModel)

    corr = envs[lc.EnvironmentModel.CORRELATED_DISSIPATION]
    assert corr.rates[0, 0] == 0.05
    assert corr.rates[0, 1] == 0.05
    assert corr.rates[1, 2] == 0.025
    assert corr.rates[0, 2] == 0.0125
    assert np.array_equal(corr.rates, corr.rates.T)

    independent = envs[lc.EnvironmentModel.INDEPENDENT_DISSIPATION]
    assert np.array_equal(independent.rates, 0.05 * np.eye(3))
    dephasing = envs[lc.EnvironmentModel.DEPHASING]
    assert np.array_equal(dephasing.rates, 0.05 * np.eye(3))
