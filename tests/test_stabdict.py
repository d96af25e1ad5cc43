import hashlib
import itertools

import numpy as np
import pytest

from magiclab.pauli import canonical_tableau, tableau_to_state
from magiclab.stabdict import (
    ResourceLimitError,
    count_stabilizer_states,
    enumerate_quadratic_states,
    enumerate_stabilizer_states,
    iter_stabilizer_states,
)


@pytest.mark.parametrize(
    "n,d,expected",
    [(1, 2, 6), (2, 2, 60), (3, 2, 1080), (4, 2, 36720), (1, 3, 12), (2, 3, 360)],
)
def test_count_formula(n, d, expected):
    assert count_stabilizer_states(n, d) == expected


def test_count_n5():
    assert count_stabilizer_states(5, 2) == 32 * 33 * 17 * 9 * 5 * 3


def test_single_qubit_states(dict2_1):
    # |0>, |1>, |+>, |->, |+i>, |-i> as rays
    expected = {
        (1, 0),
        (0, 1),
        (2**-0.5, 2**-0.5),
        (2**-0.5, -(2**-0.5)),
        (2**-0.5, 2**-0.5 * 1j),
        (2**-0.5, -(2**-0.5) * 1j),
    }
    got = {tuple(np.round(dict2_1.state(i), 12)) for i in range(6)}
    assert got == {tuple(np.round(np.array(v), 12)) for v in expected}


@pytest.mark.parametrize("n,d", [(1, 2), (2, 2), (3, 2), (1, 3), (2, 3)])
def test_enumeration_count_and_distinctness(n, d):
    dic = enumerate_stabilizer_states(n, d)
    assert dic.size == count_stabilizer_states(n, d)
    rays = {tuple(np.round(dic.state(i), 9)) for i in range(dic.size)}
    assert len(rays) == dic.size
    norms = np.linalg.norm(dic.states, axis=0)
    assert np.max(np.abs(norms - 1)) < 1e-12


def test_entries_match_object_builder(dict2_2):
    rng = np.random.default_rng(0)
    for i in rng.integers(0, dict2_2.size, 30):
        tab = dict2_2.tableau(int(i))
        assert np.max(np.abs(tableau_to_state(tab) - dict2_2.state(int(i)))) < 1e-12
        assert canonical_tableau(tab).generators == tab.generators


def test_dense_limits():
    with pytest.raises(ResourceLimitError):
        enumerate_stabilizer_states(5, 2)
    with pytest.raises(ResourceLimitError):
        enumerate_stabilizer_states(3, 3)
    with pytest.raises(ResourceLimitError):
        enumerate_stabilizer_states(2, 5)


def test_streaming_prefix_n5():
    total = 0
    for tab, psi in itertools.islice(iter_stabilizer_states(5, 2), 500):
        total += 1
        assert abs(np.linalg.norm(psi) - 1) < 1e-12
    assert total == 500
    with pytest.raises(ResourceLimitError):
        next(iter_stabilizer_states(6, 2))


def test_streaming_matches_dense(dict2_2):
    for i, (tab, psi) in enumerate(itertools.islice(iter_stabilizer_states(2, 2), 60)):
        assert np.max(np.abs(psi - dict2_2.state(i))) < 1e-12


def test_qutrit_states_satisfy_generators(dict2_3, dict3_2):
    # every column of the (3, 2) and (2, 3) dictionaries; PauliOperator.apply
    # is a second path, independent of pauli._coset_phases
    for dic in (dict2_3, dict3_2):
        for i in range(dic.size):
            psi = dic.state(i)
            for g in dic.tableau(i).generators:
                assert np.linalg.norm(g.apply(psi) - psi) < 1e-12


@pytest.mark.parametrize(
    "fixture,digest",
    [
        ("dict2_3", "f9d9af97ab86be462fa7abaf224ac20534e7cee3660548414e09feaf72d66c93"),
        ("dict3_2", "feab6d3adea0abcbffa1e9ad739e7514180ee3a1d2cd9b7253262d65bc518d6b"),
        ("dict2_4", "a04171a57d2eee2eee2ec46f0d5d3bb67a23be19b81f76fa31b1b2b5d6c596cf"),
    ],
)
def test_dictionary_digest(fixture, digest, request):
    # digests taken from the step-by-step phase walk that _coset_phases replaced
    dic = request.getfixturevalue(fixture)
    h = hashlib.sha256()
    for gens in (dic.gen_x, dic.gen_z, dic.gen_t):
        h.update(gens.astype(np.int8).tobytes())
    h.update((np.round(dic.states, 12) + 0j).tobytes())
    assert h.hexdigest() == digest


def _ray_key(v):
    pivot = np.argmax(np.abs(v) > 1e-9)
    return tuple(np.round(v * np.exp(-1j * np.angle(v[pivot])), 9))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_quadratic_states_subset_of_stab(n):
    dic = enumerate_stabilizer_states(n, 2)
    qs = enumerate_quadratic_states(n)
    assert qs.states.shape[1] == 2 ** (n + n * (n - 1) // 2)
    stab_rays = {_ray_key(dic.state(i)) for i in range(dic.size)}
    q_rays = {_ray_key(qs.states[:, j]) for j in range(qs.states.shape[1])}
    assert len(q_rays) == qs.states.shape[1]
    assert q_rays <= stab_rays


def test_quadratic_functions_have_low_degree():
    qs = enumerate_quadratic_states(3)
    assert all(f.degree <= 2 for f in qs.functions)


def test_qutrit_dictionary_has_nonnegative_wigner(dict3_1):
    from magiclab.wigner import wigner_function

    for i in range(dict3_1.size):
        W = wigner_function(dict3_1.state(i))
        assert W.values.min() > -1e-12
