import hashlib
import itertools
import tracemalloc

import numpy as np
import pytest

from magiclab.pauli import PauliOperator, tableau_to_state
from magiclab import stabdict
from magiclab.haar import ExperimentConfig, haar_state_batch, sample_dmin
from magiclab.measures import dmin
from magiclab.stabdict import (
    _BLOCK_STATES,
    ResourceLimitError,
    StabilizerDictionary,
    _iter_blocks,
    _iter_tables,
    count_stabilizer_states,
    enumerate_stabilizer_states,
    iter_stabilizer_states,
)
from magiclab.wigner import wigner_function
from conftest import operator_stack, quadratic_states


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


def test_entries_match_object_builder(dict2_1, dict2_2, dict2_3, dict3_1, dict3_2):
    # every column, rebuilt by the projector product in tableau_to_state: a
    # second path to _iter_blocks' phases, with no elimination
    for dic in (dict2_1, dict2_2, dict2_3, dict3_1, dict3_2):
        for i in range(dic.size):
            assert np.max(np.abs(tableau_to_state(dic.tableau(i)) - dic.state(i))) < 1e-12
        # a numpy index gives the tableau of a Python int, Python-int phases included
        last = dic.tableau(np.int64(dic.size - 1))
        assert last == dic.tableau(dic.size - 1)
        assert all(type(g.phase) is int for g in last.generators)


def test_column_index_refusals(dict2_2):
    # a negative column counts from the end, as a Python index does
    assert dict2_2.tableau(-1) == dict2_2.tableau(59)
    assert np.array_equal(dict2_2.state(-60), dict2_2.state(0))
    # past either end the error names the column, not a group
    for read in (dict2_2.tableau, dict2_2.state):
        for i in (60, -61, 2**70):
            message = f"^column {i} is out of range for a dictionary of 60 states$"
            with pytest.raises(IndexError, match=message):
                read(i)
        # True would read as column 1
        for i in (True, np.True_, 1.0):
            with pytest.raises(ValueError, match="column takes integers only"):
                read(i)


def test_best_overlaps_takes_real_targets(dict2_1, dict2_2, dict2_3, dict2_4):
    # a real V is read as its complex cast: the qubit transform multiplies
    # its Hadamard product by complex phases in place
    rng = np.random.default_rng(7)
    for dic in (dict2_1, dict2_2, dict2_3, dict2_4):
        for V in (rng.normal(size=(2**dic.n, 5)), rng.integers(-3, 4, size=(2**dic.n, 5))):
            V[0] = 5  # no zero column
            got, want = dic.best_overlaps(V), dic.best_overlaps(V.astype(complex))
            assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


def test_dense_limits(monkeypatch, dict2_5, dict3_3):
    # one cap of 2^24 entries: the tables reach qubits n <= 5 and qutrits
    # n <= 4, refused at the call, and n = 10^9 before any count is formed
    counted, count = [], stabdict.count_stabilizer_states
    monkeypatch.setattr(
        stabdict, "count_stabilizer_states", lambda n, d: counted.append(n) or count(n, d)
    )
    for build in (enumerate_stabilizer_states, iter_stabilizer_states):
        for n, d in [(6, 2), (5, 3), (10**9, 2)]:
            message = rf"^stabilizer tables for n={n}, d={d} exceed 2\^24 states$"
            with pytest.raises(ResourceLimitError, match=message):
                build(n, d)
        with pytest.raises(ResourceLimitError, match="unsupported local dimension d=5"):
            build(2, 5)
    assert counted == [6, 5, 6, 5]
    # dense columns reach qubits n <= 4 and qutrits n <= 3: five qubits'
    # 77.6M amplitudes are refused before any is allocated
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match=r"n=5, d=2 exceed 2\^24 amplitudes"):
            dict2_5.states
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20 and "states" not in vars(dict2_5)
    assert dict3_3.states.shape == (27, 30240)


@pytest.mark.parametrize(
    "n, message",
    [
        pytest.param(0, "need n >= 1, got 0", id="0"),
        pytest.param(-1, "need n >= 1, got -1", id="-1"),
        # True would count as n = 1 (6 states), and 2.0 reach the build
        pytest.param(True, "n takes integers only, got True", id="bool"),
        pytest.param(2.0, "n takes integers only, got 2.0", id="float"),
    ],
)
def test_dense_needs_positive_n(n, message):
    for call in (count_stabilizer_states, enumerate_stabilizer_states):
        with pytest.raises(ValueError, match=f"^{message}$"):
            call(n, 2)


@pytest.mark.parametrize("n, d", [(2, np.int64(3)), (np.int64(2), 2)], ids=["int64-d", "int64-n"])
def test_numpy_integer_sizes_build_the_same_dictionary(n, d):
    # a numpy d reached gfp_rref_stack's pow (TypeError), and a numpy n made
    # dic.n and dic.size numpy integers, as the constructor itself did
    dic, want = enumerate_stabilizer_states(n, d), enumerate_stabilizer_states(int(n), int(d))
    assert dic.elements.tobytes() == want.elements.tobytes()
    assert dic.phases.tobytes() == want.phases.tobytes()
    again = StabilizerDictionary(n, d, want.elements, want.phases)
    for built in (dic, again):
        assert [type(v) for v in (built.n, built.d, built.size)] == [int, int, int]


def test_streaming_prefix_n5():
    total = 0
    for tab, psi in itertools.islice(iter_stabilizer_states(5, 2), 500):
        total += 1
        assert abs(np.linalg.norm(psi) - 1) < 1e-12
    assert total == 500
    # the limits are checked at the call, not at the first step
    with pytest.raises(ResourceLimitError, match=r"tables for n=6, d=2 exceed 2\^24 states"):
        iter_stabilizer_states(6, 2)
    with pytest.raises(ResourceLimitError, match="unsupported local dimension d=7"):
        iter_stabilizer_states(2, 7)


def test_streaming_matches_dense(dict2_2, dict2_3, dict3_2):
    # every state and tableau of (2, 2), (3, 2) and (2, 3), in dictionary order
    for dic in (dict2_2, dict2_3, dict3_2):
        count = 0
        for i, (tab, psi) in enumerate(iter_stabilizer_states(dic.n, dic.d)):
            assert np.array_equal(psi, dic.state(i))
            assert tab == dic.tableau(i)
            count += 1
        assert count == dic.size


@pytest.mark.parametrize("n,d", [(5, 2), (3, 3)])
def test_blocks_cover(n, d):
    # every block: sizes add up to the closed-form count, no block exceeds
    # the cap, each block holds whole groups with one table row each, and the
    # first and last state of each block match tableau_to_state on their own
    # tableaux, decoded from the table rows
    dim = d**n
    total = 0
    for elements, phases, psi in _iter_blocks(_iter_tables(n, d), n, d):
        size, groups = len(psi), len(elements)
        assert 0 < size <= _BLOCK_STATES and size == dim * groups
        assert elements.shape == phases.shape == (groups, dim)
        assert psi.shape == (size, dim)
        total += size
        for j in (0, size - 1):
            g, column = divmod(j, dim)
            tab = next(stabdict._tableaux(elements[g], phases[g], n, d, [column]))
            assert np.max(np.abs(tableau_to_state(tab) - psi[j])) < 1e-12
    assert total == count_stabilizer_states(n, d)


def _dense_best(states, V, chunk=64):
    """Dense oracle: |<phi_j|v>|^2 maxima and np.argmax, a few targets at a time."""
    best, arg = [], []
    for t0 in range(0, V.shape[1], chunk):
        overlaps = np.abs(states.conj().T @ V[:, t0 : t0 + chunk]) ** 2
        best.append(overlaps.max(axis=0))
        arg.append(overlaps.argmax(axis=0))
    return np.concatenate(best), np.concatenate(arg)


@pytest.mark.parametrize(
    "fixture", ["dict2_1", "dict2_2", "dict2_3", "dict2_4", "dict3_1", "dict3_2"]
)
def test_best_overlaps_match_dense_oracle(fixture, request):
    dic = request.getfixturevalue(fixture)
    dim = dic.d**dic.n
    # Haar targets: fidelities to 1e-12, and the returned index attains them
    haar = haar_state_batch(dim, 300, seed=dim)
    fid, idx = dic.best_overlaps(haar)
    dense_fid, _ = _dense_best(dic.states, haar)
    assert np.max(np.abs(fid - dense_fid)) < 1e-12
    chosen = np.abs(np.sum(dic.states[:, idx].conj() * haar, axis=0)) ** 2
    assert np.max(np.abs(chosen - dense_fid)) < 1e-12
    # dictionary columns and basis states, whose squared overlaps are dyadic:
    # indices equal the dense argmax.  At n = 4 the 4096 targets fill 16
    # target chunks, and their best states lie in every dictionary block.
    cols = np.linspace(0, dic.size - 1, min(dic.size, 4096 - dim)).astype(int)
    exact = np.hstack([dic.states[:, cols], np.eye(dim, dtype=complex)])
    fid, idx = dic.best_overlaps(exact)
    dense_fid, dense_idx = _dense_best(dic.states, exact)
    assert np.max(np.abs(fid - dense_fid)) < 1e-12
    assert np.array_equal(idx, dense_idx)
    assert np.array_equal(idx[: len(cols)], cols)


@pytest.mark.parametrize("fixture,count", [("dict2_1", 12000), ("dict2_2", 2000), ("dict3_1", 4000)])
def test_best_overlaps_bounded_on_small_dictionaries(fixture, count, request):
    # with this many targets the small dictionaries go through the Parseval
    # bounds too, which are nearly tight there: the dense maxima, attained
    dic = request.getfixturevalue(fixture)
    haar = haar_state_batch(dic.d**dic.n, count, seed=count)
    fid, idx = dic.best_overlaps(haar)
    dense_fid, _ = _dense_best(dic.states, haar)
    assert np.max(np.abs(fid - dense_fid)) < 1e-12
    chosen = np.abs(np.sum(dic.states[:, idx].conj() * haar, axis=0)) ** 2
    assert np.max(np.abs(chosen - dense_fid)) < 1e-12


def test_best_overlaps_ties_across_blocks(dict2_2, dict2_3):
    # over the dictionary written out twice, every basis state attains
    # |<phi|x>|^2 = 1 exactly at two indices dic.size apart, in different
    # groups, and the lower one must win; (2, 2) takes every group's sums,
    # (3, 2) bounds them first
    for dic in (dict2_2, dict2_3):
        dim = dic.d**dic.n
        twice = StabilizerDictionary(
            dic.n,
            dic.d,
            np.concatenate([dic.elements, dic.elements]),
            np.concatenate([dic.phases, dic.phases]),
        )
        # doubled tables read off as doubled states
        assert np.array_equal(twice.states, np.hstack([dic.states, dic.states]))
        basis = np.eye(dim, dtype=complex)
        fid, idx = twice.best_overlaps(basis)
        dense_fid, dense_idx = _dense_best(twice.states, basis)
        assert np.array_equal(fid, dense_fid) and np.all(fid == 1.0)
        assert np.array_equal(idx, dense_idx) and np.all(idx < dic.size)
        # Haar targets: the dense maxima, and the index of a duplicated state
        # is always the first copy
        haar = haar_state_batch(dim, 50, seed=3)
        fid, idx = twice.best_overlaps(haar)
        dense_fid, _ = _dense_best(dic.states, haar)
        assert np.max(np.abs(fid - dense_fid)) < 1e-12
        assert np.all(idx < dic.size)
        # an enumerated dictionary's group tables are read-only
        assert not any(table.flags.writeable for table in (dic.elements, dic.phases))


def test_best_overlaps_tie_heavy_batch(dict2_4):
    # 65 n = 4 targets, enough for the float32 Parseval screen: dictionary
    # columns, T^(x4), and sums of two stabilizer states of support 2 from
    # different groups, on disjoint supports, whose amplitudes are exactly
    # +-1/2 and +-i/2, so that every sum the kernel takes is exact: each sum
    # overlaps its two states equally, and its maximum, 9/16, ties across 8
    # states of several groups
    dic, rng = dict2_4, np.random.default_rng(4)
    states = dic.states
    cols = np.linspace(0, dic.size - 1, 24).astype(int)
    t = np.array([1, np.exp(1j * np.pi / 4)]) / np.sqrt(2)
    targets = [*states[:, cols].T, np.kron(np.kron(t, t), np.kron(t, t))]
    support = np.abs(states) > 1e-9
    pairs = np.flatnonzero(support.sum(axis=0) == 2)
    while len(targets) < 65:
        a, b = rng.choice(pairs, 2, replace=False)
        if a // 16 != b // 16 and not np.any(support[:, a] & support[:, b]):
            targets.append(np.round(np.sqrt(2) * (states[:, a] + states[:, b])) / 2)
    V = np.array(targets).T
    fid, idx = dic.best_overlaps(V)
    dense = np.abs(states.conj().T @ V) ** 2
    top = dense.max(axis=0)
    assert np.max(np.abs(fid - top)) < 1e-12
    assert np.array_equal(idx, np.argmax(dense >= top - 1e-12, axis=0))
    assert np.array_equal(idx[:24], cols)
    ties = np.sum(dense[:, 25:] >= top[25:] - 1e-12, axis=0)
    assert np.all(ties > 1) and len(np.unique(idx[25:] // 16)) > 1


def test_n5_batch_matches_single_targets(dict2_5):
    # targets in one chunk and one at a time: the same indices, and
    # fidelities equal to the last bits
    V = haar_state_batch(32, 8, seed=58)
    fid, idx = dict2_5.best_overlaps(V)
    single = [dict2_5.best_overlaps(V[:, [j]]) for j in range(8)]
    assert np.array_equal(idx, [i[0] for _, i in single])
    assert np.max(np.abs(fid - [f[0] for f, _ in single])) <= 1e-15


@pytest.mark.parametrize(
    "n, count, seed, digest",
    [
        # 128 targets in eight 16-target chunks, each through the float32 screen
        (4, 128, 7, "f82a75cb2370d73e63822ee836e513b85f8aed6390489cf83b78aa53ddc53e37"),
        # one 16-target chunk of 75,735 groups
        (5, 16, 58, "d36127d5aeb090106ea6c9f75d0b9f449249b4754798308cbf0dce473b11627d"),
    ],
)
def test_best_overlaps_bits_are_pinned(request, n, count, seed, digest):
    # the kept pairs, their exact sums and the pick keep every byte of the
    # fidelities and indices, not just their values to 1e-15
    dic = request.getfixturevalue(f"dict2_{n}")
    fid, idx = dic.best_overlaps(haar_state_batch(2**n, count, seed))
    assert (fid.dtype, idx.dtype) == (np.float64, np.int64)
    assert hashlib.sha256(fid.tobytes() + idx.tobytes()).hexdigest() == digest


def test_best_overlaps_last_bit_with_a_contiguous_table(dict2_4):
    # the qubit character table must be C-contiguous: matmul sums a strided
    # operand (a .real view of a complex table) in another order, and this
    # fidelity then reads 0.5814158557811168
    fid, idx = dict2_4.best_overlaps(haar_state_batch(16, 1, 104))
    assert (float(fid[0]), int(idx[0])) == (0.5814158557811167, 26164)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_qubit_character_table_is_real_and_contiguous(n):
    chars = stabdict._tables(n, 2)[3]
    assert chars.dtype == np.float64
    assert chars.flags.c_contiguous and not chars.flags.writeable
    a = np.arange(2**n)
    parity = np.array([bin(v).count("1") for v in (a[:, None] & a).ravel()]).reshape(chars.shape)
    assert np.array_equal(chars, (-1.0) ** parity)
    if n <= 4:  # the qutrit characters stay complex
        assert stabdict._tables(n, 3)[3].dtype == np.complex128


@pytest.mark.parametrize("name", ["dict2_1", "dict2_2", "dict2_3", "dict2_4", "dict2_5",
                                  "dict3_1", "dict3_2", "dict3_3"])
def test_table_exponents_are_signs(request, name):
    # every stored exponent is 0 or d, so zeta^phase is a real +-1: the
    # readers of the tables take it as _ZETA[d].real[phase]
    dic = request.getfixturevalue(name)
    assert set(np.unique(dic.phases).tolist()) <= {0, dic.d}


def _group_expectations(dic, V):
    """<v|g|v> for every element g of every run's stabilizer group, (runs,
    d^n, targets), applying the powers of the run's first tableau's
    generators to V one at a time: a path independent of
    stabdict._group_tables."""
    dim = dic.d**dic.n
    out = np.empty((dic.size // dim, dim, V.shape[1]), dtype=complex)
    for b in range(len(out)):
        gens = dic.tableau(b * dim).generators
        for c, powers in enumerate(itertools.product(range(dic.d), repeat=dic.n)):
            gV = V
            for gen, p in zip(gens, powers):
                for _ in range(p):
                    gV = gen.apply(gV)
            out[b, c] = np.sum(V.conj() * gV, axis=0)
    return out


@pytest.mark.parametrize(
    "fixture", ["dict2_1", "dict2_2", "dict2_3", "dict2_4", "dict3_1", "dict3_2"]
)
def test_runs_are_stabilizer_group_eigenbases(fixture, request):
    # the structure best_overlaps relies on: every run of d^n columns is
    # orthonormal, the fidelities of a target over a run sum to ||v||^2, and
    # none exceeds the Parseval bound sqrt(d^-n sum_c |<v|g^c|v>|^2) of the
    # run's group, whose squares they sum to
    dic = request.getfixturevalue(fixture)
    dim = dic.d**dic.n
    runs = dic.states.reshape(dim, -1, dim).transpose(1, 0, 2)
    gram = np.einsum("rij,rik->rjk", runs.conj(), runs)
    assert np.max(np.abs(gram - np.eye(dim))) < 1e-12
    rng = np.random.default_rng(dim)
    V = haar_state_batch(dim, 6, seed=dim) * rng.uniform(0.5, 2.0, size=6)
    fid = (np.abs(dic.states.conj().T @ V) ** 2).reshape(-1, dim, V.shape[1])
    norms = np.sum(np.abs(V) ** 2, axis=0)
    assert np.max(np.abs(fid.sum(axis=1) - norms)) < 1e-12 * np.max(norms)
    squares = np.sum(np.abs(_group_expectations(dic, V)) ** 2, axis=1) / dim
    assert np.all(fid <= np.sqrt(squares)[:, None] + 1e-12)
    assert np.max(np.abs(np.sum(fid**2, axis=1) - squares)) < 1e-12


def test_dictionary_needs_whole_groups_and_one_generator_row_each(dict2_2):
    # a group short of its element row, a group short of its phase row,
    # rows of half a group, and the tables flattened
    dic = dict2_2
    tables = (dic.elements, dic.phases)
    for elements, phases in [
        (dic.elements[:-1], dic.phases),
        (dic.elements, dic.phases[:-1]),
        tuple(table.reshape(-1, 2) for table in tables),
        tuple(table.ravel() for table in tables),
    ]:
        with pytest.raises(ValueError, match="need one row of 4 entries per group"):
            StabilizerDictionary(dic.n, dic.d, elements, phases)


def test_tables_only_build_and_dmin_stay_small():
    # an n = 4 build and one dmin read only the group tables (73 kB): the
    # dense columns alone would be 9.4 MB
    psi = haar_state_batch(16, 1, seed=4)[:, 0]
    tracemalloc.start()
    try:
        dic = enumerate_stabilizer_states(4, 2)
        value, best = dmin(psi, dic)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20
    assert abs(value + np.log2(abs(np.vdot(dic.state(best), psi)) ** 2)) < 1e-12
    assert "states" not in vars(dic)


def test_n5_dmin_reads_only_the_tables(dict2_5):
    # the 1.16 GB of dense n = 5 columns are never built: one dmin peaks at
    # about 1 MB beside the 7.3 MB of tables
    psi = haar_state_batch(32, 1, seed=5)[:, 0]
    tracemalloc.start()
    try:
        value, best = dmin(psi, dict2_5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    assert abs(value + np.log2(abs(np.vdot(dict2_5.state(best), psi)) ** 2)) < 1e-12
    assert "states" not in vars(dict2_5)
    # a dictionary column is its own best state
    i = 1_234_567
    value, best = dmin(dict2_5.state(i), dict2_5)
    assert abs(value) <= 1e-12 and best == i


def test_n5_best_overlaps_match_the_dense_stream(dict2_5):
    # a second path: every n = 5 column read off the tables block by block
    # and its overlaps taken densely; ties keep the lowest index
    V = haar_state_batch(32, 4, seed=55)
    best, arg, offset = np.zeros(4), np.zeros(4, dtype=np.int64), 0
    for _, _, psi in _iter_blocks(_iter_tables(5, 2), 5, 2):
        f = np.abs(psi.conj() @ V) ** 2
        j = f.argmax(axis=0)
        better = f[j, np.arange(4)] > best
        best[better], arg[better] = f[j, np.arange(4)][better], offset + j[better]
        offset += len(psi)
    assert offset == dict2_5.size
    fidelities, indices = dict2_5.best_overlaps(V)
    assert np.max(np.abs(fidelities - best)) < 1e-12
    assert np.array_equal(indices, arg)
    values = sample_dmin(ExperimentConfig(5, 4, seed=55), dict2_5)
    assert np.max(np.abs(values + np.log2(best))) < 1e-12


@pytest.mark.parametrize("n, d", [(1, 2), (3, 2), (1, 3), (2, 3)])
def test_pauli_coordinates_match_dense_operators(n, d):
    # Tr(r P_xz) with P_xz = zeta^(-x.z) Z^z X^x, row x d^n + z, against the
    # dense matrices of PauliOperator, for every operator of operator_stack
    R = operator_stack(np.random.default_rng(10 * d + n), n, d)
    got = stabdict._pauli_coordinates(R, n, d)
    assert got.dtype == (float if d == 2 else complex) and got.shape == (d ** (2 * n), 6)
    assert got.flags.c_contiguous  # a strided view of complex sums moves later sums' last bits
    digits = list(itertools.product(range(d), repeat=n))
    for row, (x, z) in enumerate(itertools.product(digits, digits)):
        # itertools.product counts big-endian; indices are little-endian
        x, z = x[::-1], z[::-1]
        P = PauliOperator(n, d, x, z, -sum(a * b for a, b in zip(x, z)) % (2 * d)).dense()
        assert np.max(np.abs(got[row] - np.einsum("ijk,ji->k", R, P))) < 1e-12


@pytest.mark.parametrize("fixture", ["dict2_1", "dict2_2", "dict2_3", "dict2_4"])
def test_state_coordinates_are_the_signed_group_elements(fixture, request):
    dic = request.getfixturevalue(fixture)
    n, dim, count = dic.n, 2**dic.n, len(dic.elements)
    tracemalloc.start()
    try:
        got = stabdict._state_coordinates(dic.elements, dic.phases, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.shape == (dim * dim, dic.size)
    assert np.all((got == -1) | (got == 0) | (got == 1))
    assert np.all(np.count_nonzero(got, axis=0) == dim)
    by_group = got.reshape(dim * dim, count, dim)
    # the dense oracle: _pauli_coordinates of each state's projector, on
    # every 17th group at n = 4 to keep the projector stack small
    groups = np.arange(0, count, 17 if n == 4 else 1)
    V = dic.states.reshape(dim, count, dim)[:, groups].reshape(dim, -1)
    want = stabdict._pauli_coordinates(V[:, None] * V.conj(), n, 2)
    assert np.max(np.abs(by_group[:, groups].reshape(dim * dim, -1) - want)) <= 1e-15
    # any subset of groups gives its own columns of the full matrix
    subset = np.arange(0, count, 7)
    part = stabdict._state_coordinates(dic.elements[subset], dic.phases[subset], n)
    assert np.array_equal(part, by_group[:, subset].reshape(dim * dim, -1))
    if n == 4:  # no temporary near the size of the result
        assert peak <= 1.25 * got.nbytes


@pytest.mark.parametrize("fixture", ["dict2_1", "dict2_2", "dict2_3", "dict2_4"])
def test_state_pricer_is_y_times_the_state_coordinates(fixture, request):
    dic = request.getfixturevalue(fixture)
    n, dim = dic.n, 2**dic.n
    A = stabdict._state_coordinates(dic.elements, dic.phases, n)
    price = stabdict._state_pricer(dic.elements, dic.phases, n)
    rng = np.random.default_rng(60 + n)
    # integer y: every partial sum of both products is an integer below
    # 2^53, so both are exact and equal byte for byte
    y = rng.integers(-1000, 1001, size=dim * dim).astype(float)
    assert price(y).tobytes() == (y @ A).tobytes()
    # real y: the same 2^n signed terms, summed in another order
    y = rng.normal(size=dim * dim)
    assert np.max(np.abs(price(y) - y @ A)) <= 1e-14 * np.sum(np.abs(y))


@pytest.mark.parametrize("fixture", ["dict2_1", "dict2_2", "dict2_3", "dict2_4"])
def test_qubit_amplitudes_have_no_rounding_dust(fixture, request):
    # each real and imaginary part is 0 or +-2^(-k/2), taken from the exact
    # zeta table; a complex power of exp(i pi / 2) left ~6e-17 where 0 belongs
    dic = request.getfixturevalue(fixture)
    levels = [0.0] + [2.0 ** (-k / 2) for k in range(dic.n + 1)]
    for part in (dic.states.real, dic.states.imag):
        assert np.all(np.isin(np.abs(part), levels))


def test_best_overlaps_rejects_wrong_shape(dict2_2):
    with pytest.raises(ValueError):
        dict2_2.best_overlaps(np.ones((8, 1), dtype=complex))
    with pytest.raises(ValueError):
        dict2_2.best_overlaps(np.ones(4, dtype=complex))


def test_qutrit_states_satisfy_generators(dict2_3, dict3_2):
    # every column of the (3, 2) and (2, 3) dictionaries; PauliOperator.apply
    # is a second path, independent of how the states are read off the tables
    for dic in (dict2_3, dict3_2):
        for i in range(dic.size):
            psi = dic.state(i)
            for g in dic.tableau(i).generators:
                assert np.linalg.norm(g.apply(psi) - psi) < 1e-12


def _tableau_arrays(tabs):
    """(gen_x, gen_z, gen_t) of the tableaux tabs, one row per tableau."""
    gens = [[(g.xvec, g.zvec, g.phase) for g in tab.generators] for tab in tabs]
    return tuple(np.array([[g[k] for g in row] for row in gens]) for k in range(3))


def _per_state(dic):
    """(gen_x, gen_z, gen_t) of every column's canonical tableau, in column
    order, decoded group by group from the table rows."""
    dim = dic.d**dic.n
    return _tableau_arrays(
        tab
        for g in range(dic.size // dim)
        for tab in stabdict._tableaux(dic.elements[g], dic.phases[g], dic.n, dic.d, range(dim))
    )


def _digest(gen_x, gen_z, gen_t, states):
    h = hashlib.sha256()
    for gens in (gen_x, gen_z, gen_t):
        h.update(gens.astype(np.int8).tobytes())
    h.update((np.round(states, 12) + 0j).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize(
    "fixture,digest",
    [
        ("dict2_3", "f9d9af97ab86be462fa7abaf224ac20534e7cee3660548414e09feaf72d66c93"),
        ("dict3_2", "feab6d3adea0abcbffa1e9ad739e7514180ee3a1d2cd9b7253262d65bc518d6b"),
        ("dict2_4", "a04171a57d2eee2eee2ec46f0d5d3bb67a23be19b81f76fa31b1b2b5d6c596cf"),
        ("dict3_3", "76a4f7273380e27628d8c5e606fbef93da2664ea98bf0f35d137f895b54039d8"),
    ],
)
def test_dictionary_digest(fixture, digest, request):
    # digests taken from an earlier enumerator's step-by-step phase walk;
    # that of (3, 3), whose dense read cuts 31 runs of 37 groups across
    # subspace dimensions, from the reader that cut its own runs in states
    dic = request.getfixturevalue(fixture)
    assert _digest(*_per_state(dic), dic.states) == digest


@pytest.mark.parametrize(
    "fixture,digest",
    [
        ("dict2_3", "637c40345b960621131eaae0984d69320bfd28b04b28e60e51c0eefc6bb03cef"),
        ("dict2_4", "8c23ba002d279f3b3880456b4f9049ba3f5b45ed2b43a1905fd5792399dc4be3"),
        ("dict3_2", "13b6f3c2d81e2694cf0f351edf7239636a9376b608ac9242472f763e2743eaab"),
        ("dict2_5", "8926a57e5b16f2b5c22e452896e68f7fc136b76b357a8514f77b3d85564ecd2f"),
        ("dict3_3", "287ac80a92a32aa799638c6c8841614ee62256f861f93413e51f5caa27fed751"),
    ],
)
def test_group_table_digest(fixture, digest, request):
    # digests taken from the group tables built from one tableau per state,
    # with each group's generator order read off its phases; those of (5, 2)
    # and (3, 3), whose table batches span several X-blocks and split the
    # longest runs of symmetric matrices, from the builder that made one
    # batch per X-block
    dic = request.getfixturevalue(fixture)
    assert hashlib.sha256(dic.elements.tobytes() + dic.phases.tobytes()).hexdigest() == digest


def test_stream_digest_n5():
    # the first 3000 states of the n = 5 stream cross k = 0 (32 states) and
    # k = 1 (1984) into k = 2; digest taken from the per-state enumerator
    # that the block enumerator replaced
    tabs, psis = zip(*itertools.islice(iter_stabilizer_states(5, 2), 3000))
    digest = _digest(*_tableau_arrays(tabs), np.column_stack(psis))
    assert digest == "e7788656e5ca3bd941fb769d9f52169dc5eb20c8aff23b95b0ea92f03eab9314"


@pytest.mark.parametrize("fixture", ["dict2_3", "dict3_2"])
def test_tableaux_check_each_group(fixture, request):
    # _tableaux checks commutation once per group, on the first column: a
    # table row whose generators anticommute must still fail a whole-group
    # decode, and every single column of it
    dic = request.getfixturevalue(fixture)
    n, d = dic.n, dic.d
    dim = d**n
    # the last group has every generator X-type, generator i with x = e_i;
    # adding e_1 to generator 0's Z part makes it anticommute with generator 1
    row = dic.elements[-1].astype(np.int64)
    x, z = divmod(int(row[1]), dim)
    digit = z // d % d
    row[1] = x * dim + z + ((digit + 1) % d - digit) * d
    phases = dic.phases[-1]
    assert len(list(stabdict._tableaux(dic.elements[-1], phases, n, d, range(dim)))) == dim
    with pytest.raises(ValueError, match="generators must commute pairwise"):
        list(stabdict._tableaux(row, phases, n, d, range(dim)))
    for j in range(dim):
        with pytest.raises(ValueError, match="generators must commute pairwise"):
            next(stabdict._tableaux(row, phases, n, d, [j]))


def _ray_key(v):
    pivot = np.argmax(np.abs(v) > 1e-9)
    return tuple(np.round(v * np.exp(-1j * np.angle(v[pivot])), 9))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_quadratic_states_subset_of_stab(n):
    dic = enumerate_stabilizer_states(n, 2)
    _, states = quadratic_states(n)
    assert states.shape[1] == 2 ** (n + n * (n - 1) // 2)
    stab_rays = {_ray_key(dic.state(i)) for i in range(dic.size)}
    q_rays = {_ray_key(states[:, j]) for j in range(states.shape[1])}
    assert len(q_rays) == states.shape[1]
    assert q_rays <= stab_rays


def test_quadratic_functions_have_low_degree():
    functions, _ = quadratic_states(3)
    assert all(f.degree <= 2 for f in functions)


def test_three_qutrit_columns_are_stabilizer_states(dict3_3):
    # for odd d the pure states with W >= 0 are exactly the stabilizer states
    # (Gross, quant-ph/0602001); tableau_to_state is a second path to each
    assert dict3_3.size == count_stabilizer_states(3, 3) == 30240
    for i in np.random.default_rng(33).choice(dict3_3.size, 300, replace=False):
        psi = dict3_3.state(i)
        assert wigner_function(psi).values.min() > -1e-12
        assert np.max(np.abs(tableau_to_state(dict3_3.tableau(i)) - psi)) < 1e-12
        assert np.array_equal(dict3_3.states[:, i], psi)


def test_four_qutrit_tables():
    dic = enumerate_stabilizer_states(4, 3)
    assert dic.size == count_stabilizer_states(4, 3) == 7_439_040
    assert set(np.unique(dic.phases).tolist()) <= {0, 3}
    for i in (0, 81 * 12_345 + 17, dic.size // 2 + 40, dic.size - 1):
        psi = dic.state(i)
        assert np.max(np.abs(tableau_to_state(dic.tableau(i)) - psi)) < 1e-12
        assert wigner_function(psi).values.min() > -1e-12


def test_six_qutrit_tables_build_without_a_digit_sum_array():
    # the four tables of six qutrits hold 16 MiB; a (729, 729, 6) array of
    # digit sums would add 25 MiB to the peak, and the sums table, 4 MiB, is
    # built one digit at a time instead
    digits, place = stabdict._digits(6, 3)
    tracemalloc.start()
    try:
        tables = stabdict._build_tables(6, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    add = tables[0]
    assert peak - sum(table.nbytes for table in tables) <= 2 * add.nbytes
    a, b = np.random.default_rng(6).integers(729, size=(2, 64))
    assert np.array_equal(add[a, b], (digits[a] + digits[b]) % 3 @ place)


def test_qutrit_dictionary_has_nonnegative_wigner(dict3_1):
    for i in range(dict3_1.size):
        W = wigner_function(dict3_1.state(i))
        assert W.values.min() > -1e-12
