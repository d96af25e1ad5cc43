import itertools
import json
import math
import os
import subprocess
import sys
from functools import reduce
from pathlib import Path

import numpy as np
import pytest

import magiclab
from magiclab import measures
from magiclab.boolfn import hypergraph_state, parse_anf
from magiclab.measures import (
    TOLERANCES,
    dmin,
    extent,
    free_robustness,
    golden_state,
    magic_report,
    stab_rank_bound,
)
from magiclab.pauli import hermitian_pauli, pauli_to_string
from magiclab.solvers import SolverError, solve_extent
from magiclab.stabdict import enumerate_stabilizer_states
from conftest import random_state

GOLDEN_DMIN = math.log2(3 - math.sqrt(3))
GOLDEN_R = (math.sqrt(3) - 1) / 2


def _l1_vertex_oracle(A, b):
    """Exhaustive basic-solution sweep of min ||c||_1 s.t. A c = b (c free).

    Independent of the simplex path: every optimal basic solution lives on
    some rank-sized support, and any support solution is feasible, so the
    minimum over supports equals the LP optimum.
    """
    rank = np.linalg.matrix_rank(A)
    best = np.inf
    for support in itertools.combinations(range(A.shape[1]), rank):
        M = A[:, support]
        c, *_ = np.linalg.lstsq(M, b, rcond=None)
        if np.max(np.abs(M @ c - b)) > 1e-9:
            continue
        best = min(best, float(np.sum(np.abs(c))))
    return best


_SITE_MATRIX = {
    (0, 0): np.eye(2),
    (1, 0): np.array([[0, 1], [1, 0]]),
    (0, 1): np.diag([1, -1]),
    (1, 1): np.array([[0, -1j], [1j, 0]]),
}


def _dense_paulis(n):
    """(x bits, z bits, P) for every n-qubit Hermitian Pauli in the LP's row
    order (X part major); P is a dense np.kron product with site 1, the least
    significant index bit, as the rightmost factor."""
    for x in range(2**n):
        for z in range(2**n):
            xs = [x >> k & 1 for k in range(n)]
            zs = [z >> k & 1 for k in range(n)]
            yield xs, zs, reduce(np.kron, [_SITE_MATRIX[s] for s in zip(xs[::-1], zs[::-1])])


def _dense_pauli_lp(dic, rho):
    """The robustness LP's A and b from dense Pauli matrices: Tr(phi_j P) and
    Tr(rho P), one row per Pauli."""
    paulis = [P for _, _, P in _dense_paulis(dic.n)]
    A = np.array([np.einsum("ik,ij,jk->k", dic.states.conj(), P, dic.states).real for P in paulis])
    return A, np.array([np.trace(P @ rho).real for P in paulis])


def test_golden_state_is_pure_unit():
    G = golden_state()
    assert abs(np.linalg.norm(G) - 1) < 1e-12
    X = np.array([[0, 1], [1, 0]])
    Y = np.array([[0, -1j], [1j, 0]])
    Z = np.diag([1, -1])
    bloch = np.array([np.vdot(G, M @ G).real for M in (X, Y, Z)])
    assert np.allclose(bloch, 1 / np.sqrt(3))


def test_dmin_golden(dict2_1, golden):
    value, best = dmin(golden, dict2_1)
    assert abs(value - GOLDEN_DMIN) < 1e-12
    assert abs(2.0**-value - (3 + math.sqrt(3)) / 6) < 1e-12  # best overlap squared


def test_dmin_faithful_on_dictionary(dict2_2):
    rng = np.random.default_rng(0)
    for i in rng.integers(0, dict2_2.size, 10):
        value, best = dmin(dict2_2.state(int(i)), dict2_2)
        assert abs(value) < 1e-12
        assert best == int(i) or abs(np.abs(np.vdot(dict2_2.state(best), dict2_2.state(int(i)))) - 1) < 1e-12


def test_dmin_argmax_deterministic(dict2_1):
    # |0> overlaps state 0 with probability 1; ties elsewhere break low
    e0 = np.array([1.0, 0.0], dtype=complex)
    assert dmin(e0, dict2_1)[1] == 0


def test_dmin_mixed_support_projector(dict2_1):
    # rank-2 mixed state: support projector is the identity -> dmin = 0
    rho = 0.6 * np.outer([1, 0], [1, 0]) + 0.4 * np.outer([0, 1], [0, 1])
    value, _ = dmin(rho.astype(complex), dict2_1)
    assert abs(value) < 1e-12
    # pure golden passed as a density matrix matches the vector path
    G = golden_state()
    value2, _ = dmin(np.outer(G, G.conj()), dict2_1)
    assert abs(value2 - GOLDEN_DMIN) < 1e-10


def test_extent_golden(dict2_1, golden):
    res = extent(golden, dict2_1)
    assert abs(res.xi - (3 - math.sqrt(3))) < 1e-5
    assert abs(res.dmax - GOLDEN_DMIN) < 1e-5


def test_extent_faithful(dict2_2):
    psi = dict2_2.state(17)
    res = extent(psi, dict2_2)
    assert abs(res.xi - 1.0) < 1e-6


def test_extent_weak_additivity_two_golden(dict2_2, golden):
    GG = np.kron(golden, golden)
    res = extent(GG, dict2_2)
    assert abs(res.dmax - 2 * GOLDEN_DMIN) < 1e-5
    value, _ = dmin(GG, dict2_2)
    assert abs(value - 2 * GOLDEN_DMIN) < 1e-12


T_STATE = np.array([1, np.exp(1j * np.pi / 4)]) / math.sqrt(2)
PLUS = np.array([1, 1]) / math.sqrt(2)
ZERO = np.array([1, 0], dtype=complex)
XI_T = 1 / math.cos(math.pi / 8) ** 2
XI_GOLDEN = 3 - math.sqrt(3)
CCZ = hypergraph_state(parse_anf("x1*x2*x3"))


def _kron(*states):
    return reduce(np.kron, states)


def _random_clifford(n, seed, layers=8):
    """Layers of H or S on every qubit, each followed by CZ or CNOT on a
    random pair of qubits (bit i of a basis index is qubit i)."""
    rng = np.random.default_rng(seed)
    H = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
    S = np.diag([1, 1j])
    x = np.arange(2**n)
    U = np.eye(2**n, dtype=complex)
    for _ in range(layers):
        U = _kron(*(H if rng.random() < 0.5 else S for _ in range(n))) @ U
        a, b = rng.choice(n, size=2, replace=False)
        bit_a = (x >> a) & 1
        if rng.random() < 0.5:
            U = (1 - 2 * (bit_a & (x >> b) & 1))[:, None] * U  # CZ
        else:
            U = U[x ^ (bit_a << b)]  # CNOT, control a, target b
    return U


def test_extent_haar_regression_state(dict2_3):
    # a Haar state on which a first-order (ADMM) extent solve stalls
    psi = random_state(8, np.random.default_rng([1921437797, 1]))
    res = extent(psi, dict2_3)
    assert abs(res.xi - 1.77987856) < 1e-8
    assert res.diagnostics["l1_gap"] < 1e-8
    assert res.diagnostics["reconstruction_error"] <= TOLERANCES["reconstruction"]


@pytest.mark.parametrize("tamper", ["coefficients", "dual"])
def test_extent_rejects_what_it_cannot_certify(monkeypatch, dict2_1, golden, tamper):
    c, y, pivots, rounds = solve_extent(dict2_1.states, golden)
    if tamper == "coefficients":
        c = c * (1 + 1e-6)  # D c misses psi
    else:
        y = dict2_1.states[:, 0]  # a feasible dual far from optimal
    monkeypatch.setattr(measures, "solve_extent", lambda D, t: (c, y, pivots, rounds))
    with pytest.raises(SolverError, match="extent certificate failed"):
        extent(golden, dict2_1)


_HAAR2 = random_state(4, np.random.default_rng(21))
_HAAR3 = random_state(8, np.random.default_rng(31))
_HAAR4 = random_state(16, np.random.default_rng(41))


@pytest.mark.parametrize(
    "n, psi, reference",
    [
        # multiplicativity: xi(psi x phi) = xi(psi) xi(phi) for n <= 3 factors
        pytest.param(3, _kron(T_STATE, T_STATE, T_STATE), XI_T**3, id="T-T-T"),
        pytest.param(3, _kron(T_STATE, golden_state(), T_STATE), XI_T**2 * XI_GOLDEN, id="T-G-T"),
        pytest.param(3, _kron(T_STATE, PLUS, ZERO), XI_T, id="T-plus-zero"),
        pytest.param(4, _kron(T_STATE, T_STATE, T_STATE, T_STATE), XI_T**4, id="T-T-T-T"),
        # Clifford invariance: the reference is the extent of the preimage
        pytest.param(2, _random_clifford(2, 1) @ _HAAR2, _HAAR2, id="clifford-haar-2"),
        pytest.param(3, _random_clifford(3, 2) @ _HAAR3, _HAAR3, id="clifford-haar-3"),
        pytest.param(4, _random_clifford(4, 4) @ _HAAR4, _HAAR4, id="clifford-haar-4"),
        pytest.param(3, _random_clifford(3, 3) @ CCZ, CCZ, id="clifford-ccz"),
    ],
)
def test_extent_oracles(request, n, psi, reference):
    dic = request.getfixturevalue(f"dict2_{n}")
    want = reference if np.isscalar(reference) else extent(reference, dic).xi
    assert abs(extent(psi, dic).xi / want - 1) < 1e-8


def test_extent_t4_pivot_budget(dict2_4):
    # from the crash basis T^4 certifies in 2 rounds and 415 pivots; a
    # first round over all four phases of every state took 2,429-2,590
    res = extent(_kron(T_STATE, T_STATE, T_STATE, T_STATE), dict2_4)
    assert abs(res.xi / XI_T**4 - 1) < 1e-8
    assert res.diagnostics["iterations"] < 1000


def test_free_robustness_golden_matches_oracle(dict2_1, golden):
    res = free_robustness(golden, dict2_1)
    assert abs(res.r - GOLDEN_R) < 1e-7
    assert abs(res.l1 - (1 + 2 * res.r)) < 1e-12
    # independent exhaustive vertex search over the 6-state dictionary
    A, b = _dense_pauli_lp(dict2_1, np.outer(golden, golden.conj()))
    assert abs(_l1_vertex_oracle(A, b) - res.l1) < 1e-7


def test_free_robustness_builds_rows_once_per_dictionary(monkeypatch, golden):
    dic = enumerate_stabilizer_states(1, 2)
    builds = []
    real = measures._pauli_coordinates

    def count_dictionary_builds(V, n):
        if V is dic.states:
            builds.append(V)
        return real(V, n)

    monkeypatch.setattr(measures, "_pauli_coordinates", count_dictionary_builds)
    first = free_robustness(golden, dic)
    second = free_robustness(np.eye(2, dtype=complex) / 2, dic)
    assert len(builds) == 1
    assert abs(first.r - GOLDEN_R) < 1e-7 and second.r < 1e-9
    rows, _ = dic._robustness_rows
    assert not rows.flags.writeable


@pytest.mark.parametrize("n, d", [(1, 2), (2, 2), (3, 2), (1, 3), (2, 3)])
def test_coordinate_maps_match_dense_oracles(n, d):
    rng = np.random.default_rng(10 * d + n)
    V = rng.normal(size=(d**n, 4)) + 1j * rng.normal(size=(d**n, 4))
    got = measures._coordinates(V, n, d)
    labels = measures._coordinate_labels(n, d)
    if d == 2:
        paulis = list(_dense_paulis(n))
        assert got.shape == (len(paulis), 4) and len(labels) == len(paulis)
        for row, label, (xs, zs, P) in zip(got, labels, paulis):
            assert np.max(np.abs(row - np.einsum("ik,ij,jk->k", V.conj(), P, V).real)) < 1e-12
            op = hermitian_pauli(n, xs, zs)
            assert np.max(np.abs(op.dense() - P)) < 1e-12
            assert label == pauli_to_string(op)
        return
    dim = d**n
    entries = [("re", i, i) for i in range(dim)]
    entries += [(p, i, j) for i in range(dim) for j in range(i + 1, dim) for p in ("re", "im")]
    assert got.shape == (dim * dim, 4) and len(labels) == dim * dim
    for row, label, (part, i, j) in zip(got, labels, entries):
        outer = np.array([np.outer(v, v.conj())[i, j] for v in V.T])
        want = outer.real if part == "re" else outer.imag
        assert np.max(np.abs(row - want)) < 1e-12
        assert label == f"{part}[{i},{j}]"


def test_free_robustness_witness_contract(dict2_1, golden):
    res = free_robustness(golden, dict2_1)
    assert res.diagnostics["witness_max_abs"] <= 1 + 1e-7
    assert abs(res.diagnostics["witness_value"] - res.l1) < 1e-7
    assert res.diagnostics["duality_gap"] < 1e-8


def test_free_robustness_faithful(dict2_1, dict2_2):
    assert free_robustness(np.eye(2, dtype=complex) / 2, dict2_1).r < 1e-9
    psi = dict2_2.state(33)
    assert free_robustness(psi, dict2_2).r < 1e-9


def test_free_robustness_mixed_random_oracle(dict2_1):
    rng = np.random.default_rng(5)
    M = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho = M @ M.conj().T
    rho /= np.trace(rho).real
    res = free_robustness(rho, dict2_1)
    A, b = _dense_pauli_lp(dict2_1, rho)
    assert abs(_l1_vertex_oracle(A, b) - res.l1) < 1e-7


def test_pseudomixture_reconstruction(dict2_2):
    rng = np.random.default_rng(6)
    psi = random_state(4, rng)
    res = free_robustness(psi, dict2_2)
    rec = np.zeros((4, 4), dtype=complex)
    for j, c in res.pseudomixture:
        phi = dict2_2.state(j)
        rec += c * np.outer(phi, phi.conj())
    assert np.max(np.abs(rec - np.outer(psi, psi.conj()))) < 1e-8
    assert abs(sum(abs(c) for _, c in res.pseudomixture) - (1 + 2 * res.r)) < 1e-8


def test_ccz_anchors(dict2_3, ccz_state):
    value, _ = dmin(ccz_state, dict2_3)
    assert abs(value - math.log2(16 / 9)) < 1e-12
    assert abs(2.0**-value - 9 / 16) < 1e-12  # best overlap squared
    res = extent(ccz_state, dict2_3)
    assert abs(res.xi - 16 / 9) < 1e-5
    assert abs(res.dmax - value) < 1e-5  # dmax = dmin for this state


def test_consistency_chain_random_states(dict2_1, dict2_2):
    rng = np.random.default_rng(7)
    for dic in (dict2_1, dict2_2):
        for _ in range(3):
            psi = random_state(2**dic.n, rng)
            rep = magic_report(psi, dic)
            tol = TOLERANCES["chain"]
            assert rep.dmin <= rep.dmax + tol
            assert rep.dmax <= rep.lr + tol
            assert rep.dmax <= dic.n + tol  # coherence cap per instance


def test_clifford_invariance_of_dmin(dict2_2, single_qubit_cliffords, golden):
    rng = np.random.default_rng(8)
    psi = np.kron(golden, random_state(2, rng))
    base, _ = dmin(psi, dict2_2)
    for _ in range(6):
        U1 = single_qubit_cliffords[rng.integers(0, 24)]
        U2 = single_qubit_cliffords[rng.integers(0, 24)]
        pushed = np.kron(U2, U1) @ psi  # site 1 is the least significant digit
        value, _ = dmin(pushed, dict2_2)
        assert abs(value - base) < 1e-10


@pytest.mark.parametrize("n", [2, 3])
def test_entangling_clifford_invariance_of_dmin(request, n):
    # H/S/CZ/CNOT words permute the dictionary, so dmin is unchanged and the
    # returned state attains 2^-dmin on the image, pure and mixed alike
    dic = request.getfixturevalue(f"dict2_{n}")
    rng = np.random.default_rng(60 + n)
    M = rng.normal(size=(2**n, 2)) + 1j * rng.normal(size=(2**n, 2))
    rho = M @ M.conj().T
    for state in (random_state(2**n, rng), rho / np.trace(rho).real):
        base, _ = dmin(state, dic)
        for word in range(3):
            U = _random_clifford(n, 10 * n + word)
            if state.ndim == 1:
                pushed = U @ state
                support = pushed[:, None]
            else:
                pushed = U @ state @ U.conj().T
                vals, vecs = np.linalg.eigh(pushed)
                support = vecs[:, vals > 1e-12]
            value, best = dmin(pushed, dic)
            assert abs(value - base) < 1e-10
            attained = np.sum(np.abs(support.conj().T @ dic.state(best)) ** 2)
            assert abs(attained - 2.0**-value) < 1e-10


def test_dmin_rejects_non_hermitian_density_matrix(dict2_1):
    # eigh reads one triangle, so this matrix used to pass as rank 2 (dmin 0)
    bad = np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex)
    with pytest.raises(ValueError, match="Hermitian"):
        dmin(bad, dict2_1)
    with pytest.raises(ValueError, match="Hermitian"):
        free_robustness(bad, dict2_1)
    # within 1e-10 of Hermitian is accepted
    rho = np.diag([1.0, 0.0]).astype(complex)
    rho[0, 1] = 1e-12
    assert abs(dmin(rho, dict2_1)[0]) < 1e-9


def test_robustness_bound_check(dict2_1, dict2_2):
    # R(rho) <= sqrt(2^n (2^n + 1)): sqrt(6) for one qubit, sqrt(20) for two
    rng = np.random.default_rng(9)
    for dic in (dict2_1, dict2_2):
        dim = 2**dic.n
        r = free_robustness(random_state(dim, rng), dic).r
        assert r <= math.sqrt(dim * (dim + 1)) + 1e-9


def test_stab_rank_bound_values(dict2_1, golden):
    psi = dict2_1.state(2)
    assert stab_rank_bound(psi, dict2_1, 0.1, xi=1.0) == pytest.approx(101.0)
    assert stab_rank_bound(psi, dict2_1, 0.1, xi=16 / 9) == pytest.approx(
        1 + (16 / 9) / 0.01
    )
    assert stab_rank_bound(golden, dict2_1, 0.5) == pytest.approx(6.0718, abs=1e-3)
    with pytest.raises(ValueError):
        stab_rank_bound(psi, dict2_1, 1.5)


def test_magic_report_json_round_trip(dict2_1, golden):
    rep = magic_report(golden, dict2_1)
    payload = json.loads(rep.to_json())
    assert payload["n"] == 1 and payload["d"] == 2
    assert abs(payload["dmin"] - GOLDEN_DMIN) < 1e-9
    assert payload["tolerances"]["bp_gap"] == 1e-9
    assert payload["version"]


def test_dimension_mismatch_rejected(dict2_1):
    with pytest.raises(ValueError):
        dmin(np.zeros(4, dtype=complex), dict2_1)


def test_dmin_rejects_unnormalised_states(dict2_2, golden):
    psi = np.kron(golden, golden)
    # every measure runs the same check: without it, extent(2 psi) is 4 xi
    for measure in (dmin, extent, free_robustness):
        with pytest.raises(ValueError, match="unit norm"):
            measure(2 * psi, dict2_2)
    rho = np.outer(psi, psi.conj())
    for measure in (dmin, free_robustness):
        with pytest.raises(ValueError, match="unit trace"):
            measure(2 * rho, dict2_2)
    # within 1e-9 of unit norm / trace is accepted
    assert abs(dmin((1 + 1e-10) * psi, dict2_2)[0] - 2 * GOLDEN_DMIN) < 1e-9
    assert abs(dmin((1 + 1e-10) * rho, dict2_2)[0] - 2 * GOLDEN_DMIN) < 1e-9


# l1 = 1 + 2R of each state of _pinned_states(), taken with the dense tableau
# simplex that the revised simplex replaced
PINNED_L1 = [
    2.122664321762553,
    2.4880944197950727,
    2.36610634498172,
    2.2315310588040482,
    2.3414331952659717,
    2.40352621280055,
    3.913118166201939,
    4.48578194870418,
    4.620263234422479,
    4.002628502730676,
    1.469002179589714,
    1.5470621090566046,
]


def _pinned_states():
    """(state, n, d): six depolarized 3-qubit states, four 2-qutrit and two
    single-qubit pure states."""
    rng = np.random.default_rng(2020)
    out = []
    for _ in range(6):
        v = random_state(8, rng)
        p = rng.uniform(0.05, 0.3)
        out.append(((1 - p) * np.outer(v, v.conj()) + p * np.eye(8) / 8, 3, 2))
    out += [(random_state(9, rng), 2, 3) for _ in range(4)]
    out += [(random_state(2, rng), 1, 2) for _ in range(2)]
    return out


_SITE = {
    "I": np.eye(2),
    "X": np.array([[0, 1], [1, 0]]),
    "Y": np.array([[0, -1j], [1j, 0]]),
    "Z": np.diag([1, -1]),
}


def _witness_operator(witness, n, d):
    """The witness sum_k y_k B_k as a matrix, built from its labels with
    Kronecker products (qubits) or matrix units (Hermitian entries), not
    through the LP's constraint rows."""
    dim = d**n
    W = np.zeros((dim, dim), dtype=complex)
    for label, y in witness:
        if d == 2:
            sign = -1.0 if label[0] == "-" else 1.0
            mats = [_SITE[ch] for ch in label.lstrip("+-")]
            W += y * sign * reduce(lambda acc, m: np.kron(m, acc), mats)
            continue
        i, j = (int(v) for v in label[3:-1].split(","))
        if i == j:
            W[i, i] += y
        elif label.startswith("re"):
            W[i, j] += y / 2
            W[j, i] += y / 2
        else:
            W[i, j] += 1j * y / 2
            W[j, i] -= 1j * y / 2
    return W


@pytest.mark.parametrize("k", range(len(PINNED_L1)))
def test_free_robustness_pinned_certificate(k, dict2_1, dict2_3, dict3_2):
    state, n, d = _pinned_states()[k]
    dic = {(1, 2): dict2_1, (3, 2): dict2_3, (2, 3): dict3_2}[(n, d)]
    res = free_robustness(state, dic)
    assert abs(res.l1 - PINNED_L1[k]) < 1e-10
    diag = res.diagnostics
    assert diag["witness_max_abs"] <= 1 + 1e-9
    assert diag["duality_gap"] < 1e-8
    assert abs(diag["witness_value"] - res.l1) <= 1e-8 * res.l1
    assert diag["reconstruction_error"] <= 1e-8
    # the same certificate, re-derived over the full dictionary
    W = _witness_operator(res.witness, n, d)
    D = dic.states
    tr_phi_w = np.real(np.einsum("ij,ij->j", D.conj(), W @ D))
    assert np.max(np.abs(tr_phi_w)) <= 1 + 1e-9
    rho = state if state.ndim == 2 else np.outer(state, state.conj())
    assert abs(np.real(np.trace(rho @ W)) - res.l1) <= 1e-8 * res.l1


def test_free_robustness_leaves_scipy_optimize_unloaded():
    paths = [str(Path(magiclab.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    code = (
        "import sys\n"
        "from magiclab.measures import free_robustness, golden_state\n"
        "from magiclab.stabdict import enumerate_stabilizer_states\n"
        "free_robustness(golden_state(), enumerate_stabilizer_states(1, 2))\n"
        "print('scipy.optimize' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


CCZ_CLASS = [
    "x1*x2*x3 + x1",
    "x1*x2*x3 + x2 + x3",
    "x1*x2*x3 + x1*x2",
    "x1*x2*x3 + x1*x3 + x2",
    "x1*x2*x3 + x2*x3 + x1 + x3",
    "x1*x2*x3 + x1*x2 + x1*x3 + x2*x3",
    "x1*x2*x3 + x1*x2 + x2*x3 + x1 + x2",
    "x1*x2*x3 + x1*x2 + x1*x3 + x2*x3 + x1 + x2 + x3",
]


@pytest.mark.parametrize("anf", CCZ_CLASS)
def test_ccz_class_robustness_closed_form(anf, dict2_3):
    # a diagonal quadratic phase is Clifford, so every x1x2x3 + q(x) has
    # CCZ's l1 = 1 + 2R = 23/9, the 2.5556 of Howard & Campbell
    res = free_robustness(hypergraph_state(parse_anf(anf)), dict2_3)
    assert abs(res.l1 - 23 / 9) < 1e-9


# pivots the eight CCZ_CLASS LPs take together when the simplex starts cold
# from artificials (phase 1 and phase 2)
CCZ_CLASS_COLD_PIVOTS = 6188


def test_ccz_class_robustness_pivot_budget(dict2_3):
    pivots = sum(
        free_robustness(hypergraph_state(parse_anf(anf)), dict2_3).diagnostics["iterations"]
        for anf in CCZ_CLASS
    )
    assert pivots < CCZ_CLASS_COLD_PIVOTS


def _random_mixed_state(n, seed):
    rng = np.random.default_rng(seed)
    M = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
    rho = M @ M.conj().T
    return rho / np.trace(rho).real


@pytest.mark.parametrize("n, seed", [(2, 41), (2, 42), (3, 43), (3, 44)])
def test_free_robustness_clifford_invariance(request, n, seed):
    # l1 is invariant under Cliffords, which permute the dictionary; the
    # image starts the simplex from a different crash basis
    dic = request.getfixturevalue(f"dict2_{n}")
    rho = _random_mixed_state(n, seed)
    want = free_robustness(rho, dic).l1
    for word in range(2):
        U = _random_clifford(n, 100 * seed + word)
        assert abs(free_robustness(U @ rho @ U.conj().T, dic).l1 - want) < 1e-9
