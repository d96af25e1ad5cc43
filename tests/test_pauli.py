import itertools
import re

import numpy as np
import pytest

import magiclab
from magiclab import pauli, stabdict
from magiclab.binlin import field_log_tables
from magiclab.pauli import (
    InconsistentTableauError,
    PauliOperator,
    ResourceLimitError,
    StabilizerTableau,
    _commuting,
    _index,
    hermitian_pauli,
    is_hermitian_involution,
    pauli_from_string,
    pauli_to_string,
    tableau_to_state,
    weyl_operator,
)


def test_index_is_the_one_integer_rule():
    # integers come back as Python ints, however large, at or above least
    for value in (3, np.int64(3), np.uint8(3)):
        assert type(_index(value, "k")) is int and _index(value, "k") == 3
    assert _index(2**200, "k", 0) == 2**200
    assert _index(2, "k", 2) == 2 and _index(-5, "k") == -5
    # a bool is not a count, and no float or string is read as one
    for value, shown in ((True, "True"), (np.True_, "np.True_"), (2.0, "2.0"), ("2", "'2'"),
                         (None, "None"), (np.float64(1.0), "np.float64(1.0)")):
        with pytest.raises(ValueError, match=rf"^k takes integers only, got {re.escape(shown)}$"):
            _index(value, "k", 0)
    # one message below least, the value as a Python int
    with pytest.raises(ValueError, match=r"^need k >= 2, got 1$"):
        _index(np.int64(1), "k", 2)
    with pytest.raises(ValueError, match=r"^need k >= 0, got -1$"):
        _index(-1, "k", 0)


def test_commutation_examples():
    X1 = pauli_from_string("XI")
    X2 = pauli_from_string("IX")
    assert _commuting([X1, X2], 2, 2)
    assert not _commuting([pauli_from_string("X"), pauli_from_string("Z")], 1, 2)
    assert _commuting([pauli_from_string("XX"), pauli_from_string("ZZ")], 2, 2)
    # one anticommuting pair among several fails the whole set
    assert not _commuting([pauli_from_string(s) for s in ("XX", "ZZ", "ZI")], 2, 2)
    # qutrits: X Z^2 and X Z commute only up to omega
    assert not _commuting([weyl_operator(1, [2], [1]), weyl_operator(1, [1], [1])], 1, 3)
    assert _commuting([weyl_operator(1, [1], [1]), weyl_operator(1, [2], [2])], 1, 3)


def test_commutation_dimension_mismatch():
    with pytest.raises(ValueError, match=r"\(n, d\) = \(1, 2\)"):
        _commuting([pauli_from_string("X"), pauli_from_string("XX")], 1, 2)
    with pytest.raises(ValueError):
        _commuting([pauli_from_string("X"), weyl_operator(1, [1], [0])], 1, 2)


def test_apply_is_exact_for_qubits():
    # the phases come from the exact zeta table: Y|0> = i|1> with no 6e-17 real part
    out = pauli_from_string("Y").apply(np.array([1, 0], dtype=complex))
    assert np.array_equal(out.real, [0, 0]) and np.array_equal(out.imag, [0, 1])
    out = pauli_from_string("-iYZ").apply(np.eye(4, dtype=complex))
    assert set(np.unique(out.real)) | set(np.unique(out.imag)) <= {-1.0, 0.0, 1.0}


def test_string_round_trip_qubits():
    for text in ("+XIZ", "-iYY", "IZ", "-XY", "+iZZI"):
        P = pauli_from_string(text)
        assert pauli_from_string(pauli_to_string(P)) == P


def test_string_form_qutrits():
    # omega^k Z^z X^x is written wk then XxZz per site, with 2k = t + 2 x.z mod 6
    cases = [
        (PauliOperator(1, 3, (2,), (1,), 2), "X2Z1"),
        (PauliOperator(2, 3, (1, 0), (0, 2), 2), "w1X1Z0X0Z2"),
        (PauliOperator(1, 3, (0,), (1,), 4), "w2X0Z1"),
        (weyl_operator(1, (1,), (1,)), "w2X1Z1"),
    ]
    for P, text in cases:
        assert pauli_to_string(P) == text


def test_qubit_matrices():
    X = pauli_from_string("X").dense()
    Y = pauli_from_string("Y").dense()
    Z = pauli_from_string("Z").dense()
    assert np.allclose(X, [[0, 1], [1, 0]])
    assert np.allclose(Y, [[0, -1j], [1j, 0]])
    assert np.allclose(Z, [[1, 0], [0, -1]])


def test_weyl_phase_convention():
    # Z-displacement with no X component carries no phase twist
    Z = weyl_operator(1, (1,), (0,))
    omega = np.exp(2j * np.pi / 3)
    assert np.allclose(Z.dense(), np.diag([1, omega, omega**2]))
    # group law T_u T_v = omega^{<u,v>/2} T_{u+v} on commuting pairs
    T1 = weyl_operator(1, (1,), (1,))
    assert np.allclose(T1.dense() @ T1.dense(), weyl_operator(1, (2,), (2,)).dense())


def test_hermitian_involution_flags():
    assert is_hermitian_involution(pauli_from_string("Y"))
    assert is_hermitian_involution(hermitian_pauli(2, (1, 0), (1, 1)))
    assert not is_hermitian_involution(pauli_from_string("iX"))
    assert not is_hermitian_involution(weyl_operator(1, (0,), (1,)))  # qubits only


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda: PauliOperator(1, 5, (0,), (0,), 0), "only d=2 and d=3", id="d5"),
        pytest.param(lambda: PauliOperator(2, 2, (0,), (0, 0), 0), "must have length n", id="length"),
        pytest.param(lambda: PauliOperator(1, 2, (2,), (0,), 0), "lie in 0..d-1", id="exponent"),
        pytest.param(lambda: PauliOperator(1, 2, (0,), (0,), 4), "phase exponent", id="phase"),
        pytest.param(lambda: pauli_from_string("X").apply(np.ones(4)), "dimension", id="apply"),
        pytest.param(lambda: pauli_from_string("XQ"), "malformed qubit", id="qubit-string"),
        pytest.param(
            lambda: pauli_to_string(PauliOperator(1, 3, (0,), (0,), 1)), "power of omega", id="omega"
        ),
        pytest.param(
            lambda: StabilizerTableau(2, 2, (pauli_from_string("ZI"),)),
            "exactly n generators",
            id="tableau",
        ),
    ],
)
def test_pauli_refusals(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_tableau_basic_states():
    t = StabilizerTableau(2, 2, (pauli_from_string("ZI"), pauli_from_string("IZ")))
    assert np.allclose(tableau_to_state(t), [1, 0, 0, 0])
    t = StabilizerTableau(1, 2, (pauli_from_string("X"),))
    assert np.allclose(tableau_to_state(t), [2**-0.5, 2**-0.5])
    t = StabilizerTableau(2, 2, (pauli_from_string("XX"), pauli_from_string("ZZ")))
    bell = tableau_to_state(t)
    assert np.allclose(bell, [2**-0.5, 0, 0, 2**-0.5])


def test_tableau_eigenequations_random(dict2_3):
    rng = np.random.default_rng(5)
    for i in rng.integers(0, dict2_3.size, 25):
        tab = dict2_3.tableau(int(i))
        psi = tableau_to_state(tab)
        for g in tab.generators:
            assert np.linalg.norm(g.apply(psi) - psi) < 1e-12
        assert abs(np.linalg.norm(psi) - 1) < 1e-12


def test_tableau_rejects_non_commuting():
    with pytest.raises(ValueError):
        StabilizerTableau(2, 2, (pauli_from_string("XI"), pauli_from_string("ZI")))


@pytest.mark.parametrize("d", [2, 3])
def test_tableau_rejects_one_non_commuting_pair(d):
    # Z1, X2 and Z3 commute pairwise; swapping X2 for X1 breaks one pair
    Z1 = PauliOperator(3, d, (0, 0, 0), (1, 0, 0), 0)
    Z3 = PauliOperator(3, d, (0, 0, 0), (0, 0, 1), 0)
    X2 = PauliOperator(3, d, (0, 1, 0), (0, 0, 0), 0)
    X1 = PauliOperator(3, d, (1, 0, 0), (0, 0, 0), 0)
    StabilizerTableau(3, d, (Z1, X2, Z3))
    with pytest.raises(ValueError, match="commute pairwise"):
        StabilizerTableau(3, d, (Z1, X1, Z3))
    # X (x) X and Z (x) Z: symplectic product 2, zero mod 2 but not mod 3
    XX = PauliOperator(2, d, (1, 1), (0, 0), 0)
    ZZ = PauliOperator(2, d, (0, 0), (1, 1), 0)
    if d == 2:
        StabilizerTableau(2, d, (XX, ZZ))
    else:
        with pytest.raises(ValueError, match="commute pairwise"):
            StabilizerTableau(2, d, (XX, ZZ))
        # XXX and ZZZ: product 3, zero mod 3
        XXX = PauliOperator(3, d, (1, 1, 1), (0, 0, 0), 0)
        ZZZ = PauliOperator(3, d, (0, 0, 0), (1, 1, 1), 0)
        StabilizerTableau(3, d, (XXX, ZZZ, PauliOperator(3, d, (0, 0, 0), (1, 2, 0), 0)))


def test_tableau_rejects_minus_identity_group():
    # <iZ> squares to -I
    bad = PauliOperator(1, 2, (0,), (1,), 1)
    with pytest.raises(InconsistentTableauError):
        tableau_to_state(StabilizerTableau(1, 2, (bad,)))
    # qutrit zeta X and zeta Z (zeta = exp(i pi/3)) both cube to -I
    for x, z in (((1,), (0,)), ((0,), (1,))):
        bad = PauliOperator(1, 3, x, z, 1)
        with pytest.raises(InconsistentTableauError):
            tableau_to_state(StabilizerTableau(1, 3, (bad,)))
    # XX and -XX square to I, but their product is -I: no generator is a
    # scalar, and the product of their projectors is zero
    group = StabilizerTableau(2, 2, (pauli_from_string("XX"), pauli_from_string("-XX")))
    with pytest.raises(InconsistentTableauError, match="scalar"):
        tableau_to_state(group)


def test_tableau_rejects_dependent_generators():
    g1 = pauli_from_string("ZI")
    g2 = pauli_from_string("ZI")
    with pytest.raises(InconsistentTableauError):
        tableau_to_state(StabilizerTableau(2, 2, (g1, g2)))


def _product(P, Q):
    """The Pauli operator P Q: the one of the 2d phases on the summed X and Z
    parts whose dense matrix is P.dense() @ Q.dense()."""
    x = tuple((a + b) % P.d for a, b in zip(P.xvec, Q.xvec))
    z = tuple((a + b) % P.d for a, b in zip(P.zvec, Q.zvec))
    target = P.dense() @ Q.dense()
    phased = [PauliOperator(P.n, P.d, x, z, t) for t in range(2 * P.d)]
    (R,) = [R for R in phased if np.allclose(R.dense(), target, atol=1e-12)]
    return R


def test_canonicalization_invariant_under_presentation(dict2_2):
    rng = np.random.default_rng(11)
    for i in rng.integers(0, dict2_2.size, 20):
        tab = dict2_2.tableau(int(i))
        g1, g2 = tab.generators
        # same group, different presentation, same state
        shuffled = StabilizerTableau(2, 2, (g2, _product(g1, g2)))
        assert np.max(np.abs(tableau_to_state(shuffled) - tableau_to_state(tab))) < 1e-12


def _group_vectors(tab):
    """All d^n group elements of a tableau as (x|z) tuples, phases quotiented."""
    M = np.array([g.xvec + g.zvec for g in tab.generators])
    coeffs = np.array(list(itertools.product(range(tab.d), repeat=tab.n)))
    return {tuple(int(t) for t in row) for row in coeffs @ M % tab.d}


def _mub_partition(n):
    """The 2^n + 1 maximal abelian subgroups of the n-qubit Pauli group (mod
    phases), by the field spread: one line per lam in GF(2^n), with X part
    e_i and Z part tr(lam alpha^(i+j)) (the trace-dual basis makes every
    line isotropic), then the Z subgroup.  lam runs over 0, 1, alpha, ..."""
    antilog, _ = field_log_tables(n)
    order = (1 << n) - 1
    k, j = np.arange(order), np.arange(n)
    trace = np.bitwise_xor.reduce([antilog[(k << i) % order] for i in range(n)])
    unit = np.eye(n, dtype=int)
    tableaux = []
    for lam in [None, *range(order)]:  # None is lam = 0, else lam = alpha^lam
        z = [[0] * n if lam is None else trace[(lam + i + j) % order] for i in range(n)]
        gens = (hermitian_pauli(n, unit[i], z[i]) for i in range(n))
        tableaux.append(StabilizerTableau(n, 2, tuple(gens)))
    z_gens = (hermitian_pauli(n, [0] * n, unit[i]) for i in range(n))
    tableaux.append(StabilizerTableau(n, 2, tuple(z_gens)))
    return tableaux


def test_group_vectors_size(dict2_2, dict3_1):
    # a dictionary tableau's generators are independent
    for dic in (dict2_2, dict3_1):
        assert len(_group_vectors(dic.tableau(7))) == dic.d**dic.n


@pytest.mark.parametrize("n", [1, 2, 3])
def test_mub_partition_covers(n):
    # the tableaux accept the spread lines as commuting sets, and the lines
    # partition the Pauli group
    part = _mub_partition(n)
    assert len(part) == 2**n + 1
    seen = set()
    ident = tuple([0] * (2 * n))
    for tab in part:
        group = _group_vectors(tab)
        group.discard(ident)
        assert len(group) == 2**n - 1  # maximal abelian, phases quotiented
        assert not (seen & group)
        seen |= group
    assert len(seen) == 4**n - 1


def test_mub_partition_n1_is_xyz():
    part = _mub_partition(1)
    strings = {pauli_to_string(tab.generators[0]).lstrip("+") for tab in part}
    assert strings == {"X", "Y", "Z"}


def test_mub_states_are_unbiased():
    # joint eigenstates drawn from different subgroups have |<a|b>|^2 = 1/2^n
    for n in (1, 2):
        part = _mub_partition(n)
        states = [tableau_to_state(tab) for tab in part[: 3]]
        for a, b in itertools.combinations(states, 2):
            assert abs(abs(np.vdot(a, b)) ** 2 - 2.0**-n) < 1e-12


def test_apply_matches_dense():
    rng = np.random.default_rng(2)
    for d, n in ((2, 3), (3, 2)):
        x = tuple(int(v) for v in rng.integers(0, d, n))
        z = tuple(int(v) for v in rng.integers(0, d, n))
        P = PauliOperator(n, d, x, z, int(rng.integers(0, 2 * d)))
        v = rng.normal(size=d**n) + 1j * rng.normal(size=d**n)
        assert np.allclose(P.apply(v), P.dense() @ v, atol=1e-12)


class _Allocated(Exception):
    """Raised by a patched allocation: the call got past its size check."""


def _z_tableau(n, d):
    """The tableau of Z on each site: its state is |0...0>."""
    sites = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    return StabilizerTableau(n, d, tuple(PauliOperator(n, d, (0,) * n, z, 0) for z in sites))


def test_dense_pauli_arrays_follow_the_entry_cap(monkeypatch):
    # tableau_to_state's projector and dense()'s matrix hold d^2n entries and
    # apply's digit table n d^n, each at most MAX_ENTRIES = 2^24: the largest
    # n that fits reaches the allocation, patched to raise, and the next is
    # refused before it
    assert stabdict.MAX_ENTRIES == pauli.MAX_ENTRIES == 2**24
    assert stabdict.ResourceLimitError is magiclab.ResourceLimitError is ResourceLimitError

    def allocate(*args, **kwargs):
        raise _Allocated

    monkeypatch.setattr(np, "eye", allocate)
    monkeypatch.setattr(pauli, "_digits", allocate)
    for d, fits in ((2, 12), (3, 7)):
        with pytest.raises(_Allocated):
            tableau_to_state(_z_tableau(fits, d))
        message = rf"^projector of n={fits + 1}, d={d} exceeds 2\^24 entries$"
        with pytest.raises(ResourceLimitError, match=message):
            tableau_to_state(_z_tableau(fits + 1, d))
        fit, over = (PauliOperator(n, d, (0,) * n, (0,) * n, 0) for n in (fits, fits + 1))
        with pytest.raises(_Allocated):
            fit.dense()
        message = rf"^matrix of n={fits + 1}, d={d} exceeds 2\^24 entries$"
        with pytest.raises(ResourceLimitError, match=message):
            over.dense()
    for d, fits in ((2, 19), (3, 12)):
        # each state is a read-only view of one zero: it allocates nothing
        fit, over = (PauliOperator(n, d, (0,) * n, (0,) * n, 0) for n in (fits, fits + 1))
        with pytest.raises(_Allocated):
            fit.apply(np.broadcast_to(0j, (d**fits,)))
        message = rf"^digit table of n={fits + 1}, d={d} exceeds 2\^24 entries$"
        with pytest.raises(ResourceLimitError, match=message):
            over.apply(np.broadcast_to(0j, (d ** (fits + 1),)))
