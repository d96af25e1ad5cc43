from functools import lru_cache, reduce

import numpy as np
import pytest

from magiclab.binlin import IRREDUCIBLE_POLY
from magiclab.boolfn import BooleanFunction, hypergraph_state, parse_anf, quadratic_basis
from magiclab.measures import golden_state
from magiclab.pauli import weyl_operator
from magiclab.stabdict import enumerate_stabilizer_states


@pytest.fixture(scope="session")
def dict2_1():
    return enumerate_stabilizer_states(1, 2)


@pytest.fixture(scope="session")
def dict2_2():
    return enumerate_stabilizer_states(2, 2)


@pytest.fixture(scope="session")
def dict2_3():
    return enumerate_stabilizer_states(3, 2)


@pytest.fixture(scope="session")
def dict2_4():
    return enumerate_stabilizer_states(4, 2)


@pytest.fixture(scope="session")
def dict2_5():
    """All 2,423,520 five-qubit states: 7.3 MB of group tables, built once."""
    return enumerate_stabilizer_states(5, 2)


@pytest.fixture(scope="session")
def dict3_1():
    return enumerate_stabilizer_states(1, 3)


@pytest.fixture(scope="session")
def dict3_2():
    return enumerate_stabilizer_states(2, 3)


@pytest.fixture(scope="session")
def dict3_3():
    return enumerate_stabilizer_states(3, 3)


@pytest.fixture(scope="session")
def golden():
    return golden_state()


@pytest.fixture(scope="session")
def ccz_state():
    return hypergraph_state(parse_anf("x1*x2*x3"))


@pytest.fixture(scope="session")
def single_qubit_cliffords():
    """The 24 single-qubit Clifford unitaries (up to global phase)."""
    H = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    S = np.diag([1, 1j])
    seen = {}
    frontier = [np.eye(2, dtype=complex)]
    while frontier:
        U = frontier.pop()
        # phase-canonical key: first significant entry made real positive
        flat = U.flatten()
        pivot = flat[np.argmax(np.abs(flat) > 1e-9)]
        key = tuple(np.round(flat / (pivot / abs(pivot)), 9))
        if key in seen:
            continue
        seen[key] = U
        frontier.extend([U @ H, U @ S])
    assert len(seen) == 24
    return list(seen.values())


def random_state(dim: int, rng) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def operator_stack(rng, n: int, d: int) -> np.ndarray:
    """(d^n, d^n, 6) stack: five rank-1 projectors of random vectors, then a
    rank-2 Hermitian operator for qubits (their coordinate rows keep the real
    part, exact only for Hermitian r) or an arbitrary complex one for
    qutrits."""
    dim = d**n
    V = rng.normal(size=(dim, 5)) + 1j * rng.normal(size=(dim, 5))
    M = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    if d == 2:
        M = M[:, :2] @ np.diag([0.7, -1.3]) @ M[:, :2].conj().T
    return np.concatenate([V[:, None] * V.conj(), M[:, :, None]], axis=2)


def quadratic_states(n: int):
    """Hypergraph states of every degree <= 2 function with no constant term
    (the constant only flips the global sign): one per ray, 2^(n + C(n,2)) in
    all.  Returns (functions, (2^n, count) states)."""
    basis = quadratic_basis(n)[1:]
    functions = [
        BooleanFunction(n, frozenset(m for i, m in enumerate(basis) if bits >> i & 1))
        for bits in range(1 << len(basis))
    ]
    return functions, np.column_stack([hypergraph_state(f) for f in functions])


# --- dense phase-point operators: the oracle for the qutrit Wigner function --

def point_index(u: tuple[int, ...]) -> int:
    """Flat index sum_s (a1_s + 3 a2_s) 9^s of the phase-space point u."""
    n = len(u) // 2
    return sum((u[2 * s] + 3 * u[2 * s + 1]) * 9**s for s in range(n))


@lru_cache(maxsize=None)
def _single_site_points() -> dict[tuple[int, int], np.ndarray]:
    a0 = sum(weyl_operator(1, (a1,), (a2,)).dense() for a1 in range(3) for a2 in range(3)) / 3
    points = {}
    for a1 in range(3):
        for a2 in range(3):
            T = weyl_operator(1, (a1,), (a2,)).dense()
            points[(a1, a2)] = T @ a0 @ T.conj().T
    return points


def phase_point_operator(u: tuple[int, ...], n: int) -> np.ndarray:
    """Hermitian, trace-one A_u as a tensor product of single-site operators:
    A_0 averages the displacements T_u and A_u = T_u A_0 T_u^{-1}."""
    assert len(u) == 2 * n, "a point supplies (a1, a2) for every site"
    singles = _single_site_points()
    sites = [singles[(u[2 * s], u[2 * s + 1])] for s in range(n)]
    # site 1 is the least significant index digit, so it sits rightmost in kron
    return reduce(lambda acc, s: np.kron(s, acc), sites)


# --- scalar GF(2^m) arithmetic: the oracle for the library's log tables ------

def gf_mul(a: int, b: int, m: int) -> int:
    """Product in GF(2^m) by shift-and-add modulo ``IRREDUCIBLE_POLY[m]``."""
    mod, out = IRREDUCIBLE_POLY[m], 0
    while b:
        if b & 1:
            out ^= a
        b >>= 1
        a <<= 1
        if a >> m:
            a ^= mod
    return out


def gf_pow(a: int, e: int, m: int) -> int:
    """a**e by square-and-multiply; a**0 is 1."""
    out = 1
    while e:
        if e & 1:
            out = gf_mul(out, a, m)
        a = gf_mul(a, a, m)
        e >>= 1
    return out


def gf_trace(a: int, m: int) -> int:
    """Field trace: the XOR of the Frobenius orbit a, a^2, ..., a^(2^(m-1))."""
    acc = 0
    for _ in range(m):
        acc ^= a
        a = gf_mul(a, a, m)
    assert acc in (0, 1), "the trace must land in GF(2)"
    return acc
