"""Discrete Wigner function for qutrit systems, negativity, and mana.

Phase space is (Z_3 x Z_3)^n.  A point is a tuple (a1_1, a2_1, ..., a1_n,
a2_n) of Z and X exponents per site; its flat index is
sum_s (a1_s + 3 a2_s) * 9^s (site 1 least significant).

The point operators derive from the displacement operators T_u with the
half-power phase convention (inverse of 2 mod 3): A_0 averages all T_u and
A_u = T_u A_0 T_u^{-1}.  The map rho -> W_rho(u) = Tr(A_u rho) / 3^n is a
bijection onto normalized real functions, pure stabilizer states are exactly
the pure states with non-negative W, negative mass lower-bounds the free
robustness, and mana log2(2N + 1) sits below LR + 1.
"""

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .measures import TOLERANCES, free_robustness
from .pauli import weyl_operator
from .stabdict import StabilizerDictionary

D = 3


@lru_cache(maxsize=None)
def _single_site_points() -> dict[tuple[int, int], np.ndarray]:
    a0 = np.zeros((3, 3), dtype=complex)
    for a1 in range(3):
        for a2 in range(3):
            a0 += weyl_operator(1, (a1,), (a2,)).dense()
    a0 /= 3.0
    points = {}
    for a1 in range(3):
        for a2 in range(3):
            T = weyl_operator(1, (a1,), (a2,)).dense()
            points[(a1, a2)] = T @ a0 @ T.conj().T
    return points


def phase_space_points(n: int):
    """All 9^n points in flat-index order."""
    # the last digit varies fastest; reversed, it is a1 of site 1
    for digits in itertools.product(range(3), repeat=2 * n):
        yield digits[::-1]


def point_index(u: tuple[int, ...]) -> int:
    n = len(u) // 2
    return sum((u[2 * s] + 3 * u[2 * s + 1]) * 9**s for s in range(n))


def phase_point_operator(u: tuple[int, ...], n: int) -> np.ndarray:
    """Hermitian, trace-one A_u as a tensor product of single-site operators."""
    if len(u) != 2 * n:
        raise ValueError("point must supply (a1, a2) for every site")
    if any(not 0 <= v < 3 for v in u):
        raise ValueError("point components must lie in Z_3")
    if n > 3:
        raise ValueError("dense point operators are limited to n <= 3")
    singles = _single_site_points()
    sites = [singles[(u[2 * s], u[2 * s + 1])] for s in range(n)]
    # site 1 is the least significant index digit, so it sits rightmost in kron
    return reduce(lambda acc, s: np.kron(s, acc), sites)


@lru_cache(maxsize=None)
def _point_stack(n: int) -> np.ndarray:
    """Every A_u in flat-index order, shape (9^n, 3^n, 3^n); read-only.
    Built on first use, as n = 3 takes 8.5 MB (n = 4 is refused)."""
    stack = np.array([phase_point_operator(u, n) for u in phase_space_points(n)])
    stack.flags.writeable = False
    return stack


@dataclass
class WignerFunction:
    n: int
    values: np.ndarray  # length 9^n, flat-index order

    def __post_init__(self):
        total = float(np.sum(self.values))
        if abs(total - 1.0) > 1e-10:
            raise ValueError(f"Wigner function sums to {total}, not 1")


def wigner_function(rho: np.ndarray) -> WignerFunction:
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim == 1:
        rho = np.outer(rho, rho.conj())
    if not np.allclose(rho, rho.conj().T, atol=1e-10):
        raise ValueError("input must be Hermitian")
    dim = rho.shape[0]
    n = round(math.log(dim, D))
    if D**n != dim:
        raise ValueError("dimension is not a power of 3")
    values = np.einsum("kij,ji->k", _point_stack(n), rho) / D**n  # Tr(A_u rho) / 3^n
    if np.abs(values.imag).max() > 1e-10:
        raise ValueError("Wigner value acquired an imaginary part")
    return WignerFunction(n, values.real.copy())


def sum_negativity(W: WignerFunction) -> float:
    """Total negative mass sum_{W<0} |W|."""
    return float(-np.sum(W.values[W.values < 0.0]))


def mana(W: WignerFunction) -> float:
    """log2(2 * negativity + 1) = log2 of the l1 mass; zero iff W >= 0."""
    return math.log2(2.0 * sum_negativity(W) + 1.0)


def mana_lr_check(
    state: np.ndarray, dic: StabilizerDictionary
) -> tuple[bool, float, float]:
    """Mana sits strictly below LR + 1."""
    if dic.d != D:
        raise ValueError("check needs a qutrit dictionary")
    W = wigner_function(state)
    m = mana(W)
    rob = free_robustness(state, dic)
    return m < rob.lr + 1.0 + TOLERANCES["chain"], m, rob.lr


def wigner_csv(W: WignerFunction) -> str:
    """CSV dump: flat index, per-site (a1, a2) pairs, value."""
    header_sites = ",".join(f"a1_{s + 1},a2_{s + 1}" for s in range(W.n))
    lines = [f"index,{header_sites},value"]
    for u in phase_space_points(W.n):
        i = point_index(u)
        lines.append(f"{i}," + ",".join(str(v) for v in u) + f",{W.values[i]!r}")
    return "\n".join(lines) + "\n"
