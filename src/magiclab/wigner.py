"""Discrete Wigner function for qutrit systems, negativity, and mana.

Phase space is (Z_3 x Z_3)^n.  A point is a tuple (a1_1, a2_1, ..., a1_n,
a2_n) of Z and X exponents per site; its flat index is
sum_s (a1_s + 3 a2_s) * 9^s (site 1 least significant).

W is one Fourier transform of rho's entries along its anti-diagonals
(Gross, quant-ph/0602001):

    W(a1, a2) = 3^-n sum_x omega^(a1.x) rho[a2 + x, a2 - x],

with a1, a2 and x read as little-endian integers in base 3 and vector
arithmetic mod 3.  That is one gather of rho and one 3^n x 3^n product with
the character table, after which W(a1, a2) goes to flat index
spread(a1) + 3 spread(a2), where spread(a) reads a's base-3 digits in base
9.  W is real: for Hermitian rho the terms of x and -x are complex
conjugates.  It equals Tr(A_u rho) / 3^n for the point operators of
the displacement operators T_u with the half-power phase convention
(inverse of 2 mod 3): A_0 averages all T_u and A_u = T_u A_0 T_u^{-1}.  The
map is a bijection onto normalized real functions, pure stabilizer states
are exactly the pure states with non-negative W, negative mass
lower-bounds the free robustness, and mana log2(2N + 1) sits below LR + 1.
The 9^n values are at most MAX_ENTRIES: up to n = 7 qutrits.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .measures import TOLERANCES, _checked_state, free_robustness
from .pauli import _digits
from .stabdict import StabilizerDictionary, _check_size, _tables

D = 3


def phase_space_points(n: int):
    """All 9^n points in flat-index order: the k-th point has flat index k."""
    # the last digit varies fastest; reversed, it is a1 of site 1
    for digits in itertools.product(range(3), repeat=2 * n):
        yield digits[::-1]


@dataclass
class WignerFunction:
    n: int
    values: np.ndarray  # length 9^n, flat-index order

    def __post_init__(self):
        total = float(np.sum(self.values))
        if not abs(total - 1.0) <= 1e-10:
            raise ValueError(f"Wigner function sums to {total}, not 1")


def wigner_function(rho: np.ndarray) -> WignerFunction:
    """W of a state vector v (rho = |v><v|) or a density matrix rho, checked
    as ``measures._checked_state`` describes."""
    rho = np.asarray(rho, dtype=complex)
    dim = rho.shape[0] if rho.ndim else 1
    if dim < D:
        raise ValueError(f"a state of shape {rho.shape} has dimension {dim}, not 3^n with n >= 1")
    n = round(math.log(dim, D))
    if D**n != dim:
        raise ValueError("dimension is not a power of 3")
    _check_size(n, lambda: dim * dim, f"the Wigner function of n={n} qutrits exceeds 2^24 values")
    rho = _checked_state(rho, dim)
    if rho.ndim == 1:
        rho = np.outer(rho, rho.conj())
    add, neg, _, char = _tables(n, D)
    # rho[add, add[neg]][x, a2] = rho[a2 + x, a2 - x]
    w = char @ rho[add, add[neg]] / D**n  # w[a1, a2]
    if not np.abs(w.imag).max() <= 1e-10:
        raise ValueError("Wigner value acquired an imaginary part")
    digits, place = _digits(n, D)
    spread = digits @ place**2  # a's base-3 digits read in base 9
    values = np.empty(dim * dim)
    values[spread[:, None] + D * spread] = w.real
    return WignerFunction(n, values)


def sum_negativity(W: WignerFunction) -> float:
    """Total negative mass sum_{W<0} |W|."""
    return float(np.sum(-W.values[W.values < 0.0]))


def mana(W: WignerFunction) -> float:
    """log2(2 * negativity + 1) = log2 of the l1 mass; zero iff W >= 0."""
    return math.log2(2.0 * sum_negativity(W) + 1.0)


def mana_lr_check(
    state: np.ndarray, dic: StabilizerDictionary
) -> tuple[bool, float, float]:
    """Mana sits strictly below LR + 1.  The robustness LP runs first, so a
    dictionary past its size limit is refused before the transform."""
    if dic.d != D:
        raise ValueError("check needs a qutrit dictionary")
    lr = free_robustness(state, dic).lr
    m = mana(wigner_function(state))
    return m < lr + 1.0 + TOLERANCES["chain"], m, lr


def wigner_csv(W: WignerFunction) -> str:
    """CSV dump: flat index, per-site (a1, a2) pairs, value."""
    header_sites = ",".join(f"a1_{s + 1},a2_{s + 1}" for s in range(W.n))
    lines = [f"index,{header_sites},value"]
    for i, u in enumerate(phase_space_points(W.n)):
        lines.append(f"{i}," + ",".join(str(v) for v in u) + f",{float(W.values[i])!r}")
    return "\n".join(lines) + "\n"
