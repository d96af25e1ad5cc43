"""Boolean functions in ANF, hypergraph states, and nonquadraticity.

Truth tables are packed into Python ints: bit x of the table is f(x), where
input bit i of x is variable x_{i+1} (LSB-first, matching basis-state
indexing).  Degree <= 2 functions are exactly the codewords of the
second-order Reed-Muller code RM(2, n).
"""

import math
import re
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .binlin import field_log_tables
from .pauli import _index
from .stabdict import _check_size, _tables


def _moebius(n: int, table: int) -> int:
    """GF(2) Moebius transform of a packed 2^n-bit table, its own inverse: bit x
    of the result is the XOR of the table's bits at the subsets of x, so it
    takes an ANF indicator (bit m for each monomial, m its variable mask) to
    the truth table and back.  For each variable i, the bits of the inputs
    without x_i (2^i ones then 2^i zeros, repeated) are XORed up by 2^i; their
    mask is built by doubling."""
    size = 1 << n
    for i in range(n):
        step = 1 << i
        low, width = (1 << step) - 1, step << 1
        while width < size:
            low |= low << width
            width <<= 1
        table ^= (table & low) << step
    return table


@dataclass(frozen=True)
class BooleanFunction:
    """Boolean function given by its ANF monomial set (0-indexed variables);
    n is an integer >= 1, not a bool (``pauli._index``), stored as an int."""

    n: int
    monomials: frozenset[frozenset[int]]

    def __post_init__(self):
        object.__setattr__(self, "n", _index(self.n, "n", 1))
        monomials = frozenset(map(frozenset, self.monomials))
        object.__setattr__(self, "monomials", monomials)
        used = frozenset().union(*monomials)
        if used and not 0 <= min(used) <= max(used) < self.n:
            raise ValueError("monomial variable out of range")

    @cached_property
    def truth_table(self) -> int:
        _check_size(self.n, lambda: 2**self.n, f"truth table of n={self.n} exceeds 2^24 bits")
        anf = 0
        for m in self.monomials:
            anf |= 1 << sum(1 << i for i in m)
        return _moebius(self.n, anf)

    @property
    def degree(self) -> int:
        return max((len(m) for m in self.monomials), default=0)

    def weight(self) -> int:
        return self.truth_table.bit_count()

    def __xor__(self, other: "BooleanFunction") -> "BooleanFunction":
        if self.n != other.n:
            raise ValueError("mismatched variable counts")
        return BooleanFunction(self.n, self.monomials ^ other.monomials)


def from_truth_table(n: int, table: int) -> BooleanFunction:
    """ANF of a packed truth table, by ``_moebius``.

    Raises ``ValueError`` if n or the table is not an integer (``pauli._index``),
    n < 1, or the table is negative or has a bit at or above 2^n, and
    ``ResourceLimitError`` at n > 24, as ``truth_table`` does.
    """
    n, table = _index(n, "n", 1), _index(table, "table", 0)
    _check_size(n, lambda: 2**n, f"truth table of n={n} exceeds 2^24 bits")
    if table >> (1 << n):
        raise ValueError(f"truth table has bits beyond the 2^{n} inputs")
    tt = _moebius(n, table)
    monomials = set()
    while tt:
        m = (tt & -tt).bit_length() - 1
        tt &= tt - 1
        monomials.add(frozenset(i for i in range(n) if (m >> i) & 1))
    return BooleanFunction(n, frozenset(monomials))


def parse_anf(text: str, n: int | None = None) -> BooleanFunction:
    """Parse "x1*x2*x3 + x2 + 1" (variables 1-indexed, whitespace ignored);
    a term "0" adds nothing, so "0" is the zero function ``anf_string`` writes."""
    text = re.sub(r"\s+", "", text)
    if not text:
        raise ValueError("empty ANF expression")
    monomials = set()
    max_var = 0
    for term in text.split("+"):
        if term == "0":
            continue
        if term == "1":
            mono = frozenset()
        else:
            factors = term.split("*")
            idxs = []
            for f in factors:
                m = re.fullmatch(r"x(\d+)", f)
                if not m or int(m.group(1)) < 1:
                    raise ValueError(f"malformed ANF factor: {f!r}")
                idxs.append(int(m.group(1)) - 1)
            if len(set(idxs)) != len(idxs):
                raise ValueError(f"repeated variable in monomial: {term!r}")
            mono = frozenset(idxs)
        monomials ^= {mono}
        max_var = max(max_var, max((i + 1 for i in mono), default=0))
    if n is None:
        n = max(max_var, 1)
    elif _index(n, "n", 1) < max_var:
        raise ValueError("declared variable count too small for expression")
    return BooleanFunction(n, frozenset(monomials))


def anf_string(f: BooleanFunction) -> str:
    if not f.monomials:
        return "0"
    terms = []
    for m in sorted(f.monomials, key=lambda m: (len(m), sorted(m))):
        terms.append("*".join(f"x{i + 1}" for i in sorted(m)) if m else "1")
    return " + ".join(terms)


def truth_table_hex(f: BooleanFunction) -> str:
    """Hex dump of the packed table (2^n bits, LSB-first byte order)."""
    nbytes = max(1, (1 << f.n) + 7 >> 3)
    return f.truth_table.to_bytes(nbytes, "little").hex()


def _table_bits(n: int, table: int) -> np.ndarray:
    """Packed truth table as a uint8 array of its 2^n bits, bit x at index x."""
    dim = 1 << n
    raw = table.to_bytes((dim + 7) // 8, "little")
    return np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")[:dim]


def _pack_bits(bits: np.ndarray) -> int:
    """Inverse of `_table_bits`: bit x of the result is bits[x]."""
    packed = np.packbits(np.asarray(bits, dtype=np.uint8), bitorder="little")
    return int.from_bytes(packed.tobytes(), "little")


# --- hypergraph states --------------------------------------------------------

def hypergraph_state(f: BooleanFunction) -> np.ndarray:
    """Dense state with amplitudes 2^(-n/2) * (-1)^f(x).

    f's monomials are the hyperedges: the state is one multi-controlled-Z
    per monomial applied to the uniform superposition, and a constant
    monomial is a global sign -1.
    """
    _check_size(f.n, lambda: 2**f.n, f"hypergraph state of n={f.n} exceeds 2^24 amplitudes")
    bits = _table_bits(f.n, f.truth_table)
    return (1.0 - 2.0 * bits) / math.sqrt(bits.size) + 0j


def overlap_from_weight(f: BooleanFunction, g: BooleanFunction) -> float:
    """Inner product of the two hypergraph states, 1 - 2^(1-n) * wt(f xor g).
    f ^ g raises ``ValueError`` when f and g have different n."""
    return 1.0 - 2.0 ** (1 - f.n) * (f ^ g).weight()


# --- second-order nonlinearity ------------------------------------------------

def quadratic_basis(n: int) -> list[frozenset[int]]:
    """ANF basis of RM(2, n): constant, linear, and pair monomials."""
    basis: list[frozenset[int]] = [frozenset()]
    basis += [frozenset({i}) for i in range(n)]
    basis += [frozenset({i, j}) for i in range(n) for j in range(i + 1, n)]
    return basis


NONQUADRATICITY_LIMIT = 6  # largest n the exhaustive search takes


def nonquadraticity(f: BooleanFunction) -> tuple[int, BooleanFunction]:
    """Minimum Hamming distance from f to RM(2, n), plus one minimizer.

    Exhaustive over all quadratics q = Q(y) + x_1 L(y) + a.y + b x_1 + c,
    y = (x_2 .. x_n), Q a pair part, by splitting off x_1.  With the halves
    f_h of f at x_1 = h and W_h(a) = sum_y (-1)^(f_h(y) + Q(y) + a.y), the
    distance from f to q is (2^n - (-1)^c W_0(a) - (-1)^(b + c) W_1(a + L))/2.
    L, b and c are free, so chi = (2^n - max_Q (max|W_0| + max|W_1|))/2 over
    2^C(n-1,2) pair parts Q.  Their +-1 rows (-1)^(f_h + Q) are built in int8
    by doubling one pair monomial at a time, and take one product with the
    2^(n-1) Hadamard block of stabdict's ``_tables``; |W| <= 32, so float32
    is exact.  Zero iff deg f <= 2.

    The minimizer is the first in pair-part order: the lowest best Q, with
    the lowest peaks a_0 of |W_0| and a_1 of |W_1|, a = a_0, L = a_0 + a_1,
    and the signs of W there fixing b and c.
    """
    n = f.n
    if n > NONQUADRATICITY_LIMIT:
        raise ValueError(
            f"exhaustive search supports n <= {NONQUADRATICITY_LIMIT}; "
            "use decomposition bounds beyond"
        )
    half = 1 << (n - 1)
    y = np.arange(half)
    pairs = quadratic_basis(n - 1)[n:]
    # rows[p, h] holds (-1)^(f_h + Q_p), bit k of p selecting pairs[k]
    rows = np.empty((1 << len(pairs), 2, half), dtype=np.int8)
    rows[0] = 1 - 2 * _table_bits(n, f.truth_table).astype(np.int8).reshape(half, 2).T
    for k, (i, j) in enumerate(map(sorted, pairs)):
        sign = (1 - 2 * ((y >> i) & (y >> j) & 1)).astype(np.int8)
        np.multiply(rows[:1 << k], sign, out=rows[1 << k:2 << k])
    hadamard = _tables(max(n - 1, 1), 2)[3][:half, :half].astype(np.float32)
    walsh = rows.astype(np.float32) @ hadamard
    magnitude = np.abs(walsh)
    peak = magnitude.max(axis=2)  # > 0 by Parseval, so the signs below are unique
    total = peak.sum(axis=1)
    p = int(total.argmax())
    a0, a1 = (int(w.argmax()) for w in magnitude[p])
    c = int(walsh[p, 0, a0] < 0)
    b = c ^ int(walsh[p, 1, a1] < 0)
    # basis order: 1, x_1, x_2 .. x_n, the n - 1 pairs x_1 x_j, then Q's pairs
    subset = c | (b << 1) | (a0 << 2) | ((a0 ^ a1) << (n + 1)) | (p << (2 * n))
    basis = quadratic_basis(n)
    argmin = BooleanFunction(n, frozenset(m for i, m in enumerate(basis) if (subset >> i) & 1))
    return ((1 << n) - int(total[p])) // 2, argmin


def dmin_bound_from_chi(f: BooleanFunction, chi: int) -> float:
    """Upper bound -2*log2(1 - 2^(1-n)*chi(f)) on the min-relative entropy of
    magic of the hypergraph state of f (quadratic states are stabilizer states),
    for an integer 0 <= chi < 2^(n-1), not a bool (``pauli._index``).  The
    ratio 1 - 2^(1-n)*chi is one correctly rounded division of integers, and
    where it falls below the normal floats (n > 1023 only) the bound takes the
    logs of the integers."""
    chi = _index(chi, "chi")
    if not 0 <= chi < 2 ** (f.n - 1):
        raise ValueError(f"bound undefined: chi = {chi} is not in 0..2^(n-1) - 1")
    half = 2 ** (f.n - 1)
    ratio = (half - chi) / half
    if ratio < 2.0**-1022:  # subnormal or 0
        return -2.0 * (math.log2(half - chi) - (f.n - 1))
    return 0.0 - 2.0 * math.log2(ratio)  # +0.0 at chi = 0


def welch_function(n: int) -> BooleanFunction:
    """The modified Welch power function x -> tr(x^(2^r + 3)), r = (n+1)/2.

    Defined for odd n under the package's fixed GF(2^n) modulus; algebraic
    degree 3 (the exponent has binary weight 3).  The table is array
    arithmetic on discrete logs: with x = alpha^k for the primitive alpha,
    x^e = alpha^(k e mod 2^n - 1), and tr(alpha^j) is the XOR of the
    Frobenius orbit alpha^(j 2^i), i < n.  0^e = 0 has trace 0.  A bool or
    non-integer n is refused first (``pauli._index``).
    """
    n = _index(n, "n")
    if n % 2 == 0:
        raise ValueError("n must be odd")
    if not 3 <= n <= 15:
        raise ValueError("supported range is 3 <= n <= 15")
    r = (n + 1) // 2
    e = (1 << r) + 3
    order = (1 << n) - 1
    antilog, log = field_log_tables(n)
    j = np.arange(order)
    trace = np.bitwise_xor.reduce([antilog[(j << i) % order] for i in range(n)])
    bits = np.zeros(1 << n, dtype=np.uint8)
    bits[1:] = trace[log[1:] * e % order]
    return from_truth_table(n, _pack_bits(bits))
