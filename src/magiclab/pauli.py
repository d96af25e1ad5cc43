"""Pauli / Weyl operators, stabilizer tableaux, and tableau-to-state.

Internal operator representation, uniform for qubits (d=2) and qutrits (d=3):

    P = zeta**t * Z^zvec * X^xvec,   zeta = exp(i*pi/d),  t mod 2d.

Basis states are indexed little-endian: site k (1-indexed) is digit k-1 of
the index, so site 1 is the least significant digit.  The action on a basis
state is

    P |w> = zeta**(t + 2*z.(w+x)) |w + x>     (vector arithmetic mod d),

which fixes all phase bookkeeping below.  For qubits the Hermitian string
XIZ, -iYY, ... conventions map onto t = -x.z mod 4; for qutrits the
displacement operators carry t = 2*(z.x) mod 6 (the half-power uses the
inverse of 2 mod 3).
"""

import functools
import operator
import re
from dataclasses import dataclass

import numpy as np

# zeta**t = exp(i pi t / d) for t mod 2d, exact for qubits.  Written out:
# computing them at import (a complex power) pages in code most runs never use.
_ISIN = 0.75**0.5 * 1j  # i sin(pi / 3)
_ZETA = {
    2: np.array([1, 1j, -1, -1j]),
    3: np.array([1, 0.5 + _ISIN, -0.5 + _ISIN, -1, -0.5 - _ISIN, 0.5 - _ISIN]),
}


MAX_ENTRIES = 2**24  # the most entries of any one array a size-checked operation allocates


class ResourceLimitError(ValueError):
    """An unsupported local dimension, or an array over MAX_ENTRIES entries."""


def _index(value, name: str, least: int | None = None) -> int:
    """``operator.index(value)`` as a Python int, the package's one integer
    rule: a bool, a ``np.bool_`` or a non-integer, and a value below
    ``least``, is a ValueError naming the input."""
    if isinstance(value, (bool, np.bool_)) or not hasattr(type(value), "__index__"):
        raise ValueError(f"{name} takes integers only, got {value!r}")
    value = operator.index(value)
    if least is not None and value < least:
        raise ValueError(f"need {name} >= {least}, got {value}")
    return value


def _check_size(n: int, entries, message: str) -> None:
    """Raise ResourceLimitError(message) unless entries(), the size of an array
    over n sites (at least 2^n), is at most MAX_ENTRIES; n is tested first, so
    entries() is formed only at n <= 24."""
    if not (n < MAX_ENTRIES.bit_length() and entries() <= MAX_ENTRIES):
        raise ResourceLimitError(message)


@functools.lru_cache(maxsize=None)
def _digits(n: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """The (d^n, n) little-endian digits of every basis index, and the place
    values d^i that turn a digit row back into its index.  Read-only."""
    place = d ** np.arange(n)
    digits = (np.arange(d**n)[:, None] // place) % d
    digits.flags.writeable = place.flags.writeable = False
    return digits, place


@dataclass(frozen=True)
class PauliOperator:
    n: int
    d: int
    xvec: tuple[int, ...]
    zvec: tuple[int, ...]
    phase: int  # exponent t of zeta = exp(i*pi/d), mod 2d

    def __post_init__(self):
        if self.d not in (2, 3):
            raise ValueError("only d=2 and d=3 are supported")
        if len(self.xvec) != self.n or len(self.zvec) != self.n:
            raise ValueError("xvec and zvec must have length n")
        if any(not 0 <= v < self.d for v in self.xvec + self.zvec):
            raise ValueError("exponents must lie in 0..d-1")
        if not 0 <= self.phase < 2 * self.d:
            raise ValueError("phase exponent out of range")

    def is_identity_vector(self) -> bool:
        return not any(self.xvec) and not any(self.zvec)

    def apply(self, psi: np.ndarray) -> np.ndarray:
        """Dense action P @ psi; psi may be a vector or a matrix of columns.
        The digit table of ``_digits`` holds n d^n entries, at most
        MAX_ENTRIES: qubits n <= 19, qutrits n <= 12."""
        d, n = self.d, self.n
        _check_size(n, lambda: n * d**n, f"digit table of n={n}, d={d} exceeds 2^24 entries")
        dim = d**n
        if psi.shape[0] != dim:
            raise ValueError("state dimension mismatch")
        digits, place = _digits(n, d)
        zdot = digits @ np.array(self.zvec) % d
        exps = (self.phase + 2 * zdot) % (2 * d)
        src = ((digits - np.array(self.xvec)) % d) @ place
        factors = _ZETA[d][exps]
        if psi.ndim == 2:
            return factors[:, None] * psi[src, :]
        return factors * psi[src]

    def dense(self) -> np.ndarray:
        """The d^n x d^n matrix; its d^2n entries cap n at 12 qubits, 7 qutrits."""
        d, n = self.d, self.n
        _check_size(n, lambda: d ** (2 * n), f"matrix of n={n}, d={d} exceeds 2^24 entries")
        return self.apply(np.eye(d**n, dtype=complex))


def hermitian_pauli(n: int, xvec, zvec) -> PauliOperator:
    """Qubit Pauli string with the standard Hermitian phase (Y = i X Z)."""
    xvec, zvec = tuple(int(v) % 2 for v in xvec), tuple(int(v) % 2 for v in zvec)
    t = (-sum(a * b for a, b in zip(xvec, zvec))) % 4
    return PauliOperator(n, 2, xvec, zvec, t)


def weyl_operator(n: int, a1, a2) -> PauliOperator:
    """Qutrit displacement operator with the half-power phase convention.

    a1 is the Z exponent vector, a2 the X exponent vector.
    """
    a1, a2 = tuple(int(v) % 3 for v in a1), tuple(int(v) % 3 for v in a2)
    t = (2 * sum(p * q for p, q in zip(a1, a2))) % 6
    return PauliOperator(n, 3, a2, a1, t)


def _commuting(ops, n: int, d: int) -> bool:
    """True iff every pairwise symplectic product x_a.z_b - z_a.x_b of the
    operators vanishes mod d, all pairs in one array product.  Raises
    ``ValueError`` unless every operator acts on n sites of dimension d."""
    if any(P.n != n or P.d != d for P in ops):
        raise ValueError(f"operators must all act on (n, d) = ({n}, {d})")
    X = np.array([P.xvec for P in ops])
    Z = np.array([P.zvec for P in ops])
    return not np.any((X @ Z.T - Z @ X.T) % d)


def is_hermitian_involution(P: PauliOperator) -> bool:
    """Qubit check: P is Hermitian with P**2 = I (measurable observable)."""
    if P.d != 2:
        return False
    xz = sum(a * b for a, b in zip(P.xvec, P.zvec))
    return (P.phase + xz) % 2 == 0


_QUBIT_SITE = {(0, 0): "I", (1, 0): "X", (0, 1): "Z", (1, 1): "Y"}
_QUBIT_LETTER = {v: k for k, v in _QUBIT_SITE.items()}
_QUBIT_PREFIX = {0: "+", 1: "+i", 2: "-", 3: "-i"}


def pauli_to_string(P: PauliOperator) -> str:
    """Text form; leftmost site is site 1 (the least significant index digit)."""
    if P.d == 2:
        base = (-sum(a * b for a, b in zip(P.xvec, P.zvec))) % 4
        pre = _QUBIT_PREFIX[(P.phase - base) % 4]
        return pre + "".join(_QUBIT_SITE[(x, z)] for x, z in zip(P.xvec, P.zvec))
    xz = sum(a * b for a, b in zip(P.xvec, P.zvec))
    if (P.phase + 2 * xz) % 2:
        raise ValueError("qutrit operator phase is not a power of omega")
    k = ((P.phase + 2 * xz) // 2) % 3
    body = "".join(f"X{x}Z{z}" for x, z in zip(P.xvec, P.zvec))
    return (f"w{k}" if k else "") + body


def pauli_from_string(text: str) -> PauliOperator:
    """Qubit Pauli string such as "+XIZ" or "-iYY", the form ``pauli_to_string``
    writes for qubits: a prefix +, -, i, +i or -i (none is +), then one of
    I, X, Y, Z per site, site 1 leftmost.  Spaces are ignored."""
    text = text.replace(" ", "")
    m = re.fullmatch(r"([+-]?i?)([IXYZ]+)", text)
    if not m:
        raise ValueError(f"malformed qubit Pauli string: {text!r}")
    pre, body = m.groups()
    offset = {"": 0, "+": 0, "i": 1, "+i": 1, "-": 2, "-i": 3}[pre]
    sites = [_QUBIT_LETTER[ch] for ch in body]
    x = tuple(s[0] for s in sites)
    z = tuple(s[1] for s in sites)
    base = (-sum(a * b for a, b in zip(x, z))) % 4
    return PauliOperator(len(sites), 2, x, z, (base + offset) % 4)


# --- stabilizer tableaux -----------------------------------------------------

class InconsistentTableauError(ValueError):
    """The generating set is dependent or generates a nontrivial scalar."""


@dataclass(frozen=True)
class StabilizerTableau:
    n: int
    d: int
    generators: tuple[PauliOperator, ...]

    def __post_init__(self):
        if len(self.generators) != self.n:
            raise ValueError("a full tableau needs exactly n generators")
        if not _commuting(self.generators, self.n, self.d):
            raise ValueError("generators must commute pairwise")


def _rephased(tab: StabilizerTableau, generators: tuple[PauliOperator, ...]) -> StabilizerTableau:
    """tab with its generators replaced by ``generators``, which have the
    same X and Z rows and other phases, without re-running the checks of
    ``StabilizerTableau``: their verdicts depend on n, d and those rows
    alone, so tab's stand.  Only ``stabdict._tableaux`` calls it, for the
    columns of one stabilizer group."""
    new = object.__new__(StabilizerTableau)
    object.__setattr__(new, "n", tab.n)
    object.__setattr__(new, "d", tab.d)
    object.__setattr__(new, "generators", generators)
    return new


def tableau_to_state(tab: StabilizerTableau) -> np.ndarray:
    """Unique joint +1 eigenstate of the tableau's generators.

    Built as the product of the generators' projectors (1/d) sum_{k<d} g^k,
    which is |psi><psi| for an independent set whose group holds no scalar
    but I (Gottesman, quant-ph/9705052).  The projector is dense, d^n x d^n
    (32 x 32 at n = 5, 64 x 64 at n = 6), and its d^2n entries are at most
    MAX_ENTRIES: qubits n <= 12, qutrits n <= 7.  The global phase makes the
    first nonzero amplitude real positive.  Raises InconsistentTableauError
    when the generated group contains a nontrivial scalar (no common
    eigenstate exists) or the generators are dependent.  The eigenvalue
    equation of every generator is checked on the result.
    """
    n, d = tab.n, tab.d
    _check_size(n, lambda: d ** (2 * n), f"projector of n={n}, d={d} exceeds 2^24 entries")
    for g in tab.generators:
        # g^d is the scalar zeta^(d t - d(d-1) x.z)
        xz = sum(a * b for a, b in zip(g.xvec, g.zvec))
        if (d * g.phase - d * (d - 1) * xz) % (2 * d):
            raise InconsistentTableauError(
                "group contains a scalar other than the identity"
            )
    rho = np.eye(d**n, dtype=complex)
    for g in tab.generators:
        term, acc = rho, rho.copy()
        for _ in range(d - 1):
            term = g.apply(term)
            acc += term
        rho = acc / d
    # tr rho = d^(n - rank), or 0 when the group holds a scalar other than I
    diag = rho.diagonal().real
    trace = diag.sum()
    if trace < 0.5:
        raise InconsistentTableauError("group contains a scalar other than the identity")
    if trace > 1.5:
        raise InconsistentTableauError("generators are not independent")
    w = int(np.argmax(diag > diag.max() / 2))
    psi = rho[:, w] / np.sqrt(diag[w])
    for g in tab.generators:
        if not np.linalg.norm(g.apply(psi) - psi) <= 1e-12:
            raise AssertionError("eigenvalue equation violated")
    return psi

