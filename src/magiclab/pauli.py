"""Pauli / Weyl operators, stabilizer tableaux, and the MUB partition.

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

import itertools
import re
from dataclasses import dataclass

import numpy as np

from .binlin import gfp_solve


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

    def _check(self, other: "PauliOperator"):
        if self.n != other.n or self.d != other.d:
            raise ValueError("Pauli operators act on different systems")

    def __mul__(self, other: "PauliOperator") -> "PauliOperator":
        self._check(other)
        d = self.d
        cross = sum(a * b for a, b in zip(self.xvec, other.zvec)) % d
        t = (self.phase + other.phase - 2 * cross) % (2 * d)
        x = tuple((a + b) % d for a, b in zip(self.xvec, other.xvec))
        z = tuple((a + b) % d for a, b in zip(self.zvec, other.zvec))
        return PauliOperator(self.n, d, x, z, t)

    def __pow__(self, e: int) -> "PauliOperator":
        result = identity_pauli(self.n, self.d)
        for _ in range(e % (2 * self.d)):
            result = result * self
        return result

    def dagger(self) -> "PauliOperator":
        d = self.d
        xz = sum(a * b for a, b in zip(self.xvec, self.zvec)) % d
        t = (-self.phase - 2 * xz) % (2 * d)
        x = tuple((-a) % d for a in self.xvec)
        z = tuple((-a) % d for a in self.zvec)
        return PauliOperator(self.n, d, x, z, t)

    def is_identity_vector(self) -> bool:
        return not any(self.xvec) and not any(self.zvec)

    def apply(self, psi: np.ndarray) -> np.ndarray:
        """Dense action P @ psi; psi may be a vector or a matrix of columns."""
        d, n = self.d, self.n
        dim = d**n
        if psi.shape[0] != dim:
            raise ValueError("state dimension mismatch")
        idx = np.arange(dim)
        digits = (idx[:, None] // d ** np.arange(n)) % d
        zdot = digits @ np.array(self.zvec) % d
        exps = (self.phase + 2 * zdot) % (2 * d)
        src = ((digits - np.array(self.xvec)) % d) @ (d ** np.arange(n))
        zeta = np.exp(1j * np.pi / d)
        factors = zeta**exps
        if psi.ndim == 2:
            return factors[:, None] * psi[src, :]
        return factors * psi[src]

    def dense(self) -> np.ndarray:
        dim = self.d**self.n
        return np.column_stack([self.apply(e) for e in np.eye(dim, dtype=complex)])

    def phase_factor(self) -> complex:
        return np.exp(1j * np.pi * self.phase / self.d)


def identity_pauli(n: int, d: int = 2) -> PauliOperator:
    return PauliOperator(n, d, (0,) * n, (0,) * n, 0)


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


def pauli_commutes(P: PauliOperator, Q: PauliOperator) -> bool:
    """True iff the symplectic product x_P.z_Q - z_P.x_Q vanishes mod d."""
    P._check(Q)
    s = sum(a * b for a, b in zip(P.xvec, Q.zvec)) - sum(
        a * b for a, b in zip(P.zvec, Q.xvec)
    )
    return s % P.d == 0


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


def pauli_from_string(text: str, d: int = 2) -> PauliOperator:
    text = text.replace(" ", "")
    if d == 2:
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
    m = re.fullmatch(r"(?:w(\d))?((?:X\dZ\d)+)", text)
    if not m:
        raise ValueError(f"malformed qutrit Pauli string: {text!r}")
    k = int(m.group(1) or 0) % 3
    sites = re.findall(r"X(\d)Z(\d)", m.group(2))
    x = tuple(int(a) % 3 for a, _ in sites)
    z = tuple(int(b) % 3 for _, b in sites)
    t = (2 * k - 2 * sum(a * b for a, b in zip(x, z))) % 6
    return PauliOperator(len(sites), 3, x, z, t)


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
        for g in self.generators:
            if g.n != self.n or g.d != self.d:
                raise ValueError("generator acts on the wrong system")
        # pairwise symplectic products x_a.z_b - z_a.x_b, all at once
        X = np.array([g.xvec for g in self.generators])
        Z = np.array([g.zvec for g in self.generators])
        if np.any((X @ Z.T - Z @ X.T) % self.d):
            raise ValueError("generators must commute pairwise")

    def symplectic_matrix(self) -> np.ndarray:
        return np.array(
            [list(g.xvec) + list(g.zvec) for g in self.generators], dtype=np.int64
        )

    def group_vectors(self) -> set[tuple[int, ...]]:
        """All d^n group elements as (x|z) tuples, phases quotiented."""
        M = self.symplectic_matrix()
        out = set()
        for coeffs in itertools.product(range(self.d), repeat=self.n):
            v = (np.array(coeffs) @ M) % self.d
            out.add(tuple(int(t) for t in v))
        return out


def canonicalize_generators(
    gens: list[PauliOperator],
) -> tuple[list[PauliOperator], int]:
    """Reduced row echelon form of a commuting generating set, phases tracked.

    X columns are eliminated first, then Z columns of the pure-Z rows, and
    finally the Z parts of the X rows are reduced modulo the pure-Z rows.
    Returns (canonical generators, x-block rank).  Raises
    InconsistentTableauError if the set is dependent or produces a scalar
    other than the identity.
    """
    if not gens:
        return [], 0
    d = gens[0].d
    work = list(gens)

    def eliminate(block: str, start: int) -> list[int]:
        r = start
        pivots = []
        n = work[0].n
        for c in range(n):
            vec = lambda g: g.xvec if block == "x" else g.zvec
            pivot = next((i for i in range(r, len(work)) if vec(work[i])[c]), None)
            if pivot is None:
                continue
            work[r], work[pivot] = work[pivot], work[r]
            if d == 3 and vec(work[r])[c] == 2:
                work[r] = work[r] * work[r]
            for i in range(len(work)):
                if i != r and vec(work[i])[c]:
                    mult = work[r] ** ((d - vec(work[i])[c]) % d)
                    work[i] = work[i] * mult
            pivots.append(c)
            r += 1
        return pivots

    x_pivots = eliminate("x", 0)
    k = len(x_pivots)
    z_pivots = eliminate("z", k)
    # canonical lifts: clear the Z-pivot coordinates of the X rows
    for zi, c in enumerate(z_pivots):
        zrow = work[k + zi]
        for i in range(k):
            coef = work[i].zvec[c]
            if coef:
                work[i] = work[i] * zrow ** ((d - coef) % d)
    for g in work:
        if g.is_identity_vector():
            if g.phase % (2 * d):
                raise InconsistentTableauError(
                    "group contains a scalar other than the identity"
                )
            raise InconsistentTableauError("generators are not independent")
    return work, k


def _coset_phases(W0, X, Z, t, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Supports and zeta exponents of the states sum_y zeta**e(y) |w0 + y X>.

    X (k x n) holds the canonical X rows; Z (..., k, n) and t (..., k) stack
    any number of Z parts and phases over them.  W0 (m x n) holds one coset
    offset per row.  Walking y in counting order, each step by X row i onto
    the point w multiplies the amplitude by zeta**(t_i + 2 z_i.w), giving

        e(y) = y.t + 2 [y.(Z w0) + sum_{i<j} y_i y_j z_i.x_j
                        + sum_i C(y_i + 1, 2) z_i.x_i]     (mod 2d).

    Returns (m, d^k) basis indices, shared by the whole stack, and (..., m,
    d^k) exponents, y little-endian in d.

    Both callers solve w0 from the RREF pure-Z rows with free variables zero,
    so w0 vanishes on the trailing columns of X's row space (the complement of
    the Z rows' leading columns).  Then y = 0 gives the least index of each
    coset, and e(0) = 0 makes the first nonzero amplitude real positive.
    """
    X, Z = np.asarray(X, dtype=np.int64), np.asarray(Z, dtype=np.int64)
    W0, t = np.asarray(W0, dtype=np.int64), np.asarray(t, dtype=np.int64)
    k, n = X.shape
    ys = (np.arange(d**k)[:, None] // d ** np.arange(k)) % d
    W = (W0[:, None, :] + ys @ X) % d
    G = Z @ X.T
    quad = ((ys @ np.triu(G, 1)) * ys).sum(-1)
    quad += np.diagonal(G, axis1=-2, axis2=-1) @ (ys * (ys + 1) // 2).T
    lin = (Z @ W0.T).swapaxes(-1, -2) @ ys.T
    e = (t @ ys.T + 2 * quad)[..., None, :] + 2 * lin
    return W @ d ** np.arange(n), e % (2 * d)


def tableau_to_state(tab: StabilizerTableau) -> np.ndarray:
    """Unique joint +1 eigenstate of the tableau's generators.

    The global phase makes the first nonzero amplitude real positive.  Raises
    InconsistentTableauError when the generated group contains a nontrivial
    scalar (no common eigenstate exists).  The eigenvalue equation of every
    generator is checked on the result.
    """
    n, d = tab.n, tab.d
    gens, k = canonicalize_generators(list(tab.generators))
    # support coset from the pure-Z constraints: z.w = -t/2 (mod d)
    w0 = np.zeros(n, dtype=np.int64)
    if k < n:
        if any(g.phase % 2 for g in gens[k:]):
            raise InconsistentTableauError("pure-Z generator with odd phase")
        A = np.array([g.zvec for g in gens[k:]], dtype=np.int64)
        rhs = np.array([(-(g.phase // 2)) % d for g in gens[k:]], dtype=np.int64)
        w0 = gfp_solve(A, rhs, d)
        if w0 is None:
            raise InconsistentTableauError("contradictory pure-Z constraints")
    X = np.array([g.xvec for g in gens[:k]], dtype=np.int64).reshape(k, n)
    Z = np.array([g.zvec for g in gens[:k]], dtype=np.int64).reshape(k, n)
    (idx,), (e,) = _coset_phases(w0[None], X, Z, [g.phase for g in gens[:k]], d)
    if len(np.unique(idx)) != d**k:
        raise AssertionError("support size mismatch")
    zeta_pow = np.exp(1j * np.pi / d) ** np.arange(2 * d)
    psi = np.zeros(d**n, dtype=complex)
    psi[idx] = d ** (-k / 2) * zeta_pow[e]
    for g in tab.generators:
        if np.linalg.norm(g.apply(psi) - psi) > 1e-12:
            raise AssertionError("eigenvalue equation violated")
    return psi


# --- mutually unbiased bases / Pauli group partition --------------------------

def mub_partition(n: int) -> list[StabilizerTableau]:
    """Partition of the n-qubit Pauli group (mod phases) into 2^n + 1
    maximal abelian subgroups, via the field spread construction.

    X parts are written in the polynomial basis of GF(2^n) and Z parts in its
    trace-dual basis, which turns the coordinate dot product into the field
    trace form and makes every spread line symplectically isotropic.
    """
    if not 1 <= n <= 5:
        raise ValueError("supported range is 1 <= n <= 5")
    from .binlin import field_element, field_trace

    alpha_pows = [field_element(n, 1)]
    gen = field_element(n, 2 % (1 << n)) if n > 1 else field_element(n, 1)
    for _ in range(2 * n):
        alpha_pows.append(alpha_pows[-1] * gen)

    tableaux = []
    for lam_value in range(1 << n):
        lam = field_element(n, lam_value)
        gens = []
        for i in range(n):
            x = tuple(1 if j == i else 0 for j in range(n))
            z = tuple(field_trace(lam * alpha_pows[i + j]) for j in range(n))
            gens.append(hermitian_pauli(n, x, z))
        tableaux.append(StabilizerTableau(n, 2, tuple(gens)))
    z_gens = tuple(
        hermitian_pauli(n, (0,) * n, tuple(1 if j == i else 0 for j in range(n)))
        for i in range(n)
    )
    tableaux.append(StabilizerTableau(n, 2, z_gens))
    return tableaux
