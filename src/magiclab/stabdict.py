"""Exhaustive stabilizer-state enumeration and quadratic states.

Enumeration walks canonical tableaux directly: every maximal isotropic
(Lagrangian) subspace of F_d^{2n} has a unique normal form given by a
reduced-row-echelon basis R of its X-projection plus a symmetric matrix S
fixing the Z-part lifts, and each subspace carries d^n phase characters.
No dedup pass is needed and the total matches the closed-form count
d^n * prod_k (d^{n-k} + 1) by construction.

States are built with exact integer phase arithmetic (powers of
zeta = exp(i*pi/d)) by pauli._coset_phases, as in pauli.tableau_to_state,
one call per (R, S) pair; the first nonzero amplitude of each comes out real
positive.  Dense enumeration is cheap at desk scale (n = 4 qubits takes
about a second), so dictionaries are rebuilt on demand rather than stored.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .binlin import gfp_nullspace, gfp_rref
from .boolfn import BooleanFunction, hypergraph_state, quadratic_basis
from .pauli import PauliOperator, StabilizerTableau, _coset_phases

DENSE_LIMITS = {2: 4, 3: 2}
STREAM_LIMITS = {2: 5, 3: 2}


class ResourceLimitError(ValueError):
    """Requested enumeration exceeds the supported desk-scale limits."""


def count_stabilizer_states(n: int, d: int = 2) -> int:
    """Closed-form count d^n * prod_{k=0}^{n-1} (d^{n-k} + 1)."""
    if n < 1:
        raise ValueError("n must be positive")
    count = d**n
    for k in range(n):
        count *= d ** (n - k) + 1
    return count


def _rref_matrices(n: int, k: int, d: int):
    """All k x n reduced-row-echelon matrices of rank k over GF(d), lex order."""
    if k == 0:
        yield np.zeros((0, n), dtype=np.int64)
        return
    for pivots in itertools.combinations(range(n), k):
        free_pos = [
            (i, c)
            for i in range(k)
            for c in range(pivots[i] + 1, n)
            if c not in pivots
        ]
        base = np.zeros((k, n), dtype=np.int64)
        for i, p in enumerate(pivots):
            base[i, p] = 1
        for values in itertools.product(range(d), repeat=len(free_pos)):
            R = base.copy()
            for (i, c), v in zip(free_pos, values):
                R[i, c] = v
            yield R


def _symmetric_matrices(k: int, d: int):
    entries = [(i, j) for i in range(k) for j in range(i, k)]
    for values in itertools.product(range(d), repeat=len(entries)):
        S = np.zeros((k, k), dtype=np.int64)
        for (i, j), v in zip(entries, values):
            S[i, j] = v
            S[j, i] = v
        yield S


def _char_table(k: int, d: int) -> np.ndarray:
    """(d^k, d^k) table of 2 * y.eps phase offsets for all supports/characters."""
    ys = (np.arange(d**k)[:, None] // d ** np.arange(k)) % d
    return ys, (2 * (ys @ ys.T)) % (2 * d)


def _iter_entries(n: int, d: int):
    """Yield (gen_x, gen_z, gen_t, psi) over all stabilizer states, in a fixed
    deterministic order (subspace dimension ascending, then lex)."""
    zeta_pow = np.exp(1j * np.pi / d) ** np.arange(2 * d)
    for k in range(n + 1):
        ys, char_tab = _char_table(k, d)
        mag = float(d) ** (-k / 2)
        eps = np.array(list(itertools.product(range(d), repeat=n - k)), dtype=np.int64)
        for R in _rref_matrices(n, k, d):
            if k < n:
                znull, zpiv = gfp_rref(gfp_nullspace(R, d), d)
            else:
                znull, zpiv = np.zeros((0, n), dtype=np.int64), []
            # the coset offset solving znull.w = -eps_z, with znull in RREF
            W0 = np.zeros((len(eps), n), dtype=np.int64)
            W0[:, zpiv] = (-eps) % d
            gen_x = np.vstack([R, np.zeros((n - k, n), dtype=np.int64)])
            for S in _symmetric_matrices(k, d):
                # lifts: start supported on the pivot columns of R, then make
                # them canonical by clearing the Z-block pivot columns
                lifts = np.zeros((k, n), dtype=np.int64)
                pivcols = [int(np.argmax(R[i] != 0)) for i in range(k)]
                for i in range(k):
                    for j in range(k):
                        lifts[i, pivcols[j]] = S[j, i]
                if zpiv:
                    lifts = (lifts - lifts[:, zpiv] @ znull) % d
                gen_z = np.vstack([lifts, znull])
                if d == 2:
                    t0x = np.array(
                        [(-int(R[i] @ lifts[i])) % 4 for i in range(k)], dtype=np.int64
                    )
                else:
                    t0x = np.array(
                        [(2 * int(lifts[i] @ R[i])) % 6 for i in range(k)],
                        dtype=np.int64,
                    )
                idx, e0 = _coset_phases(W0, R, lifts, t0x, d)
                for idx_z, e_z, eps_z in zip(idx, e0, eps):
                    tz = (2 * eps_z) % (2 * d)
                    for ci in range(d**k):
                        psi = np.zeros(d**n, dtype=complex)
                        psi[idx_z] = mag * zeta_pow[(e_z + char_tab[ci]) % (2 * d)]
                        gen_t = np.concatenate([(t0x + 2 * ys[ci]) % (2 * d), tz])
                        yield gen_x, gen_z, gen_t, psi


@dataclass
class StabilizerDictionary:
    """All pure stabilizer states for (n, d): canonical tableaux + dense vectors."""

    n: int
    d: int
    states: np.ndarray  # (d^n, N) complex128, columns normalized
    gen_x: np.ndarray  # (N, n, n) int8
    gen_z: np.ndarray  # (N, n, n) int8
    gen_t: np.ndarray  # (N, n) int8, zeta exponents mod 2d

    @property
    def size(self) -> int:
        return self.states.shape[1]

    def tableau(self, i: int) -> StabilizerTableau:
        gens = tuple(
            PauliOperator(
                self.n,
                self.d,
                tuple(int(v) for v in self.gen_x[i, r]),
                tuple(int(v) for v in self.gen_z[i, r]),
                int(self.gen_t[i, r]),
            )
            for r in range(self.n)
        )
        return StabilizerTableau(self.n, self.d, gens)

    def state(self, i: int) -> np.ndarray:
        return self.states[:, i]

    def overlaps(self, psi: np.ndarray) -> np.ndarray:
        """<phi_i|psi> for every dictionary state at once."""
        if psi.shape[0] != self.states.shape[0]:
            raise ValueError("state dimension mismatch")
        return self.states.conj().T @ psi


def iter_stabilizer_states(n: int, d: int = 2):
    """Stream (tableau, state) pairs without materializing the dictionary."""
    if d not in STREAM_LIMITS or n > STREAM_LIMITS[d] or n < 1:
        raise ResourceLimitError(
            f"streaming enumeration supports d=2 n<=5 and d=3 n<=2, got n={n} d={d}"
        )
    for gen_x, gen_z, gen_t, psi in _iter_entries(n, d):
        gens = tuple(
            PauliOperator(
                n,
                d,
                tuple(int(v) for v in gen_x[r]),
                tuple(int(v) for v in gen_z[r]),
                int(gen_t[r]),
            )
            for r in range(n)
        )
        yield StabilizerTableau(n, d, gens), psi


def enumerate_stabilizer_states(n: int, d: int = 2) -> StabilizerDictionary:
    """Dense dictionary of all stabilizer states; exact count by construction."""
    if d not in DENSE_LIMITS or n < 1:
        raise ResourceLimitError(f"unsupported local dimension d={d}")
    if n > DENSE_LIMITS[d]:
        raise ResourceLimitError(
            f"dense enumeration supports n <= {DENSE_LIMITS[d]} for d={d}; "
            "use iter_stabilizer_states to stream larger systems"
        )
    total = count_stabilizer_states(n, d)
    states = np.empty((d**n, total), dtype=complex)
    gen_x = np.empty((total, n, n), dtype=np.int8)
    gen_z = np.empty((total, n, n), dtype=np.int8)
    gen_t = np.empty((total, n), dtype=np.int8)
    for i, (gx, gz, gt, psi) in enumerate(_iter_entries(n, d)):
        states[:, i] = psi
        gen_x[i] = gx
        gen_z[i] = gz
        gen_t[i] = gt
    count = i + 1
    if count != total:
        raise AssertionError(f"enumeration produced {count} != {total} states")
    return StabilizerDictionary(n, d, states, gen_x, gen_z, gen_t)


# --- quadratic states ---------------------------------------------------------

@dataclass
class QuadraticStateSet:
    """Hypergraph states of all degree <= 2 characteristic functions.

    Constant terms only flip the global sign, so entries are deduplicated to
    one representative per ray (constant term dropped): 2^(n + C(n,2)) states
    out of the 2^(1 + n + C(n,2)) functions.
    """

    n: int
    functions: list[BooleanFunction]
    states: np.ndarray  # (2^n, N) complex128


def enumerate_quadratic_states(n: int) -> QuadraticStateSet:
    if not 1 <= n <= 5:
        raise ResourceLimitError("quadratic-state enumeration supports 1 <= n <= 5")
    basis = quadratic_basis(n)[1:]  # drop the constant: global phase only
    functions = []
    dim = 1 << n
    states = np.empty((dim, 1 << len(basis)), dtype=complex)
    scale = dim ** -0.5
    for bits in range(1 << len(basis)):
        monos = frozenset(basis[i] for i in range(len(basis)) if (bits >> i) & 1)
        f = BooleanFunction(n, monos)
        functions.append(f)
        states[:, bits] = hypergraph_state(f)
    assert abs(states[0, 0] - scale) < 1e-15
    return QuadraticStateSet(n, functions, states)
