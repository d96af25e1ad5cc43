"""Exhaustive stabilizer-state enumeration.

Enumeration walks canonical tableaux directly: every maximal isotropic
(Lagrangian) subspace of F_d^{2n} has a unique normal form given by a
reduced-row-echelon basis R of its X-projection plus a symmetric matrix S
fixing the Z-part lifts, and each subspace carries d^n phase characters.
No dedup pass is needed and the total matches the closed-form count
d^n * prod_k (d^{n-k} + 1) by construction.

States are built in blocks, one RREF R and a run of its S matrices at a
time, with exact integer phase arithmetic (powers of zeta = exp(i*pi/d)) by
_coset_phases; the first nonzero amplitude of each comes out real positive.
pauli.tableau_to_state builds the same vectors by a second path, the
product of the generators' projectors, with no elimination.  Dense
enumeration is cheap at desk scale (n = 4 qubits takes about 0.05 s), so
dictionaries are rebuilt on demand rather than stored.
"""

import itertools
from dataclasses import dataclass, field

import numpy as np

from .binlin import gfp_nullspace, gfp_rref
from .pauli import PauliOperator, StabilizerTableau

DENSE_LIMITS = {2: 4, 3: 2}
STREAM_LIMITS = {2: 5, 3: 2}
_BLOCK_STATES = 1024  # most states in one _iter_blocks block (one S always fits)
_OVERLAP_TILE = 1 << 16  # most overlaps in one best_overlaps tile (1 MiB complex)
_TARGET_CHUNK = 256  # most targets in one best_overlaps tile


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


def _symmetric_matrices(k: int, d: int) -> np.ndarray:
    """(d^(k(k+1)/2), k, k) array of all symmetric k x k matrices, lex order."""
    rows, cols = np.triu_indices(k)
    values = np.array(list(itertools.product(range(d), repeat=len(rows))), dtype=np.int64)
    S = np.zeros((len(values), k, k), dtype=np.int64)
    S[:, rows, cols] = values.reshape(len(values), len(rows))
    S[:, cols, rows] = S[:, rows, cols]
    return S


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

    _iter_blocks solves w0 from the RREF pure-Z rows with free variables
    zero, so w0 vanishes on the trailing columns of X's row space (the
    complement of the Z rows' leading columns).  Then y = 0 gives the least
    index of each coset, and e(0) = 0 makes the first nonzero amplitude real
    positive.
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


def _iter_blocks(n: int, d: int):
    """Yield (gen_x, gen_z, gen_t, psi) blocks over all stabilizer states.

    Each block is one RREF X-block R and a run of its symmetric matrices S,
    with every eps_z and every character: gen_x (n, n) is shared, and gen_z
    (B, n, n), gen_t (B, n) and psi (B, d^n) hold B <= max(d^n, _BLOCK_STATES)
    states.  Concatenated, the blocks give every state in a fixed
    deterministic order: subspace dimension ascending, then R and S lex, then
    eps_z lex, then the character.
    """
    zeta_pow = np.exp(1j * np.pi / d) ** np.arange(2 * d)
    run = max(1, _BLOCK_STATES // d**n)
    for k in range(n + 1):
        ys = (np.arange(d**k)[:, None] // d ** np.arange(k)) % d
        char_tab = (2 * (ys @ ys.T)) % (2 * d)
        mag = float(d) ** (-k / 2)
        eps = np.array(list(itertools.product(range(d), repeat=n - k)), dtype=np.int64)
        tz = (2 * eps) % (2 * d)
        per_s = len(eps) * d**k
        all_S = _symmetric_matrices(k, d)
        for R in _rref_matrices(n, k, d):
            if k < n:
                znull, zpiv = gfp_rref(gfp_nullspace(R, d), d)
            else:
                znull, zpiv = np.zeros((0, n), dtype=np.int64), []
            # the coset offset solving znull.w = -eps_z, with znull in RREF
            W0 = np.zeros((len(eps), n), dtype=np.int64)
            W0[:, zpiv] = (-eps) % d
            gen_x = np.vstack([R, np.zeros((n - k, n), dtype=np.int64)])
            pivcols = np.argmax(R != 0, axis=1)
            for s0 in range(0, len(all_S), run):
                S = all_S[s0 : s0 + run]
                m = len(S)
                # lifts: start supported on the pivot columns of R, then make
                # them canonical by clearing the Z-block pivot columns
                lifts = np.zeros((m, k, n), dtype=np.int64)
                lifts[:, :, pivcols] = S
                if zpiv:
                    lifts = (lifts - lifts[:, :, zpiv] @ znull) % d
                rx = np.einsum("ij,sij->si", R, lifts)
                t0x = (-rx) % 4 if d == 2 else (2 * rx) % 6
                idx, e0 = _coset_phases(W0, R, lifts, t0x, d)
                expo = (e0[:, :, None, :] + char_tab) % (2 * d)
                # state (S, eps_z, character) is one row, supported on idx[eps_z]
                rows = np.arange(m * per_s).reshape(m, len(eps), d**k, 1)
                psi = np.zeros((m * per_s, d**n), dtype=complex)
                psi.flat[rows * d**n + idx[:, None, :]] = mag * zeta_pow[expo]
                gen_t = np.empty((m, len(eps), d**k, n), dtype=np.int64)
                gen_t[..., :k] = (t0x[:, None, None, :] + 2 * ys) % (2 * d)
                gen_t[..., k:] = tz[:, None, :]
                gen_z = np.concatenate([lifts, np.broadcast_to(znull, (m, n - k, n))], 1)
                yield gen_x, np.repeat(gen_z, per_s, 0), gen_t.reshape(-1, n), psi


@dataclass
class StabilizerDictionary:
    """All pure stabilizer states for (n, d): canonical tableaux + dense vectors."""

    n: int
    d: int
    states: np.ndarray  # (d^n, N) complex128, columns normalized
    gen_x: np.ndarray  # (N, n, n) int8
    gen_z: np.ndarray  # (N, n, n) int8
    gen_t: np.ndarray  # (N, n) int8, zeta exponents mod 2d
    # (rows, labels) of the robustness LP's constraints, built on first use
    # by measures.free_robustness; read-only once set
    _robustness_rows: tuple | None = field(default=None, compare=False, repr=False)

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

    def best_overlaps(self, V: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """max_j |<phi_j|v>|^2 for every column v of V, and the lowest j
        attaining it.

        Never holds the overlap matrix: each tile is one product of at most
        _TARGET_CHUNK targets (as rows, so the reductions run along
        contiguous memory) with a block of dictionary states, at most
        _OVERLAP_TILE overlaps in all.  |z|^2 is re^2 + im^2, squared in
        place on a float view of the tile, and blocks merge on a strict >,
        so ties keep the lowest j.
        """
        if V.ndim != 2 or V.shape[0] != self.states.shape[0]:
            raise ValueError("state dimension mismatch")
        m = V.shape[1]
        fidelities = np.full(m, -1.0)
        indices = np.zeros(m, dtype=np.int64)
        chunk = max(1, min(m, _TARGET_CHUNK))
        block = _OVERLAP_TILE // chunk
        for t0 in range(0, m, chunk):
            W = V[:, t0 : t0 + chunk].conj().T
            rows = np.arange(len(W))
            best = fidelities[t0 : t0 + chunk]
            arg = indices[t0 : t0 + chunk]
            for s0 in range(0, self.size, block):
                sq = (W @ self.states[:, s0 : s0 + block]).view(np.float64)
                sq *= sq
                p = sq[:, ::2] + sq[:, 1::2]
                a = p.argmax(axis=1)
                v = p[rows, a]
                up = v > best
                best[up] = v[up]
                arg[up] = a[up] + s0
        return fidelities, indices


def iter_stabilizer_states(n: int, d: int = 2):
    """Stream (tableau, state) pairs without materializing the dictionary."""
    if d not in STREAM_LIMITS or n > STREAM_LIMITS[d] or n < 1:
        raise ResourceLimitError(
            f"streaming enumeration supports d=2 n<=5 and d=3 n<=2, got n={n} d={d}"
        )
    for gen_x, gen_z, gen_t, psi in _iter_blocks(n, d):
        xvecs = [tuple(row) for row in gen_x.tolist()]
        for zs, ts, phi in zip(gen_z.tolist(), gen_t.tolist(), psi):
            gens = tuple(
                PauliOperator(n, d, xvecs[r], tuple(zs[r]), ts[r]) for r in range(n)
            )
            yield StabilizerTableau(n, d, gens), phi


def enumerate_stabilizer_states(n: int, d: int = 2) -> StabilizerDictionary:
    """Dense dictionary of all stabilizer states; exact count by construction."""
    if n < 1:
        raise ValueError("n must be positive")
    if d not in DENSE_LIMITS:
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
    count = 0
    for gx, gz, gt, psi in _iter_blocks(n, d):
        block = slice(count, count + len(psi))
        states[:, block] = psi.T
        gen_x[block] = gx
        gen_z[block] = gz
        gen_t[block] = gt
        count = block.stop
    if count != total:
        raise AssertionError(f"enumeration produced {count} != {total} states")
    return StabilizerDictionary(n, d, states, gen_x, gen_z, gen_t)
