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

Each run of d^n consecutive states (one R and S, every eps_z and every
character) is the joint eigenbasis of one stabilizer group, and the
dictionary stores each group as its element table (element rows and
phases, packed in small integers), built once at enumeration from the
group's generators.  ``_generator_order`` states the run's order, and
``_tableaux`` decodes a column's canonical tableau from the generators.
Best overlaps go group by group: a target's fidelities over a group are a
character sum of its Pauli expectations on the group's elements, so
Parseval bounds their maximum, and exact sums are taken only for the
groups whose bound reaches the best exact value found.
"""

import functools
import itertools
import operator
from dataclasses import dataclass, field

import numpy as np

from .binlin import gfp_nullspace, gfp_rref
from .pauli import PauliOperator, StabilizerTableau

DENSE_LIMITS = {2: 4, 3: 2}
STREAM_LIMITS = {2: 5, 3: 2}
_BLOCK_STATES = 1024  # most states in one _iter_blocks block (one S always fits)
_TILE = 1 << 17  # most entries in one working array of best_overlaps


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

    Each block is one RREF X-block R and a run of m of its symmetric
    matrices S, one group each: gen_x (n, n) is shared, gen_z (m, n, n) and
    gen_t (m, n) hold each group's generators in step order (generator i
    moves at column d^i of the group, see ``_generator_order``) and its first
    state's phases, and psi (m d^n, d^n) every state, m d^n <=
    max(d^n, _BLOCK_STATES).  In all, the blocks give every state in a fixed
    deterministic order: subspace dimension ascending, then R and S lex, then
    the group's column order.
    """
    zeta_pow = np.exp(1j * np.pi / d) ** np.arange(2 * d)
    run = max(1, _BLOCK_STATES // d**n)
    for k in range(n + 1):
        ys = (np.arange(d**k)[:, None] // d ** np.arange(k)) % d
        char_tab = (2 * (ys @ ys.T)) % (2 * d)
        mag = float(d) ** (-k / 2)
        eps = np.array(list(itertools.product(range(d), repeat=n - k)), dtype=np.int64)
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
                rows = np.arange(m * d**n).reshape(m, len(eps), d**k, 1)
                psi = np.zeros((m * d**n, d**n), dtype=complex)
                psi.flat[rows * d**n + idx[:, None, :]] = mag * zeta_pow[expo]
                # the canonical rows in step order: the Z-type rows reversed
                gen_z = np.concatenate([lifts, np.broadcast_to(znull[::-1], (m, n - k, n))], 1)
                gen_t = np.concatenate([t0x, np.zeros((m, n - k), dtype=np.int64)], 1)
                yield gen_x, gen_z, gen_t, psi


def _generator_order(k: int, n: int) -> list[int]:
    """Canonical row order[i] of a group's tableau is its generator i in step
    order, the one that moves at column d^i of the group, with k the number
    of X-type (nonzero, leading) rows of gen_x: the characters count them
    little-endian and eps_z counts the Z-type rows lex, last fastest.  The
    order is its own inverse."""
    return [*range(k), *range(n - 1, k - 1, -1)]


def _tableaux(xs, zs, ts, d: int, columns):
    """Canonical tableaux of the given columns of one group, from its
    generators in step order: X and Z rows xs, zs and the first state's zeta
    exponents ts, as lists.  Column j reorders the generators by
    ``_generator_order`` and adds 2 digit_i(j) to the exponent of generator
    i, digits little-endian in d."""
    n = len(ts)
    order = _generator_order(sum(map(any, xs)), n)
    rows = [(tuple(xs[i]), tuple(zs[i]), ts[i], d**i) for i in order]
    for j in columns:
        gens = (PauliOperator(n, d, x, z, (t + 2 * (j // s % d)) % (2 * d)) for x, z, t, s in rows)
        yield StabilizerTableau(n, d, tuple(gens))


# zeta**t = exp(i pi t / d) for t mod 2d, exact for qubits.  Written out:
# computing them at import (a complex power) pages in code most runs never use.
_ISIN = 0.75**0.5 * 1j  # i sin(pi / 3)
_ZETA = {
    2: np.array([1, 1j, -1, -1j]),
    3: np.array([1, 0.5 + _ISIN, -0.5 + _ISIN, -1, -0.5 - _ISIN, 0.5 - _ISIN]),
}


@functools.lru_cache(maxsize=None)
def _tables(n: int, d: int) -> tuple[np.ndarray, ...]:
    """Lookup tables over Z_d^n, each element a little-endian integer in d:
    the sums a + b, the negations -a, the dot products a.b over the integers
    (|a & b| for qubits), the characters omega^(a.b) and the phases
    zeta^(-a.b).  Read-only."""
    place = d ** np.arange(n)
    digits = (np.arange(d**n)[:, None] // place) % d
    weight = digits @ digits.T
    tables = (
        ((digits[:, None] + digits) % d) @ place,
        (-digits % d) @ place,
        weight,
        _ZETA[d][2 * weight % (2 * d)],
        _ZETA[d][-weight % (2 * d)],
    )
    for table in tables:
        table.flags.writeable = False
    return tables


def _pauli_coordinates(R: np.ndarray, n: int, d: int) -> np.ndarray:
    """Tr(r P_xz) for every operator r = R[:, :, k] and every P_xz =
    zeta^(-x.z) Z^z X^x (x.z over the integers), one row per (x, z), x major.
    For qubits P_xz is the Hermitian Pauli and the rows keep the real part,
    exact for Hermitian r; for qutrits they are complex.  With omega = zeta^2,

        Tr(r Z^z X^x) = sum_u omega^(z.u) r[u - x, u],

    one gather and one Fourier transform (a Hadamard matrix product for
    qubits) per X part x, as many X parts at a time as keep the temporaries
    within _TILE / d^n entries: a whole target chunk of best_overlaps at
    once, a dictionary's rows one X part at a time."""
    dim = d**n
    add, neg, _, fourier, phase = _tables(n, d)
    out = np.empty((dim, dim, R.shape[2]), dtype=float if d == 2 else complex)
    step = max(1, _TILE // max(1, dim * dim * R.shape[2]))
    for x in range(0, dim, step):
        s = fourier @ R[add[neg[x : x + step]], np.arange(dim)]
        s *= phase[x : x + step, :, None]
        out[x : x + step] = s.real if d == 2 else s
    return out.reshape(dim * dim, -1)


def _stabilizer_groups(gen_x, gen_z, gen_t, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Element tables of the stabilizer groups with generators gen_x, gen_z
    (groups, n, n) in step order and first-state phases gen_t (groups, n),
    as ``_iter_blocks`` yields them.

    Returns read-only (groups, d^n) tables, see ``_group_tables``, in the
    smallest integer types: the tables of ``StabilizerDictionary``.  They are
    allocated first, so that they sit below the build's temporaries in the
    heap, and built a slice of _TILE / d^2n groups at a time, so that each
    int64 temporary stays within _TILE / d^n entries.
    """
    count, n = gen_t.shape
    dim = d**n
    elements = np.empty((count, dim), dtype=np.min_scalar_type(dim * dim - 1))
    phases = np.empty((count, dim), dtype=np.int8)
    step = max(1, _TILE // (dim * dim))
    for g0 in range(0, count, step):
        groups = slice(g0, g0 + step)
        tables = _group_tables(gen_x[groups], gen_z[groups], gen_t[groups], d)
        elements[groups], phases[groups] = tables
    elements.flags.writeable = phases.flags.writeable = False
    return elements, phases


def _group_tables(gen_x, gen_z, gen_t, d: int) -> tuple[np.ndarray, np.ndarray]:
    """``_stabilizer_groups`` in int64.

    Takes each group's generators g_i in step order, with the phases of its
    first state, so that the element P_c = prod_i g_i^c_i, c little-endian
    over the generators, is the one whose character sigma.c orders the
    group's states (sigma the column's digits); element d^i is g_i itself.
    The elements come by doubling, P_(c + e_i) = P_c g_i, on integer-coded X
    and Z parts.
    Returns each element's row x d^n + z of ``_pauli_coordinates``, and its
    zeta exponent relative to that row's P_xz.
    """
    count, n = gen_t.shape
    dim = d**n
    # (generator, group) arrays below, so that numpy loops run over the groups
    place = d ** np.arange(n)
    gx, gz = ((gens.astype(np.int64) @ place).T for gens in (gen_x, gen_z))
    gt = gen_t.astype(np.int64).T
    add, _, weight = (table.ravel() for table in _tables(n, d)[:3])
    x, z, t = (np.zeros((dim, count), dtype=np.int64) for _ in range(3))
    for i in range(n):
        for a in range(d**i, d ** (i + 1), d**i):
            old, new = slice(a - d**i, a), slice(a, a + d**i)
            # zeta^t Z^z X^x zeta^t_i Z^z_i X^x_i = zeta^(t + t_i - 2 x.z_i) Z^(z+z_i) X^(x+x_i)
            t[new] = t[old] + gt[i] - 2 * weight[x[old] * dim + gz[i]]
            x[new] = add[x[old] * dim + gx[i]]
            z[new] = add[z[old] * dim + gz[i]]
    elements = x * dim + z
    return elements.T, ((t + weight[elements]) % (2 * d)).T


def _best_in_groups(groups, phases, coords, n: int, d: int):
    """max_j Tr(r phi_j), and the lowest j attaining it, for the Hermitian
    operators r whose ``_pauli_coordinates`` are the columns of coords, over
    the groups of ``_stabilizer_groups``: ``best_overlaps`` for r = |v><v|."""
    dim = d**n
    count, m = len(groups), coords.shape[1]
    fourier = _tables(n, d)[3]

    def exact(g, t):
        """All d^n fidelities of the pairs (group g, target t), in column order."""
        u = _ZETA[d][phases[g]] * coords[groups[g], t[:, None]]
        return (u @ fourier).real / dim

    if groups.size * dim * m <= _TILE:  # so few sums that bounding them costs more
        u = _ZETA[d][phases][:, None] * coords[groups].transpose(0, 2, 1)
        f = (u.reshape(-1, dim) @ fourier).real.reshape(count, m, dim)
        f = f.transpose(1, 0, 2).reshape(m, count * dim)
        j = f.argmax(axis=1)
        return f[np.arange(m), j] / dim, j
    # d^n max F^2 <= sum_c |u_c|^2, one (groups, targets) gather per element c
    squares = np.abs(coords)
    squares *= squares
    bound = squares[groups[:, 0]]
    for c in range(1, dim):
        bound += squares[groups[:, c]]
    targets = np.arange(m)
    top = bound.argmax(axis=0)
    f = exact(top, targets)
    lower = f.max(axis=1)
    g, t = np.nonzero(bound >= dim * (lower * (1 - 1e-9)) ** 2)
    if np.all(g == top[t]):  # no other group can reach the maxima
        return lower, top * dim + f.argmax(axis=1)
    best, arg = np.empty(len(g)), np.empty(len(g), dtype=np.int64)
    step = max(1, _TILE // dim)
    for s0 in range(0, len(g), step):
        f = exact(g[s0 : s0 + step], t[s0 : s0 + step])
        arg[s0 : s0 + step] = f.argmax(axis=1)
        best[s0 : s0 + step] = f[np.arange(len(f)), arg[s0 : s0 + step]]
    # per target, the pair of largest maximum, the lowest group on ties;
    # (g, t) comes sorted, so a pair's position is found by its key
    bound.fill(-np.inf)
    bound[g, t] = best
    top = bound.argmax(axis=0)
    pair = np.searchsorted(g * m + t, top * m + targets)
    return bound[top, targets], top * dim + arg[pair]


@dataclass
class StabilizerDictionary:
    """All pure stabilizer states for (n, d): dense vectors, and the element
    table of each group of d^n consecutive columns (see ``_stabilizer_groups``)."""

    n: int
    d: int
    states: np.ndarray  # (d^n, N) complex128, columns normalized
    # (N / d^n, d^n) read-only tables of _stabilizer_groups, one row per group:
    # each element's row x d^n + z of _pauli_coordinates, and its zeta exponent
    elements: np.ndarray
    phases: np.ndarray
    # (rows, labels) of the robustness LP's constraints, built on first use
    # by measures.free_robustness; read-only once set
    _robustness_rows: tuple | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        dim = self.d**self.n
        groups, rest = divmod(self.size, dim)
        if rest or any(table.shape != (groups, dim) for table in (self.elements, self.phases)):
            raise ValueError(f"{self.size} states need {dim} per group, one table row each")

    @property
    def size(self) -> int:
        return self.states.shape[1]

    def tableau(self, i: int) -> StabilizerTableau:
        """Canonical tableau of column i, decoded from its group's table
        entries d^q: the group's generators in step order."""
        d, dim = self.d, self.d**self.n
        g, j = divmod(operator.index(i), dim)
        steps = d ** np.arange(self.n)
        x, z = (code[:, None] // steps % d for code in divmod(self.elements[g, steps], dim))
        t = (self.phases[g, steps] - (x * z).sum(axis=1)) % (2 * d)
        return next(_tableaux(x.tolist(), z.tolist(), t.tolist(), d, [j]))

    def state(self, i: int) -> np.ndarray:
        return self.states[:, i]

    def best_overlaps(self, V: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """max_j |<phi_j|v>|^2 for every column v of V, and the lowest j
        attaining it.

        Works group by group (see ``_stabilizer_groups``) and never forms the
        overlap matrix.  For a target v and a group with elements g^c, let
        u_c = <v|g^c|v>.  The group's d^n states have the fidelities

            F(sigma) = d^-n sum_c omega^(sigma.c) u_c,

        a Walsh-Hadamard transform for qubits and a Z_3^n character sum for
        qutrits, so Parseval bounds max_sigma F by sqrt(d^-n sum_c |u_c|^2).
        Every (group, target) pair gets that bound, a sum of gathered
        squared Pauli expectations.  The exact maximum over each target's
        group of largest bound is a lower bound L, and only the pairs whose
        bound reaches L (1 - 1e-9) get their exact fidelities, one
        character-matrix product; a chunk with at most _TILE entries of
        sums in all (n <= 3 qubits and n <= 2 qutrits, a few targets) takes
        every group's sums at once.  Ties keep the lowest j.  Targets go in
        even chunks of at most _TILE (group, target) pairs.
        """
        if V.ndim != 2 or V.shape[0] != self.states.shape[0]:
            raise ValueError("state dimension mismatch")
        m = V.shape[1]
        fidelities = np.empty(m)
        indices = np.empty(m, dtype=np.int64)
        chunks = max(1, -(-m * len(self.elements) // _TILE))
        step = max(1, -(-m // chunks))  # even chunks of at most _TILE bounds
        for t0 in range(0, m, step):
            W = V[:, t0 : t0 + step]
            coords = _pauli_coordinates(W[:, None] * W.conj(), self.n, self.d)
            best = _best_in_groups(self.elements, self.phases, coords, self.n, self.d)
            fidelities[t0 : t0 + step], indices[t0 : t0 + step] = best
        return fidelities, indices


def iter_stabilizer_states(n: int, d: int = 2):
    """Stream (tableau, state) pairs without materializing the dictionary."""
    if d not in STREAM_LIMITS:
        raise ResourceLimitError(f"unsupported local dimension d={d}")
    if not 1 <= n <= STREAM_LIMITS[d]:
        raise ResourceLimitError(
            f"streaming enumeration supports 1 <= n <= {STREAM_LIMITS[d]} for d={d}, got n={n}"
        )
    dim = d**n
    for gen_x, gen_z, gen_t, psi in _iter_blocks(n, d):
        xs = gen_x.tolist()
        for zs, ts, phis in zip(gen_z.tolist(), gen_t.tolist(), psi.reshape(-1, dim, dim)):
            yield from zip(_tableaux(xs, zs, ts, d, range(dim)), phis)


def enumerate_stabilizer_states(n: int, d: int = 2) -> StabilizerDictionary:
    """Dense dictionary of all stabilizer states; exact count by construction."""
    if n < 1:
        raise ValueError("n must be positive")
    if d not in DENSE_LIMITS:
        raise ResourceLimitError(f"unsupported local dimension d={d}")
    if n > DENSE_LIMITS[d]:
        stream = STREAM_LIMITS[d] > DENSE_LIMITS[d]
        raise ResourceLimitError(
            f"dense enumeration supports n <= {DENSE_LIMITS[d]} for d={d}"
            + ("; use iter_stabilizer_states to stream larger systems" if stream else "")
        )
    total = count_stabilizer_states(n, d)
    groups = total // d**n
    states = np.empty((d**n, total), dtype=complex)
    gen_x, gen_z = (np.empty((groups, n, n), dtype=np.int8) for _ in range(2))
    gen_t = np.empty((groups, n), dtype=np.int8)
    count = 0
    for gx, gz, gt, psi in _iter_blocks(n, d):
        states[:, count : count + len(psi)] = psi.T
        block = slice(count // d**n, count // d**n + len(gz))
        gen_x[block], gen_z[block], gen_t[block] = gx, gz, gt
        count += len(psi)
    if count != total:
        raise AssertionError(f"enumeration produced {count} != {total} states")
    return StabilizerDictionary(n, d, states, *_stabilizer_groups(gen_x, gen_z, gen_t, d))
