"""Exhaustive stabilizer-state enumeration.

Enumeration walks canonical tableaux directly: every maximal isotropic
(Lagrangian) subspace of F_d^{2n} has a unique normal form given by a
reduced-row-echelon basis R of its X-projection plus a symmetric matrix S
fixing the Z-part lifts, and each subspace carries d^n phase characters.
No dedup pass is needed and the total matches the closed-form count
d^n * prod_k (d^{n-k} + 1) by construction.

Each run of d^n consecutive states (one R and S, every eps_z and every
character) is the joint eigenbasis of one stabilizer group, and the
dictionary is the groups' element tables (element rows and phases, packed
in small integers).  The tables are built eagerly, in batches of a few
thousand entries that span successive R of one dimension:
``_group_tables`` expands each group's generators into its table, with
exact integer phase arithmetic (powers of zeta = exp(i*pi/d)), and no
amplitude is computed.  Dense columns are read on demand:
``_read_states`` reads the states of any run of groups off their tables'
X spans, with the first nonzero amplitude of each real positive, for the
cached ``StabilizerDictionary.states``, a single ``state(i)`` and the
stream.  ``size``, ``tableau(i)``, ``best_overlaps``
and the quantities built on it read only the tables, so dmin at n = 5 needs
7.3 MB of tables, not the 1.16 GB dense array.  ``_tableaux`` states a
group's column order and decodes a column's canonical tableau from its
table row; the columns of a group share their X and Z rows, so its Pauli
and commutation checks run once per group, not once per state.
pauli.tableau_to_state builds the same vectors by a second path, the
product of the generators' projectors, with no elimination.  The tables
take well under a second at every supported size, so dictionaries are
rebuilt on demand rather than stored.  One cap, MAX_ENTRIES, bounds each
array that an operation allocates; pauli's ``_check_size`` tests it first.

Best overlaps go group by group: a target's fidelities over a group are a
character sum of its Pauli expectations on the group's elements, so
Parseval, with the fidelities' sum Tr r, bounds their maximum, and exact
sums are taken only for the groups whose bound reaches the best exact value
found.  The bounds are float32 sums, screened with a slack of twice their
rounding bound, (d^n + 1) 2^-24 relative; the exact sums are float64 and
the one source of every returned fidelity.  Targets go in chunks of at
most _TILE (group, target) pairs, or of 16 targets where that is more.
"""

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .binlin import gfp_rref_stack
from .pauli import _ZETA, MAX_ENTRIES, PauliOperator, ResourceLimitError, StabilizerTableau
from .pauli import _check_size, _digits, _index, _rephased, _sites

# most states in one read, and a table batch holds 8x as many entries (one
# group always fits): reads of more states, and batches of fewer entries, ran
# slower at n = 4 and 5
_BLOCK_STATES = 1024
# most entries in one working array of best_overlaps, but for the float32
# sums of a 16-target chunk, which hold 16 per group
_TILE = 1 << 17


def count_stabilizer_states(n: int, d: int = 2) -> int:
    """Closed-form count d^n * prod_{k=0}^{n-1} (d^{n-k} + 1), (n, d) by ``pauli._sites``."""
    n, d = _sites(n, d)
    count = d**n
    for k in range(n):
        count *= d ** (n - k) + 1
    return count


def _lex_digits(index, m: int, d: int) -> np.ndarray:
    """The m base-d digits of each entry of index, most significant first:
    over index = 0 .. d^m - 1, every vector of Z_d^m in lex order."""
    return np.asarray(index)[:, None] // d ** np.arange(m - 1, -1, -1) % d


def _rref_matrices(n: int, k: int, d: int) -> np.ndarray:
    """(count, k, n) array of all k x n reduced-row-echelon matrices of rank k
    over GF(d), lex order."""
    blocks = []
    for pivots in itertools.combinations(range(n), k):
        free_pos = [
            (i, c)
            for i in range(k)
            for c in range(pivots[i] + 1, n)
            if c not in pivots
        ]
        values = _lex_digits(np.arange(d ** len(free_pos)), len(free_pos), d)
        R = np.zeros((len(values), k, n), dtype=np.int64)
        R[:, range(k), pivots] = 1
        for (i, c), v in zip(free_pos, values.T):
            R[:, i, c] = v
        blocks.append(R)
    return np.concatenate(blocks)


def _symmetric_matrices(index, k: int, d: int) -> np.ndarray:
    """(len(index), k, k) array of the symmetric k x k matrices over GF(d)
    with the given positions in lex order (of the upper triangle, row by row)."""
    rows, cols = np.triu_indices(k)
    place = np.empty((k, k), dtype=np.intp)
    place[rows, cols] = place[cols, rows] = np.arange(len(rows))
    return _lex_digits(index, len(rows), d)[:, place]


def _iter_tables(n: int, d: int):
    """Yield (elements, phases) batches of group tables (see ``_group_tables``)
    over all stabilizer groups, with no amplitude arithmetic.

    The groups of subspace dimension k are the pairs of an RREF X-block R
    and a symmetric k x k matrix S, R major.  A batch is the next m =
    max(1, 8 _BLOCK_STATES / d^n) of them, (m, d^n) tables from one
    ``_group_tables`` call, so it spans successive R and may split an R's
    run of S at either end; only the last batch of each k is short.  The
    set-up of every R of one k (its Z rows by ``gfp_rref_stack``, and the
    map that gives its lifts) is done at once, and each batch's S are
    formed from their lex positions.  In all, the batches give every group
    in a fixed deterministic order: subspace dimension ascending, then R
    and S lex; a group's columns follow the order of ``_tableaux``.
    """
    run = max(1, 8 * _BLOCK_STATES // d**n)
    for k in range(n + 1):
        all_R, count_S = _rref_matrices(n, k, d), d ** (k * (k + 1) // 2)
        count = len(all_R)
        # per R: E, whose row i is e_(pivot i), and the free columns f ascending
        E = np.eye(n, dtype=np.int64)[np.argmax(all_R != 0, axis=2)]
        free = np.argsort(E.sum(axis=1), axis=1, kind="stable")[:, : n - k]
        # the Z rows, e_f - sum_i R[i, f] e_(pivot i) for each free column f,
        # made canonical, and in step order (reversed)
        znull = np.eye(n, dtype=np.int64)[free]
        znull -= np.take_along_axis(all_R, free[:, None, :], axis=2).transpose(0, 2, 1) @ E
        znull, zmask = gfp_rref_stack(znull, d)
        zrows = znull[:, ::-1]
        # the lifts start supported on the pivot columns of R, as S E, and are
        # made canonical by clearing the Z-block pivot columns: S lift (mod d)
        zpiv = np.nonzero(zmask)[1].reshape(count, n - k)
        lift = (E - np.take_along_axis(E, zpiv[:, None, :], axis=2) @ znull) % d
        gen_x = np.zeros((count, n, n), dtype=np.int64)
        gen_x[:, :k] = all_R
        for g0 in range(0, count * count_S, run):
            r, s = np.divmod(np.arange(g0, min(g0 + run, count * count_S)), count_S)
            lifts = (_symmetric_matrices(s, k, d) @ lift[r]) % d
            rx = np.einsum("gij,gij->gi", all_R[r], lifts)
            gen_z = np.concatenate([lifts, zrows[r]], axis=1)
            gen_t = np.zeros((len(r), n), dtype=np.int64)
            gen_t[:, :k] = (-rx) % 4 if d == 2 else (2 * rx) % 6
            yield _group_tables(gen_x[r], gen_z, gen_t, d)


def _read_states(elements, phases, n: int, d: int) -> np.ndarray:
    """The states of the groups whose tables (see ``_group_tables``) are
    elements and phases, any run of them: (groups d^n, d^n), one row per
    state in column order.

    The states are read off the tables (Dehaene and De Moor,
    quant-ph/0304125).  With k X-type generators (the elements d^i whose X
    part is nonzero), a group's first d^k entries c = y, little-endian over
    them, are its X span: the elements zeta^(phases[c] - x.z) Z^z X^x with
    x = yR.  The state of column (eps_z, sigma), eps_z the digits of the
    Z-type generators and sigma those of the X-type ones, is
    d^(-k/2) sum_y zeta^e(y) |w0 + yR>, supported on a coset, with

        e(y) = phases[c] + x.z + 2 z.w0 + 2 sigma.y     (mod 2d).

    w0 solves the Z-type generators' equations z.w = -eps_z with free
    variables zero: it is -eps_z at their leading columns and zero
    elsewhere, so y = 0 gives the least index of each coset, and e(0) = 0
    makes the first nonzero amplitude real positive.
    """
    dim = d**n
    add, _, dot = _tables(n, d)[:3]
    digits, steps = _digits(n, d)
    psi = np.zeros((len(elements) * dim, dim), dtype=complex)
    # k of each group, and the runs [a, b) of groups that share it
    ks = (elements[:, steps] >= dim).sum(axis=1)
    cuts = [0, *(np.flatnonzero(ks[1:] != ks[:-1]) + 1).tolist(), len(ks)]
    for a, b in zip(cuts, cuts[1:]):
        k = int(ks[a])
        x, z = np.divmod(elements[a:b, : d**k].astype(np.int64), dim)
        # w0 for each eps_z: its digits negated, at the Z rows' leading columns
        lead = steps[np.argmax(digits[elements[a:b, steps[k:]]] != 0, axis=2)]
        w0 = lead @ (-digits[: d ** (n - k), : n - k] % d).T
        # e(y) up to its character term 2 sigma.y, over each X span
        e0 = phases[a:b, : d**k] + dot.ravel()[x * dim + z]
        e0 = e0[:, None, :] + 2 * dot[z[:, None, :], w0[:, :, None]]
        expo = (e0[:, :, None, :] + 2 * dot[: d**k, : d**k]) % (2 * d)
        # state (group, eps_z, sigma) is row rows[group, eps_z, sigma] of psi
        rows = np.arange(a * dim, b * dim).reshape(b - a, -1, d**k, 1)
        offsets = rows * dim + add[w0[:, :, None], x[:, None, :]][:, :, None, :]
        psi.reshape(-1)[offsets] = (float(d) ** (-k / 2) * _ZETA[d])[expo]
    return psi


def _iter_blocks(batches, n: int, d: int):
    """Yield (elements, phases, psi): each (elements, phases) batch of group
    tables (see ``_group_tables``), those of ``_iter_tables`` or a
    dictionary's stored ones, cut into runs of at most max(1, _BLOCK_STATES /
    d^n) groups, and their states, read off their tables by ``_read_states``.
    The one place that cuts tables into runs."""
    run = max(1, _BLOCK_STATES // d**n)
    for elements, phases in batches:
        for g in range(0, len(elements), run):
            block = slice(g, g + run)
            yield elements[block], phases[block], _read_states(elements[block], phases[block], n, d)


def _tableaux(elements, phases, n: int, d: int, columns):
    """Canonical tableaux of the given columns of one group, decoded from
    its table row (see ``_group_tables``): entry d^i is generator i in step
    order, the one that moves at column d^i.

    The canonical rows take the k X-type generators (nonzero X part) first,
    then the Z-type ones reversed: the characters count the former
    little-endian and eps_z counts the latter lex, last fastest.  Column j
    adds 2 digit_i(j) to the exponent of generator i, digits little-endian
    in d.

    The columns share their X and Z rows, so every check runs once per
    call, not once per column: each generator's d phased PauliOperators are
    built by their checked constructor once, up front, and the first
    column's tableau is checked while the others are ``_rephased`` from it."""
    dim = d**n
    steps = d ** np.arange(n)
    x, z = (code[:, None] // steps % d for code in divmod(elements[steps], dim))
    t = (phases[steps] - (x * z).sum(axis=1)) % (2 * d)
    xs, zs, ts = [*map(tuple, x.tolist())], [*map(tuple, z.tolist())], t.tolist()
    k = sum(map(any, xs))
    # per generator, canonical order: its place value in j, its operator at each digit v
    phased = [
        (d**i, [PauliOperator(n, d, xs[i], zs[i], (ts[i] + 2 * v) % (2 * d)) for v in range(d)])
        for i in [*range(k), *range(n - 1, k - 1, -1)]
    ]
    first = None
    for j in columns:
        gens = tuple(ops[j // s % d] for s, ops in phased)
        if first is None:
            first = StabilizerTableau(n, d, gens)
            yield first
        else:
            yield _rephased(first, gens)


def _tables(n: int, d: int) -> tuple[np.ndarray, ...]:
    """Lookup tables over Z_d^n, each element a little-endian integer in d:
    the sums a + b, the negations -a, the dot products a.b over the integers
    (|a & b| for qubits) and the characters omega^(a.b), for qubits the one real
    C-contiguous +-1 table of every transform (a strided view reorders BLAS
    sums).  Read-only.  Kept for the life of the process for the (n, d) that
    ``_check_tables`` accepts (qubits n <= 5, qutrits n <= 4), and built per
    call beyond: four 729 x 729 tables at six qutrits."""
    if count_stabilizer_states(n, d) <= MAX_ENTRIES:
        return _kept_tables(n, d)
    return _build_tables(n, d)


def _build_tables(n: int, d: int) -> tuple[np.ndarray, ...]:
    """The four tables of ``_tables``, built afresh."""
    digits, place = _digits(n, d)
    weight = digits @ digits.T
    tables = (
        # one digit at a time: a (d^n, d^n, n) sum of digits would hold n times the table
        sum((digits[:, i, None] + digits[:, i]) % d * place[i] for i in range(n)),
        (-digits % d) @ place,
        weight,
        (_ZETA[d].real if d == 2 else _ZETA[d])[2 * weight % (2 * d)],
    )
    for table in tables:
        table.flags.writeable = False
    return tables


_kept_tables = functools.lru_cache(maxsize=None)(_build_tables)


def _pauli_coordinates(R: np.ndarray, n: int, d: int) -> np.ndarray:
    """Tr(r P_xz) for every operator r = R[:, :, k] and every P_xz =
    zeta^(-x.z) Z^z X^x (x.z over the integers), one row per (x, z), x major.
    For qubits P_xz is the Hermitian Pauli and the rows keep the real part,
    exact for Hermitian r; for qutrits they are complex.  With omega = zeta^2,

        Tr(r Z^z X^x) = sum_u omega^(z.u) r[u - x, u],

    one gather over all X parts x and one batched Fourier transform (a
    Hadamard matrix product for qubits).  The callers bound R: one operator,
    or a target chunk of best_overlaps.  ``_state_coordinates`` reads a
    qubit dictionary's own coordinates off its group tables instead."""
    dim = d**n
    add, neg, dot, fourier = _tables(n, d)
    s = fourier @ R[add[neg], np.arange(dim)]
    s *= _ZETA[d][-dot % (2 * d)][:, :, None]
    return np.ascontiguousarray(s.real if d == 2 else s).reshape(dim * dim, -1)


def _group_tables(gen_x, gen_z, gen_t, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Element tables of the stabilizer groups with X rows gen_x (groups, n,
    n), Z rows gen_z (groups, n, n) and first-state zeta exponents gen_t
    (groups, n), all in step order: any groups, of any row spaces, in one
    call.

    The element P_c = prod_i g_i^c_i, c little-endian over the generators,
    is the one whose character sigma.c orders the group's states (sigma the
    column's digits); element d^i is g_i itself.  The elements come by
    doubling, P_(c + e_i) = P_c g_i, on integer-coded X and Z parts.
    Returns (groups, d^n) int64 tables: each element's row x d^n + z of
    ``_pauli_coordinates``, and its zeta exponent relative to that row's
    P_xz.  ``StabilizerDictionary`` keeps them in the smallest integer types.
    Every exponent is 0 or d, the element's sign on the group's first state,
    so the tables' readers take that sign as ``_ZETA[d].real[phase]``.
    """
    count, n = gen_t.shape
    dim = d**n
    # (generator, group) arrays below, so that numpy loops run over the groups
    place = d ** np.arange(n)
    gx, gz, gt = (gen_x @ place).T, (gen_z @ place).T, gen_t.T
    add, _, weight = (table.ravel() for table in _tables(n, d)[:3])
    x, z, t = (np.zeros((dim, count), dtype=np.int64) for _ in range(3))
    for i in range(n):
        for a in range(d**i, d ** (i + 1), d**i):
            old, new = slice(a - d**i, a), slice(a, a + d**i)
            # zeta^t Z^z X^x zeta^t_i Z^z_i X^x_i = zeta^(t + t_i - 2 x.z_i) Z^(z+z_i) X^(x+x_i)
            row = x[old] * dim
            t[new] = t[old] + gt[i] - 2 * weight[row + gz[i]]
            x[new] = add[row + gx[i]]
            z[new] = add[z[old] * dim + gz[i]]
    elements = x * dim + z
    return elements.T, ((t + weight[elements]) % (2 * d)).T


def _state_coordinates(groups, phases, n: int) -> np.ndarray:
    """``_pauli_coordinates`` of the qubit states of the given groups, read
    off their tables (see ``_group_tables``): the 4^n x (2^n groups) matrix
    whose column for state sigma of group g is (-1)^(sigma.c) zeta^phases[g, c]
    on row groups[g, c] and 0 elsewhere, each entry exactly +-1 or 0.  It is
    the transpose of ``_best_in_groups``' character sums."""
    dim = 2**n
    out = np.zeros((dim * dim, len(groups) * dim))
    columns = np.arange(out.shape[1]).reshape(-1, dim, 1)
    out[groups[:, None, :], columns] = _ZETA[2].real[phases][:, None, :] * _tables(n, 2)[3]
    return out


def _state_pricer(groups, phases, n: int):
    """The map y -> y @ ``_state_coordinates(groups, phases, n)``, which
    never forms the matrix: for each group, y gathered at its elements times
    their +-1 zeta^phases, then one product with the 2^n x 2^n Hadamard
    table, in the same column order.  Each entry sums the same 2^n signed
    terms as the dense product.  The gather index and the signs are made
    once, here, for the many dual vectors of one LP."""
    rows = groups.astype(np.intp)
    signs, hadamard = _ZETA[2].real[phases], _tables(n, 2)[3]

    def price(y):
        u = y.take(rows)
        u *= signs
        return (u @ hadamard).ravel()

    return price


def _best_in_groups(groups, phases, coords, n: int, d: int):
    """max_j Tr(r phi_j), and the lowest j attaining it, for the Hermitian
    operators r whose ``_pauli_coordinates`` are the columns of coords, over
    the groups whose tables (see ``_group_tables``) are groups and phases:
    ``best_overlaps`` for r = |v><v|.

    A group's fidelities F(sigma) are nonnegative, sum to k = Tr r = u_0 and
    have d^n sum_sigma F^2 = sum_c |u_c|^2 (Parseval).  So a group whose
    maximum reaches L >= k/d^n has

        sum_c |u_c|^2 >= d^n (L^2 + (k - L)^2 / (d^n - 1)),

    which prunes more than d^n L^2 at every rank, most for mixed r.  L is
    the exact maximum over each target's group of largest sum, lowered by
    1e-9.  The sums are taken in float32: a sum of d^n nonnegative float32
    squares lies within a relative (d^n + 1) 2^-24 of the float64 one
    (4.9e-6 at four qutrits), so the threshold is lowered by twice that and
    keeps every pair that float64 sums would.  When all the pairs' sums fit
    in _TILE entries, no bound is taken and every pair is kept.

    Every returned value comes from one exact stage: the kept pairs' float64
    character sums, in chunks of _TILE / d^n pairs, and one lexsort that
    picks, per target, the pair of largest maximum, the lowest group on
    ties.  "Lowest j" holds for exact ties only: fidelities equal up to
    rounding (sums of stabilizer states with 1/sqrt(2)-type amplitudes) are
    ranked by their last bits."""
    dim = d**n
    count, m = len(groups), coords.shape[1]
    fourier = _tables(n, d)[3]

    def exact(g, t):
        """All d^n fidelities of the pairs (group g, target t), in column order."""
        u = _ZETA[d].real[phases.take(g, axis=0)] * coords[groups.take(g, axis=0), t[:, None]]
        return (u @ fourier).real / dim

    if groups.size * dim * m <= _TILE:  # so few sums that bounding them costs more
        keep = np.ones((count, m), dtype=bool)
    else:
        # sum_c |u_c|^2 in float32, one (groups, targets) gather per element c
        squares = (np.abs(coords) ** 2).astype(np.float32)
        bound = squares.take(groups[:, 0], axis=0)
        for c in range(1, dim):
            bound += squares.take(groups[:, c], axis=0)
        trace = coords[0].real
        top = exact(bound.argmax(axis=0), np.arange(m)).max(axis=1)
        lower = np.maximum(top * (1 - 1e-9), trace / dim)
        need = dim * (lower**2 + (trace - lower) ** 2 / (dim - 1))
        keep = bound >= (need * (1 - 2 * (dim + 1) * 2.0**-24)).astype(np.float32)
    # the kept pairs in row order, as np.nonzero(keep) gives them, but
    # from the flat indices: a tenth of the 2-D call's time on these shapes
    g, t = np.divmod(np.flatnonzero(keep), m)
    best, arg = np.empty(len(g)), np.empty(len(g), dtype=np.int64)
    step = max(1, _TILE // dim)
    for s0 in range(0, len(g), step):
        f = exact(g[s0 : s0 + step], t[s0 : s0 + step])
        arg[s0 : s0 + step] = f.argmax(axis=1)
        best[s0 : s0 + step] = f[np.arange(len(f)), arg[s0 : s0 + step]]
    # per target, the pair of largest maximum, the lowest group on ties
    ranked = np.lexsort((g, -best, t))
    pick = ranked[np.searchsorted(t[ranked], np.arange(m))]
    return best[pick], g[pick] * dim + arg[pick]


@dataclass
class StabilizerDictionary:
    """All pure stabilizer states for (n, d), held as the element table of
    each group of d^n consecutive columns (see ``_group_tables``); dense
    columns are read off the tables on first use (see ``_read_states``).
    (n, d) pass ``pauli._sites`` and are stored as the ints it returns."""

    n: int
    d: int
    # (N / d^n, d^n) read-only tables of _group_tables in the smallest integer
    # types, one row per group: each element's row x d^n + z of
    # _pauli_coordinates, and its zeta exponent
    elements: np.ndarray
    phases: np.ndarray

    def __post_init__(self):
        self.n, self.d = _sites(self.n, self.d)
        dim = self.d**self.n
        shapes = self.elements.shape, self.phases.shape
        if len(shapes[0]) != 2 or shapes[0][1] != dim or shapes[1] != shapes[0]:
            raise ValueError(
                f"elements and phases need one row of {dim} entries per group, got {shapes}"
            )

    @property
    def size(self) -> int:
        return len(self.elements) * self.d**self.n

    @functools.cached_property
    def states(self) -> np.ndarray:
        """(d^n, N) complex128, columns normalized: every state, read off the
        tables on first use by ``_iter_blocks`` and kept, read-only; N d^n
        must be within MAX_ENTRIES (qubits n <= 4, qutrits n <= 3)."""
        message = f"dense states of n={self.n}, d={self.d} exceed 2^24 amplitudes"
        _check_size(self.n, lambda: self.size * self.d**self.n, message)
        states = np.empty((self.d**self.n, self.size), dtype=complex)
        col = 0
        for _, _, psi in _iter_blocks([(self.elements, self.phases)], self.n, self.d):
            states[:, col : col + len(psi)] = psi.T
            col += len(psi)
        states.flags.writeable = False
        return states

    def _column(self, i: int) -> tuple[int, int]:
        """The group of column i and i's place in it.  i is an integer, not a
        bool (``pauli._index``); a negative i counts from the end, and one
        out of range is an IndexError naming it and the size."""
        i = _index(i, "column")
        if not -self.size <= i < self.size:
            raise IndexError(f"column {i} is out of range for a dictionary of {self.size} states")
        return divmod(i % self.size, self.d**self.n)

    def tableau(self, i: int) -> StabilizerTableau:
        """Canonical tableau of column i, decoded from its group's table row
        (column i as ``_column`` reads it)."""
        g, j = self._column(i)
        return next(_tableaux(self.elements[g], self.phases[g], self.n, self.d, [j]))

    def state(self, i: int) -> np.ndarray:
        """Column i, read off its group's table row alone (column i as
        ``_column`` reads it)."""
        g, j = self._column(i)
        return _read_states(self.elements[[g]], self.phases[[g]], self.n, self.d)[j]

    def best_overlaps(self, V: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """max_j |<phi_j|v>|^2 for every column v of V, and the lowest j
        attaining it.

        Works group by group (see ``_group_tables``) and never forms the
        overlap matrix.  For a target v and a group with elements g^c, let
        u_c = <v|g^c|v>.  The group's d^n states have the fidelities

            F(sigma) = d^-n sum_c omega^(sigma.c) u_c,

        a Walsh-Hadamard transform for qubits and a Z_3^n character sum for
        qutrits, so Parseval bounds sum_sigma F^2 by d^-n sum_c |u_c|^2, and
        the F sum to |v|^2.  Every (group, target) pair gets that sum of
        gathered squared Pauli expectations, in float32.  The exact maximum
        over each target's group of largest sum is a lower bound L, and only
        the pairs whose sum can reach L, by the rank-aware threshold and the
        float32 slack of ``_best_in_groups``, are kept; a chunk with at most
        _TILE entries of sums in all (n <= 3 qubits and n <= 2 qutrits, a
        few targets) takes no bound and keeps every pair.  Every returned
        fidelity comes from one exact stage, the kept pairs' float64
        character sums, and one pick: exact ties keep the lowest j;
        fidelities equal only up to rounding are ranked by their last bits.

        Targets go in even chunks of at most _TILE (group, target) pairs,
        but of at least 16 targets where that many groups (over _TILE / 16:
        n = 5 qubits, four qutrits) would make them smaller: each gather
        streams one column of the group tables, and 16 targets make each
        group's row of float32 sums 64 bytes.  Chunks of two targets cost
        more a target than single calls at n = 5.  A real V is taken as its
        complex cast, and a complex V as it is.
        """
        V = np.asarray(V, dtype=np.result_type(V, 1j))
        if V.ndim != 2 or V.shape[0] != self.d**self.n:
            raise ValueError("state dimension mismatch")
        m = V.shape[1]
        fidelities = np.empty(m)
        indices = np.empty(m, dtype=np.int64)
        chunks = max(1, min(-(-m * len(self.elements) // _TILE), -(-m // 16)))
        step = max(1, -(-m // chunks))
        for t0 in range(0, m, step):
            W = V[:, t0 : t0 + step]
            coords = _pauli_coordinates(W[:, None] * W.conj(), self.n, self.d)
            best = _best_in_groups(self.elements, self.phases, coords, self.n, self.d)
            fidelities[t0 : t0 + step], indices[t0 : t0 + step] = best
        return fidelities, indices


def _check_tables(n: int, d: int) -> tuple[int, int]:
    """(n, d) as ``pauli._sites`` returns them, or refused at the call over
    MAX_ENTRIES states: the tables reach qubits n <= 5 and qutrits n <= 4."""
    n, d = _sites(n, d)
    message = f"stabilizer tables for n={n}, d={d} exceed 2^24 states"
    _check_size(n, lambda: count_stabilizer_states(n, d), message)
    return n, d


def iter_stabilizer_states(n: int, d: int = 2):
    """Stream (tableau, state) pairs without materializing the dictionary,
    its sizes checked at the call by ``_check_tables``; the tableaux are
    checked once per stabilizer group, on its first state (see ``_tableaux``)."""
    n, d = _check_tables(n, d)
    dim = d**n
    return (
        pair
        for elements, phases, psi in _iter_blocks(_iter_tables(n, d), n, d)
        for row, phase_row, phis in zip(elements, phases, psi.reshape(-1, dim, dim))
        for pair in zip(_tableaux(row, phase_row, n, d, range(dim)), phis)
    )


def enumerate_stabilizer_states(n: int, d: int = 2) -> StabilizerDictionary:
    """Dictionary of all stabilizer states, exact count by construction: the
    group tables are built eagerly by ``_iter_tables``, and the dense columns
    are read off them on demand (``StabilizerDictionary.states`` and
    ``state``).  ``_check_tables`` bounds the sizes at the call."""
    n, d = _check_tables(n, d)
    dim = d**n
    total = count_stabilizer_states(n, d)
    # allocated first, so that they sit below the build's temporaries in the heap
    elements = np.empty((total // dim, dim), dtype=np.min_scalar_type(dim * dim - 1))
    phases = np.empty((total // dim, dim), dtype=np.int8)
    count = 0
    for block_elements, block_phases in _iter_tables(n, d):
        block = slice(count, count + len(block_elements))
        elements[block], phases[block] = block_elements, block_phases
        count += len(block_elements)
    if count * dim != total:
        raise AssertionError(f"enumeration produced {count * dim} != {total} states")
    elements.flags.writeable = phases.flags.writeable = False
    return StabilizerDictionary(n, d, elements, phases)
