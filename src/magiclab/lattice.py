"""Triangulated 2D lattice states and cell-decomposition magic bounds.

Two lattice families are generated:

* ``triangular`` - rows x cols vertices, every unit triangle (both
  orientations) carries a CCZ.  Vertices 3-color by (row - col) mod 3; the
  color-0 vertices are cell centers, each surrounded by a hexagonal ring,
  and every triangle contains exactly one center.
* ``union-jack`` - a square grid plus one extra vertex per face joined to
  the face's corners; every face splits into 4 triangles.  Grid vertices
  with even (row + col) are centers, each surrounded by an 8-ring of odd
  grid vertices and face centers.

Vertex indexing is row-major over the grid (then row-major over face
centers for union-jack); the full (row, col, sublattice) -> index map is
part of the construction and dumped by the CLI.  A cell at (r, c) finds
its corner (r + i, c + j), i, j in {0, 1}, at (r + i mod R, c + j mod C) of
its builder's vertex grid of R x C: rows x cols for triangular, and for
union-jack rows x cols when periodic and (rows + 1) x (cols + 1) when open.
So only a periodic lattice wraps; an open triangular lattice has
(rows - 1) x (cols - 1) cells, and no corner of an open cell leaves the grid.

Given an order-s split f = sum_i x_{c_i} q_i + q of a cubic characteristic
function, the distance from f to the quadratics is bounded by

    chi(f) <= 2^(n-1) - 2^(n-s-1) * prod_i (1 + 2^(-h_i)),

and the min/max-relative entropies of the state by
2s - 2 log2 prod_i (1 + 2^(-h_i)).  Two values of the quadratic invariant
h_i are reported: ``h_rank`` is the Dickson index rank(Q_i + Q_i^T)/2 over
GF(2), and ``h_nominal = floor(v_i / 2)`` treats the cell form on its v_i
variables as nondegenerate.  h_nominal >= h_rank always, and a larger h
only weakens the bound, so both are valid; the nominal value reproduces the
standard per-cell constants for these lattices (0.5534 n triangular,
0.4562 n union jack), while the rank value is sharper whenever the ring
form is degenerate (even cycles).

The chi bounds are exact ``Fraction`` values; ``magiclab lattice`` prints
them as exact strings (``str(Fraction)``), since 2^(n-1) leaves the float
range once n > 1024.
"""

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .binlin import gf2_row_rank
from .boolfn import BooleanFunction
from .pauli import _index

TRIANGULAR_BOUND_PER_QUBIT = 2 / 3 - (2 / 3) * math.log2(9 / 8)
UNION_JACK_BOUND_PER_QUBIT = 1 / 2 - (1 / 2) * math.log2(17 / 16)


@dataclass(frozen=True)
class Lattice:
    kind: str  # "triangular" | "union-jack"
    rows: int
    cols: int
    boundary: str  # "periodic" | "open"
    n: int
    labels: tuple[tuple, ...]  # index -> (sublattice, row, col)
    triangles: tuple[tuple[int, int, int], ...]
    edges: tuple[tuple[int, int], ...]


def _check_grid(rows: int, cols: int, boundary: str) -> tuple[int, int]:
    """rows and cols as ints, each an integer >= 2, not a bool (``pauli._index``)."""
    rows, cols = _index(rows, "rows", 2), _index(cols, "cols", 2)
    if boundary not in ("periodic", "open"):
        raise ValueError("boundary must be 'periodic' or 'open'")
    return rows, cols


def _corners(index, tag, r, c, grid_rows, grid_cols):
    """The ``tag`` vertices at the corners nw, ne, sw, se of cell (r, c), by
    the corner rule of the module docstring."""
    return [index[(tag, (r + i) % grid_rows, (c + j) % grid_cols)] for i in (0, 1) for j in (0, 1)]


def triangular_lattice(rows: int, cols: int, boundary: str = "periodic") -> Lattice:
    rows, cols = _check_grid(rows, cols, boundary)
    labels = tuple(("v", r, c) for r in range(rows) for c in range(cols))
    index = {lab: i for i, lab in enumerate(labels)}
    short = boundary == "open"  # so no corner of an open cell leaves the grid
    triangles = []
    for r in range(rows - short):
        for c in range(cols - short):
            nw, ne, sw, se = _corners(index, "v", r, c, rows, cols)
            triangles += [tuple(sorted((nw, ne, sw))), tuple(sorted((ne, sw, se)))]
    return _lattice("triangular", rows, cols, boundary, labels, triangles)


def union_jack_lattice(rows: int, cols: int, boundary: str = "periodic") -> Lattice:
    """rows x cols faces; grid vertices plus one face-center vertex per face."""
    rows, cols = _check_grid(rows, cols, boundary)
    grid_rows, grid_cols = (rows, cols) if boundary == "periodic" else (rows + 1, cols + 1)
    labels = [("g", r, c) for r in range(grid_rows) for c in range(grid_cols)]
    labels += [("c", r, c) for r in range(rows) for c in range(cols)]
    labels = tuple(labels)
    index = {lab: i for i, lab in enumerate(labels)}
    triangles = []
    for r in range(rows):
        for c in range(cols):
            nw, ne, sw, se = _corners(index, "g", r, c, grid_rows, grid_cols)
            center = index[("c", r, c)]
            for a, b in ((nw, ne), (ne, se), (se, sw), (sw, nw)):
                triangles.append(tuple(sorted((a, b, center))))
    return _lattice("union-jack", rows, cols, boundary, labels, triangles)


def _lattice(kind: str, rows: int, cols: int, boundary: str, labels, triangles) -> Lattice:
    """The lattice of these sorted triangles, whose sides are its edges."""
    if len(set(triangles)) != len(triangles):
        raise ValueError("degenerate wrap produced duplicate triangles")
    edges = {side for a, b, c in triangles for side in ((a, b), (a, c), (b, c))}
    return Lattice(
        kind, rows, cols, boundary, len(labels), labels, tuple(triangles), tuple(sorted(edges))
    )


def make_lattice(kind: str, rows: int, cols: int, boundary: str = "periodic") -> Lattice:
    if kind == "triangular":
        return triangular_lattice(rows, cols, boundary)
    if kind == "union-jack":
        return union_jack_lattice(rows, cols, boundary)
    raise ValueError(f"unknown lattice kind: {kind}")


def lattice_centers(L: Lattice) -> list[int]:
    """Decomposition centers: exactly one per triangle, never two in one."""
    if L.kind == "triangular":
        if L.boundary == "periodic" and (L.rows % 3 or L.cols % 3):
            raise ValueError(
                "periodic triangular centers need rows and cols divisible by 3"
            )
        return [
            i for i, (s, r, c) in enumerate(L.labels) if (r - c) % 3 == 0
        ]
    if L.boundary == "periodic" and (L.rows % 2 or L.cols % 2):
        raise ValueError("periodic union-jack centers need even rows and cols")
    return [
        i for i, (s, r, c) in enumerate(L.labels) if s == "g" and (r + c) % 2 == 0
    ]


def build_lattice_state(L: Lattice, phase: str = "ccz-only") -> BooleanFunction:
    """Characteristic function of the lattice state, one monomial per
    hyperedge.

    ``ccz-only`` places one size-3 hyperedge per triangle; ``levin-gu``
    additionally places an edge per lattice edge and a vertex per site, which
    only changes the function below degree 3.
    """
    if phase not in ("ccz-only", "levin-gu"):
        raise ValueError("phase must be 'ccz-only' or 'levin-gu'")
    hyperedges = {frozenset(t) for t in L.triangles}
    if len(hyperedges) != len(L.triangles):
        raise ValueError("duplicate triangles cannot form a hypergraph")
    if phase == "levin-gu":
        hyperedges |= {frozenset(e) for e in L.edges}
        hyperedges |= {frozenset({v}) for v in range(L.n)}
    return BooleanFunction(L.n, frozenset(hyperedges))


# --- order-s decompositions -----------------------------------------------------

@dataclass(frozen=True)
class CellDecomposition:
    """Split f = sum_i x_{c_i} q_i + q with every cubic monomial covered by
    exactly one center and every q_i quadratic in non-center variables."""

    f: BooleanFunction
    centers: tuple[int, ...]
    quadratics: tuple[BooleanFunction, ...]
    residual: BooleanFunction

    @property
    def s(self) -> int:
        return len(self.centers)

    def verify(self) -> bool:
        rebuilt = set(self.residual.monomials)
        for c, q in zip(self.centers, self.quadratics):
            center = frozenset((c,))
            for m in q.monomials:
                cubic = m | center
                if cubic in rebuilt:
                    rebuilt.remove(cubic)
                else:
                    rebuilt.add(cubic)
        return rebuilt == self.f.monomials


def cell_decompose(f: BooleanFunction, centers: list[int]) -> CellDecomposition:
    if f.degree > 3:
        raise ValueError("decomposition applies to cubic functions")
    center_set = frozenset(centers)
    if len(center_set) != len(centers):
        raise ValueError("duplicate centers")
    per_center: dict[int, list] = {c: [] for c in centers}
    residual = []
    for m in f.monomials:
        if len(m) == 3:
            hits = m & center_set
            if not hits:
                raise ValueError(f"cubic monomial {sorted(m)} contains no center")
            if len(hits) > 1:
                raise ValueError(
                    f"cubic monomial {sorted(m)} contains several centers"
                )
            (c,) = hits
            per_center[c].append(m - hits)
        else:
            residual.append(m)
    quadratics = tuple(BooleanFunction(f.n, per_center[c]) for c in centers)
    deco = CellDecomposition(f, tuple(centers), quadratics, BooleanFunction(f.n, residual))
    if not deco.verify():
        raise AssertionError("ANF identity lost during decomposition")
    return deco


def quadratic_h_invariants(q: BooleanFunction) -> tuple[int, int]:
    """(h_rank, h_nominal) of a quadratic form.

    h_rank is half the GF(2) rank of Q + Q^T (the Dickson index governing
    the weight 2^(v-1) +- 2^(v-1-h)); h_nominal = floor(v/2) is its maximal
    possible value for the form's variable count.  They agree whenever the
    form is nondegenerate (single edges, paths); even cycles are degenerate
    and get h_rank = v/2 - 1.
    """
    # row a of Q + Q^T, one per variable of q, with bit b set for each pair ab
    rows = dict.fromkeys(frozenset().union(*q.monomials), 0)
    for m in q.monomials:
        if len(m) == 2:
            a, b = m
            rows[a] ^= 1 << b
            rows[b] ^= 1 << a
    rank = gf2_row_rank(rows.values())
    if rank % 2:
        raise AssertionError("alternating form rank must be even")
    return rank // 2, len(rows) // 2


@dataclass(frozen=True)
class DecompositionBound:
    s: int
    n: int
    h_nominal: tuple[int, ...]
    h_rank: tuple[int, ...]
    chi_bound: Fraction
    magic_bound: float
    chi_bound_rank: Fraction
    magic_bound_rank: float

    @property
    def magic_bound_per_qubit(self) -> float:
        return self.magic_bound / self.n


def _bounds_from_h(n: int, s: int, hs: list[int]) -> tuple[Fraction, float]:
    prod = Fraction(1)
    for h, count in Counter(hs).items():
        prod *= Fraction(2**h + 1, 2**h) ** count
    chi = Fraction(2) ** (n - 1) - Fraction(2) ** (n - s - 1) * prod
    # log2(prod) as a whole shift plus the log of a factor in (1/2, 2):
    # float(prod) overflows once prod passes 2^1024
    shift = prod.numerator.bit_length() - prod.denominator.bit_length()
    magic = 2 * s - 2 * (shift + math.log2(prod / Fraction(2) ** shift))
    return chi, magic


def decomposition_bound(deco: CellDecomposition) -> DecompositionBound:
    """Distance-to-quadratics and magic bounds from an order-s decomposition.

    Both the nominal-invariant and rank-invariant variants are computed; see
    the module docstring for how they differ.
    """
    n, s = deco.f.n, deco.s
    h_rank, h_nom = [], []
    for q in deco.quadratics:
        hr, hn = quadratic_h_invariants(q)
        h_rank.append(hr)
        h_nom.append(hn)
    chi_nom, magic_nom = _bounds_from_h(n, s, h_nom)
    chi_rank, magic_rank = _bounds_from_h(n, s, h_rank)
    return DecompositionBound(
        s=s,
        n=n,
        h_nominal=tuple(h_nom),
        h_rank=tuple(h_rank),
        chi_bound=chi_nom,
        magic_bound=magic_nom,
        chi_bound_rank=chi_rank,
        magic_bound_rank=magic_rank,
    )


def lattice_bound(L: Lattice, phase: str = "ccz-only") -> tuple[CellDecomposition, DecompositionBound]:
    f = build_lattice_state(L, phase)
    deco = cell_decompose(f, lattice_centers(L))
    return deco, decomposition_bound(deco)


def separable_bound(n: int) -> float:
    """Reference magic bound (2 - (2/3) log2 6) * n for separable cubic
    functions, attained by disjoint CCZ triples."""
    return (2.0 - (2.0 / 3.0) * math.log2(6.0)) * _index(n, "n", 3)
