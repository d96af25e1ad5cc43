import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from magiclab.binlin import gf2_rank
from magiclab.boolfn import BooleanFunction, hypergraph_state, nonquadraticity, parse_anf
from magiclab.lattice import (
    TRIANGULAR_BOUND_PER_QUBIT,
    UNION_JACK_BOUND_PER_QUBIT,
    build_lattice_state,
    cell_decompose,
    decomposition_bound,
    lattice_bound,
    lattice_centers,
    make_lattice,
    quadratic_h_invariants,
    separable_bound,
    triangular_lattice,
    union_jack_lattice,
)
from magiclab.measures import dmin


def test_triangular_periodic_counts():
    L = triangular_lattice(3, 3, "periodic")
    assert L.n == 9
    assert len(L.triangles) == 18  # two triangles per cell of the grid
    assert len(L.edges) == 27


def test_triangular_open_counts():
    L = triangular_lattice(3, 4, "open")
    assert L.n == 12
    assert len(L.triangles) == 2 * 2 * 3


def test_union_jack_counts():
    U = union_jack_lattice(4, 4, "periodic")
    assert U.n == 16 + 16
    assert len(U.triangles) == 64
    U2 = union_jack_lattice(2, 2, "open")
    assert U2.n == 9 + 4
    assert len(U2.triangles) == 16


def test_lattice_validation():
    with pytest.raises(ValueError):
        triangular_lattice(1, 3)
    with pytest.raises(ValueError):
        make_lattice("triangular", 2, 2, "periodic")  # degenerate wrap
    with pytest.raises(ValueError):
        make_lattice("hexagonal", 3, 3)


def test_every_triangle_has_exactly_one_center():
    for L in (
        triangular_lattice(3, 3, "periodic"),
        triangular_lattice(4, 5, "open"),
        union_jack_lattice(4, 4, "periodic"),
        union_jack_lattice(3, 2, "open"),
    ):
        centers = set(lattice_centers(L))
        for tri in L.triangles:
            assert len(set(tri) & centers) == 1


def test_center_divisibility_guards():
    with pytest.raises(ValueError):
        lattice_centers(triangular_lattice(4, 3, "periodic"))
    with pytest.raises(ValueError):
        lattice_centers(union_jack_lattice(3, 4, "periodic"))


def test_single_triangle_decomposition():
    f = parse_anf("x1*x2*x3")
    deco = cell_decompose(f, [0])
    assert deco.s == 1
    assert deco.quadratics[0].monomials == frozenset({frozenset({1, 2})})
    assert deco.residual.monomials == frozenset()
    bd = decomposition_bound(deco)
    assert bd.h_nominal == (1,) and bd.h_rank == (1,)
    assert bd.chi_bound == Fraction(1)
    assert abs(bd.magic_bound - math.log2(16 / 9)) < 1e-12
    # matches the exhaustive nonquadraticity and the known state value
    assert nonquadraticity(f)[0] == 1


def test_decomposition_errors():
    f = parse_anf("x1*x2*x3 + x2*x3*x4")
    with pytest.raises(ValueError, match="no center"):
        cell_decompose(f, [0])  # second monomial uncovered
    with pytest.raises(ValueError, match="several centers"):
        cell_decompose(f, [1, 2])  # both centers inside x2*x3*...
    with pytest.raises(ValueError):
        cell_decompose(parse_anf("x1*x2*x3*x4"), [0])  # quartic
    with pytest.raises(ValueError):
        cell_decompose(f, [0, 0, 3])


def test_glued_triangles_chi_vs_bound(dict2_4):
    f = parse_anf("x1*x2*x3 + x2*x3*x4")
    deco = cell_decompose(f, [1])  # x2 covers both monomials
    bd = decomposition_bound(deco)
    chi, _ = nonquadraticity(f)
    assert chi <= bd.chi_bound
    assert chi <= bd.chi_bound_rank
    value, _ = dmin(hypergraph_state(f), dict2_4)
    assert value <= bd.magic_bound + 1e-9
    assert value <= bd.magic_bound_rank + 1e-9


def test_triangular_bound_constants():
    L = triangular_lattice(3, 3, "periodic")
    deco, bd = lattice_bound(L, "ccz-only")
    assert bd.s == L.n // 3
    # every center collects its six surrounding triangles into a hexagon ring
    assert all(len(q.monomials) == 6 for q in deco.quadratics)
    assert set(bd.h_nominal) == {3}
    assert set(bd.h_rank) == {2}  # even cycles are degenerate
    assert bd.log_argument == Fraction(9, 8) ** bd.s
    assert abs(bd.magic_bound_per_qubit - TRIANGULAR_BOUND_PER_QUBIT) < 1e-12
    assert abs(
        bd.magic_bound_per_qubit - (Fraction(2, 3) - Fraction(2, 3) * math.log2(9 / 8))
    ) < 1e-12
    assert bd.magic_bound_rank < bd.magic_bound


def test_union_jack_bound_constants():
    U = union_jack_lattice(4, 4, "periodic")
    deco, bd = lattice_bound(U, "ccz-only")
    assert bd.s == U.n // 4
    assert set(bd.h_nominal) == {4}
    assert set(bd.h_rank) == {3}
    assert bd.log_argument == Fraction(17, 16) ** bd.s
    assert abs(bd.magic_bound_per_qubit - UNION_JACK_BOUND_PER_QUBIT) < 1e-12


def test_levin_gu_only_changes_low_degree():
    L = triangular_lattice(3, 3, "periodic")
    f_ccz = build_lattice_state(L, "ccz-only")
    f_lg = build_lattice_state(L, "levin-gu")
    assert (f_ccz ^ f_lg).degree <= 2
    # bounds are insensitive to the quadratic part
    _, bd1 = lattice_bound(L, "ccz-only")
    _, bd2 = lattice_bound(L, "levin-gu")
    assert bd1.magic_bound == bd2.magic_bound


def test_open_boundary_center_count_near_third():
    for rows, cols in ((4, 5), (6, 6), (5, 7)):
        L = triangular_lattice(rows, cols, "open")
        s = len(lattice_centers(L))
        assert abs(s - L.n / 3) <= 2 * math.sqrt(L.n)


def test_small_open_lattice_exhaustive_chi():
    L = triangular_lattice(2, 3, "open")
    f = build_lattice_state(L, "ccz-only")
    deco = cell_decompose(f, lattice_centers(L))
    bd = decomposition_bound(deco)
    chi, _ = nonquadraticity(f)
    assert chi <= bd.chi_bound
    assert chi <= bd.chi_bound_rank


def test_single_triangle_dmin_vs_bound(dict2_3, ccz_state):
    f = parse_anf("x1*x2*x3")
    bd = decomposition_bound(cell_decompose(f, [0]))
    value, _ = dmin(ccz_state, dict2_3)
    assert value <= bd.magic_bound + 1e-9
    assert abs(value - bd.magic_bound) < 1e-9  # tight at the single triangle


def test_zero_center_removal_keeps_bound():
    # a center whose cell function is empty contributes nothing; removing it
    # is the only legal removal and never decreases the bound
    rng = np.random.default_rng(8)
    for _ in range(10):
        f = parse_anf("x1*x2*x3 + x1*x4*x5")
        extra = int(rng.integers(5, 8))
        deco_small = cell_decompose(f, [0])
        f_wide = BooleanFunction(8, f.monomials)
        deco_wide = cell_decompose(f_wide, [0, extra])
        small = decomposition_bound(
            cell_decompose(BooleanFunction(8, f.monomials), [0])
        )
        wide = decomposition_bound(deco_wide)
        assert wide.magic_bound >= small.magic_bound - 1e-12


def test_h_invariants_on_paths_and_cycles():
    # paths are nondegenerate (nominal = rank); even cycles lose one
    path = BooleanFunction(4, frozenset({frozenset({0, 1}), frozenset({1, 2}), frozenset({2, 3})}))
    assert quadratic_h_invariants(path) == (2, 2)
    cyc = BooleanFunction(
        4,
        frozenset(
            {frozenset({0, 1}), frozenset({1, 2}), frozenset({2, 3}), frozenset({3, 0})}
        ),
    )
    assert quadratic_h_invariants(cyc) == (1, 2)


def test_h_invariants_match_dense_rank_on_random_graphs():
    # a second path to the packed rows: the dense adjacency matrix over all
    # vertices, isolated ones included, through gf2_rank
    rng = np.random.default_rng(17)
    for _ in range(200):
        n = int(rng.integers(1, 11))
        adjacency = np.triu(rng.integers(0, 2, size=(n, n)), 1)
        adjacency += adjacency.T
        monomials = {frozenset(map(int, e)) for e in zip(*np.nonzero(np.triu(adjacency)))}
        monomials |= {frozenset({i}) for i in range(n) if rng.random() < 0.2}
        v = len(frozenset().union(*monomials))
        q = BooleanFunction(n, monomials)
        assert quadratic_h_invariants(q) == (gf2_rank(adjacency) // 2, v // 2)


def test_verify_detects_broken_decompositions():
    L = triangular_lattice(3, 3, "periodic")
    deco, _ = lattice_bound(L, "levin-gu")
    assert deco.verify() and deco.residual.monomials
    lost = set(deco.residual.monomials)
    lost.pop()
    assert not dataclasses.replace(deco, residual=BooleanFunction(L.n, lost)).verify()
    q = deco.quadratics[0]
    ring = sorted(frozenset().union(*q.monomials))
    extra = next(
        frozenset({a, b})
        for a in ring
        for b in ring
        if a < b and frozenset({a, b}) not in q.monomials
    )
    grown = BooleanFunction(L.n, q.monomials | {extra})
    quadratics = (grown,) + deco.quadratics[1:]
    assert not dataclasses.replace(deco, quadratics=quadratics).verify()


def test_rank_bound_past_float_range():
    # (5/4)^3267 is about 2^1052: the log must not go through float(prod)
    L = triangular_lattice(99, 99, "periodic")
    _, bd = lattice_bound(L, "ccz-only")
    assert bd.log_argument_rank == Fraction(5, 4) ** (L.n // 3)
    expected = 2 / 3 - (2 / 3) * math.log2(5 / 4)
    assert abs(bd.magic_bound_rank / L.n - expected) < 1e-12
    assert abs(bd.magic_bound_per_qubit - TRIANGULAR_BOUND_PER_QUBIT) < 1e-12


def test_separable_bound_values():
    assert abs(separable_bound(3) - math.log2(16 / 9)) < 1e-12
    assert abs(separable_bound(6) - 2 * math.log2(16 / 9)) < 1e-12
    assert abs(separable_bound(30) - 8.30074998557688) < 1e-10
    with pytest.raises(ValueError):
        separable_bound(2)
