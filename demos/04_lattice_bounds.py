"""Magic bounds for 2D triangulated-lattice states.

Cubic characteristic functions decompose cell by cell: a center variable per
hexagon (triangular lattice) or per 8-ring (union jack), each multiplying a
ring quadratic.  The resulting per-qubit magic bounds stay well below both
the Haar-typical value (~n) and even the best product states (~0.34 n),
despite extensive entanglement.
"""

import numpy as np

from magiclab import (
    build_lattice_state,
    lattice_bound,
    separable_bound,
    triangular_lattice,
    union_jack_lattice,
)

for make, name, args in (
    (triangular_lattice, "triangular 3x3 periodic", (3, 3, "periodic")),
    (triangular_lattice, "triangular 6x6 periodic", (6, 6, "periodic")),
    (union_jack_lattice, "union jack 4x4 periodic", (4, 4, "periodic")),
    (triangular_lattice, "triangular 4x5 open", (4, 5, "open")),
):
    L = make(*args)
    deco, bound = lattice_bound(L, "ccz-only")
    print(f"{name}: n = {L.n}, triangles = {len(L.triangles)}")
    print(f"  order-s decomposition: s = {bound.s}  (s/n = {bound.s / L.n:.4f})")
    print(f"  cell invariants: nominal h = {sorted(set(bound.h_nominal))}, rank h = {sorted(set(bound.h_rank))}")
    print(f"  chi bound       {float(bound.chi_bound):.1f} of 2^(n-1) = {2 ** (L.n - 1)}")
    print(f"  magic bound     {bound.magic_bound:.4f}  ({bound.magic_bound_per_qubit:.4f} per qubit)")
    print(f"  rank-refined    {bound.magic_bound_rank:.4f}  ({bound.magic_bound_rank / L.n:.4f} per qubit)\n")

n = 9
print(f"reference separable-cubic bound at n = {n}: {separable_bound(n):.4f} ({separable_bound(n) / n:.4f} per qubit)")
print(f"best product-state value: {np.log2(3 - np.sqrt(3)):.4f} per qubit")

L = triangular_lattice(3, 3, "periodic")
f_lg = build_lattice_state(L, "levin-gu")
f_ccz = build_lattice_state(L, "ccz-only")
print(
    f"\nLevin-Gu dressing adds {len(f_lg.monomials) - len(f_ccz.monomials)} "
    f"low-degree terms; the cubic part and hence the bound are unchanged."
)
