"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred to calibration.
"""

import math

import numpy as np

from magiclab.boolfn import (
    from_truth_table,
    hypergraph_state,
    nonquadraticity,
    overlap_from_weight,
    parse_anf,
)
from magiclab.haar import (
    ExperimentConfig,
    dmin_distribution,
    haar_state_batch,
    overlap_cdf_pvalue,
)
from magiclab.lattice import lattice_bound, triangular_lattice, union_jack_lattice
from magiclab.measures import dmin, extent, free_robustness, magic_report
from magiclab.mbqc import (
    MeasurementLayout,
    outcome_distribution,
    pbound_check,
    planted_verifier,
    randomized_search,
)
from magiclab.stabdict import count_stabilizer_states, enumerate_stabilizer_states
from magiclab.wigner import (
    mana_lr_check,
    phase_space_points,
    sum_negativity,
    wigner_function,
)

from conftest import phase_point_operator, point_index, random_state

GOLDEN_DMIN = math.log2(3 - math.sqrt(3))
CHAIN_TOL = 1e-5


def _report(index, text):
    print(f"\nPASS  [{index}] {text}")


def test_acceptance_1_stabilizer_counts(dict2_4, dict3_2):
    expected = {(1, 2): 6, (2, 2): 60, (3, 2): 1080, (4, 2): 36720, (1, 3): 12, (2, 3): 360}
    for (n, d), count in expected.items():
        assert count_stabilizer_states(n, d) == count
        if (n, d) == (4, 2):
            dic = dict2_4
        elif (n, d) == (2, 3):
            dic = dict3_2
        else:
            dic = enumerate_stabilizer_states(n, d)
        assert dic.size == count
    _report(1, "stabilizer counts 6/60/1080/36720 and 12/360 match the closed form exactly")


def test_acceptance_2_golden_state(dict2_1, dict2_2, golden):
    rep = magic_report(golden, dict2_1)
    assert abs(rep.dmin - GOLDEN_DMIN) < 1e-5
    assert abs(rep.dmax - GOLDEN_DMIN) < 1e-5
    gg = np.kron(golden, golden)
    value, _ = dmin(gg, dict2_2)
    assert abs(value - 2 * GOLDEN_DMIN) < 1e-5
    ext = extent(gg, dict2_2)
    assert abs(ext.dmax - 2 * GOLDEN_DMIN) < 1e-5
    _report(2, f"golden state dmin = dmax = log2(3-sqrt3) = {rep.dmin:.6f}; doubles on two copies")


def test_acceptance_3_ccz_extent(dict2_3, ccz_state):
    value, best = dmin(ccz_state, dict2_3)
    overlap = abs(np.vdot(dict2_3.state(best), ccz_state))
    assert abs(overlap - 0.75) < 1e-12  # exact best overlap 3/4
    assert abs(value - math.log2(16 / 9)) < 1e-12
    ext = extent(ccz_state, dict2_3)
    assert abs(ext.xi - 16 / 9) < 1e-5
    assert abs(ext.dmax - value) < 1e-5  # extent log collapses onto dmin here
    _report(3, f"CCZ|+++>: overlap 3/4, dmin = log2(16/9), xi = {ext.xi:.7f} = 16/9 within 1e-5")


def test_acceptance_4_boolean_cross_check(dict2_3, ccz_state):
    f = parse_anf("x1*x2*x3")
    chi, _ = nonquadraticity(f)
    assert chi == 1
    bound = -2 * math.log2(1 - 2 ** (1 - 3) * chi)
    value, _ = dmin(ccz_state, dict2_3)
    assert abs(bound - value) < 1e-12  # tight at this instance
    _report(4, "chi(x1 x2 x3) = 1 exhaustively; the chi bound equals the measured dmin exactly")


def test_acceptance_5_lattice_bounds():
    from fractions import Fraction

    tri = triangular_lattice(3, 3, "periodic")
    _, bd = lattice_bound(tri, "ccz-only")
    assert bd.s * 3 == tri.n
    assert set(bd.h_nominal) == {3}
    # exact rational bookkeeping: chi = 2^(n-1) - 2^(n-s-1) prod_i (1 + 2^-h_i)
    prod = Fraction(9, 8) ** bd.s
    assert bd.chi_bound == 2 ** (tri.n - 1) - Fraction(2) ** (tri.n - bd.s - 1) * prod
    per_qubit = Fraction(2 * bd.s, tri.n)
    assert per_qubit == Fraction(2, 3)
    assert abs(bd.magic_bound_per_qubit - (2 / 3 - (2 / 3) * math.log2(9 / 8))) < 1e-12
    uj = union_jack_lattice(4, 4, "periodic")
    _, bu = lattice_bound(uj, "ccz-only")
    assert bu.s * 4 == uj.n
    assert set(bu.h_nominal) == {4}
    prod = Fraction(17, 16) ** bu.s
    assert bu.chi_bound == 2 ** (uj.n - 1) - Fraction(2) ** (uj.n - bu.s - 1) * prod
    assert abs(bu.magic_bound_per_qubit - (1 / 2 - (1 / 2) * math.log2(17 / 16))) < 1e-12
    _report(
        5,
        f"triangular h=3, s=n/3, {bd.magic_bound_per_qubit:.4f}n; "
        f"union jack h=4, s=n/4, {bu.magic_bound_per_qubit:.4f}n",
    )


def test_acceptance_6_robustness_guard(dict2_1, dict2_2, dict2_3):
    worst_gap = 0.0
    checked = 0
    for dic, count, seed in ((dict2_1, 50, 61), (dict2_2, 50, 62), (dict2_3, 10, 63)):
        states = haar_state_batch(2**dic.n, count, seed=seed)
        bound = math.sqrt(2**dic.n * (2**dic.n + 1))
        for i in range(count):
            res = free_robustness(states[:, i], dic)
            assert res.r <= bound + 1e-9
            assert res.diagnostics["duality_gap"] < 1e-8
            worst_gap = max(worst_gap, res.diagnostics["duality_gap"])
            checked += 1
    _report(6, f"R <= sqrt(2^n(2^n+1)) on {checked} Haar states; worst duality gap {worst_gap:.1e}")


def test_acceptance_7_wigner_suite(dict3_1, dict3_2):
    # normalization + reconstruction
    rng = np.random.default_rng(71)
    for n, dic in ((1, dict3_1), (2, dict3_2)):
        psi = random_state(3**n, rng)
        W = wigner_function(psi)
        assert abs(np.sum(W.values) - 1) < 1e-10
        rho = np.outer(psi, psi.conj())
        rec = sum(
            W.values[point_index(u)] * phase_point_operator(u, n) for u in phase_space_points(n)
        )
        assert np.max(np.abs(rec - rho)) < 1e-10
    # Hudson direction on all 12 single-qutrit stabilizer states
    for i in range(dict3_1.size):
        assert wigner_function(dict3_1.state(i)).values.min() > -1e-12
    # negativity and mana checks
    for count, dic in ((50, dict3_1), (10, dict3_2)):
        for _ in range(count):
            psi = random_state(3**dic.n, rng)
            neg = sum_negativity(wigner_function(psi))
            assert neg <= free_robustness(psi, dic).r + CHAIN_TOL
            ok_m, _, _ = mana_lr_check(psi, dic)
            assert ok_m
    _report(7, "Wigner: sums, 1e-10 reconstruction, Hudson on 12 states, N<=R and M<LR+1 on 60 states")


def test_acceptance_8_mbqc_suite(dict2_3):
    rng = np.random.default_rng(81)
    n = 3
    layouts = []
    while len(layouts) < 20:
        tab = dict2_3.tableau(int(rng.integers(0, dict2_3.size)))
        k = int(rng.integers(1, n + 1))
        picks = rng.choice(n, size=k, replace=False)
        try:
            layouts.append(MeasurementLayout(n, tuple(tab.generators[int(i)] for i in picks)))
        except ValueError:
            continue
    states = haar_state_batch(2**n, 5, seed=82)
    for i in range(5):
        psi = states[:, i]
        value, _ = dmin(psi, dict2_3)
        for layout in layouts:
            dist = outcome_distribution(psi, layout)
            assert abs(np.sum(dist.probabilities) - 1.0) < 1e-10
            ok, _, _ = pbound_check(psi, layout, value)
            assert ok
    # empirical search success rate within 3 sigma of |G| / 2^k
    k, good = 5, set(range(11))
    p = len(good) / 2**k
    trials = 3000
    hits = sum(
        randomized_search(planted_verifier(k, good), k, 1, rng).success
        for _ in range(trials)
    )
    sigma = math.sqrt(p * (1 - p) / trials)
    assert abs(hits / trials - p) < 3 * sigma
    _report(8, "MBQC: distributions normalized, p(y) cap on 20 layouts x 5 states, search rate in 3 sigma")


def test_acceptance_9_haar_statistics(dict2_3, dict2_4):
    for n in (1, 2, 3):
        assert overlap_cdf_pvalue(n, 10_000, seed=90 + n) > 0.01
    # the union-bound curve is a valid comparison from n = 3 up (its constants
    # assume dictionaries far larger than n <= 2 possess); assert there
    for n, dic, samples in ((3, dict2_3, 600), (4, dict2_4, 250)):
        exp = dmin_distribution(ExperimentConfig(n, samples, seed=95 + n), dic)
        mask = exp.bound_curve < 1
        assert np.all(exp.empirical_cdf[mask] <= exp.bound_curve[mask] + 1e-12)
    _report(9, "overlap CDF passes KS at 1% for n=1..3 (1e4 samples); dmin CDF under the curve at n=3,4")


def test_acceptance_10_property_suites(dict2_1, dict2_2, dict2_3, golden, ccz_state):
    # consistency sandwich on every state this suite touches end to end
    rng = np.random.default_rng(101)
    tracked = [
        (golden, dict2_1),
        (np.kron(golden, golden), dict2_2),
        (ccz_state, dict2_3),
    ]
    tracked += [(random_state(2, rng), dict2_1) for _ in range(20)]
    tracked += [(random_state(4, rng), dict2_2) for _ in range(10)]
    tracked += [(haar_state_batch(8, 3, seed=63)[:, i], dict2_3) for i in range(3)]
    for psi, dic in tracked:
        rep = magic_report(psi, dic)  # construction validates the chain
        assert rep.dmin <= rep.dmax + CHAIN_TOL
        assert rep.dmax <= rep.lr + CHAIN_TOL
    # overlap-vs-weight identity on 200 random pairs, n <= 8, 1e-12
    for _ in range(200):
        n = int(rng.integers(1, 9))
        nbytes = max(1, ((1 << n) + 7) >> 3)
        mask = (1 << (1 << n)) - 1
        f = from_truth_table(n, int.from_bytes(rng.bytes(nbytes), "little") & mask)
        g = from_truth_table(n, int.from_bytes(rng.bytes(nbytes), "little") & mask)
        dense = np.vdot(hypergraph_state(f), hypergraph_state(g)).real
        assert abs(overlap_from_weight(f, g) - dense) < 1e-12
    _report(10, f"chain dmin <= dmax <= LR on {len(tracked)} states; overlap identity on 200 pairs at 1e-12")
