import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magiclab.binlin import gfp_rref_stack
from magiclab.boolfn import (
    BooleanFunction,
    anf_string,
    dmin_bound_from_chi,
    from_truth_table,
    hypergraph_state,
    monomial_table,
    nonquadraticity,
    overlap_from_weight,
    parse_anf,
    quadratic_basis,
    truth_table_hex,
    variable_mask,
    welch_function,
)
from magiclab.stabdict import ResourceLimitError, _tables
from conftest import gf_pow, gf_trace, quadratic_states


def test_parse_and_format_round_trip():
    for text in ("x1*x2*x3", "x1 + x2*x4 + 1", "1", "x5"):
        f = parse_anf(text)
        assert parse_anf(anf_string(f), n=f.n).monomials == f.monomials


def test_parse_rejects_malformed():
    for bad in ("", "x0", "y1", "x1**x2", "x1*x1"):
        with pytest.raises(ValueError):
            parse_anf(bad)


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda: parse_anf("x3", n=2), "variable count too small", id="parse-n"),
        pytest.param(lambda: variable_mask(2, 2), "variable index out of range", id="mask"),
    ],
)
def test_boolfn_refusals(call, message):
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda: BooleanFunction(0, frozenset()), "need n >= 1, got 0", id="zero"),
        pytest.param(
            lambda: BooleanFunction(-1, frozenset()), "need n >= 1, got -1", id="negative"
        ),
        pytest.param(lambda: parse_anf("1", n=0), "need n >= 1, got 0", id="parse"),
        pytest.param(lambda: from_truth_table(0, 1), "need n >= 1, got 0", id="table"),
        pytest.param(lambda: parse_anf("1", n=-1), "need n >= 1, got -1", id="parse-negative"),
        pytest.param(lambda: from_truth_table(-1, 0), "need n >= 1, got -1", id="table-negative"),
        # a bool is not a count, and a float n is not stored as it comes
        pytest.param(
            lambda: BooleanFunction(True, frozenset()), "n takes integers only, got True", id="bool"
        ),
        pytest.param(
            lambda: BooleanFunction(2.5, frozenset()), "n takes integers only, got 2.5", id="float"
        ),
        pytest.param(
            lambda: from_truth_table(True, 1), "n takes integers only, got True", id="table-bool"
        ),
        pytest.param(
            lambda: from_truth_table(2.0, 1), "n takes integers only, got 2.0", id="table-float"
        ),
    ],
)
def test_boolean_function_needs_one_variable(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_anf_string_reads_back():
    functions = [from_truth_table(3, table) for table in range(256)]
    functions += [BooleanFunction(n, frozenset()) for n in range(1, 5)]
    for f in functions:
        assert parse_anf(anf_string(f), n=f.n) == f


def test_truth_table_examples():
    f = parse_anf("x1*x2*x3")
    assert f.truth_table == 1 << 7
    assert f.degree == 3 and f.weight() == 1
    g = parse_anf("1", n=2)
    assert g.truth_table == 0b1111


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 5), st.integers(0, 2**31 - 1))
def test_moebius_round_trip(n, seed):
    tt = np.random.default_rng(seed).integers(0, 1 << (1 << n))
    f = from_truth_table(n, int(tt))
    assert f.truth_table == int(tt)


def test_moebius_round_trip_every_small_table():
    # every table at n <= 3 and 4,096 seeded ones at n = 4: the Moebius steps
    # set no bit at or above 2^n, so the ANF reads back to the same table
    rng = np.random.default_rng(7)
    cases = [(n, t) for n in (1, 2, 3) for t in range(1 << (1 << n))]
    cases += [(4, int(t)) for t in rng.integers(0, 1 << 16, size=4096)]
    for n, t in cases:
        assert from_truth_table(n, t).truth_table == t


def test_hex_dump_round_trip():
    f = parse_anf("x1*x2 + x3")
    table = int.from_bytes(bytes.fromhex(truth_table_hex(f)), "little")
    assert from_truth_table(3, table).monomials == f.monomials


def test_truth_table_bits_beyond_inputs_rejected():
    with pytest.raises(ValueError):
        from_truth_table(3, int.from_bytes(bytes.fromhex("ff01"), "little"))
    with pytest.raises(ValueError):
        from_truth_table(2, 1 << 4)
    with pytest.raises(ValueError, match="need table >= 0, got -1"):
        from_truth_table(2, -1)
    with pytest.raises(ValueError, match="need table >= 0, got -1"):
        from_truth_table(3, -1)
    # True would read as the table 1, and a float table has no bits to shift
    for table in (True, np.True_, 1.0):
        with pytest.raises(ValueError, match="table takes integers only"):
            from_truth_table(2, table)
    assert from_truth_table(3, 0xFF).weight() == 8


def test_hypergraph_state_examples():
    empty = BooleanFunction(2, frozenset())
    assert np.allclose(hypergraph_state(empty), [0.5, 0.5, 0.5, 0.5])
    cz = BooleanFunction(2, frozenset({frozenset({0, 1})}))
    assert np.allclose(hypergraph_state(cz), [0.5, 0.5, 0.5, -0.5])
    ccz = BooleanFunction(3, frozenset({frozenset({0, 1, 2})}))
    psi = hypergraph_state(ccz)
    assert abs(psi[7] + 2**-1.5) < 1e-15
    assert np.allclose(psi[:7], 2**-1.5)


def test_dense_sizes_follow_the_entry_cap():
    # 2^n amplitudes and truth-table bits within MAX_ENTRIES = 2^24: n = 21
    # fits, and n = 25 is refused before its table is built
    psi = hypergraph_state(parse_anf("x1*x2*x21"))
    assert psi.shape == (2**21,) and psi[-1] == -psi[0] and abs(psi[0] - 2**-10.5) < 1e-18
    message = r"^hypergraph state of n=25 exceeds 2\^24 amplitudes$"
    with pytest.raises(ResourceLimitError, match=message):
        hypergraph_state(parse_anf("x1*x25"))
    with pytest.raises(ResourceLimitError, match=r"^truth table of n=25 exceeds 2\^24 bits$"):
        BooleanFunction(25, frozenset({frozenset({0})})).truth_table


def test_hypergraph_state_equals_gate_circuit():
    # apply controlled-Z gates on |+>^n explicitly
    rng = np.random.default_rng(4)
    for _ in range(5):
        n = int(rng.integers(2, 5))
        edges = set()
        for _ in range(rng.integers(1, 5)):
            size = int(rng.integers(1, min(n, 3) + 1))
            edges.add(frozenset(rng.choice(n, size=size, replace=False).tolist()))
        f = BooleanFunction(n, frozenset(edges))
        psi = np.full(1 << n, 2.0 ** (-n / 2), dtype=complex)
        for e in edges:
            for x in range(1 << n):
                if all((x >> v) & 1 for v in e):
                    psi[x] = -psi[x]
        assert np.allclose(hypergraph_state(f), psi)


def test_constant_monomial_is_a_global_sign():
    for text in ("x1*x2*x3", "x1*x2 + x3", "x2"):
        f = parse_anf(text, n=3)
        signed = BooleanFunction(3, f.monomials | {frozenset()})
        assert np.array_equal(hypergraph_state(signed), -hypergraph_state(f))


def test_boolean_function_rejects_out_of_range_variables():
    with pytest.raises(ValueError, match="out of range"):
        BooleanFunction(3, [{0, 1}, {3}])
    with pytest.raises(ValueError, match="out of range"):
        BooleanFunction(3, [{0, 1}, {-1, 2}])
    with pytest.raises(ValueError, match="out of range"):
        BooleanFunction(3, [{0, 1}, {-1}])
    # the constant monomial is fine, and any input is frozen to frozensets
    f = BooleanFunction(3, [set(), [0, 2]])
    assert f.monomials == frozenset({frozenset(), frozenset({0, 2})})


def test_overlap_identity_examples():
    f = parse_anf("x1*x2*x3")
    g = BooleanFunction(3, frozenset())
    assert overlap_from_weight(f, f) == 1.0
    assert overlap_from_weight(f, g) == 0.75
    # balanced difference
    h = parse_anf("x1", n=3)
    assert overlap_from_weight(h, g) == 0.0
    # x1*x2*x3 on 4 variables is another state
    with pytest.raises(ValueError, match="mismatched variable counts"):
        overlap_from_weight(f, parse_anf("x1*x2*x3", n=4))


def _random_table(n, rng) -> int:
    nbytes = max(1, ((1 << n) + 7) >> 3)
    return int.from_bytes(rng.bytes(nbytes), "little") & ((1 << (1 << n)) - 1)


def test_overlap_identity_random_pairs():
    rng = np.random.default_rng(1)
    for _ in range(50):
        n = int(rng.integers(1, 9))
        f = from_truth_table(n, _random_table(n, rng))
        g = from_truth_table(n, _random_table(n, rng))
        dense = np.vdot(hypergraph_state(f), hypergraph_state(g)).real
        assert abs(overlap_from_weight(f, g) - dense) < 1e-12


def test_nonquadraticity_of_quadratics_is_zero():
    rng = np.random.default_rng(2)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        monomials = frozenset(
            frozenset(int(a) for a in rng.choice(n, 2, replace=False))
            for _ in range(3)
        )
        f = BooleanFunction(n, monomials)
        chi, argmin = nonquadraticity(f)
        assert chi == 0
        assert (f ^ argmin).weight() == 0


def test_nonquadraticity_ccz():
    chi, argmin = nonquadraticity(parse_anf("x1*x2*x3"))
    assert chi == 1
    assert argmin.degree <= 2


def test_nonquadraticity_welch3():
    chi, _ = nonquadraticity(welch_function(3))
    assert chi == 1


def test_covering_radius_n3():
    # RM(2,3) has covering radius 1: the only nontrivial coset is led by the
    # weight-1 triple product
    assert max(nonquadraticity(from_truth_table(3, tt))[0] for tt in range(256)) == 1


def _compose_affine(f, A, b):
    """f(Ax + b) over GF(2), by permuting (or collapsing) the truth table."""
    n = f.n
    x_bits = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1
    y = ((x_bits @ (A % 2).T + b % 2) % 2) @ (1 << np.arange(n))
    return from_truth_table(n, sum(((f.truth_table >> int(v)) & 1) << x for x, v in enumerate(y)))


def test_nonquadraticity_affine_invariance():
    rng = np.random.default_rng(3)
    for n in [int(rng.integers(2, 5)) for _ in range(6)] + [5, 5, 6, 6]:
        f = from_truth_table(n, _random_table(n, rng))
        while True:
            A = rng.integers(0, 2, size=(n, n))
            if gfp_rref_stack(A[None], 2)[1].sum() == n:
                break
        b = rng.integers(0, 2, size=n)
        g = _compose_affine(f, A, b)
        assert nonquadraticity(f)[0] == nonquadraticity(g)[0]


def test_compose_affine_matches_pointwise_evaluation():
    rng = np.random.default_rng(5)
    for n in (1, 3, 5):
        f = from_truth_table(n, _random_table(n, rng))
        A = rng.integers(0, 2, size=(n, n))  # singular maps collapse the table
        b = rng.integers(0, 2, size=n)
        g = _compose_affine(f, A, b)
        for x in range(1 << n):
            xv = np.array([(x >> i) & 1 for i in range(n)])
            y = int(sum(int(v) << i for i, v in enumerate((A @ xv + b) % 2)))
            assert (g.truth_table >> x) & 1 == (f.truth_table >> y) & 1


def _gray_code_sweep(f):
    """Reference nonquadraticity: walk all quadratics in Gray-code order,
    keeping the first one met at the least distance.  Also returns how many
    quadratics tie at that distance."""
    n = f.n
    basis = quadratic_basis(n)
    tables = [monomial_table(n, m) for m in basis]
    cur = f.truth_table
    best_w, best_g, ties = cur.bit_count(), 0, 1
    for g in range(1, 1 << len(basis)):
        cur ^= tables[(g & -g).bit_length() - 1]
        w = cur.bit_count()
        if w < best_w:
            best_w, best_g, ties = w, g, 1
            if w == 0:
                break
        elif w == best_w:
            ties += 1
    subset = best_g ^ (best_g >> 1)
    argmin = frozenset(basis[i] for i in range(len(basis)) if (subset >> i) & 1)
    return best_w, argmin, ties


def _assert_matches_sweep(f):
    """Compare with the sweep; returns the number of tied minimizers."""
    chi, argmin = nonquadraticity(f)
    best_w, best, ties = _gray_code_sweep(f)
    assert (chi, argmin.monomials) == (best_w, best), anf_string(f)
    return ties


def test_nonquadraticity_matches_gray_code_sweep():
    for n in (1, 2):
        for tt in range(1 << (1 << n)):
            _assert_matches_sweep(from_truth_table(n, tt))
    for tt in range(256):
        _assert_matches_sweep(from_truth_table(3, tt))
    rng = np.random.default_rng(12)
    for n, count in ((4, 300), (5, 30)):
        for _ in range(count):
            _assert_matches_sweep(from_truth_table(n, _random_table(n, rng)))


def test_nonquadraticity_matches_gray_code_sweep_n6_cubics():
    rng = np.random.default_rng(13)
    for _ in range(3):
        cubics = {frozenset(int(i) for i in rng.choice(6, 3, replace=False)) for _ in range(3)}
        lower = {m for m in quadratic_basis(6) if rng.random() < 0.5}
        f = BooleanFunction(6, frozenset(cubics | lower))
        assert f.degree == 3
        _assert_matches_sweep(f)


@pytest.mark.parametrize(
    "f, ties",
    [
        (parse_anf("x1*x2*x3 + x2*x4*x5 + x3*x4*x6 + x1*x4 + x2*x6 + x5 + 1"), 448),
        (parse_anf("x1*x2*x3 + x4*x5*x6 + x1*x5 + x3*x6 + x2"), 64),
        (parse_anf("x1*x2*x5 + x3*x4*x5 + x1*x3 + x2*x4 + x4"), 32),
        (welch_function(5), 32),
    ],
    ids=["three_cubics", "two_disjoint_cubics", "shared_vertex", "welch5"],
)
def test_nonquadraticity_tie_heavy_functions_match_gray_code_sweep(f, ties):
    # many minimizers, none of them the zero function: the least Gray rank
    # must be picked out of every tied pair part and pair of spectral peaks
    assert _assert_matches_sweep(f) == ties


@pytest.mark.parametrize("n", range(1, 7))
def test_nonquadraticity_hadamard_block_is_sylvester(n):
    # nonquadraticity reads this block of the kept qubit character table,
    # built once per process, in place of a per-call Sylvester kron
    half = 1 << (n - 1)
    sylvester = np.ones((1, 1), dtype=np.float32)
    for _ in range(n - 1):
        sylvester = np.kron(np.array([[1, 1], [1, -1]], dtype=np.float32), sylvester)
    block = _tables(max(n - 1, 1), 2)[3][:half, :half].astype(np.float32)
    assert block.dtype == np.float32 and np.array_equal(block, sylvester)


def test_nonquadraticity_size_guard():
    with pytest.raises(ValueError):
        nonquadraticity(BooleanFunction(7, frozenset()))


def test_dmin_bound_examples():
    f = parse_anf("x1*x2*x3")
    assert dmin_bound_from_chi(f, 0) == 0.0
    assert abs(dmin_bound_from_chi(f, 1) - math.log2(16 / 9)) < 1e-12
    # n=5, chi=4
    g = BooleanFunction(5, frozenset())
    assert abs(dmin_bound_from_chi(g, 4) - (-2 * math.log2(0.75))) < 1e-12
    with pytest.raises(ValueError):
        dmin_bound_from_chi(g, 16)
    # a negative chi would give a negative bound, a fractional one a bound of nothing
    for bad in (-1, 1.5, 2.0, "1"):
        with pytest.raises(ValueError):
            dmin_bound_from_chi(f, bad)
    assert dmin_bound_from_chi(f, np.int64(1)) == dmin_bound_from_chi(f, 1)
    # a bool is not a count: True would pass as chi = 1
    for bad in (True, False, np.True_):
        with pytest.raises(ValueError, match="chi takes integers only"):
            dmin_bound_from_chi(f, bad)
    # chi is never turned into a float: 2^1098 is past the floats' range, at
    # (60, 2^59 - 1) the product 2^-59 chi rounds to 1, and at
    # (1100, 2^1099 - 1) the ratio 2^-1099 underflows to 0
    for n, chi, bound in ((1100, 2**1098, 2.0), (60, 2**59 - 1, 118.0),
                          (1100, 2**1099 - 1, 2198.0)):
        assert dmin_bound_from_chi(BooleanFunction(n, frozenset()), chi) == bound


def test_dmin_bound_is_positive_zero_at_chi_zero():
    for n in range(1, 7):
        f = BooleanFunction(n, frozenset())
        assert math.copysign(1.0, dmin_bound_from_chi(f, 0)) == 1.0
        for chi in range(1, 2 ** (n - 1)):
            expected = -2.0 * math.log2(1.0 - 2.0 ** (1 - n) * chi)
            assert dmin_bound_from_chi(f, chi).hex() == expected.hex()


def test_welch_function_n3():
    f = welch_function(3)
    assert f.weight() == 7  # x^7 = 1 away from zero, tr(1) = 1 for m = 3
    assert f.degree == 3


def test_welch_degree_is_three():
    for n in (5, 7):
        assert welch_function(n).degree == 3


def test_welch_n5_frozen_chi():
    f = welch_function(5)
    assert f.weight() == 16
    chi, _ = nonquadraticity(f)
    assert chi == 6  # exhaustive RM(2,5) search, frozen
    # the asymptotic curve value is below the exact chi at this size: report only
    assert 2**4 - 2 ** ((3 * 5 - 1) / 4) == pytest.approx(4.686, abs=1e-3)


def test_welch_rejects_even_or_large():
    with pytest.raises(ValueError):
        welch_function(4)
    with pytest.raises(ValueError):
        welch_function(17)
    # refused before the field tables, where True would read as n = 1
    for n in (True, 5.0):
        with pytest.raises(ValueError, match=f"n takes integers only, got {n!r}"):
            welch_function(n)


# SHA-256 of the little-endian packed truth table, pinned from the scalar
# field construction (shift-and-add multiply, Frobenius-orbit trace)
WELCH_DIGESTS = {
    3: "aa687b58b0e73e2e383f8c500d75b591e188efe0168b3ffbcd3771caaa6dd4c7",
    5: "0f45a51d15f8b1ed3f14c75995a86cc6526f9b11d0a7114c487f7c3550b2f6ea",
    7: "316ea3304ed9854e400e4358157796ba2d0ea477a746ce01dd02675eae34be03",
    9: "3ceca0ef9349e9d6b2dc9c0d9de3bfe00873c773c82c17bab21af418b090f352",
    11: "a2ec75ff05b978b8112d732c414fdfb4fbabc8761f1bf637965d083d8bfc4052",
    13: "8ab4cf4d02c3201dadf6c5e09798d93cce971164cda99be31a205ed84a7c0762",
    15: "4f928785ba8335c9a2d1df7f86a383261a63b91447ce4a5544066640a1059e0c",
}


@pytest.mark.parametrize("n", sorted(WELCH_DIGESTS))
def test_welch_truth_table_digest(n):
    raw = welch_function(n).truth_table.to_bytes(max(1, (1 << n) >> 3), "little")
    assert hashlib.sha256(raw).hexdigest() == WELCH_DIGESTS[n]


@pytest.mark.parametrize("n", [3, 5, 7, 9])
def test_welch_matches_scalar_field_arithmetic(n):
    e = (1 << (n + 1) // 2) + 3
    f = welch_function(n)
    for v in range(1 << n):
        assert (f.truth_table >> v) & 1 == gf_trace(gf_pow(v, e, n), n)


def test_chi_bound_dominates_true_dmin_exhaustive_n3(dict2_3):
    # the quadratic states are a subset of the dictionary, so the distance
    # bound can only sit above the true minimum over all stabilizer states
    from magiclab.measures import dmin

    for tt in range(256):
        f = from_truth_table(3, tt)
        chi, _ = nonquadraticity(f)
        bound = dmin_bound_from_chi(f, chi)
        value, _ = dmin(hypergraph_state(f), dict2_3)
        assert value <= bound + 1e-9, (tt, chi)


def test_chi_bound_dominates_true_dmin_sampled_n4(dict2_4):
    from magiclab.measures import dmin

    rng = np.random.default_rng(44)
    for _ in range(40):
        f = from_truth_table(4, int.from_bytes(rng.bytes(2), "little"))
        chi, _ = nonquadraticity(f)
        if chi >= 8:
            continue  # bound undefined
        bound = dmin_bound_from_chi(f, chi)
        value, _ = dmin(hypergraph_state(f), dict2_4)
        assert value <= bound + 1e-9


def test_quadratic_vs_full_dictionary_gap(dict2_3):
    # the bound is exactly the best overlap over quadratic states; comparing
    # with the full dictionary exposes the local-gate gap (reported relation
    # only: quadratics can never beat the full set)
    from magiclab.measures import dmin

    _, states = quadratic_states(3)
    rng = np.random.default_rng(9)
    for tt in rng.integers(0, 256, 8):
        psi = hypergraph_state(from_truth_table(3, int(tt)))
        over_q = -np.log2(np.max(np.abs(states.conj().T @ psi) ** 2))
        over_stab, _ = dmin(psi, dict2_3)
        assert over_stab <= over_q + 1e-12
