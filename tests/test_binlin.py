import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magiclab.binlin import (
    IRREDUCIBLE_POLY,
    field_element,
    field_log_tables,
    field_pow,
    field_trace,
    gf2_rank,
    gfp_nullspace,
    gfp_rank,
    gfp_rref,
)


def cycle_adjacency(m):
    A = np.zeros((m, m), dtype=np.uint8)
    for i in range(m):
        A[i, (i + 1) % m] = 1
        A[i, (i - 1) % m] = 1
    return A


def test_rank_identity():
    assert gf2_rank(np.eye(3, dtype=np.uint8)) == 3


def test_rank_zero_matrix():
    assert gf2_rank(np.zeros((4, 4), dtype=np.uint8)) == 0


def test_rank_empty_rows():
    assert gf2_rank(np.zeros((0, 5))) == 0


def test_hexagon_cycle_rank():
    # The 6-cycle adjacency matrix is degenerate over GF(2): its kernel holds
    # both alternating indicator vectors, so the rank is 4, not 6; the full
    # rank 6 only appears over the reals.  The quadratic-form weight confirms
    # the GF(2) value: wt = 2^5 - 2^(5-h) = 24 gives h = 2.
    B = cycle_adjacency(6)
    assert gf2_rank(B) == 4
    assert np.linalg.matrix_rank(B.astype(float)) == 6
    wt = 0
    for x in range(64):
        bits = [(x >> i) & 1 for i in range(6)]
        v = 0
        for i in range(6):
            v ^= bits[i] & bits[(i + 1) % 6]
        wt += v
    assert wt == 2**5 - 2 ** (5 - 2)


def test_eight_cycle_rank():
    assert gf2_rank(cycle_adjacency(8)) == 6


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 2**36 - 1))
def test_rank_transpose_invariance(rows, cols, seed):
    rng = np.random.default_rng(seed)
    M = rng.integers(0, 2, size=(rows, cols)).astype(np.uint8)
    assert gf2_rank(M) == gf2_rank(M.T)


def test_gfp_routines_match_gf2():
    rng = np.random.default_rng(3)
    for _ in range(20):
        M = rng.integers(0, 2, size=(4, 5))
        assert gfp_rank(M, 2) == gf2_rank(M.astype(np.uint8))


def test_gfp_mod3():
    M = np.array([[1, 2, 0], [0, 1, 1]])
    R, piv = gfp_rref(M, 3)
    assert piv == [0, 1]
    null = gfp_nullspace(M, 3)
    assert null.shape == (1, 3)
    assert np.all((M @ null.T) % 3 == 0)


# --- GF(2^m) fields -----------------------------------------------------------

def _poly_mul_mod(a, b, mod, m):
    out = 0
    while b:
        if b & 1:
            out ^= a
        b >>= 1
        a <<= 1
        if a >> m:
            a ^= mod
    return out


@pytest.mark.parametrize("m", sorted(IRREDUCIBLE_POLY))
def test_modulus_table_is_irreducible(m):
    # Rabin: x^(2^m) = x mod p, and x^(2^(m/q)) != x for every prime q | m
    mod = IRREDUCIBLE_POLY[m]

    def frob_power(k):
        x = 0b10 if m > 1 else 1  # the class of x (for m=1, x = 1 mod x+1)
        for _ in range(k):
            x = _poly_mul_mod(x, x, mod, m)
        return x

    x0 = 0b10 if m > 1 else 1
    assert frob_power(m) == x0
    q = 2
    mm = m
    primes = set()
    while mm > 1:
        while mm % q == 0:
            primes.add(q)
            mm //= q
        q += 1
    for q in primes:
        if m // q >= 1 and m > 1:
            assert frob_power(m // q) != x0


@pytest.mark.parametrize("m", sorted(IRREDUCIBLE_POLY))
def test_irreducible_table_is_primitive(m):
    # x has multiplicative order exactly 2^m - 1: its powers before reaching
    # 1 again are all the nonzero elements
    mod = IRREDUCIBLE_POLY[m]
    x = _poly_mul_mod(1, 0b10, mod, m)  # the class of x (for m = 1, x = 1)
    v, order = x, 1
    while v != 1:
        v = _poly_mul_mod(v, x, mod, m)
        order += 1
    assert order == (1 << m) - 1


@pytest.mark.parametrize("m", [1, 2, 3, 5, 6])
def test_log_tables_match_field_arithmetic(m):
    antilog, log = field_log_tables(m)
    order = (1 << m) - 1
    assert sorted(antilog.tolist()) == list(range(1, order + 1))
    assert np.array_equal(log[antilog], np.arange(order))
    for a in range(1, 1 << m):
        for b in range(1, 1 << m):
            product = (field_element(m, a) * field_element(m, b)).value
            assert antilog[(log[a] + log[b]) % order] == product


def test_trace_examples():
    assert field_trace(field_element(3, 0)) == 0
    assert field_trace(field_element(3, 1)) == 1  # tr(1) = m mod 2
    assert field_trace(field_element(4, 1)) == 0


@pytest.mark.parametrize("m", range(1, 9))
def test_trace_linearity(m):
    elements = [field_element(m, v) for v in range(1 << m)]
    traces = [field_trace(x) for x in elements]
    for a in range(1 << m):
        for b in range(1 << m):
            s = elements[a] + elements[b]
            assert field_trace(s) == traces[a] ^ traces[b]


def test_pow_examples():
    one = field_element(3, 1)
    for v in range(8):
        x = field_element(3, v)
        assert field_pow(x, 0).value == 1
        if v:
            assert field_pow(x, 7).value == 1  # multiplicative order divides 7
            assert field_pow(x, 2**2 + 3).value == field_pow(x, 7).value
    assert field_pow(field_element(3, 0), 5).value == 0


@pytest.mark.parametrize("m", range(1, 5))
def test_field_axioms_exhaustive(m):
    els = [field_element(m, v) for v in range(1 << m)]
    for x in els:
        assert field_pow(x, 2**m).value == x.value  # Frobenius fixed point
    for x in els:
        for y in els:
            for z in els:
                assert ((x * y) * z).value == (x * (y * z)).value


def test_modulus_mismatch_rejected():
    a = field_element(3, 1)
    from magiclab.binlin import FieldElement

    b = FieldElement(3, 1, 0b1101)  # x^3 + x^2 + 1, also irreducible
    with pytest.raises(ValueError):
        _ = a * b
