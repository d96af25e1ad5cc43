import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magiclab.binlin import (
    IRREDUCIBLE_POLY,
    field_log_tables,
    gf2_rank,
    gf2_row_rank,
    gfp_nullspace,
    gfp_rref,
)

from conftest import gf_mul, gf_pow, gf_trace


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


def test_row_rank_on_wide_packed_rows():
    # rows wider than a machine word: columns 0, 100 and 1000
    rows = [1 | 1 << 100, 1 << 100 | 1 << 1000, 1 | 1 << 1000, 1 << 1000]
    assert gf2_row_rank(rows) == 3
    assert gf2_row_rank([]) == 0 and gf2_row_rank([0, 0]) == 0
    M = np.zeros((4, 1001), dtype=np.uint8)
    for i, row in enumerate(rows):
        M[i, [j for j in range(1001) if (row >> j) & 1]] = 1
    assert gf2_rank(M) == 3


def test_gfp_routines_match_gf2():
    rng = np.random.default_rng(3)
    for _ in range(20):
        M = rng.integers(0, 2, size=(4, 5))
        assert len(gfp_rref(M, 2)[1]) == gf2_rank(M.astype(np.uint8))


def test_gfp_mod3():
    M = np.array([[1, 2, 0], [0, 1, 1]])
    R, piv = gfp_rref(M, 3)
    assert piv == [0, 1]
    null = gfp_nullspace(M, 3)
    assert null.shape == (1, 3)
    assert np.all((M @ null.T) % 3 == 0)


# --- GF(2^m) fields: log tables against the scalar oracle -------------------

def _log_mul(m):
    """Multiplication table of GF(2^m) from the log tables."""
    antilog, log = field_log_tables(m)
    order = (1 << m) - 1
    table = antilog[(log[:, None] + log[None, :]) % order]
    table[0, :] = table[:, 0] = 0
    return table


def _log_pow(m, e):
    """x**e for every element x from the log tables; 0**e is 0 for e > 0."""
    antilog, log = field_log_tables(m)
    out = antilog[log * e % ((1 << m) - 1)]
    out[0] = 0 if e else 1
    return out


def _log_traces(m):
    """tr(x) for every element x from the log tables: the XOR of the
    Frobenius orbit, as ``welch_function`` computes it."""
    out = np.bitwise_xor.reduce([_log_pow(m, 1 << i) for i in range(m)])
    out[0] = 0
    return out


@pytest.mark.parametrize("m", sorted(IRREDUCIBLE_POLY))
def test_modulus_table_is_irreducible(m):
    # Rabin: x^(2^m) = x mod p, and x^(2^(m/q)) != x for every prime q | m
    def frob_power(k):
        x = 0b10 if m > 1 else 1  # the class of x (for m=1, x = 1 mod x+1)
        for _ in range(k):
            x = gf_mul(x, x, m)
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
    x = gf_mul(1, 0b10, m)  # the class of x (for m = 1, x = 1)
    v, order = x, 1
    while v != 1:
        v = gf_mul(v, x, m)
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
            assert antilog[(log[a] + log[b]) % order] == gf_mul(a, b, m)


def test_log_tables_reject_unsupported_degree():
    for m in (0, 16):
        with pytest.raises(ValueError, match="1..15"):
            field_log_tables(m)


def test_trace_examples():
    for m in (3, 4):
        traces = _log_traces(m)
        assert traces[0] == gf_trace(0, m) == 0
        assert traces[1] == gf_trace(1, m) == m % 2  # tr(1) = m mod 2


@pytest.mark.parametrize("m", range(1, 9))
def test_trace_linearity(m):
    traces = _log_traces(m)
    assert traces.tolist() == [gf_trace(v, m) for v in range(1 << m)]
    v = np.arange(1 << m)
    assert np.array_equal(traces[v[:, None] ^ v[None, :]], traces[:, None] ^ traces[None, :])


def test_pow_examples():
    for e in range(20):
        assert _log_pow(3, e).tolist() == [gf_pow(v, e, 3) for v in range(8)]
    assert np.all(_log_pow(3, 7)[1:] == 1)  # multiplicative order divides 7
    assert np.array_equal(_log_pow(3, 2**2 + 3), _log_pow(3, 7))
    assert _log_pow(3, 5)[0] == 0


@pytest.mark.parametrize("m", range(1, 5))
def test_field_axioms_exhaustive(m):
    mul = _log_mul(m)
    v = np.arange(1 << m)
    assert np.array_equal(_log_pow(m, 2**m), v)  # Frobenius fixed point
    assert np.array_equal(mul, mul.T)
    # associativity, and distributivity over addition (XOR), on all triples
    assert np.array_equal(mul[mul[:, :, None], v], mul[v[:, None, None], mul[None]])
    assert np.array_equal(
        mul[v[:, None, None], v[None, :, None] ^ v],
        mul[:, :, None] ^ mul[:, None, :],
    )
