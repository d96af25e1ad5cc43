"""GF(2) linear algebra, prime-field (GF(p)) row reduction, and GF(2^m) log tables.

One function per job, each with a library caller: ``gf2_row_rank`` (lattice),
``gfp_rref_stack`` (the enumerator, and mbqc's independence check, by its
pivot count) and ``field_log_tables`` (Welch).

Bit convention used across the package: variable/site k (1-indexed in text
formats) lives on bit k-1, least significant bit first.  This applies to
packed truth tables, basis-state indices, and packed bit rows alike.
"""

import numpy as np

# Fixed table of primitive polynomials over GF(2) for m = 1..15, encoded as
# bit masks with bit m set: the class of x generates the multiplicative group,
# which `field_log_tables` relies on.  A fixed table keeps field constructions
# (and the Welch function built on them) reproducible.
IRREDUCIBLE_POLY = {
    1: 0b11,                 # x + 1
    2: 0b111,                # x^2 + x + 1
    3: 0b1011,               # x^3 + x + 1
    4: 0b10011,              # x^4 + x + 1
    5: 0b100101,             # x^5 + x^2 + 1
    6: 0b1011011,            # x^6 + x^4 + x^3 + x + 1
    7: 0b10000011,           # x^7 + x + 1
    8: 0b100011101,          # x^8 + x^4 + x^3 + x^2 + 1
    9: 0b1000010001,         # x^9 + x^4 + 1
    10: 0b10000001001,       # x^10 + x^3 + 1
    11: 0b100000000101,      # x^11 + x^2 + 1
    12: 0b1000001010011,     # x^12 + x^6 + x^4 + x + 1
    13: 0b10000000011011,    # x^13 + x^4 + x^3 + x + 1
    14: 0b100010001000011,   # x^14 + x^10 + x^6 + x + 1
    15: 0b1000000000000011,  # x^15 + x + 1
}


def gf2_row_rank(rows) -> int:
    """Rank over GF(2) of rows packed as ints (bit j holds column j).

    Each row is reduced by the kept rows with the same leading bit until it
    vanishes or brings a new leading bit.
    """
    pivots: dict[int, int] = {}
    for row in rows:
        while row:
            lead = row.bit_length() - 1
            pivot = pivots.get(lead)
            if pivot is None:
                pivots[lead] = row
                break
            row ^= pivot
    return len(pivots)


# --- dense row reduction over a prime field ---------------------------------

def gfp_rref_stack(mats: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Reduced row echelon forms over GF(p) of a (count, m, n) stack of
    matrices, eliminated together one column at a time.  Returns the
    (count, m, n) forms and the (count, n) mask of their pivot columns.

    Each column's pivot is the first row at or below the next pivot row with
    a nonzero entry there; that row is swapped up, scaled to a leading 1 and
    cleared from every other row."""
    M = np.array(mats, dtype=np.int64) % p
    count, m, n = M.shape
    inverse = np.array([0, *(pow(a, -1, p) for a in range(1, p))])
    done = np.zeros(count, dtype=np.int64)  # pivot rows found so far
    pivots = np.zeros((count, n), dtype=bool)
    for c in range(n):
        candidates = (M[:, :, c] != 0) & (np.arange(m) >= done[:, None])
        g = np.flatnonzero(candidates.any(axis=1))
        if not len(g):
            continue
        r, pivot = done[g], candidates[g].argmax(axis=1)
        lead = M[g, pivot]
        lead = lead * inverse[lead[:, c]][:, None] % p
        M[g, pivot] = M[g, r]
        factor = M[g, :, c]
        factor[np.arange(len(g)), r] = 0
        M[g] = (M[g] - factor[:, :, None] * lead[:, None, :]) % p
        M[g, r] = lead
        pivots[g, c] = True
        done[g] += 1
    return M, pivots


# --- GF(2^m) by discrete logs ------------------------------------------------

def field_log_tables(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Antilog and log tables of GF(2^m) under the fixed primitive modulus.

    ``antilog[k]`` is the bit mask of x^k for 0 <= k < 2^m - 1, and
    ``log[antilog[k]] = k``; ``log[0]`` is unused (left 0).  Products and
    powers of whole arrays of nonzero elements then reduce to integer
    arithmetic on logs modulo 2^m - 1.
    """
    if not 1 <= m <= 15:
        raise ValueError("supported extension degrees are 1..15")
    mod = IRREDUCIBLE_POLY[m]
    order = (1 << m) - 1
    antilog = np.empty(order, dtype=np.int64)
    v = 1
    for k in range(order):
        antilog[k] = v
        v <<= 1
        if v >> m:
            v ^= mod
    log = np.zeros(order + 1, dtype=np.int64)
    log[antilog] = np.arange(order)
    return antilog, log
