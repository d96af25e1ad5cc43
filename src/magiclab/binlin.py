"""GF(2) linear algebra, prime-field (GF(p)) row reduction, and GF(2^m) log tables.

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


def gf2_rank(M) -> int:
    """Rank over GF(2) of a 0/1 matrix (entries taken mod 2)."""
    arr = np.asarray(M, dtype=np.uint8) % 2
    if arr.ndim != 2:
        raise ValueError("expected a 2-D array")
    packed = np.packbits(arr, axis=1, bitorder="little")
    return gf2_row_rank(int.from_bytes(r.tobytes(), "little") for r in packed)


# --- dense row reduction over a prime field, used by stabilizer enumeration ---

def gfp_rref(mat: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form over GF(p).  Returns (rref, pivot columns)."""
    M = np.array(mat, dtype=np.int64) % p
    m, n = M.shape
    pivots = []
    r = 0
    for c in range(n):
        pivot = next((i for i in range(r, m) if M[i, c] % p), None)
        if pivot is None:
            continue
        M[[r, pivot]] = M[[pivot, r]]
        M[r] = (M[r] * pow(int(M[r, c]), -1, p)) % p
        for i in range(m):
            if i != r and M[i, c]:
                M[i] = (M[i] - M[i, c] * M[r]) % p
        pivots.append(c)
        r += 1
        if r == m:
            break
    return M, pivots


def gfp_nullspace(mat: np.ndarray, p: int) -> np.ndarray:
    """Rows form a basis of the right nullspace of mat over GF(p)."""
    R, pivots = gfp_rref(mat, p)
    n = mat.shape[1]
    free = [c for c in range(n) if c not in pivots]
    basis = np.zeros((len(free), n), dtype=np.int64)
    for k, fc in enumerate(free):
        basis[k, fc] = 1
        for i, pc in enumerate(pivots):
            basis[k, pc] = (-R[i, fc]) % p
    return basis


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
