"""Haar-random state statistics: overlap law and empirical magic spread.

For a Haar-random pure state in dimension 2^n and any fixed reference state,
|<phi|psi>|^2 has density (2^n - 1)(1 - a)^(2^n - 2), so the survival
function is (1 - b)^(2^n - 1).  Sweeping the best overlap over the full
stabilizer dictionary gives the empirical distribution of the min-relative
entropy of magic, which can be compared against the union-bound curve
exp(0.54 n^2 - 2^(n - gamma)) (vacuous at desk scale for most gamma, so the
curve is reported rather than asserted wherever it reaches 1).

The overlap law is checked by a one-sample Kolmogorov-Smirnov test written
in numpy.  Its p-value Pr(D_n >= D) follows the branch rule of Simard and
L'Ecuyer, "Computing the Two-Sided Kolmogorov-Smirnov Distribution"
(J. Stat. Softw. 39(11), 2011), with Durbin's matrix evaluated as in
Marsaglia, Tsang and Wang, "Evaluating Kolmogorov's Distribution"
(J. Stat. Softw. 8(18), 2003); it agrees with scipy's ``kstwo.sf``.

Per-sample randomness is split deterministically from the master seed, so
experiments are reproducible and parallelizable: sample i draws from the
i-th ``SeedSequence`` child, whose seed words are computed here for a run of
samples at once (O'Neill's seed_seq_fe hash, as numpy writes it; M. E.
O'Neill, "PCG: A Family of Simple Fast Space-Efficient Statistically Good
Algorithms for Random Number Generation", HMC-CS-2014-0905).
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .measures import _checked_pure_state
from .pauli import MAX_ENTRIES, ResourceLimitError, _index
from .stabdict import StabilizerDictionary, _check_size

_RUN_ENTRIES = 1024  # most amplitudes haar_state_batch assembles at once

# numpy's SeedSequence hash constants (numpy.random.bit_generator)
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _hash(value, xor, mult):
    """SeedSequence's hashmix step on uint32 words, Python ints or arrays."""
    value = (value ^ xor) * mult & _MASK32
    return value ^ value >> 16


def _mix(x, y):
    """SeedSequence's mix of two uint32 words, Python ints or arrays."""
    value = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return value ^ value >> 16


def _spawned_words(seed: int, i0: int, i1: int) -> np.ndarray:
    """(i1 - i0, 4) uint64 array whose row k is
    ``SeedSequence(seed).spawn(i1)[i0 + k].generate_state(4, np.uint64)``,
    the words a ``PCG64`` seeded by that child is seeded from.

    It is O'Neill's seed_seq_fe hash as numpy writes it.  A child's entropy
    is the seed's 32-bit words, zero-padded to the pool of 4, then its spawn
    index as one word (i1 <= 2^32).  Each word is hashed with the next of a
    run of multipliers that steps on every use, whatever the word; the pool
    words are mixed pairwise, then every word past the pool into each pool
    word, and the pool is hashed out to 8 words.  Only the spawn index
    differs between children, so everything before it is computed once, on
    Python ints, and the index's four hashes on arrays."""
    entropy = [seed >> s & _MASK32 for s in range(0, max(seed.bit_length(), 1), 32)]
    entropy += [0] * (4 - len(entropy))
    # one multiplier per hash: the 4 pool words, 12 pairwise mixes, 4 for
    # each word past the pool and 4 for the spawn index
    a = [_INIT_A]
    for _ in range(4 + 12 + 4 * (len(entropy) - 4) + 4):
        a.append(a[-1] * _MULT_A & _MASK32)
    steps = zip(a, a[1:])
    pool = [_hash(word, *next(steps)) for word in entropy[:4]]
    for src in range(4):
        for dst in range(4):
            if dst != src:
                pool[dst] = _mix(pool[dst], _hash(pool[src], *next(steps)))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], _hash(word, *next(steps)))
    xor, mult = (np.array(c, dtype=np.uint32) for c in zip(*steps))
    index = np.arange(i0, i1, dtype=np.uint32)[:, None]
    pool = _mix(np.array(pool, dtype=np.uint32), _hash(index, xor, mult))
    b = [_INIT_B]  # generate_state's multipliers, one per 32-bit output word
    for _ in range(8):
        b.append(b[-1] * _MULT_B & _MASK32)
    xor, mult = np.array(b[:-1], dtype=np.uint32), np.array(b[1:], dtype=np.uint32)
    state = _hash(np.tile(pool, 2), xor, mult).astype(np.uint64)
    return state[:, 0::2] | state[:, 1::2] << 32


@functools.cache
def _seed_words_type():
    """An ``ISeedSequence`` that hands ``PCG64`` fixed seed words.  Made on
    first use, so that importing this module leaves numpy.random unloaded."""
    from numpy.random.bit_generator import ISeedSequence

    class SeedWords(ISeedSequence):
        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            # PCG64 reads the returned array's buffer as 4 uint64 words,
            # whatever its strides
            if n_words != 4 or dtype is not np.uint64 or not self.words.flags.c_contiguous:
                raise ValueError("holds one contiguous run of PCG64's 4 uint64 seed words")
            return self.words

    return SeedWords


def haar_state(dim: int, rng: "np.random.Generator") -> np.ndarray:
    """Haar-random unit vector via a normalized complex Gaussian, dim an integer >= 1."""
    dim = _index(dim, "dim", 1)
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def haar_state_batch(dim: int, count: int, seed: int) -> np.ndarray:
    """(dim, count) matrix of independent Haar states from one master seed:
    sample i draws from a ``Generator`` on the i-th child of
    ``SeedSequence(seed).spawn(count)``, with the bits ``haar_state`` gives it.

    No ``SeedSequence`` is made: ``_spawned_words`` reproduces the children's
    ``PCG64`` seed words, a run of samples at a time, and each sample's
    ``PCG64`` is seeded from its own words through numpy's ``ISeedSequence``
    interface.  Each sample keeps its own ``normal(size=(2, dim))`` draw, its
    two Gaussian vectors, and its own norm: runs of at most _RUN_ENTRIES
    amplitudes are assembled and divided by their norms at once, each norm
    ``np.linalg.norm`` of its own row.

    Refuses, with ``ValueError`` naming the input and before anything is
    allocated or drawn, a bool or non-integer dim, count or seed, dim < 1,
    count < 0 and seed < 0; and a batch of more than MAX_ENTRIES amplitudes
    with ``ResourceLimitError``."""
    dim, count, seed = _index(dim, "dim", 1), _index(count, "count", 0), _index(seed, "seed", 0)
    if dim * count > MAX_ENTRIES:
        raise ResourceLimitError(f"{count} states of dim {dim} exceed 2^24 amplitudes")
    from numpy.random import PCG64, Generator

    seed_words = _seed_words_type()
    out = np.empty((dim, count), dtype=complex)
    run = max(1, _RUN_ENTRIES // dim)
    for i0 in range(0, count, run):
        words = _spawned_words(seed, i0, min(i0 + run, count))
        draws = np.array([Generator(PCG64(seed_words(w))).normal(size=(2, dim)) for w in words])
        v = draws[:, 0] + 1j * draws[:, 1]
        norms = np.array([np.linalg.norm(row) for row in v])
        out[:, i0 : i0 + len(v)] = (v / norms[:, None]).T
    return out


def overlap_cdf_pvalue(n: int, samples: int, seed: int, phi: np.ndarray | None = None) -> float:
    """KS test of the fixed-reference overlap law; returns the p-value.

    ``phi`` defaults to |0...0> and must be a pure state of length 2^n, as
    ``measures._checked_pure_state`` describes.  The samples' amplitudes are
    held at once, so their number is checked by ``ExperimentConfig`` before
    any allocation.  The statistic is D = max(D+, D-) over the sorted
    overlaps' CDF values, and the p-value is Pr(D_samples >= D).
    """
    ExperimentConfig(n, samples, seed)
    dim = 2**n
    if phi is None:
        phi = np.zeros(dim, dtype=complex)
        phi[0] = 1.0
    phi = _checked_pure_state(phi, dim)
    states = haar_state_batch(dim, samples, seed)
    cdf = 1.0 - (1.0 - np.sort(np.abs(phi.conj() @ states) ** 2)) ** (dim - 1)
    steps = np.arange(samples + 1.0) / samples
    d = max(np.max(steps[1:] - cdf), np.max(cdf - steps[:-1]))
    return _kolmogorov_sf(samples, float(d))


def _kolmogorov_sf(n: int, d: float) -> float:
    """Pr(D_n >= d) for the two-sided one-sample KS statistic D_n.

    The branch rule is Simard & L'Ecuyer's (J. Stat. Softw. 39(11), 2011) as
    scipy's ``kstwo.sf`` applies it: the Ruben-Gambino closed forms at the
    ends; twice the one-sided Smirnov tail where D+ >= d and D- >= d cannot
    both hold (d >= 1/2) or almost never do (large n d^2); Durbin's exact
    matrix where it stays small; and the Pelz-Good series otherwise.
    """
    t = n * d
    nd2 = t * d
    if t <= 0.5:
        return 1.0
    if t <= 1.0:  # Pr(D_n < d) = n! ((2t - 1)/n)^n
        p = 1.0 - math.exp(math.lgamma(n + 1.0) + n * math.log((2.0 * t - 1.0) / n))
    elif t >= n - 1:
        p = 2.0 * (1.0 - d) ** n
    elif d >= 0.5 or (nd2 > 4.0 if n <= 140 else 2.2 <= nd2 < 370.0):
        p = _twice_smirnov_sf(n, d)
    elif n > 140 and nd2 >= 370.0:
        p = 0.0
    elif n <= 140 or (n <= 100_000 and n * d**1.5 <= 1.4):
        p = 1.0 - _durbin_cdf(n, d)
    else:
        p = 1.0 - _pelz_good_cdf(n, d)
    return min(max(p, 0.0), 1.0)


def _twice_smirnov_sf(n: int, d: float) -> float:
    """2 Pr(D_n+ >= d) by the Birnbaum-Tingey sum
    d sum_j C(n, j) (1 - d - j/n)^(n - j) (d + j/n)^(j - 1), each (positive)
    term computed in log space."""
    j = np.arange(n + 1)
    base = 1.0 - d - j / n
    j, base = j[base > 0], base[base > 0]
    log_fact = np.array([math.lgamma(k + 1.0) for k in range(n + 1)])
    log_terms = (
        log_fact[n] - log_fact[j] - log_fact[n - j]
        + (n - j) * np.log(base)
        + (j - 1) * np.log(d + j / n)
        + math.log(d)
    )
    return 2.0 * float(np.sum(np.exp(log_terms)))


def _durbin_cdf(n: int, d: float) -> float:
    """Pr(D_n < d) exactly, by Durbin's matrix in the Marsaglia-Tsang-Wang
    form (J. Stat. Softw. 8(18), 2003): with d = (k - h)/n, it is n!/n^n
    times the (k, k) entry of H^n for a (2k - 1)-square H.  The powers of H
    are rescaled by powers of two, which is exact, with the exponents kept
    apart until the end."""
    k = math.ceil(n * d)
    h = k - n * d
    m = 2 * k - 1
    inv_fact = np.cumprod(np.r_[1.0, 1.0 / np.arange(1.0, m + 1)])  # 1/0! .. 1/m!
    lag = np.subtract.outer(np.arange(m), np.arange(m)) + 1
    H = np.where(lag >= 0, inv_fact[np.clip(lag, 0, m)], 0.0)
    v = (1.0 - h ** np.arange(1.0, m + 1)) * inv_fact[1:]
    v[-1] = (1.0 - 2.0 * h**m + max(2.0 * h - 1.0, 0.0) ** m) * inv_fact[m]
    H[:, 0] = v
    H[-1, :] = v[::-1]

    def rescaled(a):
        e = int(np.frexp(a.max())[1])
        return np.ldexp(a, -e), e

    power, exp2 = np.eye(m), 0
    h_exp2, left = 0, n
    while True:
        if left & 1:
            power, e = rescaled(power @ H)
            exp2 += h_exp2 + e
        left >>= 1
        if not left:
            break
        H, e = rescaled(H @ H)
        h_exp2 = 2 * h_exp2 + e
    p, e = math.frexp(float(power[k - 1, k - 1]))
    exp2 += e
    for i in range(1, n + 1):  # times n!/n^n, renormalised before it can underflow
        p *= i / n
        if p < 1e-250:
            p, e = math.frexp(p)
            exp2 += e
    return math.ldexp(p, exp2)


def _pelz_good_cdf(n: int, d: float) -> float:
    """Pr(D_n <= d) by the Pelz-Good series (J. R. Stat. Soc. B 38(2), 1976):
    the Li-Chien/Korolyuk expansion K0 + K1/sqrt(n) + K2/n + K3/n^1.5 in
    z = sqrt(n) d, rewritten through Jacobi theta identities for small z."""
    z = math.sqrt(n) * d
    z2 = z * z
    pi2 = math.pi**2
    root_2pi = math.sqrt(2.0 * math.pi)
    k = np.arange(1.0, math.ceil(16.0 * z / math.pi) + 1.0)
    m2 = (2.0 * k - 1.0) ** 2
    odd = np.exp(-pi2 * m2 / (8.0 * z2))  # q^((2k - 1)^2), q = exp(-pi^2 / 8z^2)
    coeffs = np.stack(
        [
            np.ones_like(m2),
            -z2 + pi2 / 4.0 * m2,
            6.0 * z**6 + 2.0 * z**4 + (2.0 * z**4 - 5.0 * z2) * pi2 / 4.0 * m2
            + pi2**2 * (1.0 - 2.0 * z2) / 16.0 * m2**2,
            -30.0 * z**6 - 90.0 * z**8 + pi2 * (135.0 * z**4 - 96.0 * z**6) / 4.0 * m2
            + pi2**2 * (-60.0 * z2 + 212.0 * z**4) / 16.0 * m2**2
            + pi2**3 * (5.0 - 30.0 * z2) / 64.0 * m2**3,
        ]
    )
    terms = coeffs @ odd * root_2pi
    terms /= np.array([z, 6.0 * z**4, 72.0 * z**7, 6480.0 * z**10])
    k2 = k * k
    even = k2 * np.exp(-pi2 * k2 / (2.0 * z2))  # k^2 q^(4 k^2)
    terms[2] -= pi2 * root_2pi / (36.0 * z**3) * np.sum(even)
    terms[3] += pi2 * root_2pi / (216.0 * z**6) * np.sum((3.0 * z2 - pi2 * k2) * even)
    return float(np.sum(terms / n ** (np.arange(4) / 2.0)))


def dmin_bound_curve(n: int, gamma: np.ndarray) -> np.ndarray:
    """Union-bound tail exp(0.54 n^2 - 2^(n - gamma)); meaningful where < 1."""
    return np.exp(0.54 * n**2 - 2.0 ** (n - np.asarray(gamma, dtype=float)))


@dataclass
class ExperimentConfig:
    n: int
    samples: int
    seed: int

    def __post_init__(self):
        """n >= 1, samples >= 1 and seed >= 0 are integers, not bools
        (``pauli._index``), and the batch's samples * 2^n amplitudes are held
        at once: at most MAX_ENTRIES."""
        self.n, self.samples = _index(self.n, "n", 1), _index(self.samples, "samples", 1)
        self.seed = _index(self.seed, "seed", 0)
        message = "need n <= 24 and at most 2^24 amplitudes (samples * 2^n)"
        _check_size(self.n, lambda: self.samples * 2**self.n, message)


@dataclass
class DminExperiment:
    config: ExperimentConfig
    values: np.ndarray  # per-sample dmin, bits
    grid: np.ndarray
    empirical_cdf: np.ndarray
    bound_curve: np.ndarray
    summary: dict


def sample_dmin(cfg: ExperimentConfig, dic: StabilizerDictionary) -> np.ndarray:
    """Per-sample min-relative entropy of magic, from the dictionary's
    best-overlap kernel."""
    if dic.n != cfg.n or dic.d != 2:
        raise ValueError("dictionary does not match the experiment")
    states = haar_state_batch(2**cfg.n, cfg.samples, cfg.seed)
    return -np.log2(dic.best_overlaps(states)[0])


def dmin_distribution(cfg: ExperimentConfig, dic: StabilizerDictionary) -> DminExperiment:
    values = sample_dmin(cfg, dic)
    grid = np.linspace(0.0, cfg.n, 257)
    ecdf = np.searchsorted(np.sort(values), grid, side="right") / cfg.samples
    curve = dmin_bound_curve(cfg.n, grid)
    summary = {
        "n": cfg.n,
        "samples": cfg.samples,
        "seed": cfg.seed,
        "mean": float(np.mean(values)),
        "max": float(np.max(values)),
        "min": float(np.min(values)),
    }
    return DminExperiment(cfg, values, grid, ecdf, curve, summary)


def experiment_csv(values) -> str:
    """CSV rows (sample id, dmin, dmax, lr); dmax and lr stay blank."""
    lines = ["sample,dmin,dmax,lr"]
    lines += [f"{i},{float(v)!r},," for i, v in enumerate(values)]
    return "\n".join(lines) + "\n"
