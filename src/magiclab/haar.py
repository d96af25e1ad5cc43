"""Haar-random state statistics: overlap law and empirical magic spread.

For a Haar-random pure state in dimension 2^n and any fixed reference state,
|<phi|psi>|^2 has density (2^n - 1)(1 - a)^(2^n - 2), so the survival
function is (1 - b)^(2^n - 1).  Sweeping the best overlap over the full
stabilizer dictionary gives the empirical distribution of the min-relative
entropy of magic, which can be compared against the union-bound curve
exp(0.54 n^2 - 2^(n - gamma)) (vacuous at desk scale for most gamma, so the
curve is reported rather than asserted wherever it reaches 1).

Per-sample randomness is split deterministically from the master seed, so
experiments are reproducible and parallelizable.
"""

from dataclasses import dataclass

import numpy as np

from .stabdict import StabilizerDictionary


def haar_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unit vector via a normalized complex Gaussian."""
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def haar_state_batch(dim: int, count: int, seed: int) -> np.ndarray:
    """(dim, count) matrix of independent Haar states from one master seed."""
    out = np.empty((dim, count), dtype=complex)
    for i, child in enumerate(np.random.SeedSequence(seed).spawn(count)):
        out[:, i] = haar_state(dim, np.random.default_rng(child))
    return out


def overlap_cdf_pvalue(n: int, samples: int, seed: int, phi: np.ndarray | None = None) -> float:
    """KS test of the fixed-reference overlap law; returns the p-value."""
    from scipy import stats  # imported here: it dominates `import magiclab`

    dim = 2**n
    if phi is None:
        phi = np.zeros(dim, dtype=complex)
        phi[0] = 1.0
    states = haar_state_batch(dim, samples, seed)
    alphas = np.abs(phi.conj() @ states) ** 2
    return float(stats.kstest(alphas, lambda a: 1.0 - (1.0 - a) ** (dim - 1)).pvalue)


def dmin_bound_curve(n: int, gamma: np.ndarray) -> np.ndarray:
    """Union-bound tail exp(0.54 n^2 - 2^(n - gamma)); meaningful where < 1."""
    return np.exp(0.54 * n**2 - 2.0 ** (n - np.asarray(gamma, dtype=float)))


@dataclass
class ExperimentConfig:
    n: int
    samples: int
    seed: int

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError("need at least one sample")
        if self.n > 4:
            raise ValueError("magic experiments need the full dictionary (n <= 4)")


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


def experiment_csv(values, dmax_values=None, lr_values=None) -> str:
    """CSV rows (sample id, dmin, dmax, lr); missing measures stay blank."""
    lines = ["sample,dmin,dmax,lr"]
    for i, v in enumerate(values):
        dmax = "" if dmax_values is None else repr(float(dmax_values[i]))
        lr = "" if lr_values is None else repr(float(lr_values[i]))
        lines.append(f"{i},{float(v)!r},{dmax},{lr}")
    return "\n".join(lines) + "\n"
