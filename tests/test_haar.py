import hashlib
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from magiclab.haar import (
    ExperimentConfig,
    _RUN_ENTRIES,
    _kolmogorov_sf,
    _spawned_words,
    dmin_bound_curve,
    dmin_distribution,
    experiment_csv,
    haar_state,
    haar_state_batch,
    overlap_cdf_pvalue,
    sample_dmin,
)
import magiclab
from magiclab.measures import dmin
from magiclab.pauli import ResourceLimitError

GOLDEN_DMIN = math.log2(3 - math.sqrt(3))


def test_sample_normalization():
    rng = np.random.default_rng(0)
    for n in (1, 3, 6):
        assert abs(np.linalg.norm(haar_state(2**n, rng)) - 1) < 1e-12


def test_mean_overlap_with_reference():
    for n in (1, 2, 3):
        states = haar_state_batch(2**n, 10_000, seed=100 + n)
        alphas = np.abs(states[0, :]) ** 2
        # Beta(1, 2^n - 1) moments
        mean = 2.0**-n
        var = (2**n - 1) / (2 ** (2 * n) * (2**n + 1))
        assert abs(alphas.mean() - mean) < 3 * math.sqrt(var / 10_000)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_overlap_cdf_ks(n):
    assert overlap_cdf_pvalue(n, 4000, seed=11 * n) > 0.01


def _other_reference():
    rng = np.random.default_rng(5)
    phi = rng.normal(size=4) + 1j * rng.normal(size=4)
    return phi / np.linalg.norm(phi)


def test_overlap_cdf_other_reference():
    # the law holds for any fixed reference state, not just |0...0>
    assert overlap_cdf_pvalue(2, 4000, seed=21, phi=_other_reference()) > 0.01


@pytest.fixture(scope="module")
def scipy_modules_in_child():
    """The scipy modules loaded in one child process, after a bare `import
    magiclab` and again after a KS test; one interpreter start serves both."""
    paths = [str(Path(magiclab.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    code = (
        "import sys, magiclab; "
        "loaded = lambda: sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')); "
        "print(loaded()); magiclab.overlap_cdf_pvalue(3, 2000, seed=4); print(loaded())"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    after_import, after_test = out.stdout.strip().splitlines()
    return after_import, after_test


def test_import_leaves_scipy_stats_unloaded(scipy_modules_in_child):
    # no magiclab module imports scipy, and every CLI child process pays for
    # every module that `import magiclab` loads
    assert scipy_modules_in_child[0] == "[]"
    # the numpy KS kernel keeps the p-value that scipy.stats.kstest gives here
    pvalue = overlap_cdf_pvalue(2, 100, seed=7)
    assert pvalue == pytest.approx(0.7214547201574213, rel=1e-12)


def test_overlap_test_leaves_scipy_unloaded(scipy_modules_in_child):
    # not even the KS test imports scipy
    assert scipy_modules_in_child[1] == "[]"


def _branch_edges(n):
    """D on both sides of every boundary of the p-value's branch rule, and of
    n d^2 = 0.754693, where scipy hands n <= 140 from Durbin to Pomeranz."""
    edges = [0.5 / n, 1 / n, (n - 1) / n, 0.5, math.sqrt(0.754693 / n)]
    edges += [math.sqrt(c / n) for c in (2.2, 4.0, 370.0)] + [(1.4 / n) ** (2 / 3)]
    ds = [e * f for e in edges for f in (0.97, 1 - 1e-9, 1 + 1e-9, 1.03)]
    return sorted(d for d in ds if 0 < d <= 1)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 10, 50, 100, 140, 141, 500, 2000, 10000])
def test_kolmogorov_sf_matches_scipy_kstwo(n):
    for d in _branch_edges(n):
        assert abs(_kolmogorov_sf(n, d) - stats.kstwo.sf(d, n)) <= 1e-12, d


def _scipy_overlap_pvalue(n, samples, seed, phi=None):
    dim = 2**n
    if phi is None:
        phi = np.eye(dim)[0]
    alphas = np.abs(phi.conj() @ haar_state_batch(dim, samples, seed)) ** 2
    return stats.kstest(alphas, lambda a: 1.0 - (1.0 - a) ** (dim - 1)).pvalue


# every overlap test configuration in this file and in test_acceptance_9
@pytest.mark.parametrize(
    "n, samples, seed, phi",
    [(n, 4000, 11 * n, None) for n in (1, 2, 3)]
    + [(2, 4000, 21, _other_reference()), (2, 100, 7, None)]
    + [(n, 10_000, 90 + n, None) for n in (1, 2, 3)],
)
def test_overlap_pvalue_matches_scipy_kstest(n, samples, seed, phi):
    expected = _scipy_overlap_pvalue(n, samples, seed, phi)
    assert abs(overlap_cdf_pvalue(n, samples, seed, phi=phi) - expected) <= 1e-12


@pytest.mark.parametrize(
    "n, samples, phi, message",
    [
        (0, 10, None, "n >= 1"),
        (2, 0, None, "need samples >= 1, got 0"),
        (2, 10, np.ones(4), "unit norm"),
        (2, 10, np.eye(8)[0], r"shape \(4,\)"),
        (40, 10, None, "n <= 24"),
        (20, 17, None, r"2\^24 amplitudes"),
    ],
    ids=["n0", "samples0", "unnormalised", "wrong_size", "n40", "too_many_amplitudes"],
)
def test_overlap_pvalue_rejects_bad_input(n, samples, phi, message):
    with pytest.raises(ValueError, match=message):
        overlap_cdf_pvalue(n, samples, seed=1, phi=phi)


def test_batch_reproducibility():
    a = haar_state_batch(4, 7, seed=3)
    b = haar_state_batch(4, 7, seed=3)
    assert np.array_equal(a, b)
    # sample i comes from the i-th child of the master seed
    children = np.random.SeedSequence(3).spawn(7)
    spawned = [haar_state(4, np.random.default_rng(child)) for child in children]
    assert np.array_equal(a, np.array(spawned).T)


@pytest.mark.parametrize(
    "dim, count, seed, digest",
    [
        (16, 128, 7, "024d64917463661c245f573086f72f15ee3d6542c04948a0b97512f347264250"),
        (8, 2000, 5, "e26f14047151b1d3b3f6451b419b39913e95d2c844533c33a22a088a948b570c"),
        (32, 64, 3, "bc39dd039cee03b10df88141e97cf01e58d98bf6b0c6dc90a9028ffb9312cc02"),
    ],
)
def test_batch_bits_are_pinned(dim, count, seed, digest):
    # per-sample seeding is the reproducibility contract: these batches keep
    # their bytes however the samples are drawn and assembled
    states = haar_state_batch(dim, count, seed)
    assert hashlib.sha256(states.tobytes()).hexdigest() == digest


@pytest.mark.parametrize(
    "seed",
    # 1 to 7 entropy words; from 5 on, the hash mixes entropy past the pool
    [0, 1, 2**32 - 1, 2**32, 2**64, 2**127, 2**128 - 1, 2**128, 2**200 + 1],
)
def test_spawned_words_match_seed_sequence(seed):
    # the PCG64 seed words of each SeedSequence child, for indices that cross
    # the one-qubit runs of 512 samples
    count = 1030
    children = np.random.SeedSequence(seed).spawn(count)
    expected = np.array([child.generate_state(4, np.uint64) for child in children])
    run = _RUN_ENTRIES // 2
    words = [_spawned_words(seed, i0, min(i0 + run, count)) for i0 in range(0, count, run)]
    assert [len(w) for w in words] == [512, 512, 6]
    assert all(w.dtype == np.uint64 for w in words)
    assert np.array_equal(np.concatenate(words), expected)
    assert np.array_equal(_spawned_words(seed, 500, 530), expected[500:530])


def test_batch_memory_is_the_output():
    # no list of SeedSequence children (about 470 B each) next to the
    # 32 B of amplitudes a one-qubit sample takes
    count = 2**13
    tracemalloc.start()
    try:
        out = haar_state_batch(2, count, seed=9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * out.nbytes


def test_batch_refuses_bad_dimensions_before_drawing():
    with pytest.raises(ValueError, match="dim >= 1"):
        haar_state_batch(0, 3, seed=1)
    # 4,096 x 4,097 amplitudes are one sample past 2^24: refused before the
    # 268 MB output is allocated or any sample drawn
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match=r"2\^24 amplitudes"):
            haar_state_batch(4096, 4097, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def _refused_before_allocating(dim, count, seed, message):
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=message):
            haar_state_batch(dim, count, seed)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**16


def test_batch_refuses_bad_dim():
    for dim in (True, 2.0, "2", None):
        _refused_before_allocating(dim, 3, 1, "dim takes integers only")
    assert haar_state_batch(np.int64(2), 3, 1).shape == (2, 3)


def test_batch_refuses_bad_count():
    for count in (True, 3.0, "3", None):
        _refused_before_allocating(2, count, 1, "count takes integers only")
    _refused_before_allocating(2, -1, 1, r"count >= 0, got -1")
    assert haar_state_batch(2, 0, 1).shape == (2, 0)


def test_batch_refuses_bad_seed():
    # SeedSequence takes nonnegative seeds only, so a negative one has no
    # children whose words could be reproduced
    for seed in (False, 1.0, "1", None):
        _refused_before_allocating(2, 3, seed, "seed takes integers only")
    _refused_before_allocating(2, 3, -1, "need seed >= 0, got -1")
    assert np.array_equal(haar_state_batch(2, 3, np.uint8(1)), haar_state_batch(2, 3, 1))


def test_single_qubit_dmin_max_at_golden(dict2_1):
    values = sample_dmin(ExperimentConfig(1, 5000, seed=7), dict2_1)
    assert values.max() <= GOLDEN_DMIN + 1e-6
    # grid oracle over the Bloch sphere: the same maximum
    best = 0.0
    for theta in np.linspace(0, np.pi, 120):
        for phi in np.linspace(0, 2 * np.pi, 240, endpoint=False):
            psi = np.array(
                [np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)]
            )
            value, _ = dmin(psi, dict2_1)
            best = max(best, value)
    assert best <= GOLDEN_DMIN + 1e-6
    assert best > GOLDEN_DMIN - 5e-3  # the grid gets close to the golden point


def test_dmin_distribution_summary(dict2_2):
    exp = dmin_distribution(ExperimentConfig(2, 400, seed=13), dict2_2)
    assert exp.summary["samples"] == 400
    assert 0 <= exp.summary["min"] <= exp.summary["mean"] <= exp.summary["max"] <= 2
    # the union-bound curve constants undercount the dictionary below n = 3,
    # so at n = 2 the curve is reported, not asserted
    assert exp.bound_curve.shape == exp.empirical_cdf.shape


def test_dmin_cdf_below_union_bound_n3(dict2_3):
    exp = dmin_distribution(ExperimentConfig(3, 500, seed=17), dict2_3)
    mask = exp.bound_curve < 1
    assert np.all(exp.empirical_cdf[mask] <= exp.bound_curve[mask] + 1e-12)


def test_dmin_distribution_chain(dict2_2):
    # every sampled state also satisfies the full measure sandwich
    from magiclab.measures import magic_report

    states = haar_state_batch(4, 3, seed=23)
    for i in range(3):
        rep = magic_report(states[:, i], dict2_2)  # validates dmin <= dmax <= lr
        assert rep.dmax <= rep.lr + 1e-5


def test_clifford_push_leaves_distribution(dict2_2, single_qubit_cliffords):
    values = sample_dmin(ExperimentConfig(2, 300, seed=31), dict2_2)
    U = np.kron(single_qubit_cliffords[7], single_qubit_cliffords[19])
    states = haar_state_batch(4, 300, seed=31)
    pushed = U @ states
    overlaps = np.abs(dict2_2.states.conj().T @ pushed) ** 2
    pushed_values = -np.log2(np.max(overlaps, axis=0))
    # per-sample invariance (the dictionary is Clifford closed) ...
    assert np.max(np.abs(pushed_values - values)) < 1e-10
    # ... hence distribution invariance
    assert stats.ks_2samp(values, pushed_values, method="asymp").pvalue > 0.01


@pytest.mark.parametrize(
    "n, samples, seed", [(1, 5000, 7), (2, 400, 13), (3, 500, 17), (2, 300, 31)]
)
def test_sample_dmin_matches_dense(request, n, samples, seed):
    dic = request.getfixturevalue(f"dict2_{n}")
    values = sample_dmin(ExperimentConfig(n, samples, seed), dic)
    states = haar_state_batch(2**n, samples, seed)
    dense = -np.log2(np.max(np.abs(dic.states.conj().T @ states) ** 2, axis=0))
    assert np.max(np.abs(values - dense)) < 1e-12


def test_sample_dmin_needs_the_experiment_dictionary(dict2_2):
    with pytest.raises(ValueError, match="does not match the experiment"):
        sample_dmin(ExperimentConfig(3, 10, seed=1), dict2_2)


def test_sample_dmin_memory(dict2_4):
    # the best-overlap kernel never holds the 36,720 x 256 overlap matrix
    # (150 MB complex): a few 1 MiB tiles at a time
    tracemalloc.start()
    try:
        sample_dmin(ExperimentConfig(4, 256, seed=5), dict2_4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_bound_curve_shape():
    gamma = np.array([0.0, 1.0, 2.0])
    curve = dmin_bound_curve(2, gamma)
    assert np.all(np.diff(curve) > 0)  # relaxing gamma inflates the tail bound
    assert curve[0] == pytest.approx(math.exp(0.54 * 4 - 4))


def test_experiment_csv_format():
    text = experiment_csv(np.array([0.25, 0.5]))
    lines = text.strip().splitlines()
    assert lines[0] == "sample,dmin,dmax,lr"
    assert lines[1] == "0,0.25,,"
    assert len(lines) == 3


def test_config_validation():
    # the batch's size is the only limit: n = 25 is refused before 2^25 is formed
    with pytest.raises(ValueError, match="n <= 24"):
        ExperimentConfig(25, 10, seed=0)
    ExperimentConfig(5, 10, seed=0)
    with pytest.raises(ValueError):
        ExperimentConfig(2, 0, seed=0)
    # refused before any of the 2^4 x 10^9 amplitudes is drawn
    with pytest.raises(ValueError, match=r"2\^24 amplitudes"):
        ExperimentConfig(4, 10**9, seed=0)
    ExperimentConfig(4, 2**20, seed=0)  # exactly 2^24 amplitudes
    # n and samples are integers, refused at construction, not inside numpy
    for n, samples in ((3, 2.5), (2.0, 10), (3, "10"), (None, 10)):
        with pytest.raises(ValueError, match="integers"):
            ExperimentConfig(n, samples, seed=0)
    cfg = ExperimentConfig(np.int64(3), np.int32(10), seed=0)
    assert type(cfg.n) is int and type(cfg.samples) is int
    # so is the seed, and nonnegative, as SeedSequence needs
    for seed in (1.5, "1", None):
        with pytest.raises(ValueError, match="integers"):
            ExperimentConfig(3, 10, seed)
    with pytest.raises(ValueError, match="need seed >= 0, got -1"):
        ExperimentConfig(3, 10, -1)
    assert type(ExperimentConfig(3, 10, np.uint8(7)).seed) is int
    # nor is a bool, in any of the three
    for args in ((True, 10, 0), (3, True, 0), (3, 10, False)):
        with pytest.raises(ValueError, match="integers"):
            ExperimentConfig(*args)
