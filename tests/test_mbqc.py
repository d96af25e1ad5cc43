import math

import numpy as np
import pytest

from magiclab.mbqc import (
    MeasurementLayout,
    OutcomeDistribution,
    outcome_distribution,
    pbound_check,
    planted_verifier,
    randomized_search,
    search_repetition_bound,
)
from magiclab.measures import dmin
from magiclab.pauli import PauliOperator, pauli_from_string
from magiclab.stabdict import ResourceLimitError

from conftest import random_state


def layout_of(n, *strings):
    return MeasurementLayout(n, tuple(pauli_from_string(s) for s in strings))


def test_layout_validation():
    with pytest.raises(ValueError):
        layout_of(2, "XI", "ZI")  # anticommuting
    with pytest.raises(ValueError):
        layout_of(2, "XX", "XX")  # dependent
    with pytest.raises(ValueError):
        MeasurementLayout(1, (PauliOperator(1, 2, (1,), (0,), 1),))  # iX not Hermitian
    with pytest.raises(ValueError):
        layout_of(2, "II", "ZZ")  # identity observable


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda: MeasurementLayout(2, ()), "between 1 and n", id="no-observables"),
        pytest.param(lambda: layout_of(1, "Z", "X"), "between 1 and n", id="past-n"),
        # commuting Hermitian involutions that only the GF(2) rank refuses: YY = -XX ZZ
        pytest.param(
            lambda: layout_of(3, "XXI", "ZZI", "YYI"), "independent as a group", id="dependent-yy"
        ),
        pytest.param(
            lambda: OutcomeDistribution(layout_of(1, "Z"), np.array([0.5, 0.4])),
            "sum to 0.9",
            id="sum",
        ),
        pytest.param(
            lambda: OutcomeDistribution(layout_of(1, "Z"), np.array([1.5, -0.5])),
            "negative probability",
            id="negative",
        ),
        pytest.param(
            lambda: randomized_search(lambda y: True, 2, 0, np.random.default_rng(0)),
            "need budget >= 1, got 0",
            id="budget",
        ),
        pytest.param(lambda: planted_verifier(2, {4}), "must be k-bit", id="planted"),
        # a planted string went unchecked but for its range: 1.5 and True were planted
        pytest.param(
            lambda: planted_verifier(2, {1.5}),
            r"planted string takes integers only, got 1\.5",
            id="planted-float",
        ),
        pytest.param(
            lambda: planted_verifier(2, {True}),
            "planted string takes integers only, got True",
            id="planted-bool",
        ),
        pytest.param(
            lambda: planted_verifier(2, {-1}),
            "need planted string >= 0, got -1",
            id="planted-negative",
        ),
        # k went unchecked: 2.5 drew from 0..5, True drew one-bit strings
        pytest.param(
            lambda: randomized_search(lambda y: True, 2.5, 50, np.random.default_rng(0)),
            r"k takes integers only, got 2\.5",
            id="search-k-float",
        ),
        pytest.param(
            lambda: randomized_search(lambda y: True, True, 50, np.random.default_rng(0)),
            "k takes integers only, got True",
            id="search-k-bool",
        ),
        pytest.param(
            lambda: randomized_search(lambda y: True, 0, 50, np.random.default_rng(0)),
            "need k >= 1, got 0",
            id="search-k0",
        ),
        pytest.param(
            lambda: planted_verifier(2.5, {5}),
            r"k takes integers only, got 2\.5",
            id="planted-k-float",
        ),
        pytest.param(
            lambda: planted_verifier(-1, set()), "need k >= 1, got -1", id="planted-k-negative"
        ),
    ],
)
def test_mbqc_refusals(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_outcome_distribution_checks_the_state():
    layout = layout_of(2, "XX", "ZZ")
    # a density matrix used to fail only in OutcomeDistribution ("sum to 0.25")
    with pytest.raises(ValueError, match="pure state"):
        outcome_distribution(np.eye(4) / 4, layout)
    with pytest.raises(ValueError, match="state norm 2.0 "):
        outcome_distribution(np.array([2, 0, 0, 0]), layout)
    with pytest.raises(ValueError, match="unit norm"):
        pbound_check(np.array([np.nan, 0, 0, 0]), layout, 0.0)
    with pytest.raises(ValueError, match=r"shape \(4,\)"):
        outcome_distribution(np.array([1, 0]), layout)


def test_outcome_branches_follow_the_entry_cap(monkeypatch):
    # the 2^k branches write 2^(n+k) amplitudes, at most MAX_ENTRIES = 2^24:
    # n = 13 with k = 1 fits, and k = 12 is refused before any branch
    e = np.zeros(2**13, dtype=complex)
    e[0] = 1.0
    zs = ["I" * i + "Z" + "I" * (12 - i) for i in range(12)]
    assert outcome_distribution(e, layout_of(13, zs[0])).probabilities.tolist() == [1.0, 0.0]
    layout = layout_of(13, *zs)

    def apply(self, v):
        raise AssertionError("a branch was taken")

    monkeypatch.setattr(PauliOperator, "apply", apply)
    message = r"^outcome branches of n=13, k=12 exceed 2\^24 amplitudes$"
    with pytest.raises(ResourceLimitError, match=message):
        outcome_distribution(e, layout)
    # at n = 20 with k = 1 the 2^21 amplitudes fit, but apply's digit table
    # of 20 * 2^20 entries does not; it too is refused before the state, a
    # view of one zero that would fail the norm check
    message = r"^outcome branches of n=20, k=1 need a digit table over 2\^24 entries$"
    with pytest.raises(ResourceLimitError, match=message):
        outcome_distribution(np.broadcast_to(0j, (2**20,)), layout_of(20, "Z" + "I" * 19))


def test_uniform_distribution_on_plus_layouts():
    e = np.zeros(8, dtype=complex)
    e[0] = 1.0
    for k in (1, 2, 3):
        obs = ["X" + "I" * 2, "IXI", "IIX"][:k]
        dist = outcome_distribution(e, layout_of(3, *obs))
        assert np.allclose(dist.probabilities, 2.0**-k)


def test_deterministic_z_outcome():
    e = np.zeros(4, dtype=complex)
    e[0] = 1.0
    dist = outcome_distribution(e, layout_of(2, "ZI"))
    assert abs(dist.probabilities[0] - 1.0) < 1e-12


def test_bell_state_joint_outcome():
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 2**-0.5
    dist = outcome_distribution(bell, layout_of(2, "XX", "ZZ"))
    assert abs(dist.probabilities[0] - 1.0) < 1e-12
    assert np.max(dist.probabilities[1:]) < 1e-12


def test_order_independence():
    rng = np.random.default_rng(0)
    psi = random_state(8, rng)
    a = outcome_distribution(psi, layout_of(3, "ZII", "IZI", "IIZ")).probabilities
    b = outcome_distribution(psi, layout_of(3, "IIZ", "ZII", "IZI")).probabilities
    # permuting the observables permutes the outcome bits: in the second
    # layout Z3 is measured first, so its bit moves to position 0
    remap = np.zeros_like(a)
    for y in range(8):
        y2 = ((y >> 2) & 1) | ((y & 1) << 1) | (((y >> 1) & 1) << 2)
        remap[y] = b[y2]
    assert np.allclose(a, remap, atol=1e-10)


def test_joint_entangled_layout_k_less_n():
    rng = np.random.default_rng(1)
    psi = random_state(8, rng)
    dist = outcome_distribution(psi, layout_of(3, "XXI", "ZZI"))
    assert abs(np.sum(dist.probabilities) - 1.0) < 1e-10
    assert dist.probabilities.shape == (4,)


def test_pbound_ccz(dict2_3, ccz_state):
    value, _ = dmin(ccz_state, dict2_3)
    ok, max_p, bound = pbound_check(ccz_state, layout_of(3, "ZII", "IZI", "IIZ"), value)
    assert ok
    assert bound == pytest.approx(9 / 16)
    assert max_p * 8 >= 1.0 - 1e-9  # cap consistency: max p 2^k >= 1


def test_pbound_trivial_for_stabilizer(dict2_2):
    psi = dict2_2.state(3)
    ok, max_p, bound = pbound_check(psi, layout_of(2, "ZI"), 0.0)
    assert ok and bound == pytest.approx(2.0)


def test_search_accepts_immediately():
    rng = np.random.default_rng(2)
    res = randomized_search(lambda y: True, 5, 10, rng)
    assert res.success and res.repetitions == 1


def test_search_budget_exhaustion():
    rng = np.random.default_rng(3)
    res = randomized_search(lambda y: False, 3, 17, rng)
    assert not res.success and res.repetitions == 17 and res.accepted is None


def test_search_median_with_half_planted():
    rng = np.random.default_rng(4)
    verifier = planted_verifier(4, set(range(8)))
    reps = [randomized_search(verifier, 4, 1000, rng).repetitions for _ in range(1000)]
    assert np.median(reps) <= 2


def test_search_success_rate_matches_fraction():
    rng = np.random.default_rng(5)
    k, good = 6, set(range(13))
    p = len(good) / 2**k
    trials = 4000
    hits = sum(randomized_search(planted_verifier(k, good), k, 1, rng).success for _ in range(trials))
    sigma = math.sqrt(p * (1 - p) / trials)
    assert abs(hits / trials - p) < 3 * sigma


def test_repetition_bound_value():
    assert search_repetition_bound(3, math.log2(16 / 9)) == pytest.approx(
        3 * math.log2(3) * 4 * (9 / 16)
    )
    assert search_repetition_bound(3, math.log2(16 / 9)) == pytest.approx(10.6985, abs=1e-4)
