"""Pauli-measurement MBQC: joint outcome distributions and classical search.

A layout is a set of k commuting, independent Hermitian Pauli observables.
Outcome bit y_i = 0 encodes eigenvalue +1 and y_i = 1 encodes -1; the
outcome index is sum_i y_i 2^i.  Joint probabilities come from the product
of the commuting projectors (I + (-1)^{y_i} P_i)/2, applied recursively with
pruning of dead branches.

The distribution of any layout on a state with min-relative entropy of
magic D obeys max_y p(y) <= 2^(n - k - D), which is what makes a uniform
random search over outcome strings competitive: the expected number of
draws to hit an accepting string is modest, with the reference budget
3 log2(3) * 2^(n - D - 1).
"""

import math
from dataclasses import dataclass

import numpy as np

from .binlin import gfp_rref_stack
from .measures import _checked_pure_state
from .pauli import PauliOperator, _check_size, _commuting, is_hermitian_involution


@dataclass(frozen=True)
class MeasurementLayout:
    n: int
    observables: tuple[PauliOperator, ...]

    def __post_init__(self):
        k = len(self.observables)
        if not 1 <= k <= self.n:
            raise ValueError("need between 1 and n observables")
        if not _commuting(self.observables, self.n, 2):
            raise ValueError("observables must be mutually compatible")
        for P in self.observables:
            if not is_hermitian_involution(P):
                raise ValueError("observables must be Hermitian involutions")
            if P.is_identity_vector():
                raise ValueError("identity is not a valid observable")
        M = np.array([P.xvec + P.zvec for P in self.observables])
        if gfp_rref_stack(M[None], 2)[1].sum() != k:
            raise ValueError("observables must be independent as a group")

    @property
    def k(self) -> int:
        return len(self.observables)


@dataclass
class OutcomeDistribution:
    layout: MeasurementLayout
    probabilities: np.ndarray  # length 2^k, index sum_i y_i 2^i

    def __post_init__(self):
        total = float(np.sum(self.probabilities))
        if not abs(total - 1.0) <= 1e-10:
            raise ValueError(f"probabilities sum to {total}")
        if not float(np.min(self.probabilities)) >= -1e-12:
            raise ValueError("negative probability")

    def cap_check(self, dmin_bits: float) -> tuple[bool, float, float]:
        """max_y p(y) against the cap 2^(n - k - dmin): (holds, max_p, cap)."""
        max_p = float(np.max(self.probabilities))
        bound = 2.0 ** (self.layout.n - self.layout.k - dmin_bits)
        return max_p <= bound + 1e-9, max_p, bound


def outcome_distribution(psi: np.ndarray, layout: MeasurementLayout) -> OutcomeDistribution:
    """Joint outcome probabilities of the layout on the pure state psi,
    checked as ``measures._checked_pure_state`` describes.  Its 2^(n+k) branch
    amplitudes and apply's n 2^n digit table are each at most MAX_ENTRIES."""
    n, k = layout.n, layout.k
    message = f"outcome branches of n={n}, k={k} exceed 2^24 amplitudes"
    _check_size(n + k, lambda: 2 ** (n + k), message)
    message = f"outcome branches of n={n}, k={k} need a digit table over 2^24 entries"
    _check_size(n, lambda: n * 2**n, message)
    psi = _checked_pure_state(psi, 2**n)
    probs = np.zeros(2**k)

    def branch(v: np.ndarray, i: int, y: int):
        if i == k:
            probs[y] = float(np.real(np.vdot(v, v)))
            return
        Pv = layout.observables[i].apply(v)
        for bit, proj in ((0, (v + Pv) / 2.0), (1, (v - Pv) / 2.0)):
            if np.vdot(proj, proj).real > 1e-16:
                branch(proj, i + 1, y | (bit << i))

    branch(psi, 0, 0)
    return OutcomeDistribution(layout, probs)


def pbound_check(
    psi: np.ndarray, layout: MeasurementLayout, dmin_bits: float
) -> tuple[bool, float, float]:
    """``OutcomeDistribution.cap_check`` on the layout's distribution on psi."""
    return outcome_distribution(psi, layout).cap_check(dmin_bits)


def search_repetition_bound(n: int, dmin_bits: float) -> float:
    """Reference draw budget 3 log2(3) 2^(n - dmin - 1) for 2/3 success."""
    return 3.0 * math.log2(3.0) * 2.0 ** (n - dmin_bits - 1.0)


@dataclass
class SearchResult:
    success: bool
    repetitions: int
    accepted: int | None  # the accepted string, if any


def randomized_search(verifier, k: int, budget: int, rng: "np.random.Generator") -> SearchResult:
    """Draw uniform k-bit strings until the verifier accepts or budget runs out."""
    if budget < 1:
        raise ValueError("budget must be at least 1")
    for t in range(1, budget + 1):
        y = int(rng.integers(0, 2**k))
        if verifier(y):
            return SearchResult(True, t, y)
    return SearchResult(False, budget, None)


def planted_verifier(k: int, good: set[int]):
    """Toy verifier accepting a planted solution set of k-bit strings."""
    if any(not 0 <= y < 2**k for y in good):
        raise ValueError("planted strings must be k-bit")
    return lambda y: y in good
