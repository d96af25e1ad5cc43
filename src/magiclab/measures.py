"""Magic monotones over an explicit stabilizer dictionary.

Measures computed here, all in bits (base-2 logs):

* ``dmin``      min-relative entropy of magic, -log2 max_phi Tr(Pi phi) for
                the support projector Pi (|psi><psi| for a pure state), read
                from Pi's Pauli coordinates through the group tables.
* ``extent``    squared minimal complex l1 norm of a pure-state stabilizer
                decomposition; its log is the max-relative entropy of magic.
                Computed by phase column generation on the simplex and
                certified by a primal decomposition and a rescaled dual.
* ``free_robustness``
                minimal s with rho = (1+s) sigma - s sigma' over stabilizer
                mixtures; the optimal pseudomixture has l1 mass 1 + 2s, and
                the LP dual provides an operator witness A with
                |Tr phi A| <= 1 on the dictionary and Tr rho A = 1 + 2s.
                Both sides of sum_j c_j phi_j = rho are written in one real
                basis per local dimension: Pauli expectations for qubits,
                each phi_j's +-1 on its stabilizer group's elements, read
                off the group tables and priced from them, and
                density-matrix entries for qutrits, taken from the dense
                projectors.

A qubit rho fixed by an antiunitary Theta = P o K (complex conjugation, then
a Pauli P; P = I for a real rho, XX..X for T^n) gets a smaller robustness
LP.  Theta maps the dictionary onto itself and fixes rho, so averaging any
pseudomixture with its image keeps it feasible at no larger l1: some optimum
is Theta-invariant.  Such an optimum has one weight per orbit {phi, Theta phi}
and lives on the rows that Theta fixes, where the two states of an orbit
share their coordinates.  So the LP on those rows, one column per orbit,
has the full optimum, and its dual, 0 on the dropped rows, is a full dual.
The symmetry is read off rho's Pauli coordinates, with coordinates at most
1e-12 counted as zero.  The answer is lifted back, half an orbit's weight on
each state of a pair, and certified as every other: against rho, and by the
witness over the full dictionary.

Every report validates the sandwich dmin <= dmax <= log2(1 + R) within the
stated tolerance before it is returned.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .pauli import _digits, hermitian_pauli, pauli_to_string
from .solvers import (
    BP_GAP_TOL,
    LP_TOL,
    SolverError,
    solve_extent,
    solve_lp,
)
from .stabdict import (
    StabilizerDictionary,
    _best_in_groups,
    _check_size,
    _pauli_coordinates,
    _state_coordinates,
    _state_pricer,
    _tables,
    count_stabilizer_states,
)

TOLERANCES = {
    "lp": LP_TOL,
    "bp_gap": BP_GAP_TOL,
    "chain": 1e-5,
    "reconstruction": 1e-8,
    "support_eigenvalue": 1e-10,
}


def golden_state() -> np.ndarray:
    """Single-qubit pure state with Bloch vector (1,1,1)/sqrt(3), the
    maximally magical product-state direction."""
    theta = math.acos(1.0 / math.sqrt(3.0))
    return np.array(
        [math.cos(theta / 2), np.exp(1j * np.pi / 4) * math.sin(theta / 2)]
    )


def _checked_state(state, dim: int) -> np.ndarray:
    """The state as a complex vector (dim,) or density matrix (dim, dim), the
    one check of every function that takes a state.  A pure state must have
    unit norm, and a density matrix unit trace, within 1e-9; a density
    matrix must also be Hermitian within 1e-10 and have no eigenvalue below
    -``support_eigenvalue``.  NaN fails every test."""
    state = np.asarray(state, dtype=complex)
    if state.shape not in ((dim,), (dim, dim)):
        raise ValueError(f"state must have shape ({dim},) or ({dim}, {dim})")
    if state.ndim == 2:
        if not np.max(np.abs(state - state.conj().T)) <= 1e-10:
            raise ValueError("density matrix must be Hermitian")
        if not abs(np.trace(state) - 1.0) <= 1e-9:
            raise ValueError("density matrix must have unit trace")
        if not np.linalg.eigvalsh(state)[0] >= -TOLERANCES["support_eigenvalue"]:
            raise ValueError("density matrix must be positive semidefinite")
    else:
        norm = np.linalg.norm(state)
        if not abs(norm - 1.0) <= 1e-9:
            raise ValueError(f"state norm {norm} is not 1 within 1e-9: need unit norm")
    return state


def _checked_pure_state(state, dim: int) -> np.ndarray:
    """``_checked_state`` for the functions defined on pure states only."""
    state = _checked_state(state, dim)
    if state.ndim == 2:
        raise ValueError("a pure state (a vector) is needed, not a density matrix")
    return state


def dmin(state: np.ndarray, dic: StabilizerDictionary) -> tuple[float, int]:
    """Min-relative entropy of magic and the index of the best dictionary state.

    Reads the Pauli coordinates of the support projector (|psi><psi| for a
    pure state) as ``best_overlaps`` reads a vector's.  Exact ties break
    toward the lowest index; fidelities equal only up to rounding are ranked
    by their last bits.  A fidelity rounded above 1 reads as 1, so dmin is
    never negative (+0.0 at fidelity 1).  The state is checked as
    ``_checked_state`` describes.
    """
    state = _checked_state(state, dic.d**dic.n)
    support = state[:, None]
    if state.ndim == 2:
        vals, vecs = np.linalg.eigh(state)
        support = vecs[:, vals > TOLERANCES["support_eigenvalue"]]
    projector = np.sum(support[:, None] * support.conj(), axis=2, keepdims=True)
    coords = _pauli_coordinates(projector, dic.n, dic.d)
    fidelity, best = _best_in_groups(dic.elements, dic.phases, coords, dic.n, dic.d)
    return 0.0 - math.log2(min(float(fidelity[0]), 1.0)), int(best[0])


@dataclass
class ExtentResult:
    xi: float
    dmax: float
    coefficients: np.ndarray
    diagnostics: dict


def extent(psi: np.ndarray, dic: StabilizerDictionary) -> ExtentResult:
    """Stabilizer extent of a pure state by phase column generation on the
    same simplex as the robustness LP.

    Both bounds are recomputed here from the returned decomposition c and
    dual vector y over the full dictionary, so the certificate does not trust
    the solver: sqrt(xi) <= ||c||_1 once D c = psi within the reconstruction
    tolerance, and sqrt(xi) >= Re<y, psi> / max_j |<phi_j|y>|.  The two must
    agree to a relative ``bp_gap``.  The state is checked as
    ``_checked_pure_state`` describes.
    """
    psi = _checked_pure_state(psi, dic.d**dic.n)
    c, y, pivots, rounds = solve_extent(dic.states, psi)
    l1 = float(np.sum(np.abs(c)))
    lower = float(np.real(np.vdot(y, psi))) / math.sqrt(dic.best_overlaps(y[:, None])[0][0])
    rec_err = float(np.max(np.abs(dic.states @ c - psi)))
    if not (l1 - lower <= TOLERANCES["bp_gap"] * l1 and rec_err <= TOLERANCES["reconstruction"]):
        raise SolverError(
            f"extent certificate failed: {lower!r} <= l1 <= {l1!r}, "
            f"reconstruction error {rec_err:.2e}"
        )
    xi = l1**2
    return ExtentResult(
        xi=xi,
        dmax=math.log2(xi),
        coefficients=c,
        diagnostics={
            "iterations": pivots,
            "rounds": rounds,
            "l1_gap": l1 - lower,
            "lower_bound": lower,
            "reconstruction_error": rec_err,
        },
    )


def _entry_coordinates(R: np.ndarray) -> np.ndarray:
    """Entries of each operator R[:, :, k]: the real diagonal, then the real
    and imaginary parts of each upper-triangle entry (i, j), row major."""
    dim = R.shape[0]
    i, j = np.triu_indices(dim, 1)
    upper = R[i, j]
    out = np.empty((dim * dim, R.shape[2]))
    out[:dim] = R[np.arange(dim), np.arange(dim)].real
    out[dim::2] = upper.real
    out[dim + 1 :: 2] = upper.imag
    return out


@functools.lru_cache(maxsize=None)
def _coordinate_labels(n: int, d: int) -> tuple[str, ...]:
    """Row labels of the LP's coordinates: Pauli strings for qubits
    (``_pauli_coordinates``), re/im[i,j] entries for qutrits
    (``_entry_coordinates``)."""
    dim = d**n
    if d == 2:
        bits = _digits(n, 2)[0]
        return tuple(pauli_to_string(hermitian_pauli(n, x, z)) for x in bits for z in bits)
    diagonal = [f"re[{i},{i}]" for i in range(dim)]
    upper = zip(*np.triu_indices(dim, 1))
    return tuple(diagonal + [f"{p}[{i},{j}]" for i, j in upper for p in ("re", "im")])


@dataclass
class RobustnessResult:
    r: float
    lr: float
    l1: float
    pseudomixture: list[tuple[int, float]]
    witness: list[tuple[str, float]]
    diagnostics: dict


def _check_robustness_size(n: int, d: int) -> None:
    """Refuse (n, d) whose robustness LP would have more than MAX_ENTRIES
    column entries, N d^2n for the N stabilizer states: qubits n <= 4 and
    qutrits n <= 2.  It needs only the closed-form count, so a caller can
    test it before building the dictionary."""
    message = f"robustness columns for n={n}, d={d} exceed 2^24 entries"
    _check_size(n, lambda: count_stabilizer_states(n, d) * d ** (2 * n), message)


# |b_Q| at or below which a Pauli coordinate of rho counts as zero in the
# search for a conjugation symmetry.  2^n rows touch an entry of rho, each by
# |b_Q| / 2^n, so the rows dropped move no entry by more than this, far
# below the reconstruction tolerance
_SYMMETRY_ZERO = 1e-12


def _conjugation_orbits(b: np.ndarray, groups: np.ndarray, n: int):
    """The robustness LP that a conjugation symmetry of a qubit rho keeps,
    or None when rho has none.

    Theta(s) = P s* P, complex conjugation K followed by a Pauli P, maps a
    coordinate b_Q to (-1)^(#Y(Q) + <P, Q>) b_Q, so rho* = P rho P when no
    kept Q, |b_Q| above _SYMMETRY_ZERO, has an odd parity.  #Y(Q) = |qx & qz|
    and <P, Q> = |px & qz| + |pz & qx|, so with the Hadamard table
    H[a, b] = (-1)^|a & b| the sums of (-1)^parity over the kept Q are
    (H (kept * H) H)[pz, px] for every P at once, integers exact in floats.
    The first P in row order whose sum counts every kept Q is taken (the
    identity for a real rho), and no 4^n x 4^n table is formed.  Theta maps
    each stabilizer group onto itself: the parity is linear on the group's
    elements c, tau.c with tau read off its generators (the elements 2^i),
    so Theta takes the group's state sigma to sigma XOR tau.

    Returns (P, rows, cols, partner): P's row index, the rows that Theta
    fixes, one column per orbit {phi, Theta phi} (every state of a group
    with tau = 0, else those with a 0 at tau's lowest set bit), and the
    column of Theta phi for every column phi of the dictionary."""
    dim, steps = 2**n, 2 ** np.arange(n)
    w, H = _tables(n, 2)[2:]  # |a & b| and (-1)^|a & b|
    kept = np.abs(b.reshape(dim, dim)) > _SYMMETRY_ZERO  # [qx, qz]
    fixing = np.flatnonzero((H @ (kept * H) @ H).T == kept.sum())
    if fixing.size == 0:
        return None
    P = int(fixing[0])
    px, pz = divmod(P, dim)
    odd = ((w + w[px] + w[pz][:, None]) & 1).ravel() == 1
    tau = odd[groups[:, steps]] @ steps
    sigma = np.arange(dim)
    keep = (sigma & (tau & -tau)[:, None]) == 0
    partner = np.arange(0, len(groups) * dim, dim)[:, None] + (sigma ^ tau[:, None])
    return P, np.flatnonzero(~odd), np.flatnonzero(keep), partner.ravel()


def free_robustness(state: np.ndarray, dic: StabilizerDictionary) -> RobustnessResult:
    """Free robustness via the pseudomixture LP min ||c||_1, sum c_phi phi = rho.

    The columns are the real coordinates of the dictionary's projectors, and
    b those of rho.  For qubits a column is the state's Pauli spectrum,
    exactly +-1 on its group's elements and 0 elsewhere.  ``_state_pricer``
    prices every column off the group tables, one 2^n x 2^n Hadamard
    product per group, to pick each entering column; the dense matrix,
    written by ``_state_coordinates`` on every call, gives the entering
    column itself, ``solve_lp``'s final check and the witness check below.
    For qutrits a column is the entries of the dense projector, priced by
    one dense product.  A faulty pricer can cost pivots or raise
    ``SolverError``, but cannot certify a wrong value.  The optimum splits
    as (1 + R) - R, so ||c||_1 = 1 + 2R.  The dual vector defines a witness
    operator A (returned in the constraint basis) with |Tr phi A| <= 1 for
    every dictionary state and Tr rho A = ||c||_1; a witness above 1 + the
    ``lp`` tolerance anywhere on the dictionary raises ``SolverError``.
    This is ``solve_lp``'s one LP form, min ||c||_1 over coefficients free
    in sign, so each column enters the simplex once, as a_j or -a_j, and
    the solver reports the signed c; it raises instead of returning a
    status.  It starts at ``solve_lp``'s crash basis, taken in descending
    |a_j . b|, the overlap of each state's constraint column with rho's
    (2^n Tr(phi_j rho) for qubits), whose columns with a negative value the
    solver turns itself.

    A qubit rho with a conjugation symmetry Theta = P o K, found by
    ``_conjugation_orbits`` (every coordinate above _SYMMETRY_ZERO = 1e-12
    must keep its sign under Theta), is solved on the rows Theta fixes and
    one column per orbit {phi, Theta phi}, as the module docstring
    explains: 36 x 660 at n = 3 and 136 x 20,520 at n = 4 for CCZ and T^n.
    That LP is priced by ``_state_pricer`` on its dual lifted to every row,
    with 0 on the dropped rows.  Each state of a conjugate pair gets half of
    its orbit's weight, and the lifted pseudomixture and dual face the same
    checks as the full LP's: the reconstruction against rho, and the
    witness over the full dense matrix.  Without such a P the LP is the
    full one.  The diagnostics give the shape of the LP solved
    (``lp_rows``, ``lp_columns``) and P (``symmetry_pauli``, None without
    one).  The state is checked as ``_checked_state`` describes, and the
    sizes by ``_check_robustness_size``.
    """
    _check_robustness_size(dic.n, dic.d)
    state = _checked_state(state, dic.d**dic.n)
    rho = state if state.ndim == 2 else np.outer(state, state.conj())
    if dic.d == 2:
        A = _state_coordinates(dic.elements, dic.phases, dic.n)
        b = _pauli_coordinates(rho[:, :, None], dic.n, dic.d)[:, 0]
        price = _state_pricer(dic.elements, dic.phases, dic.n)
        symmetry = _conjugation_orbits(b, dic.elements, dic.n)
    else:
        A = _entry_coordinates(dic.states[:, None] * dic.states.conj())
        b = _entry_coordinates(rho[:, :, None])[:, 0]
        price = symmetry = None
    if symmetry is None:
        sol = solve_lp(A, b, price=price)
        coeffs, dual = sol.x, sol.dual
    else:
        _, rows, cols, partner = symmetry
        lifted = np.zeros(len(b))

        def price_orbits(y):
            lifted[rows] = y
            return price(lifted)[cols]

        sol = solve_lp(A[np.ix_(rows, cols)], b[rows], price=price_orbits)
        coeffs = np.zeros(A.shape[1])
        coeffs[cols] = sol.x
        coeffs = (coeffs + coeffs[partner]) / 2  # half an orbit's weight on each of a pair
        dual = np.zeros(len(b))
        dual[rows] = sol.dual
    l1 = sol.objective
    r = max((l1 - 1.0) / 2.0, 0.0)
    keep = np.nonzero(np.abs(coeffs) > 1e-12)[0]
    support = [(int(j), float(coeffs[j])) for j in keep]
    phis = dic.states[:, keep]
    rec_err = float(np.max(np.abs((phis * coeffs[keep]) @ phis.conj().T - rho)))
    if not rec_err <= TOLERANCES["reconstruction"]:
        raise SolverError(f"pseudomixture reconstruction error {rec_err:.2e}")
    witness_feas = float(np.max(np.abs(A.T @ dual)))
    if not witness_feas <= 1.0 + TOLERANCES["lp"]:
        raise SolverError(f"witness exceeds 1 on the dictionary by {witness_feas - 1.0:.2e}")
    labels = _coordinate_labels(dic.n, dic.d)
    witness = [(labels[i], float(dual[i])) for i in np.nonzero(np.abs(dual) > 1e-12)[0]]
    return RobustnessResult(
        r=r,
        lr=math.log2(1.0 + r),
        l1=l1,
        pseudomixture=support,
        witness=witness,
        diagnostics={
            "iterations": sol.iterations,
            "duality_gap": sol.gap,
            "witness_max_abs": witness_feas,
            "witness_value": float(b @ dual),
            "reconstruction_error": rec_err,
            "lp_rows": len(sol.dual),
            "lp_columns": len(sol.x),
            "symmetry_pauli": None if symmetry is None else labels[symmetry[0]],
        },
    )


@dataclass
class MagicReport:
    """Bundle of the computed monotones with solver diagnostics and tolerances."""

    n: int
    d: int
    dmin: float
    fidelity: float
    best_state_index: int
    dmax: float | None
    xi: float | None
    r: float | None
    lr: float | None
    l1: float | None
    pseudomixture: list[tuple[int, float]]
    witness: list[tuple[str, float]]
    diagnostics: dict
    tolerances: dict = field(default_factory=lambda: dict(TOLERANCES))
    version: str = __version__

    def validate(self):
        tol = self.tolerances["chain"]
        if self.r is not None and not self.r >= -1e-12:
            raise ValueError(f"robustness {self.r} is not >= 0")
        if self.dmax is not None and not self.dmin <= self.dmax + tol:
            raise ValueError(
                f"measure chain violated: dmin={self.dmin} > dmax={self.dmax}"
            )
        if self.lr is not None:
            upper = self.dmax if self.dmax is not None else self.dmin
            if not upper <= self.lr + tol:
                raise ValueError(
                    f"measure chain violated: {upper} > lr={self.lr}"
                )
        return self


# above this dictionary size the convex solves outgrow the desk scale
SOLVER_DICTIONARY_LIMIT = 5000


def magic_report(state: np.ndarray, dic: StabilizerDictionary) -> MagicReport:
    """Compute dmin, extent (pure states), and free robustness; validate the
    consistency sandwich dmin <= dmax <= LR before returning.

    The convex solves run only while the dictionary stays at desk scale
    (``SOLVER_DICTIONARY_LIMIT`` states: n <= 3 qubits / n <= 2 qutrits);
    skipped measures are reported as None.
    """
    state = np.asarray(state, dtype=complex)
    pure = state.ndim == 1
    affordable = dic.size <= SOLVER_DICTIONARY_LIMIT
    dmin_value, best = dmin(state, dic)
    ext = extent(state, dic) if pure and affordable else None
    rob = free_robustness(state, dic) if affordable else None
    diagnostics = {}
    if rob is not None:
        diagnostics["robustness"] = rob.diagnostics
    if ext is not None:
        diagnostics["extent"] = ext.diagnostics
    report = MagicReport(
        n=dic.n,
        d=dic.d,
        dmin=dmin_value,
        fidelity=2.0**-dmin_value,
        best_state_index=best,
        dmax=ext.dmax if ext else None,
        xi=ext.xi if ext else None,
        r=rob.r if rob else None,
        lr=rob.lr if rob else None,
        l1=rob.l1 if rob else None,
        pseudomixture=rob.pseudomixture if rob else [],
        witness=rob.witness if rob else [],
        diagnostics=diagnostics,
    )
    return report.validate()
