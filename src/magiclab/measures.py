"""Magic monotones over an explicit stabilizer dictionary.

Measures computed here, all in bits (base-2 logs):

* ``dmin``      min-relative entropy of magic; for pure states
                -log2 max_phi |<psi|phi>|^2, for mixed states the support
                projector replaces the rank-one projector.
* ``extent``    squared minimal complex l1 norm of a pure-state stabilizer
                decomposition; its log is the max-relative entropy of magic.
                Computed by phase column generation on the simplex and
                certified by a primal decomposition and a rescaled dual.
* ``free_robustness``
                minimal s with rho = (1+s) sigma - s sigma' over stabilizer
                mixtures; the optimal pseudomixture has l1 mass 1 + 2s, and
                the LP dual provides an operator witness A with
                |Tr phi A| <= 1 on the dictionary and Tr rho A = 1 + 2s.
                Both sides of sum_j c_j phi_j = rho go through one coordinate
                map per local dimension (Pauli expectations for qubits,
                density-matrix entries for qutrits).

Every report validates the sandwich dmin <= dmax <= log2(1 + R) within the
stated tolerance before it is returned.
"""

import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import __version__
from .pauli import hermitian_pauli, pauli_to_string
from .solvers import (
    BP_GAP_TOL,
    LP_TOL,
    LinearProgram,
    SolverError,
    crash_basis,
    solve_extent,
    solve_lp,
)
from .stabdict import StabilizerDictionary

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


def _is_density_matrix(state: np.ndarray) -> bool:
    return state.ndim == 2


def _checked_state(state, dic: StabilizerDictionary) -> np.ndarray:
    """The state as a complex array of the dictionary's dimension.  A pure
    state must have unit norm, and a density matrix unit trace, within 1e-9;
    a density matrix must also be Hermitian within 1e-10."""
    state = np.asarray(state, dtype=complex)
    if state.shape[0] != dic.d**dic.n:
        raise ValueError("state dimension does not match the dictionary")
    if _is_density_matrix(state):
        if not np.allclose(state, state.conj().T, atol=1e-10):
            raise ValueError("density matrix must be Hermitian")
        if not abs(np.trace(state) - 1.0) <= 1e-9:
            raise ValueError("density matrix must have unit trace")
    elif not abs(np.linalg.norm(state) - 1.0) <= 1e-9:
        raise ValueError("pure state must have unit norm")
    return state


def dmin(state: np.ndarray, dic: StabilizerDictionary) -> tuple[float, int]:
    """Min-relative entropy of magic and the index of the best dictionary state.

    Ties break toward the lowest dictionary index.  The state is checked as
    ``_checked_state`` describes.
    """
    state = _checked_state(state, dic)
    if _is_density_matrix(state):
        vals, vecs = np.linalg.eigh(state)
        support = vecs[:, vals > TOLERANCES["support_eigenvalue"]]
        overlaps = np.sum(np.abs(support.conj().T @ dic.states) ** 2, axis=0)
        best = int(np.argmax(overlaps))
        fidelity = float(overlaps[best])
    else:
        fidelities, indices = dic.best_overlaps(state[:, None])
        best, fidelity = int(indices[0]), float(fidelities[0])
    return -math.log2(fidelity), best


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
    agree to a relative ``bp_gap``.  The state is checked as ``_checked_state``
    describes.
    """
    psi = _checked_state(psi, dic)
    if _is_density_matrix(psi):
        raise ValueError("extent is defined here for pure states only")
    c, y, pivots, rounds = solve_extent(dic.states, psi)
    l1 = float(np.sum(np.abs(c)))
    lower = float(np.real(np.vdot(y, psi))) / float(np.max(np.abs(dic.overlaps(y))))
    rec_err = float(np.max(np.abs(dic.states @ c - psi)))
    if l1 - lower > TOLERANCES["bp_gap"] * l1 or rec_err > TOLERANCES["reconstruction"]:
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


def _pauli_coordinates(V: np.ndarray, n: int) -> np.ndarray:
    """Tr(|v><v| P) for every column v of V and every Hermitian Pauli P, one
    row per (x, z), x major.  With P = i^{-|x & z|} Z^z X^x,

        Tr(|v><v| Z^z X^x) = sum_u (-1)^{z.u} v[u ^ x] conj(v[u]),

    one Walsh-Hadamard transform (Hadamard matrix product) per X part x."""
    dim = 1 << n
    u = np.arange(dim)
    bits = (u[:, None] >> np.arange(n)) & 1
    weight = bits @ bits.T  # |x & z|, and z.u mod 2 by parity
    hadamard = (-1.0) ** weight
    phase = np.array([1, -1j, -1, 1j])[weight % 4]  # i^{-|x & z|}
    out = np.empty((dim, dim, V.shape[1]))
    for x in range(dim):
        s = V[u ^ x]
        s *= V.conj()  # in place: one more (dim, N) temporary raises the peak at n = 4
        s = hadamard @ s
        s *= phase[x, :, None]
        out[x] = s.real
    return out.reshape(dim * dim, -1)


def _entry_coordinates(V: np.ndarray) -> np.ndarray:
    """Entries of |v><v| for every column v of V: the diagonal, then the
    real and imaginary parts of each upper-triangle entry (i, j), row major."""
    dim = V.shape[0]
    i, j = np.triu_indices(dim, 1)
    upper = V[i] * V[j].conj()
    out = np.empty((dim * dim, V.shape[1]))
    out[:dim] = (V * V.conj()).real
    out[dim::2] = upper.real
    out[dim + 1 :: 2] = upper.imag
    return out


def _coordinates(V: np.ndarray, n: int, d: int) -> np.ndarray:
    """Real coordinates of each |v><v|, in the robustness LP's row order:
    Pauli expectations for qubits, density-matrix entries for qutrits."""
    return _pauli_coordinates(V, n) if d == 2 else _entry_coordinates(V)


def _coordinate_labels(n: int, d: int) -> tuple[str, ...]:
    """Row labels of ``_coordinates``: Pauli strings, or re/im[i,j] entries."""
    dim = d**n
    if d == 2:
        bits = [[v >> k & 1 for k in range(n)] for v in range(dim)]
        return tuple(pauli_to_string(hermitian_pauli(n, x, z)) for x in bits for z in bits)
    diagonal = [f"re[{i},{i}]" for i in range(dim)]
    upper = zip(*np.triu_indices(dim, 1))
    return tuple(diagonal + [f"{p}[{i},{j}]" for i, j in upper for p in ("re", "im")])


def _robustness_rows(dic: StabilizerDictionary):
    """The robustness LP's constraint rows and their labels, built once per
    dictionary and kept on it read-only."""
    if dic._robustness_rows is None:
        rows = _coordinates(dic.states, dic.n, dic.d)
        rows.flags.writeable = False
        dic._robustness_rows = (rows, _coordinate_labels(dic.n, dic.d))
    return dic._robustness_rows


@dataclass
class RobustnessResult:
    r: float
    lr: float
    l1: float
    pseudomixture: list[tuple[int, float]]
    witness: list[tuple[str, float]]
    diagnostics: dict


def free_robustness(state: np.ndarray, dic: StabilizerDictionary) -> RobustnessResult:
    """Free robustness via the pseudomixture LP min ||c||_1, sum c_phi phi = rho.

    The columns are the real coordinates of the dictionary's projectors, and
    b is sum_k lambda_k times those of |v_k><v_k| over rho's eigenpairs.  The
    optimum splits as (1 + R) - R, so ||c||_1 = 1 + 2R.  The dual vector
    defines a witness operator A (returned in the constraint basis) with
    |Tr phi A| <= 1 for every dictionary state and Tr rho A = ||c||_1; a
    witness above 1 + the ``lp`` tolerance anywhere on the dictionary raises
    ``SolverError``.  The LP is free in sign, so each column enters the
    simplex once, as a_j or -a_j, and the solver reports the signed c.  It
    starts at a crash basis taken in descending |a_j . b|, the overlap of
    each state's constraint column with rho's (2^n Tr(phi_j rho) for
    qubits), whose columns with a negative value the solver turns itself.
    The state is checked as ``_checked_state`` describes.
    """
    state = _checked_state(state, dic)
    pure = not _is_density_matrix(state)
    rho = np.outer(state, state.conj()) if pure else state
    A, labels = _robustness_rows(dic)
    vals, vecs = (np.ones(1), state[:, None]) if pure else np.linalg.eigh(rho)
    b = _coordinates(vecs, dic.n, dic.d) @ vals
    prog = LinearProgram(np.ones(A.shape[1]), A, b, free=True)
    start = crash_basis(A, np.argsort(-np.abs(b @ A), kind="stable"))
    sol = solve_lp(prog, basis=start)
    if sol.status != "optimal":
        raise SolverError(f"robustness LP ended with status {sol.status}")
    coeffs = sol.x
    l1 = float(sol.objective)
    r = max((l1 - 1.0) / 2.0, 0.0)
    keep = np.nonzero(np.abs(coeffs) > 1e-12)[0]
    support = [(int(j), float(coeffs[j])) for j in keep]
    phis = dic.states[:, keep]
    rec_err = float(np.max(np.abs((phis * coeffs[keep]) @ phis.conj().T - rho)))
    if rec_err > TOLERANCES["reconstruction"]:
        raise SolverError(f"pseudomixture reconstruction error {rec_err:.2e}")
    witness_feas = float(np.max(np.abs(A.T @ sol.dual)))
    if witness_feas > 1.0 + TOLERANCES["lp"]:
        raise SolverError(f"witness exceeds 1 on the dictionary by {witness_feas - 1.0:.2e}")
    witness = [
        (labels[i], float(sol.dual[i]))
        for i in np.nonzero(np.abs(sol.dual) > 1e-12)[0]
    ]
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
            "witness_value": float(b @ sol.dual),
            "reconstruction_error": rec_err,
        },
    )


def stab_rank_bound(
    psi: np.ndarray,
    dic: StabilizerDictionary,
    epsilon: float,
    xi: float | None = None,
) -> float:
    """Approximate stabilizer-rank bound 1 + xi/epsilon^2 (reported, no search)."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    if xi is None:
        xi = extent(psi, dic).xi
    return 1.0 + xi / epsilon**2


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
        if self.r is not None and self.r < -1e-12:
            raise ValueError("negative robustness")
        if self.dmax is not None and self.dmin > self.dmax + tol:
            raise ValueError(
                f"measure chain violated: dmin={self.dmin} > dmax={self.dmax}"
            )
        if self.lr is not None:
            upper = self.dmax if self.dmax is not None else self.dmin
            if upper > self.lr + tol:
                raise ValueError(
                    f"measure chain violated: {upper} > lr={self.lr}"
                )
        return self

    def to_json(self, **kwargs) -> str:
        payload = asdict(self)
        payload["pseudomixture"] = [[j, c] for j, c in self.pseudomixture]
        payload["witness"] = [[lbl, c] for lbl, c in self.witness]
        return json.dumps(payload, **kwargs)


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
    pure = not _is_density_matrix(state)
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
