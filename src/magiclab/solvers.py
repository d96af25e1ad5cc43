"""In-house convex solvers: revised primal simplex and complex basis pursuit.

The LP path is a two-phase revised simplex on standard form

    min c.x  s.t.  A x = b,  x >= 0,

with the dual vector extracted from the final basis.  Only B^{-1} and the
basic values are kept; every column is priced with one product
c - (c_B B^{-1}) A.  Entering columns are picked by largest violation; the
leaving row uses the lexicographic rule on the rows of B^{-1}, which keeps
the heavily degenerate dictionary LPs from cycling.  The final basis is
re-solved against the original data so B^{-1} round-off never reaches the
reported solution.

Basis pursuit minimizes the complex l1 norm subject to D c = t via ADMM
(projection onto the affine constraint + complex soft thresholding), with
over-relaxation and residual-balanced step adaptation.  A feasible dual
point is rescaled at every check so the returned value carries a certified
optimality gap.
"""

from dataclasses import dataclass

import numpy as np

LP_TOL = 1e-9
BP_RESIDUAL_TOL = 1e-8
BP_GAP_TOL = 1e-6


class SolverError(RuntimeError):
    pass


@dataclass
class LinearProgram:
    """min objective.x subject to A x = b, x >= 0 (split free variables)."""

    objective: np.ndarray
    A: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        self.objective = np.asarray(self.objective, dtype=float)
        self.A = np.asarray(self.A, dtype=float)
        self.b = np.asarray(self.b, dtype=float)
        m, ncols = self.A.shape
        if self.objective.shape != (ncols,) or self.b.shape != (m,):
            raise ValueError("inconsistent LP dimensions")


@dataclass
class LPSolution:
    status: str  # optimal | infeasible | unbounded
    x: np.ndarray | None = None
    dual: np.ndarray | None = None
    objective: float | None = None
    iterations: int = 0
    gap: float | None = None
    kept_rows: np.ndarray | None = None  # rows surviving presolve


def _pivot(Binv, xb, basis, d, leave, enter):
    """Bring column ``enter``, whose image under B^{-1} is ``d``, into the
    basis at position ``leave``."""
    piv = d[leave]
    Binv[leave] /= piv
    xb[leave] /= piv
    col = d.copy()
    col[leave] = 0.0
    Binv -= np.outer(col, Binv[leave])
    xb -= col * xb[leave]
    basis[leave] = enter


def _revised_simplex(cols, cost, basis, Binv, xb, tol, max_iter):
    """Revised simplex with the lexicographic anti-cycling ratio test.

    ``Binv`` (B^{-1}, one row per basic position, one column per original
    row) and the basic values ``xb`` are updated in place.  Rows of B^{-1}
    start as the identity, which makes the lexicographic order well posed.
    """
    for it in range(max_iter):
        reduced = cost - (cost[basis] @ Binv) @ cols
        enter = int(np.argmin(reduced))
        if reduced[enter] >= -tol:
            return "optimal", it
        d = Binv @ cols[:, enter]
        candidates = np.nonzero(d > tol)[0]
        if candidates.size == 0:
            return "unbounded", it
        ratios = xb[candidates] / d[candidates]
        best = float(np.min(ratios))
        tied = candidates[ratios <= best + 1e-10 * (1.0 + abs(best))]
        if tied.size > 1:
            lex = Binv[tied] / d[tied, None]
            order = np.lexsort(lex.T[::-1])
            leave = int(tied[order[0]])
        else:
            leave = int(tied[0])
        _pivot(Binv, xb, basis, d, leave, enter)
        np.maximum(xb, 0.0, out=xb)  # clamp float dust
    raise SolverError(f"simplex did not converge within {max_iter} iterations")


def solve_lp(prog: LinearProgram, tol: float = LP_TOL, max_iter: int = 50_000) -> LPSolution:
    """Two-phase revised simplex with dual extraction.

    Redundant equality rows found in phase 1 are dropped (presolve to full
    row rank); the returned dual covers the surviving rows, indexed by
    ``kept_rows``.  The final basis is re-solved against the original data,
    so the reported solution does not inherit the round-off of B^{-1}.
    """
    A = prog.A.copy()
    b = prog.b.copy()
    c = prog.objective
    m, ncols = A.shape
    flip = b < 0
    A[flip] *= -1.0
    b[flip] *= -1.0
    rows = np.arange(m)

    # phase 1 from the artificial basis, where B^{-1} = I
    c1 = np.concatenate([np.zeros(ncols), np.ones(m)])
    basis = np.arange(ncols, ncols + m)
    Binv = np.eye(m)
    xb = b.copy()
    status, it1 = _revised_simplex(
        np.hstack([A, np.eye(m)]), c1, basis, Binv, xb, tol, max_iter
    )
    if status != "optimal":
        raise SolverError(f"phase 1 ended {status}")
    if float(c1[basis] @ xb) > 1e-7:
        return LPSolution(status="infeasible", iterations=it1)

    # pivot artificials out of the basis; an artificial none can replace
    # marks its own row as redundant (its basis position can differ, once it
    # has left and re-entered), and dropping that row keeps B nonsingular
    drop = []
    for pos in range(m):
        if basis[pos] < ncols:
            continue
        row = Binv[pos] @ A
        j = int(np.argmax(np.abs(row)))
        if abs(row[j]) > 1e-9:
            _pivot(Binv, xb, basis, Binv @ A[:, j], pos, j)
        else:
            drop.append(pos)
    if drop:
        rows = np.setdiff1d(rows, basis[drop] - ncols)
        keep = np.setdiff1d(np.arange(m), drop)
        Binv, xb, basis = Binv[keep], xb[keep], basis[keep]
        m = len(keep)

    status, it2 = _revised_simplex(A, c, basis, Binv, xb, tol, max_iter)
    if status == "unbounded":
        return LPSolution(status="unbounded", iterations=it1 + it2)

    # re-solve the final basis against the (sign-flipped) data, which the
    # iterations never modify
    A, b = A[rows], b[rows]
    B = A[:, basis]
    x = np.zeros(ncols)
    x[basis] = np.linalg.solve(B, b)
    y = np.linalg.solve(B.T, c[basis])
    obj = float(c @ x)
    gap = abs(obj - float(b @ y))
    feas = float(np.max(np.abs(A @ x - b))) if m else 0.0
    if gap > 1e-8 * max(1.0, abs(obj)) or feas > 1e-7:
        raise SolverError(f"simplex accuracy check failed: gap={gap:.2e} feas={feas:.2e}")
    # undo row flips so the dual matches the caller's rows
    sign = np.where(flip[rows], -1.0, 1.0)
    return LPSolution(
        status="optimal",
        x=x,
        dual=y * sign,
        objective=obj,
        iterations=it1 + it2,
        gap=gap,
        kept_rows=rows,
    )


# --- complex basis pursuit -----------------------------------------------------

@dataclass
class BasisPursuitProblem:
    """min sum_j |c_j| over complex c subject to dictionary @ c = target."""

    dictionary: np.ndarray
    target: np.ndarray
    residual_tol: float = BP_RESIDUAL_TOL
    gap_tol: float = BP_GAP_TOL

    def __post_init__(self):
        self.dictionary = np.asarray(self.dictionary, dtype=complex)
        self.target = np.asarray(self.target, dtype=complex)
        if self.dictionary.shape[0] != self.target.shape[0]:
            raise ValueError("dictionary/target dimension mismatch")


@dataclass
class BPSolution:
    coefficients: np.ndarray
    l1: float
    lower_bound: float
    gap: float
    iterations: int
    primal_residual: float
    dual_residual: float


def _soft_threshold(v: np.ndarray, kappa: float) -> np.ndarray:
    mags = np.abs(v)
    scale = np.maximum(mags - kappa, 0.0)
    out = np.zeros_like(v)
    nz = mags > 0
    out[nz] = scale[nz] * v[nz] / mags[nz]
    return out


def solve_basis_pursuit(
    prob: BasisPursuitProblem,
    rho: float | None = None,
    max_iter: int = 500_000,
    over_relax: float = 1.6,
) -> BPSolution:
    D = prob.dictionary
    t = prob.target
    m, N = D.shape
    G = D @ D.conj().T
    Ginv = np.linalg.pinv(G, rcond=1e-12)
    Dh = D.conj().T

    lsq = Dh @ (Ginv @ t)
    if np.linalg.norm(D @ lsq - t) > 1e-9:
        raise ValueError("target is not in the span of the dictionary")
    if rho is None:
        # the threshold 1/rho must sit below the working coefficient scale,
        # which shrinks as the dictionary grows
        rho = 10.0 / max(float(np.max(np.abs(lsq))), 1e-12)

    def project(v):
        return v - Dh @ (Ginv @ (D @ v - t))

    z = lsq.copy()
    u = np.zeros(N, dtype=complex)
    c = z.copy()
    r_norm = s_norm = np.inf
    for it in range(1, max_iter + 1):
        c = project(z - u)
        c_hat = over_relax * c + (1 - over_relax) * z
        z_new = _soft_threshold(c_hat + u, 1.0 / rho)
        u = u + c_hat - z_new
        r_norm = float(np.linalg.norm(c - z_new))
        s_norm = float(rho * np.linalg.norm(z_new - z))
        z = z_new
        if it % 25 == 0 or (r_norm < prob.residual_tol and s_norm < prob.residual_tol):
            y = rho * (Ginv @ (D @ u))
            corr = np.abs(Dh @ y)
            scale = max(1.0, float(np.max(corr)))
            lower = float(np.real(np.vdot(y, t))) / scale
            l1 = float(np.sum(np.abs(c)))
            gap = l1 - lower
            if (
                r_norm < prob.residual_tol
                and s_norm < prob.residual_tol
                and gap < prob.gap_tol
            ):
                return BPSolution(c, l1, lower, gap, it, r_norm, s_norm)
            if r_norm > 10 * s_norm and rho < 1e6:
                rho *= 2.0
                u /= 2.0
            elif s_norm > 10 * r_norm and rho > 1e-6:
                rho /= 2.0
                u *= 2.0
    raise SolverError(
        f"basis pursuit did not converge: primal={r_norm:.2e} dual={s_norm:.2e}"
    )


def basis_pursuit_polygon_lp(
    D: np.ndarray, t: np.ndarray, sides: int = 16
) -> tuple[float, np.ndarray]:
    """Polyhedral cross-check for the complex l1 minimum.

    Each complex coefficient is written as a nonnegative combination of
    ``sides`` unit phasors, giving a real LP whose value lies within a factor
    1/cos(pi/sides) above the true minimum (0.5% for a 16-gon).
    """
    D = np.asarray(D, dtype=complex)
    t = np.asarray(t, dtype=complex)
    m, N = D.shape
    phases = np.exp(2j * np.pi * np.arange(sides) / sides)
    cols = (D[:, :, None] * phases[None, None, :]).reshape(m, N * sides)
    A = np.vstack([cols.real, cols.imag])
    b = np.concatenate([t.real, t.imag])
    sol = solve_lp(LinearProgram(np.ones(N * sides), A, b))
    if sol.status != "optimal":
        raise SolverError(f"polygon LP ended {sol.status}")
    w = sol.x.reshape(N, sides)
    coeffs = w @ phases
    return float(sol.objective), coeffs
