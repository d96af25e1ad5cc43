"""In-house convex solver: a revised primal simplex, and the stabilizer
extent by phase column generation on the same simplex.

The LP path is a two-phase revised simplex on standard form

    min c.x  s.t.  A x = b,  x >= 0,

with the dual vector extracted from the final basis.  Only B^{-1} and the
basic values are kept; every column is priced with one product
c - (c_B B^{-1}) A.  Entering columns are picked by largest violation; the
leaving row uses the lexicographic rule on the rows of B^{-1}, which keeps
the heavily degenerate dictionary LPs from cycling.  The final basis is
re-solved against the original data so B^{-1} round-off never reaches the
reported solution.

The extent's complex l1 minimum subject to D c = t is a real LP over
nonnegative weights of phase-rotated dictionary columns.  Column generation
adds the exact phase for every column the current dual violates, until the
primal l1 norm and the rescaled dual value agree to a relative BP_GAP_TOL.
"""

from dataclasses import dataclass

import numpy as np

LP_TOL = 1e-9
BP_GAP_TOL = 1e-9


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


# --- stabilizer extent --------------------------------------------------------

_EXTENT_MAX_ROUNDS = 100


def _phase_columns(D, idx, phases):
    """Real LP columns [Re; Im] of the phase-rotated dictionary columns
    phases[k] * D[:, idx[k]]."""
    cols = D[:, idx] * phases
    return np.vstack([cols.real, cols.imag])


def solve_extent(D: np.ndarray, t: np.ndarray):
    """min sum_j |c_j| over complex c subject to D c = t, by phase column
    generation on the simplex.

    With c_j = sum_k w_jk e^{i theta_k} and w >= 0 this is a real LP with 2m
    rows.  Round 0 puts the phases {1, i, -1, -i} on every column and keeps
    the columns of its solution's support.  Each later round adds, for every
    j with |<phi_j|y>| > 1 under the simplex dual y, the column at phase
    arg <phi_j|y>; no column is dropped.  ||c||_1 bounds the optimum from
    above, and Re<y, t> / max_j |<phi_j|y>| bounds it from below for any y.
    The lower bound is taken at the least-norm y tight on the support of c:
    on a degenerate LP such as CCZ x |+> the simplex's vertex dual wanders
    over the optimal face and never certifies.  Stops when the bounds agree
    to a relative ``BP_GAP_TOL``.

    Returns (c, y, pivots, rounds) with y the certifying dual vector.
    """
    D = np.asarray(D, dtype=complex)
    t = np.asarray(t, dtype=complex)
    m, N = D.shape
    b = np.concatenate([t.real, t.imag])
    idx = np.repeat(np.arange(N), 4)
    phases = np.tile(np.array([1, 1j, -1, -1j]), N)
    pivots = 0
    for rounds in range(1, _EXTENT_MAX_ROUNDS + 1):
        A = _phase_columns(D, idx, phases)
        sol = solve_lp(LinearProgram(np.ones(idx.size), A, b))
        if sol.status == "infeasible":
            raise ValueError("target is not in the span of the dictionary")
        pivots += sol.iterations
        support = sol.x > 1e-12  # degenerate basics would pin y to a vertex
        c = np.zeros(N, dtype=complex)
        np.add.at(c, idx, sol.x * phases)
        yr = np.linalg.lstsq(A[:, support].T, np.ones(support.sum()), rcond=None)[0]
        y = yr[:m] + 1j * yr[m:]
        upper = float(np.sum(np.abs(c)))
        lower = float(np.real(np.vdot(y, t))) / float(np.max(np.abs(D.conj().T @ y)))
        if upper - lower <= BP_GAP_TOL * upper:
            return c, y, pivots, rounds
        if rounds == 1:
            idx, phases = idx[support], phases[support]
        yr = np.zeros(2 * m)
        yr[sol.kept_rows] = sol.dual
        corr = D.conj().T @ (yr[:m] + 1j * yr[m:])
        new = np.nonzero(np.abs(corr) > 1.0)[0]
        idx = np.concatenate([idx, new])
        phases = np.concatenate([phases, np.exp(1j * np.angle(corr[new]))])
    raise SolverError(
        f"extent column generation stopped after {_EXTENT_MAX_ROUNDS} rounds "
        f"with {lower!r} <= l1 <= {upper!r}"
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
    N = D.shape[1]
    phases = np.exp(2j * np.pi * np.arange(sides) / sides)
    A = _phase_columns(D, np.repeat(np.arange(N), sides), np.tile(phases, N))
    b = np.concatenate([t.real, t.imag])
    sol = solve_lp(LinearProgram(np.ones(N * sides), A, b))
    if sol.status != "optimal":
        raise SolverError(f"polygon LP ended {sol.status}")
    w = sol.x.reshape(N, sides)
    coeffs = w @ phases
    return float(sol.objective), coeffs
