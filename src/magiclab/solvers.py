"""In-house convex solver: a revised primal simplex, and the stabilizer
extent by phase column generation on the same simplex.

The LP path is a revised simplex on standard form

    min c.x  s.t.  A x = b,  x >= 0,

or on a free LP, min sum_j c_j |x_j| s.t. A x = b with c >= 0 and every x_j
free in sign, with the dual vector extracted from the final basis.  A free
LP is the nonnegative LP over [A, -A] without building -A: column j prices
at c_j - |y.a_j| and enters as s a_j with s = sign(y.a_j) (+1 on a tie, as
+a_j comes first in [A, -A]), and the solver keeps that +-1 for each basic
position, so B is A[:, basis] times the signs and the basic values are
|x_B|.  Only B^{-1} and the basic values are kept; every column is priced
with one product (c_B B^{-1}) A.  A caller may pass a starting basis B0 with
B0^{-1} b >= 0; a free LP turns each column with a negative value itself, so
any nonsingular B0 will do, and ``crash_basis`` picks such a start among the
columns the caller expects in the optimum.  Phase 1 runs only for cold
starts, from the artificial basis (B0 = diag(sign b)), whose artificials are
nonnegative in a free LP too.  A must have full row rank: there is no
presolve, and a cold start whose phase 1 cannot pivot an artificial out of
the basis raises ``ValueError``.  Entering columns are picked by largest
violation; the leaving row uses the lexicographic rule on the rows of
B^{-1} B0, which keeps the heavily degenerate dictionary LPs from cycling
from any start, and no pivot element below _PIVOT_TOL is accepted.  Ties in
the ratio and in each lexicographic column are decided within the same
relative 1e-10, so entries equal in exact arithmetic are not ranked by
round-off.  The final basis is re-solved against the original data so
B^{-1} round-off never reaches the reported solution, and the re-solved
pair must pass A x = b, x_B >= 0 on the signed columns and c - A^T y >= 0
(c - |A^T y| >= 0 when free): since c.x = b.y holds for any basis, these
are what certify optimality.

The extent's complex l1 minimum subject to D c = t is a free real LP over
the weights of phase-rotated dictionary columns, so a weight's sign is the
simplex's to choose, as in the robustness LP.  Column generation starts from
the crash basis over the phases 1 and i alone; every round solves warm from
the last basis, keeps the states of its basis and adds the exact phase for
every state the dual violates, until the primal l1 norm and the rescaled
dual value agree to a relative BP_GAP_TOL.
"""

from dataclasses import dataclass

import numpy as np

LP_TOL = 1e-9
BP_GAP_TOL = 1e-9
_MAX_PIVOTS = 50_000  # most pivots one solve_lp call may take
_PIVOT_TOL = 1e-7  # least pivot element the ratio test accepts
_FEAS_TOL = 1e-7  # primal residual and sign tolerance of the final check
_CRASH_SHARE = 0.1  # least orthogonal share of a column the crash basis takes


class SolverError(RuntimeError):
    pass


@dataclass
class LinearProgram:
    """min objective.x subject to A x = b, x >= 0; or, when ``free``, every
    x_j free in sign at cost objective_j |x_j|, which needs objective >= 0."""

    objective: np.ndarray
    A: np.ndarray
    b: np.ndarray
    free: bool = False

    def __post_init__(self):
        self.objective = np.asarray(self.objective, dtype=float)
        self.A = np.asarray(self.A, dtype=float)
        self.b = np.asarray(self.b, dtype=float)
        m, ncols = self.A.shape
        if self.objective.shape != (ncols,) or self.b.shape != (m,):
            raise ValueError("inconsistent LP dimensions")
        if self.free and self.objective.min(initial=0.0) < 0:
            raise ValueError("a free LP needs a nonnegative objective")


@dataclass
class LPSolution:
    status: str  # optimal | infeasible | unbounded
    x: np.ndarray | None = None
    dual: np.ndarray | None = None
    objective: float | None = None
    iterations: int = 0
    gap: float | None = None
    basis: np.ndarray | None = None  # final basic columns, one per row


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


def _lex_least(rows, lex):
    """The ``rows`` whose rows of ``lex`` are lexicographically least, each
    column deciding within a relative 1e-10 of its least entry among the rows
    still tied.  Columns that cannot decide for any subset are dropped first."""
    least = lex.min(axis=0)
    live = lex.max(axis=0) > least + 1e-10 * (1.0 + np.abs(least))
    keep = range(rows.size)
    for col in lex[:, live].T.tolist():
        values = [col[i] for i in keep]
        bound = min(values)
        bound += 1e-10 * (1.0 + abs(bound))
        keep = [i for i, v in zip(keep, values) if v <= bound]
        if len(keep) == 1:
            break
    return rows[keep]


def _revised_simplex(cols, cost, basis, Binv, xb, B0, sign, free=0):
    """Revised simplex with the lexicographic anti-cycling ratio test.

    ``Binv`` (B^{-1}, one row per basic position, one column per original
    row), the basic values ``xb`` and the column sign ``sign`` of each basic
    position are updated in place.  The first ``free`` columns are free in
    sign: column j prices at cost_j - |y.a_j|, the lesser of its two sides
    cost_j -+ y.a_j, and enters as s a_j.  An exact tie for the least
    reduced cost goes to the first column of [A, -A, the columns past
    ``free``], as np.argmin over those split columns would.  Ties in the ratio
    are ranked by the rows of B^{-1} B0, where B0 is the starting basis
    matrix: they start as the identity, which makes the lexicographic order
    well posed from any feasible start.  Each tie, in the ratio and then
    column by column of B^{-1} B0 / d, keeps the rows within a relative
    1e-10 of the least value, and the lowest basic position left leaves.
    """
    for it in range(_MAX_PIVOTS):
        priced = (cost[basis] @ Binv) @ cols
        reduced = cost - priced
        enter = int(np.argmin(reduced))
        least, s = reduced[enter], 1.0
        if free:
            twin = cost[:free] + priced[:free]  # the reduced costs of -a_j
            k = int(np.argmin(twin))
            if twin[k] < least or (twin[k] == least and enter >= free):
                enter, least, s = k, twin[k], -1.0
        if least >= -LP_TOL:
            return "optimal", it
        d = Binv @ cols[:, enter]
        if s < 0:
            d = -d
        candidates = np.nonzero(d > _PIVOT_TOL)[0]
        if candidates.size == 0:
            return "unbounded", it
        ratios = xb[candidates] / d[candidates]
        best = float(np.min(ratios))
        tied = candidates[ratios <= best + 1e-10 * (1.0 + abs(best))]
        if tied.size > 1:
            tied = _lex_least(tied, (Binv[tied] @ B0) / d[tied, None])
        leave = int(tied[0])
        _pivot(Binv, xb, basis, d, leave, enter)
        sign[leave] = s
        np.maximum(xb, 0.0, out=xb)  # clamp float dust
    raise SolverError(f"simplex did not converge within {_MAX_PIVOTS} iterations")


def solve_lp(prog: LinearProgram, basis=None) -> LPSolution:
    """Revised simplex with dual extraction, from a cold or a warm start.

    Cold (``basis`` None): phase 1 from the artificial basis.  A must have
    full row rank: an artificial that phase 1 cannot pivot out of the basis
    marks a redundant row, and raises ``ValueError``.  Warm: ``basis`` names
    m columns whose matrix B0 is nonsingular with B0^{-1} b >= 0 (a
    ``ValueError`` otherwise), and phase 2 starts there.  A free LP takes any
    nonsingular ``basis`` and turns each column with a negative value.

    The final basis is re-solved against the original data, so the reported
    solution does not inherit the round-off of B^{-1}, and is then checked:
    A x = b, x_B >= 0 on the signed columns and c - A^T y >= 0 (c - |A^T y|
    when free), each within a tolerance above ``LP_TOL``.  A basis that fails
    raises ``SolverError``.  A free LP reports the signed x and its objective
    c.|x|.
    """
    A, b, c = prog.A, prog.b, prog.objective
    m, ncols = A.shape

    if basis is None:
        # artificial columns sign(b_i) e_i make B0 = B0^{-1} and x_B = |b|
        B0 = np.diag(np.where(b < 0, -1.0, 1.0))
        basis, Binv, xb, sign, it1 = _phase_one(A, b, B0, prog.free)
        if basis is None:
            return LPSolution(status="infeasible", iterations=it1)
    else:
        basis = np.array(basis, dtype=np.intp)
        if basis.shape != (m,):
            raise ValueError(f"a start basis needs {m} columns, got {basis.shape}")
        B0 = A[:, basis]
        sign = np.ones(m)
        try:
            xb = np.linalg.solve(B0, b)  # as the final re-solve computes x
            if prog.free:  # turn each column with a negative value
                sign[xb < 0] = -1.0
                B0 = B0 * sign
                xb = np.abs(xb)
            Binv = np.linalg.inv(B0)
        except np.linalg.LinAlgError:
            raise ValueError("start basis is singular") from None
        if xb.min(initial=0.0) < -LP_TOL:
            raise ValueError(f"start basis is not primal feasible: min x_B = {xb.min():.2e}")
        np.maximum(xb, 0.0, out=xb)
        it1 = 0

    status, it2 = _revised_simplex(A, c, basis, Binv, xb, B0, sign, ncols if prog.free else 0)
    if status == "unbounded":
        return LPSolution(status="unbounded", iterations=it1 + it2)

    # re-solve the final basis against the data, which the iterations never
    # modify, and check it: c.x = b.y holds for any basis, so optimality is
    # x_B >= 0 on the signed columns and the reduced costs are >= 0
    B = A[:, basis] * sign
    xb = np.linalg.solve(B, b)
    x = np.zeros(ncols)
    x[basis] = sign * xb
    y = np.linalg.solve(B.T, c[basis])
    obj = float(c @ (np.abs(x) if prog.free else x))
    gap = abs(obj - float(b @ y))
    feas = float(np.max(np.abs(A @ x - b), initial=0.0))
    x_min = float(xb.min(initial=0.0))
    priced = y @ A
    reduced_min = float((c - (np.abs(priced) if prog.free else priced)).min(initial=0.0))
    dual_tol = 10 * LP_TOL * max(1.0, float(np.max(np.abs(c), initial=0.0)))
    if feas > _FEAS_TOL or x_min < -_FEAS_TOL or reduced_min < -dual_tol:
        raise SolverError(
            f"simplex accuracy check failed: feas={feas:.2e} "
            f"min x={x_min:.2e} min reduced cost={reduced_min:.2e}"
        )
    return LPSolution(
        status="optimal",
        x=x,
        dual=y,
        objective=obj,
        iterations=it1 + it2,
        gap=gap,
        basis=basis,
    )


def _phase_one(A, b, B0, free):
    """Phase 1 from the artificial basis B0, a diagonal of signs with
    B0 b >= 0; the columns of A are free in sign when ``free``, the
    artificials never.  Returns (basis, Binv, xb, sign, pivots), with basis
    None when the LP is infeasible."""
    m, ncols = A.shape
    c1 = np.concatenate([np.zeros(ncols), np.ones(m)])
    basis = np.arange(ncols, ncols + m)
    Binv = B0.copy()
    xb = B0 @ b
    sign = np.ones(m)
    status, it1 = _revised_simplex(
        np.hstack([A, B0]), c1, basis, Binv, xb, B0, sign, ncols if free else 0
    )
    if status != "optimal":
        raise SolverError(f"phase 1 ended {status}")
    if float(c1[basis] @ xb) > 1e-7:
        return None, None, None, None, it1

    # pivot the artificials out of the basis, each for a column +a_j (the
    # first of a tie in [A, -A]); one that no column of A can replace marks
    # a row that depends on the others
    for pos in np.nonzero(basis >= ncols)[0]:
        row = Binv[pos] @ A
        j = int(np.argmax(np.abs(row)))
        if abs(row[j]) <= 1e-9:
            raise ValueError("constraint matrix does not have full row rank")
        _pivot(Binv, xb, basis, Binv @ A[:, j], pos, j)
    return basis, Binv, xb, sign, it1


def crash_basis(A: np.ndarray, order) -> np.ndarray | None:
    """A start for a free LP over the columns of A, or None.

    Scans the columns of A in ``order`` and keeps each one that leaves the
    chosen set well conditioned (its component orthogonal to the columns
    already kept is at least a fixed share of its norm), until m are kept.
    Returns the m kept column indices in scan order: a nonsingular basis,
    whose columns with a negative value the free simplex turns itself.
    None when the scan finds fewer than m columns.
    """
    m = A.shape[0]
    order = np.asarray(order)
    Q = np.empty((m, m))  # orthonormal basis of the kept columns' span
    kept = []
    for start in range(0, order.size, m):
        chunk = order[start : start + m]
        C = A[:, chunk]
        Qk = Q[:, : len(kept)]
        R = C - Qk @ (Qk.T @ C)
        R -= Qk @ (Qk.T @ R)  # a second pass keeps Q orthonormal
        left = np.einsum("ij,ij->j", R, R)  # squared residual norms
        floor = _CRASH_SHARE**2 * np.einsum("ij,ij->j", C, C)
        i = -1
        while True:
            ahead = np.nonzero(left[i + 1 :] > floor[i + 1 :])[0]
            if ahead.size == 0:
                break
            i += 1 + int(ahead[0])
            q = R[:, i] / np.sqrt(R[:, i] @ R[:, i])
            proj = q @ R[:, i + 1 :]
            R[:, i + 1 :] -= q[:, None] * proj
            left[i + 1 :] -= proj**2
            Q[:, len(kept)] = q
            kept.append(int(chunk[i]))
            if len(kept) == m:
                return np.array(kept)
    return None


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

    With c_j = sum_k w_jk e^{i theta_k} and real w this is a free real LP,
    min sum |w| with 2m rows, over a working set of phase-rotated columns.
    The first working set is the 2N columns of phases 1 and i, scanned by
    ``crash_basis`` in descending overlap |<phi_j|t>|; the basis it finds is
    kept and solved warm, and when it finds none the round solves cold over
    all 2N.  Every later round solves warm from the last basis, certifies,
    and moves on to ``_next_working_set``.  ||c||_1 bounds the optimum from
    above, and Re<y, t> / max_j |<phi_j|y>| bounds it from below for any y.
    The lower bound is taken at the least-norm y tight on the support of w,
    a_k.y = sign(w_k) on each column with w_k != 0: on a degenerate LP such
    as CCZ x |+> the simplex's vertex dual wanders over the optimal face and
    never certifies.  Stops when the bounds agree to a relative
    ``BP_GAP_TOL``.  D must have rank m, as the LP needs full row rank.

    Returns (c, y, pivots, rounds) with y the certifying dual vector.
    """
    D = np.asarray(D, dtype=complex)
    t = np.asarray(t, dtype=complex)
    m, N = D.shape
    Dh = D.conj().T  # Dh @ y is <phi_j|y> for every j
    b = np.concatenate([t.real, t.imag])
    idx = np.repeat(np.argsort(-np.abs(Dh @ t), kind="stable"), 2)
    phases = np.tile(np.array([1, 1j]), N)
    A = _phase_columns(D, idx, phases)
    basis = crash_basis(A, np.arange(2 * N))
    if basis is not None:
        idx, phases, A = idx[basis], phases[basis], A[:, basis]
        basis = np.arange(2 * m)
    pivots = 0
    for rounds in range(1, _EXTENT_MAX_ROUNDS + 1):
        sol = solve_lp(LinearProgram(np.ones(idx.size), A, b, free=True), basis=basis)
        if sol.status == "infeasible":
            raise ValueError("target is not in the span of the dictionary")
        pivots += sol.iterations
        support = np.abs(sol.x) > 1e-12  # degenerate basics would pin y to a vertex
        c = np.zeros(N, dtype=complex)
        np.add.at(c, idx, sol.x * phases)
        yr = np.linalg.lstsq(A[:, support].T, np.sign(sol.x[support]), rcond=None)[0]
        y = yr[:m] + 1j * yr[m:]
        upper = float(np.sum(np.abs(c)))
        lower = float(np.real(np.vdot(y, t))) / float(np.max(np.abs(Dh @ y)))
        if upper - lower <= BP_GAP_TOL * upper:
            return c, y, pivots, rounds
        idx, phases, basis = _next_working_set(Dh, idx, phases, sol)
        A = _phase_columns(D, idx, phases)
    raise SolverError(
        f"extent column generation stopped after {_EXTENT_MAX_ROUNDS} rounds "
        f"with {lower!r} <= l1 <= {upper!r}"
    )


def _next_working_set(Dh, idx, phases, sol):
    """The next extent round's working set (idx, phases) and the positions
    of ``sol``'s basis in it.  Keeps every column of a state basic in ``sol``
    at its phase (keeping only the basic columns cycles), so the basis stays
    a start for the free LP, and appends the column at phase arg <phi_j|y>
    for every j with |<phi_j|y>| > 1 under the simplex dual y."""
    basic = np.zeros(Dh.shape[0], dtype=bool)  # a mask, not np.isin: no numpy.ma import
    basic[idx[sol.basis]] = True
    keep = basic[idx]
    m = sol.dual.size // 2
    corr = Dh @ (sol.dual[:m] + 1j * sol.dual[m:])
    new = np.nonzero(np.abs(corr) > 1.0)[0]
    idx = np.concatenate([idx[keep], new])
    phases = np.concatenate([phases[keep], np.exp(1j * np.angle(corr[new]))])
    return idx, phases, np.cumsum(keep)[sol.basis] - 1


def basis_pursuit_polygon_lp(
    D: np.ndarray, t: np.ndarray, sides: int = 16
) -> tuple[float, np.ndarray]:
    """Polyhedral cross-check for the complex l1 minimum.

    Each complex coefficient is written as a combination of ``sides`` unit
    phasors with nonnegative weights, giving a real LP whose value lies
    within a factor 1/cos(pi/sides) above the true minimum (0.5% for a
    16-gon).  The phasor e^{2 pi i k/sides} with k >= sides/2 is the
    negative of the one at k - sides/2, so the LP is free over the first
    sides/2 phases alone, and ``sides`` must be even.  It is solved cold.
    """
    if sides % 2:
        raise ValueError(f"the polygon needs an even number of sides, got {sides}")
    D = np.asarray(D, dtype=complex)
    t = np.asarray(t, dtype=complex)
    N = D.shape[1]
    half = sides // 2
    phases = np.exp(2j * np.pi * np.arange(half) / sides)
    A = _phase_columns(D, np.repeat(np.arange(N), half), np.tile(phases, N))
    b = np.concatenate([t.real, t.imag])
    sol = solve_lp(LinearProgram(np.ones(N * half), A, b, free=True))
    if sol.status != "optimal":
        raise SolverError(f"polygon LP ended {sol.status}")
    coeffs = sol.x.reshape(N, half) @ phases
    return float(sol.objective), coeffs
