"""In-house convex solver: one LP, min ||x||_1 over free columns, on a
revised simplex, and the stabilizer extent by phase column generation on it.

``solve_lp`` solves

    min sum_j |x_j|  s.t.  A x = b,  every x_j free in sign,

the form of both convex measures: the robustness pseudomixture and every
round of the extent.  It is the nonnegative LP over [A, -A] at unit cost
without building -A: column j prices at 1 - |y.a_j| and enters as s a_j with
s = sign(y.a_j) (+1 on a tie, as +a_j comes first in [A, -A]), and the
solver keeps that +-1 for each basic position, so B is A[:, basis] times the
signs and the basic values are |x_B|.  The basis lives in one array
T = [B^{-1} | x_B], which a pivot updates with a single rank-1 update; the
columns are priced with one product y A, y = c_B B^{-1}, or by a caller's
``price`` callable that returns the same vector without A (the qubit
robustness LP reads it off the stabilizer group tables).  Only the entering
column comes from the pricer: the final check below prices A densely, so a
faulty pricer can cost pivots or raise, but cannot certify a wrong value.
Every nonsingular basis of free columns is primal feasible once the solver
turns its columns with a negative value, so the simplex starts from any
nonsingular B0 a caller passes, or from ``crash_basis`` over the columns in
descending |b.a_j|.  A must have full row rank: there is no presolve, and
``crash_basis`` raises ``ValueError`` when A has fewer than m independent
columns.  There are no statuses: an l1 LP is bounded below by 0, so a ratio
test that finds no leaving row is round-off and raises ``SolverError``.

Entering columns are picked by largest violation.  The objective is
piecewise linear along the entering edge: a basic value that reaches zero
changes sign and the edge goes on, its slope raised by twice that row's
cost times its pivot entry (Barrodale and Roberts, SIAM J. Numer. Anal. 10,
1973).  So the ratio test walks these breakpoints in ascending ratio and
stops at the first where the slope is no longer negative; the rows crossed
on the way change sign.  The leaving row of the stopping breakpoint uses the
lexicographic rule on the rows of B^{-1} B0, which keeps the heavily
degenerate dictionary LPs from cycling from any start, and no pivot element
below _PIVOT_TOL is accepted.  Ties in the ratio and in each lexicographic
column are decided within the same relative 1e-10, so entries equal in
exact arithmetic are not ranked by round-off.  The final basis is re-solved
against the original data so B^{-1} round-off never reaches the reported
solution, and the re-solved pair must pass A x = b, x_B >= 0 on the signed
columns and |A^T y| <= 1: since ||x||_1 = b.y holds for any basis, these are
what certify optimality.  A re-solved dual above 1 + LP_TOL resumes the
simplex once from the final basis with a fresh inverse.

The extent's complex l1 minimum subject to D c = t is a real l1 LP over the
weights of phase-rotated dictionary columns, so a weight's sign is the
simplex's to choose, as in the robustness LP.  Column generation starts from
the crash basis over the phases 1 and i alone; every round solves warm from
the last basis, keeps the states of its basis and adds the exact phase for
every state the dual violates, until the primal l1 norm and the rescaled
dual value agree to a relative BP_GAP_TOL.
"""

from dataclasses import dataclass

import numpy as np

from .pauli import _index

LP_TOL = 1e-9
BP_GAP_TOL = 1e-9
_MAX_PIVOTS = 50_000  # most pivots one solve_lp call may take
_PIVOT_TOL = 1e-7  # least pivot element the ratio test accepts
_FEAS_TOL = 1e-7  # primal residual and sign tolerance of the final check
_CRASH_SHARE = 0.1  # least orthogonal share of a column the crash basis takes
_CRASH_LEAST = 1e-9  # least share in its second scan: any new direction


class SolverError(RuntimeError):
    pass


@dataclass
class LPSolution:
    x: np.ndarray  # signed
    dual: np.ndarray
    objective: float  # ||x||_1
    iterations: int
    gap: float
    basis: np.ndarray  # final basic columns, one per row


def _pivot(T, basis, d, leave, enter):
    """Bring column ``enter``, whose image under B^{-1} is ``d``, into the
    basis at position ``leave`` of T = [B^{-1} | x_B]."""
    row = T[leave] / d[leave]
    T -= np.multiply.outer(d, row)
    T[leave] = row
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


def _revised_simplex(cols, cost, basis, xb, sign, free, price=None):
    """Revised simplex with the lexicographic anti-cycling ratio test;
    returns the number of pivots.

    It forms T = [B^{-1} | x_B] (one row per basic position, B^{-1} with one
    column per original row, x_B last) from the start B0 = cols[:, basis] *
    sign and its values ``xb``, clamped at zero, and updates ``basis`` and
    ``sign`` in place.  The flag ``free`` says whether
    every column is free in sign (then ``cost`` must be nonnegative) or
    every column is nonnegative.  ``price``, if given, maps y = c_B B^{-1}
    to y.cols without cols, to pick the entering column.  A free column j
    prices at cost_j - |y.a_j|, the lesser of its two sides cost_j -+ y.a_j,
    and enters as s a_j; an exact tie for the least reduced cost goes to the
    first column of [A, -A], as np.argmin over the split columns would.

    The ratios x_i / d_i of the rows with a pivot entry d_i above
    _PIVOT_TOL fall into groups from the least: a group keeps the ratios
    within a relative 1e-10 of its least.  A nonnegative column stops at the
    first group.  A free column walks them (``_long_step``): the objective
    falls at the rate of the entering reduced cost, each row crossed turns
    sign and raises that rate by 2 cost_i d_i, and the step stops at the
    first group after which the rate is not negative.  Within the stopping
    group the lowest basic position whose row of B^{-1} B0 / d is
    lexicographically least leaves, each column deciding within a relative
    1e-10; B0 is the starting basis matrix, so these rows start as the
    identity, which makes the order well posed from any feasible start.  A
    step past the first group turns, after the pivot, every row whose ratio
    lay below the stopping group, rows with 0 < d_i <= _PIVOT_TOL included:
    its row of T and its sign are negated.  Every other value below zero is
    round-off and is clamped: turning those would give zero values the
    signs of their round-off, and steps of about 1e-15 then cycle.  A
    column that no row bounds raises ``SolverError``.

    Anti-cycling: a step of zero stops at the first group, as every later
    group's ratios are above 1e-10, so each degenerate pivot is the plain
    lexicographic pivot.  Every other step falls all the way to theta, so
    it lowers ||x||_1 strictly and no earlier basis comes back.  Turned rows
    end positive and the stopping group is ranked by the plain rule, so the
    rows of [x_B | B^{-1} B0] stay lexicographically positive, and a run of
    degenerate pivots cannot cycle.
    """
    m = basis.size
    B0 = cols[:, basis] * sign
    T = np.column_stack([np.linalg.inv(B0), np.maximum(xb, 0.0)])
    Binv, xb = T[:, :m], T[:, m]  # views: every pivot updates both at once
    for it in range(_MAX_PIVOTS):
        cost_b = cost[basis]
        y = cost_b @ Binv
        priced = y @ cols if price is None else price(y)
        reduced = cost - priced
        enter = int(reduced.argmin())
        least, s = reduced[enter], 1.0
        if free:
            twin = cost + priced  # the reduced costs of -a_j
            k = int(twin.argmin())
            if twin[k] < least:
                enter, least, s = k, twin[k], -1.0
        if least >= -LP_TOL:
            return it
        d = Binv @ cols[:, enter]
        if s < 0:
            d = -d
        candidates = (d > _PIVOT_TOL).nonzero()[0]
        if candidates.size == 0:
            raise SolverError(f"unbounded: no row bounds entering column {enter}")
        entries = d[candidates]
        ratios = xb[candidates] / entries
        best = float(ratios.min())
        tied = candidates[ratios <= best + 1e-10 * (1.0 + abs(best))]
        turn = None
        if free and least + 2.0 * (cost_b[tied] @ d[tied]) < 0:
            group = _long_step(ratios, 2.0 * cost_b[candidates] * entries, least)
            low = ratios[group].min()
            if low > best:  # past the first group
                tied = candidates[group]
                turn = np.where(xb < low * d, -1.0, 1.0)
                turn[tied] = 1.0  # the stopping group leaves or stays at zero
        if tied.size > 1:
            tied = _lex_least(tied, (Binv[tied] @ B0) / d[tied, None])
        leave = int(tied[0])
        _pivot(T, basis, d, leave, enter)
        sign[leave] = s
        if turn is not None:
            T *= turn[:, None]
            sign *= turn
        np.maximum(xb, 0.0, out=xb)  # clamp float dust
    raise SolverError(f"simplex did not converge within {_MAX_PIVOTS} iterations")


def _long_step(ratios, rises, slope):
    """Positions in ``ratios`` of the group where a free column's step stops,
    ascending: the groups of ``_revised_simplex``'s ratio test, walked from
    the least, each raising the negative ``slope`` by its rows' ``rises``,
    until the slope is no longer negative, or else the last group, as only
    round-off keeps it negative that far: an l1 edge ends with slope
    cost_j + sum_i cost_i |d_i| > 0."""
    order = np.argsort(ratios, kind="stable")
    r, rise = ratios[order].tolist(), rises[order].tolist()
    start = end = 0
    while True:
        bound = r[start] + 1e-10 * (1.0 + abs(r[start]))
        while end < len(r) and r[end] <= bound:
            slope += rise[end]
            end += 1
        if slope >= 0 or end == len(r):
            return np.sort(order[start:end])
        start = end


def solve_lp(A, b, basis=None, price=None) -> LPSolution:
    """min ||x||_1 subject to A x = b over free x, with dual extraction.

    ``basis`` names m integer column indices in 0..ncols-1, none a bool,
    whose matrix B0 is nonsingular (a ``ValueError`` otherwise); None takes
    ``crash_basis`` over the columns in descending |b.a_j|, which raises
    ``ValueError`` unless A has full row rank.  The simplex turns each start
    column with a negative value, and a zero value takes the sign of its
    round-off.  ``price``, if given, returns y @ A for a dual vector y (see
    ``_revised_simplex``); it picks the entering columns only.

    A pass runs the simplex and re-solves its final basis against the
    original data, so the reported solution does not inherit the round-off
    of B^{-1}.  A re-solved dual with |A^T y| above 1 + ``LP_TOL`` runs a
    second pass, from that basis.  The pair is then checked against A itself:
    A x = b, x_B >= 0 on the signed columns and |A^T y| <= 1, each within a
    tolerance above ``LP_TOL``.  A basis that fails raises ``SolverError``.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    m, ncols = A.shape
    c = np.ones(ncols)

    if basis is None:
        basis = crash_basis(A, np.argsort(-np.abs(b @ A), kind="stable"))
    if np.shape(basis) != (m,):
        raise ValueError(f"a start basis needs {m} columns, got {np.shape(basis)}")
    # entry by entry: numpy would pass a bool among ints as an int
    basis = np.array([_index(j, "start basis index", 0) for j in basis])
    if not np.all(basis < ncols):
        raise ValueError(f"start basis indices must be integers in 0..{ncols - 1}")
    basis = basis.astype(np.intp)
    try:
        xb = np.linalg.solve(A[:, basis], b)  # as the final re-solve computes x
    except np.linalg.LinAlgError:
        raise ValueError("start basis is singular") from None
    sign = np.where(xb < 0, -1.0, 1.0)  # turn each column with a negative value
    xb *= sign

    # re-solve the final basis against the data, which the iterations never
    # modify, and check it: ||x||_1 = b.y holds for any basis, so optimality
    # is x_B >= 0 on the signed columns and |A^T y| <= 1
    iterations = 0
    for resume in (True, False):
        iterations += _revised_simplex(A, c, basis, xb, sign, True, price)
        B = A[:, basis] * sign
        xb = np.linalg.solve(B, b)
        y = np.linalg.solve(B.T, c[basis])
        reduced_min = float((c - np.abs(y @ A)).min(initial=0.0))
        if not resume or reduced_min >= -LP_TOL:
            break
    x = np.zeros(ncols)
    x[basis] = sign * xb
    obj = float(c @ np.abs(x))
    feas = float(np.max(np.abs(A @ x - b), initial=0.0))
    x_min = float(xb.min(initial=0.0))
    if not (feas <= _FEAS_TOL and x_min >= -_FEAS_TOL and reduced_min >= -10 * LP_TOL):
        raise SolverError(
            f"simplex accuracy check failed: feas={feas:.2e} "
            f"min x={x_min:.2e} min reduced cost={reduced_min:.2e}"
        )
    return LPSolution(x, y, obj, iterations, abs(obj - float(b @ y)), basis)


def crash_basis(A: np.ndarray, order) -> np.ndarray:
    """A start for a free LP over the columns of A.

    Scans the columns of A in ``order`` and keeps each one that leaves the
    chosen set well conditioned (its component orthogonal to the columns
    already kept is at least a fixed share of its norm), until m are kept.
    A scan that ends short is followed by a second over the same order that
    keeps any column adding a direction (a share of _CRASH_LEAST).
    Returns the m kept column indices in the order kept: a nonsingular
    basis, whose columns with a negative value the free simplex turns
    itself.  Raises ``ValueError`` when A has fewer than m independent
    columns.
    """
    m = A.shape[0]
    Q = np.empty((m, m))  # orthonormal basis of the kept columns' span
    kept = []
    for share in (_CRASH_SHARE, _CRASH_LEAST):
        for j in order:
            a = A[:, j]
            Qk = Q[:, : len(kept)]
            r = a - Qk @ (Qk.T @ a)
            r -= Qk @ (Qk.T @ r)  # a second pass keeps Q orthonormal
            if r @ r > share**2 * (a @ a):
                Q[:, len(kept)] = r / np.sqrt(r @ r)
                kept.append(int(j))
                if len(kept) == m:
                    return np.array(kept)
    raise ValueError("constraint matrix does not have full row rank")


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

    With c_j = sum_k w_jk e^{i theta_k} and real w this is the l1 LP of
    ``solve_lp``, min sum |w| with 2m rows, over a working set of
    phase-rotated columns.
    The first working set is the basis that ``crash_basis`` finds among
    the 2N columns of phases 1 and i, scanned in descending overlap
    |<phi_j|t>|.  Every round solves warm from the last basis, certifies,
    and moves on to ``_next_working_set``.  ||c||_1 bounds the optimum from
    above, and Re<y, t> / max_j |<phi_j|y>| bounds it from below for any y.
    The lower bound is taken at the least-norm y tight on the support of w,
    a_k.y = sign(w_k) on each column with w_k != 0: on a degenerate LP such
    as CCZ x |+> the simplex's vertex dual wanders over the optimal face and
    never certifies.  Stops when the bounds agree to a relative
    ``BP_GAP_TOL``.  D must have rank m, as the LP needs full row rank, and
    ``crash_basis`` raises ``ValueError`` when it does not.

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
    kept = crash_basis(A, np.arange(2 * N))
    idx, phases, A = idx[kept], phases[kept], A[:, kept]
    basis = np.arange(2 * m)
    pivots = 0
    for rounds in range(1, _EXTENT_MAX_ROUNDS + 1):
        sol = solve_lp(A, b, basis=basis)
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
    """The next extent round's working set (idx, phases) and the positions of
    ``sol``'s basis in it.  Keeps every column of a state basic in ``sol``
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

