import numpy as np
import pytest

from magiclab import solvers
from magiclab.solvers import SolverError, crash_basis, solve_extent, solve_lp


def test_lp_trivial():
    sol = solve_lp([[1.0]], [1.0])
    assert abs(sol.x[0] - 1.0) < 1e-12
    assert abs(sol.dual[0] - 1.0) < 1e-12


def _kernel(A, c, basis, b):
    """Run the simplex kernel on the nonnegative LP min c.x, A x = b, x >= 0
    from ``basis``, whose values are B0^{-1} b; returns the final basis, its
    re-solved x and the pivot count."""
    A, c, b = (np.asarray(v, dtype=float) for v in (A, c, b))
    basis = np.array(basis)
    xb = np.linalg.solve(A[:, basis], b)
    pivots = solvers._revised_simplex(A, c, basis, xb, np.ones(basis.size), 0)
    x = np.zeros(A.shape[1])
    x[basis] = np.linalg.solve(A[:, basis], b)
    return basis, x, pivots


def test_lp_unbounded():
    # min -x1 s.t. x1 - x2 = 0 over x >= 0: pushes both to infinity, which
    # an l1 LP cannot, so the kernel raises
    with pytest.raises(SolverError, match="unbounded"):
        _kernel([[1.0, -1.0]], [-1.0, 0.0], [0], [0.0])


def test_lp_rejects_redundant_rows():
    # no crash basis exists when a row depends on the others, whether b lies
    # in the span of A or outside it; the second matrix has rank 3 with
    # seven rows
    duplicate = np.array([[1.0, 1.0], [2.0, 2.0]])
    with pytest.raises(ValueError, match="full row rank"):
        solve_lp(duplicate, [1.0, 2.0])
    with pytest.raises(ValueError, match="full row rank"):
        solve_lp(duplicate, [1.0, 3.0])
    A = np.array(
        [
            [1, -4, 2, 0],
            [4, -5, -3, 4],
            [3, 1, 2, -1],
            [-2, -4, -2, 2],
            [2, 0, -1, 1],
            [2, -5, -2, 3],
            [3, 5, 5, -4],
        ],
        dtype=float,
    )
    b = np.array([-7, -6, 5, -10, 2, -8, 13], dtype=float)
    assert np.linalg.matrix_rank(A) == 3
    with pytest.raises(ValueError, match="full row rank"):
        solve_lp(A, b)


def test_lp_beale_cycling_example():
    A, b, c = _beale()
    _, x, _ = _kernel(A, c, [0, 1, 2], b)
    assert abs(c @ x + 1.25) < 1e-12
    assert np.allclose(x, [0.75, 0.0, 0.0, 1.0, 0.0, 1.0, 0.0], atol=1e-12)


def test_lp_lexicographic_ties_within_tolerance():
    # Beale's LP under the row transform M, from the basis [2, 4, 6]
    # (condition number 12.2): entries of B^{-1} B0 / d that are equal in
    # exact arithmetic differ in their last bits here, and a tie rule that
    # ranks them exactly cycles until the pivot cap
    A, b, c = _beale()
    M = np.array([[0, 2, -3], [-1, -2, -3], [2, 0, 0]], dtype=float)
    _, x, pivots = _kernel(M @ A, c, [2, 4, 6], M @ b)
    assert abs(c @ x + 1.25) < 1e-12
    assert np.allclose(x, [0.75, 0.0, 0.0, 1.0, 0.0, 1.0, 0.0], atol=1e-12)
    assert pivots <= 10


def test_lp_lexicographic_rule_is_relative_to_the_start_basis():
    # a degenerate tie from the non-identity start B0 = A[:, [1, 0, 3]]:
    # ranking the tied rows of B^{-1} B0 takes one pivot to [1, 0, 2], while
    # ranking the rows of B^{-1} alone takes two pivots to [2, 5, 3]
    A = np.array(
        [[2, -1, 2, 1, 0, 2], [-1, 2, -1, 0, 2, 1], [1, 0, 0, -2, -1, 2]], dtype=float
    )
    sol = solve_lp(A, [2, -1, 0], basis=[1, 0, 3])
    assert sol.iterations == 1
    assert sol.basis.tolist() == [1, 0, 2]
    assert abs(sol.objective - 1.0) < 1e-12


def test_lex_least_filters_column_by_column():
    # reference: keep the rows within a relative 1e-10 of each column's least
    # entry among the rows still tied, one column at a time
    rng = np.random.default_rng(12)
    for _ in range(200):
        lex = rng.integers(-2, 3, size=(6, 5)).astype(float)
        lex += rng.choice([0.0, 1e-13, 1e-6], size=lex.shape)
        keep = np.arange(6)
        for col in lex.T:
            vals = col[keep]
            keep = keep[vals <= vals.min() + 1e-10 * (1.0 + abs(vals.min()))]
        rows = np.arange(10, 16)
        assert solvers._lex_least(rows, lex).tolist() == (keep + 10).tolist()


def test_pivot_updates_the_inverse_and_the_basic_values_together():
    rng = np.random.default_rng(5)
    B = rng.normal(size=(6, 6)) + 4 * np.eye(6)  # nonsingular, well conditioned
    b = rng.normal(size=6)
    Binv = np.linalg.inv(B)
    T = np.column_stack([Binv, Binv @ b])
    basis = np.arange(6)
    a = rng.normal(size=6)  # the entering column
    d = Binv @ a
    leave = 2
    row = T[leave] / d[leave]
    solvers._pivot(T, basis, d, leave, 9)
    B[:, leave] = a
    new_inv = np.linalg.inv(B)
    assert np.array_equal(T[leave], row)
    assert np.max(np.abs(T - np.column_stack([new_inv, new_inv @ b]))) < 1e-12
    assert basis.tolist() == [0, 1, 9, 3, 4, 5]


def test_lp_random_duality_and_feasibility():
    rng = np.random.default_rng(0)
    for _ in range(25):
        m, nc = rng.integers(2, 6), rng.integers(6, 14)
        A = rng.normal(size=(m, nc))
        b = A @ rng.normal(size=nc)
        sol = solve_lp(A, b)
        assert sol.gap < 1e-8
        assert np.max(np.abs(A @ sol.x - b)) < 1e-7
        assert abs(sol.objective - np.sum(np.abs(sol.x))) < 1e-12
        # dual feasibility: |A^T y| <= 1 + tol
        assert np.max(np.abs(A.T @ sol.dual)) < 1 + 1e-7


def test_lp_degenerate_many_zero_rhs():
    # heavy degeneracy: most of b is zero
    rng = np.random.default_rng(3)
    A = rng.integers(-1, 2, size=(6, 40)).astype(float)
    x0 = np.zeros(40)
    x0[0] = 1.0
    b = A @ x0
    sol = solve_lp(A, b)
    assert sol.objective <= 1.0 + 1e-9


def _beale():
    """Beale's LP (A, b, c), on which Dantzig's rule with a naive ratio test
    cycles; its first three columns are the identity, a feasible start."""
    A = np.array(
        [
            [1.0, 0.0, 0.0, 0.25, -8.0, -1.0, 9.0],
            [0.0, 1.0, 0.0, 0.5, -12.0, -0.5, 3.0],
            [0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0],
        ]
    )
    c = np.array([0.0, 0.0, 0.0, -0.75, 20.0, -0.5, 6.0])
    return A, np.array([0.0, 0.0, 1.0]), c


def _degenerate_matrix():
    """A 6 x 40 matrix over {-1, 0, 1, 2} and b = M e_0: most of b is zero."""
    rng = np.random.default_rng(3)
    M = rng.integers(-1, 2, size=(6, 40)).astype(float)
    M[:, 1:7] += np.eye(6)  # full row rank
    return M, M[:, 0].copy()


def _random_signs():
    """An 8 x 30 matrix of random signs and b = M u for a 3-sparse u in {-1, 1}."""
    rng = np.random.default_rng(17)
    M = rng.choice([-1.0, 1.0], size=(8, 30))
    u = np.zeros(30)
    u[[4, 11, 25]] = [1.0, -1.0, 1.0]
    return M, M @ u


@pytest.mark.parametrize("make", [_degenerate_matrix, _random_signs], ids=["degenerate", "signs"])
def test_lp_warm_start_matches_cold(make):
    # the default start, the crash basis in descending |b.a_j|, against the
    # crash basis in ascending |b.a_j|, another nonsingular start
    M, b = make()
    order = np.argsort(-np.abs(b @ M), kind="stable")
    other = crash_basis(M, order[::-1])
    assert set(other) != set(crash_basis(M, order))
    default = solve_lp(M, b)
    warm = solve_lp(M, b, basis=other)
    assert abs(warm.objective - default.objective) < 1e-12
    assert np.max(np.abs(M @ warm.x - b)) < 1e-12
    assert np.max(np.abs(M.T @ warm.dual)) <= 1 + 1e-9


def test_crash_basis_rescans_short_and_rejects_rank_deficient():
    # columns 1 and 2 lie within 0.01 of column 0, below the first scan's
    # share, so only the second scan completes the basis
    A = np.array([[1.0, 1.0, 1.0], [0.0, 0.01, 0.0], [0.0, 0.0, 0.01]])
    kept = crash_basis(A, np.arange(3))
    assert kept.tolist() == [0, 1, 2]
    assert np.linalg.matrix_rank(A[:, kept]) == 3
    with pytest.raises(ValueError, match="full row rank"):
        crash_basis(np.array([[1.0, 2.0, 0.0], [2.0, 4.0, 0.0]]), np.arange(3))


def test_lp_start_basis_must_be_feasible_and_nonsingular():
    A, b = np.array([[1.0, 1.0, 0.0], [1.0, -1.0, 1.0]]), np.array([1.0, 3.0])
    with pytest.raises(ValueError, match="singular"):
        solve_lp(A, b, basis=[0, 0])
    with pytest.raises(ValueError, match="needs 2 columns"):
        solve_lp(A, b, basis=[0])
    # indices are integers within the columns: no wrap-around, truncation or
    # bools, also one bool among ints, which numpy would promote to an int
    for bad, message in (
        ([-1, 0], "need start basis index >= 0, got -1"),
        ([0, 3], r"integers in 0\.\.2"),
        ([0.7, 2], "start basis index takes integers only, got 0.7"),
        ([True, False], "start basis index takes integers only, got True"),
        ([0.0, 2.0], "start basis index takes integers only, got 0.0"),
        ([True, 2], "start basis index takes integers only, got True"),
        ([0, False], "start basis index takes integers only, got False"),
        ([np.True_, 2], "start basis index takes integers only, got np.True_"),
    ):
        with pytest.raises(ValueError, match=message):
            solve_lp(A, b, basis=bad)
    with pytest.raises(ValueError, match=r"integers in 0\.\.1"):
        solve_lp([[1.0, 2.0]], [1.0], basis=[5])
    assert abs(solve_lp(A, b, basis=[0, 2]).objective - 3.0) < 1e-12  # x = (1, 0, 2)
    # any nonsingular start is feasible: the solver turns column 1 of [0, 1]
    # itself; min |x_0| + |x_1| + |x_2| is 3 on the segment from (1, 0, 2)
    # to (2, -1, 0)
    sol = solve_lp(A, b, basis=[0, 1])
    assert abs(sol.objective - 3.0) < 1e-12
    assert abs(np.sum(np.abs(sol.x)) - 3.0) < 1e-12
    assert np.max(np.abs(A @ sol.x - b)) < 1e-12


@pytest.mark.parametrize(
    "make, pivots",
    [(_degenerate_matrix, (16, 16)), (_random_signs, (3, 2))],
    ids=["degenerate-warm", "signs-warm"],
)
def test_free_lp_is_the_lp_over_a_and_minus_a(make, pivots):
    # solve_lp over M solves the kernel's nonnegative LP over [M, -M], each
    # from the crash columns of M, whose columns with a negative value the
    # split start replaces by their twins j + N.  The free solve takes long
    # steps through sign changes, which the split kernel cannot, so the two
    # paths part: on the sign fixture the free solve's first pivot is a
    # long step where the kernel's is degenerate, and it takes one more
    M, b = make()
    N = M.shape[1]
    kept = crash_basis(M, np.argsort(-np.abs(b @ M), kind="stable"))
    twins = kept + N * (np.linalg.solve(M[:, kept], b) < 0)
    free = solve_lp(M, b, basis=kept)
    split = np.hstack([M, -M])
    basis, x, split_pivots = _kernel(split, np.ones(2 * N), twins, b)
    assert (free.iterations, split_pivots) == pivots
    assert abs(free.objective - np.sum(x)) < 1e-12
    assert np.max(np.abs(M @ free.x - b)) < 1e-12
    assert np.max(np.abs(split @ x - b)) < 1e-12
    assert np.max(np.abs(M.T @ free.dual)) <= 1 + 1e-9
    split_dual = np.linalg.solve(split[:, basis].T, np.ones(basis.size))
    assert np.max(np.abs(split.T @ split_dual)) <= 1 + 1e-9


def test_free_lp_long_step_turns_the_row_it_crosses():
    # from the identity basis, x = (1, 6, 0) and column 2 = (1, 3) enters at
    # slope 1 - 4 = -3.  Row 0 reaches zero at step 1 and row 1 at step 2;
    # crossing row 0 raises the slope by 2 * 1 to -1, still falling, so the
    # step goes on to 2, where row 1 leaves and row 0 has turned to
    # 1 - 2 = -1: l1 falls from 7 to 3 in one pivot.  The split kernel stops
    # at row 0 and needs a second pivot for -e_0
    A = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 3.0]])
    b = np.array([1.0, 6.0])
    sol = solve_lp(A, b, basis=[0, 1])
    assert sol.iterations == 1
    assert sol.basis.tolist() == [0, 2]
    assert np.sign(sol.x[sol.basis]).tolist() == [-1.0, 1.0]  # row 0 turned
    assert np.max(np.abs(sol.x - [-1.0, 0.0, 2.0])) < 1e-15
    assert abs(sol.objective - 3.0) < 1e-15
    _, x, split_pivots = _kernel(np.hstack([A, -A]), np.ones(6), [0, 1], b)
    assert split_pivots == 2
    assert abs(np.sum(x) - 3.0) < 1e-15


@pytest.mark.parametrize(
    "make, pivots",
    [(_degenerate_matrix, 7), (_random_signs, 1)],
    ids=["degenerate", "signs"],
)
def test_lp_returned_basis_resolves_to_x(make, pivots):
    # a restart from the returned basis re-derives the sign of each basic
    # column from its value, so a zero value takes the sign of its round-off
    # and the restart may pivot through the optimal face, but it ends at the
    # same x and objective
    M, b = make()
    sol = solve_lp(M, b)
    again = solve_lp(M, b, basis=sol.basis)
    assert again.iterations == pivots
    assert abs(again.objective - sol.objective) < 1e-12
    assert np.max(np.abs(again.x - sol.x)) < 1e-12


def test_lp_final_check_rejects_a_simplex_that_stops_early(monkeypatch):
    # every simplex run, the resume included, claims optimality before any
    # pivot, so the returned basis, the crash start, is feasible but not
    # optimal
    M, b = _degenerate_matrix()
    monkeypatch.setattr(solvers, "_revised_simplex", lambda *args: 0)
    with pytest.raises(SolverError, match="min reduced cost"):
        solve_lp(M, b)


def test_lp_resumes_a_simplex_that_stops_early(monkeypatch):
    # the first simplex run claims optimality before any pivot; the re-solved
    # dual of the crash start misses |A^T y| <= 1, so solve_lp resumes once
    # from that basis with a fresh inverse and reaches the optimum
    M, b = _degenerate_matrix()
    run = solvers._revised_simplex
    calls = []

    def first_stops_early(*args):
        calls.append(args)
        return 0 if len(calls) == 1 else run(*args)

    monkeypatch.setattr(solvers, "_revised_simplex", first_stops_early)
    sol = solve_lp(M, b)
    assert len(calls) == 2 and sol.iterations == 16
    monkeypatch.undo()
    assert abs(sol.objective - solve_lp(M, b).objective) < 1e-12
    assert np.max(np.abs(M.T @ sol.dual)) <= 1 + solvers.LP_TOL


def test_lp_refuses_past_the_pivot_cap(monkeypatch):
    # the degenerate LP takes more than one pivot from its crash basis
    M, b = _degenerate_matrix()
    monkeypatch.setattr(solvers, "_MAX_PIVOTS", 1)
    with pytest.raises(SolverError, match="did not converge within 1 iterations"):
        solve_lp(M, b)


def test_extent_next_working_set():
    # one complex row and four states.  The working set holds state 0 at
    # phases 1 and i, state 1 at 1, and state 2 at 1 and -1; the basis is
    # state 0 at i, whose value came out slightly negative, and state 2 at 1
    D = np.array([[0.5, 2.0, 0.5, 3j]])
    idx = np.array([0, 0, 1, 2, 2])
    phases = np.array([1, 1j, 1, 1, -1])
    x = np.array([0.0, -1e-8, 0.0, 0.5, 0.0])
    b = solvers._phase_columns(D, idx, phases) @ x
    sol = solvers.LPSolution(x, np.array([1.0, 0.0]), 0.5 + 1e-8, 0, 0.0, np.array([1, 3]))
    idx, phases, basis = solvers._next_working_set(D.conj().T, idx, phases, sol)
    # state 1 is not basic and leaves; the basic states keep both columns at
    # their phases, the negative one included, and <phi_j|y> = (0.5, 2, 0.5, -3i)
    # appends states 1 and 3 at their exact phases
    assert idx.tolist() == [0, 0, 2, 2, 1, 3]
    assert np.allclose(phases, [1, 1j, 1, -1, 1, -1j])
    # the basic columns, 1 and 3 of the old set, sit at positions 1 and 2
    assert basis.tolist() == [1, 2]
    # the LP takes that basis as its warm start, and puts Re t / 3 on state 3
    # at phase -i, while state 0's column at phase i keeps its value -1e-8
    # for Im t
    sol = solve_lp(solvers._phase_columns(D, idx, phases), b, basis=basis)
    assert abs(sol.objective - (0.25 / 3 + 1e-8)) < 1e-12


def basis_pursuit_polygon_lp(D, t, sides=16):
    """Polyhedral cross-check for the complex l1 minimum.

    Each complex coefficient is written as a combination of ``sides`` unit
    phasors with nonnegative weights, giving a real LP whose value lies
    within a factor 1/cos(pi/sides) above the true minimum (0.5% for a
    16-gon).  The phasor e^{2 pi i k/sides} with k >= sides/2 is the
    negative of the one at k - sides/2, so the LP is free over the first
    sides/2 phases alone, and ``sides`` must be even.  It is solved from
    ``solve_lp``'s crash start.
    Returns (value, coefficients).
    """
    if sides % 2:
        raise ValueError(f"the polygon needs an even number of sides, got {sides}")
    D = np.asarray(D, dtype=complex)
    t = np.asarray(t, dtype=complex)
    N = D.shape[1]
    half = sides // 2
    phases = np.exp(2j * np.pi * np.arange(half) / sides)
    A = solvers._phase_columns(D, np.repeat(np.arange(N), half), np.tile(phases, N))
    b = np.concatenate([t.real, t.imag])
    sol = solve_lp(A, b)
    return sol.objective, sol.x.reshape(N, half) @ phases


def _extent_bracket(D, t):
    """solve_extent's decomposition with its l1 norm and certified lower bound."""
    c, y, _, _ = solve_extent(D, t)
    l1 = float(np.sum(np.abs(c)))
    lower = float(np.real(np.vdot(y, t))) / float(np.max(np.abs(D.conj().T @ y)))
    return c, l1, lower


def test_bp_single_column():
    rng = np.random.default_rng(1)
    D = rng.normal(size=(4, 12)) + 1j * rng.normal(size=(4, 12))
    D /= np.linalg.norm(D, axis=0)
    c, l1, lower = _extent_bracket(D, D[:, 5])
    assert abs(l1 - 1.0) < 1e-6
    assert l1 - lower < 1e-6
    assert np.linalg.norm(D @ c - D[:, 5]) < 1e-7


def test_bp_out_of_span_rejected():
    D = np.array([[1.0 + 0j], [0.0 + 0j]])
    with pytest.raises(ValueError):
        solve_extent(D, np.array([0.0, 1.0 + 0j]))


def test_bp_phase_invariance():
    rng = np.random.default_rng(2)
    D = rng.normal(size=(4, 10)) + 1j * rng.normal(size=(4, 10))
    D /= np.linalg.norm(D, axis=0)
    t = D @ (rng.normal(size=10) + 1j * rng.normal(size=10))
    t /= np.linalg.norm(t)
    base = _extent_bracket(D, t)[1]
    for seed in range(3):
        phases = np.exp(2j * np.pi * np.random.default_rng(seed).uniform(size=10))
        rotated = _extent_bracket(D * phases, t)[1]
        assert abs(rotated - base) < 5e-6


def test_bp_value_between_dual_and_any_feasible():
    rng = np.random.default_rng(4)
    D = rng.normal(size=(3, 8)) + 1j * rng.normal(size=(3, 8))
    D /= np.linalg.norm(D, axis=0)
    greedy = rng.normal(size=8) + 1j * rng.normal(size=8)
    t = D @ greedy
    _, l1, lower = _extent_bracket(D, t)
    assert lower <= l1 + 1e-12
    assert l1 <= np.sum(np.abs(greedy)) + 1e-8  # any feasible point is above


def test_extent_cold_fallback_certifies():
    # states 1 and 2 lie within 0.05 of state 0, below the crash scan's
    # share, so the first scan keeps state 0 alone although D has full rank,
    # and the second scan adds state 1 at phases 1 and i
    D = np.array([[1.0, 1.0, 1.0], [0.0, 0.05, -0.05j]])
    D /= np.linalg.norm(D, axis=0)
    t = np.array([0.6, 0.8j])
    scanned = solvers._phase_columns(D, np.repeat(np.arange(3), 2), np.tile([1, 1j], 3))
    assert crash_basis(scanned, np.arange(6)).tolist() == [0, 1, 2, 3]
    c, l1, lower = _extent_bracket(D, t)
    assert np.linalg.norm(D @ c - t) < 1e-9
    assert l1 - lower <= 1e-9 * l1
    poly = basis_pursuit_polygon_lp(D, t, sides=64)[0]
    assert np.cos(np.pi / 64) * poly - 1e-9 <= l1 <= poly + 1e-9


def test_extent_round_cap_reports_the_bracket(monkeypatch, dict2_2):
    rng = np.random.default_rng(5)
    t = rng.normal(size=4) + 1j * rng.normal(size=4)
    monkeypatch.setattr(solvers, "_EXTENT_MAX_ROUNDS", 1)
    with pytest.raises(SolverError, match=r"after 1 rounds with .* <= l1 <= "):
        solve_extent(dict2_2.states, t / np.linalg.norm(t))


def test_polygon_lp_brackets_true_value(dict2_1, golden):
    true_l1 = _extent_bracket(dict2_1.states, golden)[1]
    poly, coeffs = basis_pursuit_polygon_lp(dict2_1.states, golden, sides=16)
    assert true_l1 - 1e-6 <= poly <= true_l1 / np.cos(np.pi / 16) + 1e-6
    assert np.linalg.norm(dict2_1.states @ coeffs - golden) < 1e-7
    with pytest.raises(ValueError, match="even number of sides"):
        basis_pursuit_polygon_lp(dict2_1.states, golden, sides=15)


def test_golden_extent_anchor(dict2_1, golden):
    _, l1, lower = _extent_bracket(dict2_1.states, golden)
    assert abs(l1**2 - (3 - np.sqrt(3))) < 1e-6
    assert l1 - lower < 1e-6
