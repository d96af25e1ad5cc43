import numpy as np
import pytest

from magiclab import solvers
from magiclab.solvers import (
    LinearProgram,
    SolverError,
    basis_pursuit_polygon_lp,
    crash_basis,
    solve_extent,
    solve_lp,
)


def test_lp_trivial():
    sol = solve_lp(LinearProgram([1.0], [[1.0]], [1.0]))
    assert sol.status == "optimal"
    assert abs(sol.x[0] - 1.0) < 1e-12
    assert abs(sol.dual[0] - 1.0) < 1e-12


def test_lp_infeasible():
    # x1 + x2 = -1 with x >= 0
    sol = solve_lp(LinearProgram([1.0, 1.0], [[1.0, 1.0]], [-1.0]))
    assert sol.status == "infeasible"


def test_lp_unbounded():
    # min -x1 s.t. x1 - x2 = 0: pushes both to infinity
    sol = solve_lp(LinearProgram([-1.0, 0.0], [[1.0, -1.0]], [0.0]))
    assert sol.status == "unbounded"


def test_lp_rejects_redundant_rows():
    # phase 1 cannot pivot the artificial of a dependent row out of the
    # basis; the second matrix has rank 3 with seven rows, and its stuck
    # artificials sit at basis positions other than their own rows
    duplicate = np.array([[1.0, 1.0], [2.0, 2.0]])
    with pytest.raises(ValueError, match="full row rank"):
        solve_lp(LinearProgram([1.0, 2.0], duplicate, [1.0, 2.0]))
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
        solve_lp(LinearProgram([1.0, 0.0, 3.0, 0.0], A, b))


def test_lp_beale_cycling_example():
    sol = solve_lp(_beale()[0])
    assert sol.status == "optimal"
    assert abs(sol.objective + 1.25) < 1e-12
    assert np.allclose(sol.x, [0.75, 0.0, 0.0, 1.0, 0.0, 1.0, 0.0], atol=1e-12)


def test_lp_lexicographic_ties_within_tolerance():
    # Beale's LP under the row transform M, from the basis [2, 4, 6]
    # (condition number 12.2): entries of B^{-1} B0 / d that are equal in
    # exact arithmetic differ in their last bits here, and a tie rule that
    # ranks them exactly cycles until the pivot cap
    prog, _ = _beale()
    M = np.array([[0, 2, -3], [-1, -2, -3], [2, 0, 0]], dtype=float)
    sol = solve_lp(LinearProgram(prog.objective, M @ prog.A, M @ prog.b), basis=[2, 4, 6])
    assert sol.status == "optimal"
    assert abs(sol.objective + 1.25) < 1e-12
    assert np.allclose(sol.x, [0.75, 0.0, 0.0, 1.0, 0.0, 1.0, 0.0], atol=1e-12)
    assert sol.iterations <= 10


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


def test_lp_random_duality_and_feasibility():
    rng = np.random.default_rng(0)
    for _ in range(25):
        m, nc = rng.integers(2, 6), rng.integers(6, 14)
        A = rng.normal(size=(m, nc))
        x0 = rng.uniform(0.1, 1.0, size=nc)
        b = A @ x0  # feasible by construction
        c = rng.uniform(0.1, 2.0, size=nc)  # bounded below on x >= 0... not
        sol = solve_lp(LinearProgram(c, A, b))
        if sol.status != "optimal":
            continue
        assert sol.gap < 1e-8
        assert np.max(np.abs(A @ sol.x - b)) < 1e-7
        assert np.min(sol.x) > -1e-9
        # dual feasibility: c - A^T y >= -tol
        assert np.min(c - A.T @ sol.dual) > -1e-7


def test_lp_degenerate_many_zero_rhs():
    # heavy degeneracy: most of b is zero
    rng = np.random.default_rng(3)
    A = rng.integers(-1, 2, size=(6, 40)).astype(float)
    x0 = np.zeros(40)
    x0[0] = 1.0
    b = A @ x0
    sol = solve_lp(LinearProgram(np.ones(40), A, b))
    assert sol.status == "optimal"
    assert sol.objective <= 1.0 + 1e-9


def _beale():
    """Beale's LP, on which Dantzig's rule with a naive ratio test cycles;
    its first three columns are the identity, a feasible start."""
    A = np.array(
        [
            [1.0, 0.0, 0.0, 0.25, -8.0, -1.0, 9.0],
            [0.0, 1.0, 0.0, 0.5, -12.0, -0.5, 3.0],
            [0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0],
        ]
    )
    c = np.array([0.0, 0.0, 0.0, -0.75, 20.0, -0.5, 6.0])
    return LinearProgram(c, A, [0.0, 0.0, 1.0]), [0, 1, 2]


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


def _split_start(M, b):
    """The crash basis of M as a start of the LP over [M, -M]: the crash
    columns, each with a negative value j mapped to its twin j + N."""
    kept = crash_basis(M, np.argsort(-np.abs(b @ M), kind="stable"))
    negative = np.linalg.solve(M[:, kept], b) < 0
    return kept, kept + M.shape[1] * negative


def _degenerate_l1():
    """min ||u||_1 s.t. M u = M e_0 as an LP over [M, -M], started from the
    crash basis of M."""
    M, b = _degenerate_matrix()
    return LinearProgram(np.ones(80), np.hstack([M, -M]), b), _split_start(M, b)[1]


@pytest.mark.parametrize("make", [_beale, _degenerate_l1], ids=["beale", "degenerate"])
def test_lp_warm_start_matches_cold(make):
    prog, start = make()
    assert np.linalg.solve(prog.A[:, start], prog.b).min() >= 0.0  # x_B of the start
    cold = solve_lp(prog)
    warm = solve_lp(prog, basis=start)
    assert warm.status == cold.status == "optimal"
    assert abs(warm.objective - cold.objective) < 1e-12
    assert np.max(np.abs(prog.A @ warm.x - prog.b)) < 1e-12
    assert np.min(prog.objective - prog.A.T @ warm.dual) >= -1e-9


def test_lp_start_basis_must_be_feasible_and_nonsingular():
    prog = LinearProgram([1.0, 1.0, 1.0], [[1.0, 1.0, 0.0], [1.0, -1.0, 1.0]], [1.0, 3.0])
    with pytest.raises(ValueError, match="not primal feasible"):
        solve_lp(prog, basis=[0, 1])  # x = (2, -1)
    with pytest.raises(ValueError, match="singular"):
        solve_lp(prog, basis=[0, 0])
    with pytest.raises(ValueError, match="needs 2 columns"):
        solve_lp(prog, basis=[0])
    assert solve_lp(prog, basis=[0, 2]).status == "optimal"  # x = (1, 2)
    # a free LP turns column 1 of [0, 1] itself; min |x_0| + |x_1| + |x_2|
    # is 3 on the segment from (1, 0, 2) to (2, -1, 0)
    free = LinearProgram(prog.objective, prog.A, prog.b, free=True)
    sol = solve_lp(free, basis=[0, 1])
    assert sol.status == "optimal"
    assert abs(sol.objective - 3.0) < 1e-12
    assert abs(np.sum(np.abs(sol.x)) - 3.0) < 1e-12
    assert np.max(np.abs(prog.A @ sol.x - prog.b)) < 1e-12


def test_free_lp_needs_a_nonnegative_objective():
    with pytest.raises(ValueError, match="nonnegative objective"):
        LinearProgram([1.0, -0.5], [[1.0, 1.0]], [1.0], free=True)
    LinearProgram([1.0, -0.5], [[1.0, 1.0]], [1.0])  # fine without free


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
@pytest.mark.parametrize("make", [_degenerate_matrix, _random_signs], ids=["degenerate", "signs"])
def test_free_lp_is_the_lp_over_a_and_minus_a(make, warm):
    # the free LP over M takes the pivots of the nonnegative LP over
    # [M, -M]; warm, the free LP starts from the crash columns as they are
    M, b = make()
    N = M.shape[1]
    split = LinearProgram(np.ones(2 * N), np.hstack([M, -M]), b)
    free = LinearProgram(np.ones(N), M, b, free=True)
    if warm:
        kept, twins = _split_start(M, b)
        s, f = solve_lp(split, basis=twins), solve_lp(free, basis=kept)
    else:
        s, f = solve_lp(split), solve_lp(free)
    assert s.status == f.status == "optimal"
    assert f.iterations == s.iterations > 0
    assert abs(f.objective - s.objective) < 1e-12
    assert np.array_equal(f.x, s.x[:N] - s.x[N:])
    assert np.array_equal(f.dual, s.dual)
    assert np.array_equal(f.basis, s.basis % N)


@pytest.mark.parametrize("make", [_beale, _degenerate_l1], ids=["beale", "degenerate"])
def test_lp_returned_basis_resolves_to_x(make):
    prog, _ = make()
    sol = solve_lp(prog)
    again = solve_lp(prog, basis=sol.basis)
    assert again.iterations == 0
    assert np.array_equal(again.basis, sol.basis)
    assert np.max(np.abs(again.x - sol.x)) < 1e-12


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_lp_final_check_rejects_a_simplex_that_stops_early(monkeypatch, warm):
    # phase 1 (cold) runs as usual; phase 2 claims optimality before any
    # pivot, so the returned basis is feasible but not optimal
    prog, start = _beale()
    real = solvers._revised_simplex

    def stop_at_once(cols, cost, *args):
        if cols.shape[1] > prog.A.shape[1]:  # phase 1 carries the artificials
            return real(cols, cost, *args)
        return "optimal", 0

    monkeypatch.setattr(solvers, "_revised_simplex", stop_at_once)
    with pytest.raises(SolverError, match="min reduced cost"):
        solve_lp(prog, basis=start if warm else None)


def test_extent_next_working_set():
    # one complex row and four states.  The working set holds state 0 at
    # phases 1 and i, state 1 at 1, and state 2 at 1 and -1; the basis is
    # state 0 at i, whose value came out slightly negative, and state 2 at 1
    D = np.array([[0.5, 2.0, 0.5, 3j]])
    idx = np.array([0, 0, 1, 2, 2])
    phases = np.array([1, 1j, 1, 1, -1])
    x = np.array([0.0, -1e-8, 0.0, 0.5, 0.0])
    b = solvers._phase_columns(D, idx, phases) @ x
    sol = solvers.LPSolution("optimal", x=x, dual=np.array([1.0, 0.0]), basis=np.array([1, 3]))
    idx, phases, basis = solvers._next_working_set(D.conj().T, idx, phases, sol)
    # state 1 is not basic and leaves; the basic states keep both columns at
    # their phases, the negative one included, and <phi_j|y> = (0.5, 2, 0.5, -3i)
    # appends states 1 and 3 at their exact phases
    assert idx.tolist() == [0, 0, 2, 2, 1, 3]
    assert np.allclose(phases, [1, 1j, 1, -1, 1, -1j])
    # the basic columns, 1 and 3 of the old set, sit at positions 1 and 2
    assert basis.tolist() == [1, 2]
    # the nonnegative LP rejects that basis for its negative value; the free
    # LP takes it as its warm start and puts Re t / 3 on state 3 at phase -i,
    # while state 0's column at phase i keeps its value -1e-8 for Im t
    A = solvers._phase_columns(D, idx, phases)
    with pytest.raises(ValueError, match="not primal feasible"):
        solve_lp(LinearProgram(np.ones(idx.size), A, b), basis=basis)
    sol = solve_lp(LinearProgram(np.ones(idx.size), A, b, free=True), basis=basis)
    assert sol.status == "optimal"
    assert abs(sol.objective - (0.25 / 3 + 1e-8)) < 1e-12


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
    # share, so no crash basis exists although D has full rank, and the
    # first round runs cold over the free columns of phases 1 and i
    D = np.array([[1.0, 1.0, 1.0], [0.0, 0.05, -0.05j]])
    D /= np.linalg.norm(D, axis=0)
    t = np.array([0.6, 0.8j])
    scanned = solvers._phase_columns(D, np.repeat(np.arange(3), 2), np.tile([1, 1j], 3))
    assert crash_basis(scanned, np.arange(6)) is None
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
