import numpy as np
import pytest

from cefc.qp import MAX_ITER, TOL, QPError, solve_qp


def _independent_subset(G, idx, n):
    """Drop rows until the working-set rows are linearly independent."""
    keep = []
    for i in idx:
        trial = keep + [i]
        if len(trial) > n:
            break
        if np.linalg.matrix_rank(G[trial]) == len(trial):
            keep.append(i)
    return keep


def reference_solve_qp(H, c, G, h, x0):
    """A primal active-set QP from a feasible start x0, with its ratio test
    row by row: the oracle for the objective `solve_qp` reaches.

    It starts with every row that binds at x0 in its working set, steps to
    the working-set minimizer or the first blocking row and drops the
    lowest-index row with a negative multiplier (Bland's rule).  It can
    stall once the working set holds n rows, and then raises QPError.
    """
    H = np.asarray(H, dtype=float)
    c = np.asarray(c, dtype=float)
    G = np.atleast_2d(np.asarray(G, dtype=float))
    h = np.asarray(h, dtype=float)
    x = np.asarray(x0, dtype=float).copy()
    n = len(x)

    slack = G @ x - h
    if np.any(slack > 1e-8):
        raise QPError("starting point is infeasible")
    work = [i for i in np.flatnonzero(slack > -1e-9)]
    work = _independent_subset(G, work, n)

    full_step = False
    for _ in range(MAX_ITER):
        Gw = G[work] if work else np.zeros((0, n))
        kkt = np.block([[H, Gw.T], [Gw, np.zeros((len(work), len(work)))]])
        grad = H @ x + c
        rhs = np.concatenate([-grad, np.zeros(len(work))])
        sol, *_ = np.linalg.lstsq(kkt, rhs, rcond=None)
        d = sol[:n]
        mu = sol[n:]
        if full_step or np.linalg.norm(d) < TOL * max(1.0, np.linalg.norm(grad)):
            full_step = False
            if len(mu) == 0 or np.min(mu) >= -TOL:
                return x, list(work)
            work.pop(int(np.flatnonzero(mu < -TOL)[0]))
            continue

        alpha = 1.0
        blocking = None
        for i in range(len(h)):
            if i in work:
                continue
            gi_d = G[i] @ d
            if gi_d > TOL:
                a = (h[i] - G[i] @ x) / gi_d
                if a < alpha - 1e-14:
                    alpha = max(a, 0.0)
                    blocking = i
        x = x + alpha * d
        full_step = blocking is None
        if blocking is not None:
            work.append(blocking)
            work = _independent_subset(G, work, n)
    raise QPError("active-set iteration limit exceeded")


def objective(H, c, x):
    return 0.5 * x @ H @ x + c @ x


def assert_solved(H, c, G, h):
    """`solve_qp` returns a point that satisfies every row within 1e-12 and
    on which every reported active row binds; returns (x, active)."""
    x, active = solve_qp(H, c, G, h)
    assert np.all(G @ x - h <= 1e-12)
    assert np.all(np.abs(G[active] @ x - h[active]) <= 1e-12)
    return x, active


def shedding_qp(rng, rows=40, n=3, ul_max=0.3):
    """A shedding-shaped QP drawn from `rng`: `rows` floor rows -C x <= margin
    that full shedding x = ul_max satisfies, then the bounds 0 <= x <= ul_max.
    Returns (H, C, margin)."""
    H = 2.0 * 600.0 * np.diag(rng.uniform(0.5, 1.5, n))
    C = rng.uniform(1e-4, 5e-3, (rows, n))
    # each row demands a fraction of what full shedding delivers
    margin = -(C @ np.full(n, ul_max)) * rng.uniform(0.1, 0.9, rows)
    return H, C, margin


def shedding_rows(C, margin, ul_max=0.3):
    n = C.shape[1]
    G = np.vstack([-C, -np.eye(n), np.eye(n)])
    h = np.concatenate([margin, np.zeros(n), np.full(n, ul_max)])
    return G, h


def family_problem(seed):
    """Problem `seed` of the shedding-shaped family: 5-59 floor rows, all
    drawn from one generator, as (H, c, G, h)."""
    rng = np.random.default_rng(seed)
    rows = rng.integers(5, 60)
    H, C, margin = shedding_qp(rng, rows)
    return (H, np.zeros(3), *shedding_rows(C, margin))


def test_projection_onto_halfplane():
    # min x'x s.t. x1 + x2 >= 1
    H = 2.0 * np.eye(2)
    G = np.array([[-1.0, -1.0]])
    h = np.array([-1.0])
    x, active = assert_solved(H, np.zeros(2), G, h)
    assert np.allclose(x, [0.5, 0.5], atol=1e-12)
    assert active == [0]


def test_interior_minimum_leaves_no_active_set():
    H = 2.0 * np.eye(2)
    c = np.array([-2.0, 0.0])  # minimum at (1, 0)
    G = np.array([[1.0, 0.0], [0.0, 1.0]])
    h = np.array([5.0, 5.0])
    x, active = assert_solved(H, c, G, h)
    assert np.allclose(x, [1.0, 0.0], atol=1e-12)
    assert active == []


def test_unconstrained_start_at_zero_is_positive_zero():
    H = 2.0 * np.eye(3)
    x, active = assert_solved(H, np.zeros(3), np.eye(3), np.ones(3))
    assert active == [] and not np.any(np.signbit(x))


def test_bound_becomes_active():
    # min (x - 2)^2 s.t. x <= 1
    H = np.array([[2.0]])
    c = np.array([-4.0])
    G = np.array([[1.0]])
    h = np.array([1.0])
    x, active = assert_solved(H, c, G, h)
    assert np.allclose(x, [1.0], atol=1e-12)
    assert active == [0]


def test_weighted_objective_tilts_the_solution():
    # min q1 x1^2 + q2 x2^2 s.t. x1 + x2 >= 1: optimum splits inversely to weights
    q = np.array([1.0, 4.0])
    H = 2.0 * np.diag(q)
    G = np.array([[-1.0, -1.0]])
    h = np.array([-1.0])
    x, _ = assert_solved(H, np.zeros(2), G, h)
    assert np.allclose(x, [0.8, 0.2], atol=1e-12)


def test_row_leaves_the_active_set_for_a_dependent_one():
    # from the unconstrained minimizer (-1, 1), row 2 enters, then row 0;
    # row 1, violated at their vertex, lies in the span of both, so it
    # enters by a step of the multipliers alone, which drops row 2
    H = 2.0 * np.eye(2)
    c = np.array([2.0, -2.0])
    G = np.array([[3.0, 3.0], [-3.0, -2.0], [-3.0, 3.0]])
    h = np.array([-1.0, 0.0, 3.0])
    x, active = assert_solved(H, c, G, h)
    assert np.allclose(x, [2.0 / 3.0, -1.0], atol=1e-12)
    assert active == [0, 1]


def test_infeasible_rows_raise():
    # x1 <= -1 and x1 >= 0
    H = 2.0 * np.eye(2)
    G = np.array([[1.0, 0.0], [-1.0, 0.0]])
    h = np.array([-1.0, 0.0])
    with pytest.raises(QPError):
        solve_qp(H, np.zeros(2), G, h)


def test_infeasible_shedding_rows_raise():
    # a floor row that full shedding cannot reach
    H, C, margin = shedding_qp(np.random.default_rng(3))
    margin[5] = -1.01 * C[5] @ np.full(3, 0.3)
    with pytest.raises(QPError):
        solve_qp(H, np.zeros(3), *shedding_rows(C, margin))


@pytest.mark.parametrize("name, at", [("H", (1, 1)), ("c", (0,)), ("G", (5, 2)), ("h", (5,))])
def test_a_nan_input_raises(name, at):
    H, C, margin = shedding_qp(np.random.default_rng(3))
    problem = dict(zip("HcGh", (H, np.zeros(3), *shedding_rows(C, margin))))
    problem[name][at] = np.nan
    with pytest.raises(QPError, match="holds a NaN"):
        solve_qp(*problem.values())


def test_an_infinite_bound_never_binds():
    H, C, margin = shedding_qp(np.random.default_rng(3))
    G, h = shedding_rows(C, margin)
    x, active = assert_solved(H, np.zeros(3), G, h)
    loose = np.setdiff1d(np.arange(len(h)), active)[0]
    h[loose] = np.inf
    assert solve_qp(H, np.zeros(3), G, h)[0].tobytes() == x.tobytes()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_zero_row_with_a_negative_bound_is_infeasible():
    H = 2.0 * np.eye(2)
    G = np.array([[0.0, 0.0], [-1.0, -1.0]])
    with pytest.raises(QPError):
        solve_qp(H, np.zeros(2), G, np.array([-1e-6, -1.0]))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_zero_row_with_a_nonnegative_bound_never_binds():
    H = 2.0 * np.eye(2)
    G = np.array([[0.0, 0.0], [-1.0, -1.0], [0.0, 0.0]])
    h = np.array([0.0, -1.0, 1.0])
    x, active = assert_solved(H, np.zeros(2), G, h)
    assert np.allclose(x, [0.5, 0.5], atol=1e-12)
    assert active == [1]


def test_poorly_scaled_problem():
    # gradient norms ~1e3 with constraint coefficients ~1e-3
    H, C, margin = shedding_qp(np.random.default_rng(3))
    assert_solved(H, np.zeros(3), *shedding_rows(C, margin))


def nearly_parallel_problem():
    """Two nearly parallel rows (adjacent prediction steps of a shedding QP),
    with the minimizer at x = 0."""
    H = np.diag([697.6666666666667, 598.0, 498.33333333333337])
    C = np.array(
        [
            [-0.02699689604482708, -0.04239591040879763, 0.05617047960567847],
            [-0.02711178182970026, -0.04218767421713723, 0.05642254877187285],
        ]
    )
    G = np.vstack([C, -np.eye(3), np.eye(3)])
    h = np.concatenate([[0.01304156817540299, 0.01313437648648823], np.zeros(3), np.full(3, 0.3)])
    return H, np.zeros(3), G, h


def test_nearly_parallel_rows_with_the_minimizer_inside():
    x, active = assert_solved(*nearly_parallel_problem())
    assert x.tolist() == [0.0, 0.0, 0.0] and active == []


def test_family_seeds_that_stall_the_primal_reference_are_solved():
    # the primal oracle's working set fills with n rows, the next row
    # blocks at a step of 0 and the same step repeats
    for seed in (196, 252):
        H, c, G, h = family_problem(seed)
        with pytest.raises(QPError, match="iteration limit"):
            reference_solve_qp(H, c, G, h, np.full(3, 0.3))
        assert_solved(H, c, G, h)


@pytest.mark.parametrize("seed", range(300))
def test_family_problem_is_solved_at_no_more_than_the_reference_cost(seed):
    H, c, G, h = family_problem(seed)
    x, _ = assert_solved(H, c, G, h)
    try:
        x_ref, _ = reference_solve_qp(H, c, G, h, np.full(3, 0.3))
    except QPError:
        return
    assert objective(H, c, x) <= objective(H, c, x_ref) * (1.0 + 1e-6)
