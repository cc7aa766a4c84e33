import numpy as np
import pytest

from cefc.qp import MAX_ITER, TOL, QPError, _independent_subset, solve_qp


def reference_solve_qp(H, c, G, h, x0, events=None):
    """`solve_qp` with its ratio test row by row: ``G[i] @ d`` and
    ``G[i] @ x`` for each row outside the working set, in index order.

    `events`, if given, collects what the ratio test decided on: a
    ("tie", entered, skipped) pair of rows whose step lengths agree within
    1e-14, and ("work-row-would-block", i) for a working-set row that would
    have blocked had it been tested.  Recording them changes nothing.
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
            gi_d = G[i] @ d
            if i in work:
                if events is not None and gi_d > TOL and (h[i] - G[i] @ x) / gi_d < alpha - 1e-14:
                    events.append(("work-row-would-block", i))
                continue
            if gi_d > TOL:
                a = (h[i] - G[i] @ x) / gi_d
                if a < alpha - 1e-14:
                    alpha = max(a, 0.0)
                    blocking = i
                elif events is not None and blocking is not None and a <= alpha + 1e-14:
                    events.append(("tie", blocking, i))
        x = x + alpha * d
        full_step = blocking is None
        if blocking is not None:
            work.append(blocking)
            work = _independent_subset(G, work, n)
    raise QPError("active-set iteration limit exceeded")


def assert_matches_reference(H, c, G, h, x0):
    """`solve_qp` returns the reference's x bytes and working set; returns
    the working set."""
    x, active = solve_qp(H, c, G, h, x0)
    x_ref, active_ref = reference_solve_qp(H, c, G, h, x0)
    assert x.tobytes() == x_ref.tobytes()
    assert active == active_ref
    return active


def shedding_qp(seed, rows=40, n=3, ul_max=0.3):
    """A shedding-shaped QP: `rows` floor rows -C x <= margin that x0 = ul_max
    satisfies, then the bounds 0 <= x <= ul_max.  Returns (H, C, margin)."""
    rng = np.random.default_rng(seed)
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


def test_projection_onto_halfplane():
    # min x'x s.t. x1 + x2 >= 1, started at a feasible vertex-free point
    H = 2.0 * np.eye(2)
    c = np.zeros(2)
    G = np.array([[-1.0, -1.0]])
    h = np.array([-1.0])
    x, active = solve_qp(H, c, G, h, x0=np.array([1.0, 1.0]))
    assert np.allclose(x, [0.5, 0.5], atol=1e-8)
    assert active == [0]


def test_interior_minimum_leaves_no_active_set():
    H = 2.0 * np.eye(2)
    c = np.array([-2.0, 0.0])  # minimum at (1, 0)
    G = np.array([[1.0, 0.0], [0.0, 1.0]])
    h = np.array([5.0, 5.0])
    x, active = solve_qp(H, c, G, h, x0=np.array([4.0, 4.0]))
    assert np.allclose(x, [1.0, 0.0], atol=1e-8)
    assert active == []


def test_bound_becomes_active():
    # min (x - 2)^2 s.t. x <= 1
    H = np.array([[2.0]])
    c = np.array([-4.0])
    G = np.array([[1.0]])
    h = np.array([1.0])
    x, active = solve_qp(H, c, G, h, x0=np.array([0.0]))
    assert np.allclose(x, [1.0], atol=1e-8)
    assert active == [0]


def test_weighted_objective_tilts_the_solution():
    # min q1 x1^2 + q2 x2^2 s.t. x1 + x2 >= 1: optimum splits inversely to weights
    q = np.array([1.0, 4.0])
    H = 2.0 * np.diag(q)
    G = np.array([[-1.0, -1.0]])
    h = np.array([-1.0])
    x, _ = solve_qp(H, np.zeros(2), G, h, x0=np.array([0.5, 0.5]))
    assert np.allclose(x, [0.8, 0.2], atol=1e-8)


def test_infeasible_start_raises():
    H = 2.0 * np.eye(2)
    G = np.array([[1.0, 0.0]])
    h = np.array([0.0])
    with pytest.raises(QPError):
        solve_qp(H, np.zeros(2), G, h, x0=np.array([1.0, 0.0]))


def test_poorly_scaled_problem_still_terminates():
    # gradient norms ~1e3 with constraint coefficients ~1e-3: the stationarity
    # test has to tolerate solver rounding at this scale; the starting point
    # x0 = 0.3 is feasible by construction
    H, C, margin = shedding_qp(3)
    G, h = shedding_rows(C, margin)
    x, _ = solve_qp(H, np.zeros(3), G, h, x0=np.full(3, 0.3))
    assert np.all(G @ x <= h + 1e-8)


def nearly_parallel_problem():
    """Two nearly parallel rows (adjacent prediction steps of a shedding QP)
    that enter the working set, with the minimizer at x = 0."""
    H = np.diag([697.6666666666667, 598.0, 498.33333333333337])
    C = np.array(
        [
            [-0.02699689604482708, -0.04239591040879763, 0.05617047960567847],
            [-0.02711178182970026, -0.04218767421713723, 0.05642254877187285],
        ]
    )
    G = np.vstack([C, -np.eye(3), np.eye(3)])
    h = np.concatenate([[0.01304156817540299, 0.01313437648648823], np.zeros(3), np.full(3, 0.3)])
    return H, np.zeros(3), G, h, np.full(3, 0.3)


def test_full_step_ends_at_the_working_set_minimizer():
    # the KKT solve keeps returning a nonzero d after the full step that
    # already reached the minimizer
    H, c, G, h, x0 = nearly_parallel_problem()
    x, _ = solve_qp(H, c, G, h, x0=x0)
    assert np.allclose(x, 0.0, atol=1e-12)
    assert np.all(G @ x <= h + 1e-12)


def existing_problems():
    """The feasible problems of the tests above, as (H, c, G, h, x0)."""
    eye, zeros = 2.0 * np.eye(2), np.zeros(2)
    H3, C3, margin3 = shedding_qp(3)
    return [
        (eye, zeros, np.array([[-1.0, -1.0]]), np.array([-1.0]), np.array([1.0, 1.0])),
        (eye, np.array([-2.0, 0.0]), np.eye(2), np.array([5.0, 5.0]), np.array([4.0, 4.0])),
        (np.array([[2.0]]), np.array([-4.0]), np.array([[1.0]]), np.array([1.0]), np.array([0.0])),
        (2.0 * np.diag([1.0, 4.0]), zeros, np.array([[-1.0, -1.0]]), np.array([-1.0]), np.array([0.5, 0.5])),
        (H3, np.zeros(3), *shedding_rows(C3, margin3), np.full(3, 0.3)),
        nearly_parallel_problem(),
    ]


class TestRatioTestMatchesTheRowByRowReference:
    @pytest.mark.parametrize("problem", existing_problems())
    def test_existing_problems(self, problem):
        assert_matches_reference(*problem)

    @pytest.mark.parametrize("seed", range(50))
    def test_random_shedding_problems(self, seed):
        H, C, margin = shedding_qp(seed)
        assert_matches_reference(H, np.zeros(3), *shedding_rows(C, margin), np.full(3, 0.3))

    def test_tie_enters_the_lower_row_and_working_rows_are_skipped(self):
        # seed 165 with its floor row 10 repeated as row 11: the two rows
        # block at the same step, and the upper bound of x1 (row 44), in the
        # working set from the start, has G[44] @ d > TOL from the KKT
        # solve's rounding at a later step
        H, C, margin = shedding_qp(165)
        C, margin = np.insert(C, 11, C[10], axis=0), np.insert(margin, 11, margin[10])
        G, h = shedding_rows(C, margin)
        events = []
        reference_solve_qp(H, np.zeros(3), G, h, np.full(3, 0.3), events)
        assert ("tie", 10, 11) in events and ("work-row-would-block", 44) in events
        active = assert_matches_reference(H, np.zeros(3), G, h, np.full(3, 0.3))
        assert 10 in active and 11 not in active and 44 in active
