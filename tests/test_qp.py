import numpy as np
import pytest

from cefc.qp import QPError, solve_qp


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
    # test has to tolerate solver rounding at this scale
    rng = np.random.default_rng(3)
    H = 2.0 * 600.0 * np.diag(rng.uniform(0.5, 1.5, 3))
    C = rng.uniform(1e-4, 5e-3, (40, 3))
    # each row demands a fraction of what full shedding delivers, so the
    # starting point x0 = 0.3 is feasible by construction
    margin = -(C @ np.full(3, 0.3)) * rng.uniform(0.1, 0.9, 40)
    G = np.vstack([-C, -np.eye(3), np.eye(3)])
    h = np.concatenate([margin, np.zeros(3), np.full(3, 0.3)])
    x, _ = solve_qp(H, np.zeros(3), G, h, x0=np.full(3, 0.3))
    assert np.all(G @ x <= h + 1e-8)


def test_full_step_ends_at_the_working_set_minimizer():
    # two nearly parallel rows (adjacent prediction steps of a shedding QP)
    # enter the working set; the KKT solve then keeps returning a nonzero d
    # after the full step that already reached the minimizer x = 0
    H = np.diag([697.6666666666667, 598.0, 498.33333333333337])
    C = np.array(
        [
            [-0.02699689604482708, -0.04239591040879763, 0.05617047960567847],
            [-0.02711178182970026, -0.04218767421713723, 0.05642254877187285],
        ]
    )
    G = np.vstack([C, -np.eye(3), np.eye(3)])
    h = np.concatenate([[0.01304156817540299, 0.01313437648648823], np.zeros(3), np.full(3, 0.3)])
    x, _ = solve_qp(H, np.zeros(3), G, h, x0=np.full(3, 0.3))
    assert np.allclose(x, 0.0, atol=1e-12)
    assert np.all(G @ x <= h + 1e-12)
