import copy
import json
from dataclasses import fields, replace

import numpy as np
import pytest

from cefc import controller
from cefc.bench import SUBCASE_INERTIA, control_scenario
from cefc.controller import (
    ControlLimits,
    LqrWeights,
    StabilizabilityError,
    check_activation,
    coordinate,
    lqr_step,
    needs_shedding,
    predict_max_dc,
    prediction_steps,
    quantize,
    shedding_sensitivity,
    solve_dare,
    solve_shedding,
)
from cefc.koopman import (
    MEASUREMENT_DELAY,
    KoopmanModel,
    ObservableConfig,
    fit,
    generate_dataset,
    method_config,
    predict_record,
    predict_rollout,
    window_at,
)


def scalar_model(a=0.97, bl=0.02, bd=1e-4):
    """One-dimensional lifted model on the raw frequency measurement."""
    cfg = ObservableConfig(dt=0.1, delay_span=0.0, dictionary="identity", include_voltage=False)
    return KoopmanModel(
        A=np.array([[a]]),
        B_l=np.array([[bl]]),
        B_d=np.array([[bd, bd]]),
        config=cfg,
    )


def scalar_limits(**kw):
    base = dict(
        ud_min=np.array([-80.0, -80.0]),
        ud_max=np.array([80.0, 80.0]),
        ul_max=np.array([0.3]),
    )
    base.update(kw)
    return ControlLimits(**base)


class TestControlLimits:
    @pytest.mark.parametrize(
        "kw, key",
        [
            ({"quantum_mw": 0.0}, "quantum_mw"),
            ({"quantum_mw": float("nan")}, "quantum_mw"),
            ({"quantum_mw": float("inf")}, "quantum_mw"),
            ({"planning_margin_pu": float("nan")}, "planning_margin_pu"),
            ({"planning_margin_pu": -1.0}, "planning_margin_pu"),
            ({"planning_margin_pu": float("inf")}, "planning_margin_pu"),
            ({"ul_max": np.array([5.0])}, "ul_max"),
            ({"ul_max": np.array([float("nan")])}, "ul_max"),
            ({"ul_max": np.array([float("inf")])}, "ul_max"),
            ({"ul_max": np.array([-0.1])}, "ul_max"),
            ({"activation_threshold_hz": -1.0}, "activation_threshold_hz"),
            ({"activation_threshold_hz": 0.0}, "activation_threshold_hz"),
            ({"activation_threshold_hz": float("nan")}, "activation_threshold_hz"),
            ({"activation_threshold_hz": float("inf")}, "activation_threshold_hz"),
            ({"omega_min": float("-inf")}, "omega_min"),
            ({"omega_min": float("nan")}, "omega_min"),
        ],
        ids=["quantum-zero", "quantum-nan", "quantum-inf", "margin-nan", "margin-negative", "margin-inf",
             "ul-max-above-one", "ul-max-nan", "ul-max-inf", "ul-max-negative", "threshold-negative",
             "threshold-zero", "threshold-nan", "threshold-inf", "floor-minus-inf", "floor-nan"],
    )
    def test_value_that_can_break_safety_is_rejected_by_key(self, kw, key):
        with pytest.raises(ValueError, match=key):
            scalar_limits(**kw)

    def test_limit_edges_are_accepted(self):
        lim = scalar_limits(planning_margin_pu=0.0, ul_max=np.array([1.0]))
        assert lim.planning_margin_pu == 0.0 and lim.ul_max[0] == 1.0
        assert scalar_limits(ul_max=np.array([0.0])).ul_max[0] == 0.0

    def test_nadir_floor_must_be_negative(self):
        with pytest.raises(ValueError):
            scalar_limits(omega_min=0.01)

    def test_activation_must_be_less_severe_than_the_floor(self):
        with pytest.raises(ValueError):
            scalar_limits(activation_threshold_hz=2.0, omega_min=-0.02)

    def test_for_grid_pulls_link_limits(self, grid, limits):
        assert np.array_equal(limits.ud_max, [80.0, 80.0])
        assert np.array_equal(limits.ud_support, [80.0, 80.0])
        assert len(limits.ul_max) == grid.n_loads

    def test_for_grid_takes_the_base_frequency_of_the_grid(self, grid):
        limits = ControlLimits.for_grid(replace(grid, base_frequency=60.0))
        assert limits.base_frequency == 60.0
        assert limits.activation_threshold_pu == 0.2 / 60.0

    def test_activation_is_a_dead_zone(self, limits):
        assert not check_activation(0.0, limits)
        assert not check_activation(-0.003, limits)
        assert check_activation(-limits.activation_threshold_pu, limits)


class TestQuantize:
    def test_zero_maps_to_zero(self):
        assert quantize(0.0, 10.0) == 0.0

    def test_ties_round_up(self):
        assert quantize(15.0, 10.0) == 20.0
        assert quantize(25.0, 10.0) == 30.0

    def test_error_bounded_by_half_quantum(self):
        d = 10.0
        u = np.linspace(0.0, 20 * d, 4001)
        q = quantize(u, d)
        assert np.max(np.abs(q - u)) <= d / 2 + 1e-12

    def test_negative_amount_rejected(self):
        with pytest.raises(ValueError):
            quantize(-1.0, 10.0)

    def test_nonpositive_quantum_rejected(self):
        with pytest.raises(ValueError):
            quantize(5.0, 0.0)


def fixed_point_dare(A, B, q_diag, r_diag, max_iter=200_000):
    """Oracle: the Riccati recursion from P = Q2 until it stops moving."""
    Q, R = np.diag(q_diag), np.diag(r_diag)
    P = Q.copy()
    for _ in range(max_iter):
        Pn = Q + A.T @ P @ A - A.T @ P @ B @ np.linalg.solve(R + B.T @ P @ B, B.T @ P @ A)
        Pn = 0.5 * (Pn + Pn.T)
        if np.linalg.norm(Pn - P) <= 1e-13 * np.linalg.norm(Pn):
            return Pn, np.linalg.solve(R + B.T @ Pn @ B, B.T @ Pn @ A)
        P = Pn
    raise AssertionError("oracle fixed point did not settle")


def assert_matches_fixed_point(sol, A, B, q_diag, r_diag):
    P, K = fixed_point_dare(A, B, q_diag, r_diag)
    assert np.linalg.norm(sol.P - P) <= 1e-8 * np.linalg.norm(P)
    assert np.linalg.norm(sol.K - K) <= 1e-8 * np.linalg.norm(K)


def reference_solve_dare(A, B, q_diag, r_diag, tol=1e-10, discount=1.0):
    """Oracle: the doubling with the two-part stop rule, which also waits for
    the equation residual to drop below `tol` * max(1, ||P||) and evaluates
    it at every doubling step."""
    A = discount * np.atleast_2d(np.asarray(A, dtype=float))
    B = discount * np.atleast_2d(np.asarray(B, dtype=float))
    Q = np.diag(np.asarray(q_diag, dtype=float))
    R = np.diag(np.asarray(r_diag, dtype=float))
    n = A.shape[0]

    def residual_of(P):
        S = R + B.T @ P @ B
        return A.T @ P @ A - P + Q - A.T @ P @ B @ np.linalg.solve(S, B.T @ P @ A)

    Ak, G, P = A, B @ np.linalg.solve(R, B.T), Q.copy()
    res = float("inf")
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(1, controller.DARE_MAX_ITER + 1):
            W = np.eye(n) + G @ P
            WA, WG = np.split(np.linalg.solve(W, np.hstack([Ak, G])), 2, axis=1)
            step = Ak.T @ P @ WA
            G = G + Ak @ WG @ Ak.T
            Ak = Ak @ WA
            G = 0.5 * (G + G.T)
            P = P + 0.5 * (step + step.T)
            if not np.all(np.isfinite(P)):
                raise StabilizabilityError("Riccati iteration diverged")
            scale = tol * max(1.0, float(np.linalg.norm(P)))
            res = float(np.linalg.norm(residual_of(P)))
            if res < scale and np.linalg.norm(step) < scale:
                K = np.linalg.solve(R + B.T @ P @ B, B.T @ P @ A)
                return controller.RiccatiSolution(P=P, K=K, residual=res, iterations=it)
    raise StabilizabilityError(f"Riccati iteration did not converge (residual {res:.3e})")


def assert_matches_the_reference(sol, ref):
    assert sol.P.tobytes() == ref.P.tobytes()
    assert sol.K.tobytes() == ref.K.tobytes()
    assert (sol.iterations, sol.residual) == (ref.iterations, ref.residual)


def matrix_residual_problems():
    rng = np.random.default_rng(0)
    for dim in (2, 8, 20):
        A = rng.normal(size=(dim, dim))
        A *= 0.9 / np.max(np.abs(np.linalg.eigvals(A)))
        B = rng.normal(size=(dim, 2))
        yield A, B, np.ones(dim), np.ones(2)


def random_dare_problem(seed):
    """Up to 29 states and 3 inputs, spectral radius 0.2-1.2 before discounting."""
    rng = np.random.default_rng(seed)
    n, m = int(rng.integers(1, 30)), int(rng.integers(1, 4))
    A = rng.normal(size=(n, n))
    A *= rng.uniform(0.2, 1.2) / np.max(np.abs(np.linalg.eigvals(A)))
    B = rng.normal(size=(n, m))
    return A, B, rng.uniform(0.5, 2.0, n), rng.uniform(0.5, 2.0, m)


class TestDare:
    def test_scalar_fixed_point(self):
        sol = solve_dare(np.array([[0.5]]), np.array([[1.0]]), [1.0], [1.0])
        assert abs(sol.P[0, 0] - 1.1327822185373186) < 1e-9

    def test_matrix_residual(self):
        for A, B, Q, R in matrix_residual_problems():
            sol = solve_dare(A, B, Q, R, tol=1e-13)
            S = np.diag(R) + B.T @ sol.P @ B
            res = (
                A.T @ sol.P @ A
                - sol.P
                + np.diag(Q)
                - A.T @ sol.P @ B @ np.linalg.solve(S, B.T @ sol.P @ A)
            )
            assert np.linalg.norm(res) < 1e-10

    def test_gain_stabilizes_the_plant(self):
        rng = np.random.default_rng(1)
        A = rng.normal(size=(4, 4))
        A *= 1.05 / np.max(np.abs(np.linalg.eigvals(A)))  # slightly unstable
        B = rng.normal(size=(4, 1))
        sol = solve_dare(A, B, np.ones(4), np.ones(1))
        assert np.max(np.abs(np.linalg.eigvals(A - B @ sol.K))) < 1.0

    def test_uncontrollable_unstable_pair_raises(self):
        with pytest.raises(StabilizabilityError):
            solve_dare(np.array([[2.0]]), np.array([[0.0]]), [1.0], [1.0])

    def test_discount_bounds_a_marginal_mode(self):
        sol = solve_dare(np.array([[1.0]]), np.array([[0.0]]), [1.0], [1.0], discount=0.9)
        assert np.isfinite(sol.P[0, 0])

    def test_marginal_mode_that_no_input_reaches_raises(self):
        # P grows by Q every step without bound; the doubling increment never settles
        with pytest.raises(StabilizabilityError, match="did not converge"):
            solve_dare(np.array([[1.0]]), np.array([[0.0]]), [1.0], [1.0])

    def test_doubling_steps_on_the_fitted_model(self, cefc_model):
        sol = solve_dare(*lqr_problem(cefc_model), discount=0.98)
        assert sol.iterations <= 20

    def test_agrees_with_the_fixed_point_on_the_fitted_model(self, cefc_model):
        A, B, q, r = lqr_problem(cefc_model)
        sol = solve_dare(A, B, q, r, discount=0.98)
        assert_matches_fixed_point(sol, 0.98 * A, 0.98 * B, q, r)

    @pytest.mark.parametrize("seed", [2, 3, 4])
    def test_agrees_with_the_fixed_point_on_random_systems(self, seed):
        rng = np.random.default_rng(seed)
        dim = 6
        A = rng.normal(size=(dim, dim))
        A *= rng.uniform(0.9, 1.1) / np.max(np.abs(np.linalg.eigvals(A)))
        B = rng.normal(size=(dim, 2))
        q, r = rng.uniform(0.5, 2.0, dim), rng.uniform(0.5, 2.0, 2)
        assert_matches_fixed_point(solve_dare(A, B, q, r), A, B, q, r)

    def test_matches_the_reference_on_the_fitted_model(self, cefc_model):
        args = lqr_problem(cefc_model)
        assert_matches_the_reference(solve_dare(*args, discount=0.98), reference_solve_dare(*args, discount=0.98))

    def test_matches_the_reference_on_the_matrix_residual_problems(self):
        for A, B, Q, R in matrix_residual_problems():
            assert_matches_the_reference(solve_dare(A, B, Q, R, tol=1e-13), reference_solve_dare(A, B, Q, R, tol=1e-13))

    @pytest.mark.parametrize("seed", range(120))
    def test_matches_the_reference_on_random_problems(self, seed):
        A, B, q, r = random_dare_problem(seed)
        tol = (1e-10, 1e-12, 1e-13)[seed % 3]
        try:
            ref = reference_solve_dare(A, B, q, r, tol=tol, discount=0.98)
        except StabilizabilityError:
            pytest.skip("the two-part rule does not converge on this problem")
        assert_matches_the_reference(solve_dare(A, B, q, r, tol=tol, discount=0.98), ref)

    def test_bad_discount_rejected(self):
        with pytest.raises(ValueError):
            solve_dare(np.eye(2), np.ones((2, 1)), np.ones(2), [1.0], discount=1.5)


def lqr_problem(model):
    """The LQR's Riccati problem on `model` under the default weights: A, B_d
    and the diagonals of Q2 (q_omega on the frequency observable, 0 elsewhere)
    and R2 (r per link)."""
    q_diag = np.zeros(model.dim)
    q_diag[0] = LqrWeights().q_omega
    return model.A, model.B_d, q_diag, np.full(model.n_links, LqrWeights().r)


def riccati_recursion(A, B, q_diag, r_diag, steps):
    """The plain Riccati recursion from P = Q2, run a fixed number of steps."""
    Q, R = np.diag(q_diag), np.diag(r_diag)
    P = Q.copy()
    for _ in range(steps):
        P = Q + A.T @ P @ A - A.T @ P @ B @ np.linalg.solve(R + B.T @ P @ B, B.T @ P @ A)
        P = 0.5 * (P + P.T)
    return P, np.linalg.solve(R + B.T @ P @ B, B.T @ P @ A)


@pytest.fixture(scope="module")
def floor_problem(grid):
    """The LQR's Riccati problem on `cefc` fitted to 2 training trajectories at
    seed 7: cond(A) about 1.4e9, so the equation residual bottoms out near
    3e-10 of ||P|| while the doubling increment has already settled."""
    ds = generate_dataset(grid, 2, 1, seed=7)
    return lqr_problem(fit(ds, method_config("cefc", dt=ds.train[0].dt)))


class TestPrecisionFloor:
    def test_converges_at_the_rounding_floor(self, floor_problem):
        sol = solve_dare(*floor_problem, discount=0.98)
        assert sol.iterations == 11
        assert sol.residual < 1e-9 * np.linalg.norm(sol.P)

    def test_agrees_with_the_plain_recursion(self, floor_problem):
        A, B, q, r = floor_problem
        sol = solve_dare(A, B, q, r, discount=0.98)
        P, K = riccati_recursion(0.98 * A, 0.98 * B, q, r, 2000)
        assert np.linalg.norm(sol.P - P) <= 1e-7 * np.linalg.norm(P)
        assert np.linalg.norm(sol.K - K) <= 1e-7 * np.linalg.norm(K)

    def test_the_two_part_rule_does_not_converge(self, floor_problem):
        with pytest.raises(StabilizabilityError, match="did not converge"):
            reference_solve_dare(*floor_problem, discount=0.98)


class TestLqrStep:
    def test_saturation(self):
        model = scalar_model()
        sol = solve_dare(model.A, model.B_d, [1e6], [1e-6, 1e-6])
        lim = scalar_limits()
        u = lqr_step([-0.02], sol, lim)
        assert np.all(u <= lim.ud_max + 1e-12) and np.all(u >= lim.ud_min - 1e-12)

    def test_clips_bit_for_bit_as_np_clip(self):
        model = scalar_model()
        sol = solve_dare(model.A, model.B_d, [1e6], [1e-6, 1e-6])
        lim = scalar_limits()
        # unsaturated, saturated both ways, and exactly on a bound
        on_bound = lim.ud_max[0] / -sol.K[0, 0]
        for g in (1e-6, -1e-6, -0.02, 0.02, on_bound, 0.0, -0.0):
            g = np.array([g])
            want = np.clip(-sol.K @ g, lim.ud_min, lim.ud_max)
            assert lqr_step(g, sol, lim).tobytes() == want.tobytes()


def reference_sensitivity(model, steps):
    """Per-step oracle for `shedding_sensitivity`: M = A M, plus B_l from step SHED_LAG on."""
    C = np.zeros((steps + 1, model.n_loads))
    M = np.zeros((model.dim, model.n_loads))
    for j in range(steps):
        M = model.A @ M + (model.B_l if j >= controller.SHED_LAG else 0.0)
        C[j + 1] = M[0]
    return C


class TestSheddingSensitivity:
    @pytest.mark.parametrize("steps", [0, 1, 2, 300])
    @pytest.mark.parametrize("name", ["cefc", "edmd", "dmd"])
    def test_equals_the_per_step_reference_on_fitted_models(self, dataset_small, name, steps):
        model = fit(dataset_small, method_config(name))
        C = shedding_sensitivity(model, steps)
        assert C.shape == (steps + 1, model.n_loads)
        assert C.tobytes() == reference_sensitivity(model, steps).tobytes()

    def test_first_two_rows_are_zero(self, cefc_model):
        C = shedding_sensitivity(cefc_model, 10)
        assert np.all(C[0] == 0.0) and np.all(C[1] == 0.0)
        assert np.any(C[2] != 0.0)

    def test_matches_direct_recursion_for_the_scalar_model(self):
        model = scalar_model(a=0.9, bl=0.05)
        C = shedding_sensitivity(model, 4)
        # M_1 = 0, M_2 = B, M_3 = A B + B, M_4 = A^2 B + A B + B
        assert np.allclose(C[:, 0], [0.0, 0.0, 0.05, 0.9 * 0.05 + 0.05, 0.81 * 0.05 + 0.9 * 0.05 + 0.05])


def rollout_1d(model, lim, om0, x, steps):
    """Scalar-model trajectory under full DC support and a one-shot shed x."""
    drive = model.B_d[0] @ lim.ud_support
    om = np.empty(steps + 1)
    om[0] = om0
    for t in range(steps):
        om[t + 1] = model.A[0, 0] * om[t] + model.B_l[0, 0] * x * (t >= 1) + drive
    return om


class TestSolveShedding:
    def test_no_shed_when_the_floor_is_respected(self):
        model = scalar_model()
        lim = scalar_limits(ud_support=np.zeros(2))
        plan = solve_shedding(model, [-0.005], [[]], lim, [1800.0], 100)
        assert plan.feasible and np.all(plan.continuous_mw == 0.0)

    def test_clamp_when_even_full_shedding_fails(self):
        model = scalar_model(a=0.999, bl=1e-5)
        lim = scalar_limits(ud_support=np.zeros(2))
        plan = solve_shedding(model, [-0.05], [[]], lim, [1800.0], 100)
        assert not plan.feasible
        assert np.allclose(plan.continuous_ratio, lim.ul_max)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_clamp_when_the_model_sees_no_shed_effect(self):
        # a fit whose training records never shed leaves B_l at zero, so
        # every floor row of the QP is zero: under a breached floor no shed
        # within the cap clears it
        model = scalar_model(bl=0.0)
        lim = scalar_limits(ud_support=np.zeros(2))
        plan = solve_shedding(model, [-0.05], [[]], lim, [1800.0], 100)
        assert not plan.feasible
        assert np.array_equal(plan.continuous_ratio, lim.ul_max)

    def test_partial_shed_when_full_shedding_breaches_the_floor_later(self):
        # a two-state model in which a held shed first lifts omega and later
        # drags it down (the sensitivity changes sign): full shedding breaches
        # the floor, a small shed clears it
        cfg = ObservableConfig(dt=0.1, delay_span=0.1, dictionary="delay", include_voltage=False)
        A = np.array([[0.9, -0.3], [0.0, 0.95]])
        model = KoopmanModel(A=A, B_l=np.array([[0.1], [0.02]]), B_d=np.zeros((2, 2)), config=cfg)
        lim = scalar_limits(ud_support=np.zeros(2))
        om_win, y_win, steps = [0.0, -0.025], np.zeros((2, 0)), 100
        floor = lim.omega_min + lim.planning_margin_pu

        def nadir(x):
            ul_seq = np.full((steps, 1), x)
            ul_seq[0] = 0.0
            return np.min(predict_rollout(model, om_win, y_win, ul_seq, np.zeros((steps, 2)), steps)[2:])

        plan = solve_shedding(model, om_win, y_win, lim, [1800.0], steps)
        assert nadir(lim.ul_max[0]) < floor
        assert plan.feasible and 0.0 < plan.continuous_ratio[0] < lim.ul_max[0]
        assert nadir(plan.continuous_ratio[0]) >= floor - 1e-12
        best = next(x for x in np.arange(0.0, lim.ul_max[0], 1e-4) if nadir(x) >= floor)
        assert abs(plan.continuous_ratio[0] - best) <= 1e-4

    def test_binding_case_matches_the_brute_force_optimum(self):
        # a persistent downward drive makes the trajectory dip through the
        # floor late in the horizon: exactly one constraint binds at optimum
        model = scalar_model(a=0.98, bl=0.03, bd=1e-4)
        lim = scalar_limits(planning_margin_pu=0.0, ud_support=np.full(2, -20.0))
        steps = 120
        plan = solve_shedding(model, [-0.005], [[]], lim, [1800.0], steps)
        assert plan.feasible and plan.continuous_ratio[0] > 0

        # 1-D grid search over the shed ratio against the same rollout
        grid_x = np.arange(0.0, lim.ul_max[0] + 1e-12, 1e-4 * lim.ul_max[0])
        best = None
        for x in grid_x:
            om = rollout_1d(model, lim, -0.005, x, steps)
            if np.min(om[2:]) >= lim.omega_min:
                best = x
                break
        assert best is not None
        assert abs(plan.continuous_ratio[0] - best) <= 1e-3 * max(best, 1e-9)

    def test_continuous_plan_respects_the_floor_in_the_model(self):
        model = scalar_model(a=0.98, bl=0.03, bd=1e-4)
        lim = scalar_limits(ud_support=np.full(2, -20.0))
        steps = 120
        plan = solve_shedding(model, [-0.005], [[]], lim, [1800.0], steps)
        om = rollout_1d(model, lim, -0.005, plan.continuous_ratio[0], steps)
        assert np.min(om[2:]) >= lim.omega_min - 1e-9

    def test_quantized_plan_respects_the_per_node_cap(self, cefc_model, limits, node_base):
        om_win = np.full(cefc_model.config.window_len, -0.018)
        y_win = np.ones((cefc_model.config.window_len, 2))
        plan = solve_shedding(cefc_model, om_win, y_win, limits, node_base, 200)
        assert np.all(plan.quantized_mw <= limits.ul_max * node_base + 1e-9)
        assert np.all(plan.quantized_mw % limits.quantum_mw < 1e-9)

    @pytest.mark.parametrize(
        "quantum_mw, ul_max, want",
        [(40.0, 0.3, [200.0, 160.0, 120.0]), (10.0, 0.25, [170.0, 150.0, 120.0])],
        ids=["quantum-40", "ul-max-0.25"],
    )
    def test_clamped_plan_stays_on_the_feeder_grid(self, grid, node_base, quantum_mw, ul_max, want):
        # the caps (210/180/150 MW, or 175/150/125 MW) are not all whole quanta
        model = KoopmanModel(
            A=np.array([[0.999]]), B_l=np.full((1, 3), 1e-5), B_d=np.zeros((1, 2)), config=scalar_model().config
        )
        lim = ControlLimits.for_grid(grid, quantum_mw=quantum_mw, ul_max=ul_max)
        plan = solve_shedding(model, [-0.05], [[]], lim, node_base, 100)
        assert not plan.feasible
        assert np.all(plan.quantized_mw % quantum_mw == 0.0)
        assert np.all(plan.quantized_mw <= lim.ul_max * node_base)
        assert plan.quantized_mw.tolist() == want


class TestCoordinate:
    def test_closed_loop_run(self, grid, cefc_model, limits):
        from cefc.bench import control_scenario

        trace = coordinate(grid, control_scenario(0.85), cefc_model, limits)
        assert trace.activation_time is not None
        # shedding is one-shot: the applied ratio changes at most once
        changes = np.sum(np.any(np.diff(trace.record.ul, axis=0) > 0, axis=1))
        assert changes <= 1
        assert np.all(trace.ud_commands <= limits.ud_max + 1e-9)
        assert np.all(trace.ud_commands >= limits.ud_min - 1e-9)
        s = trace.summary(grid.base_frequency)
        assert s["nadir_hz"] >= grid.base_frequency * (1.0 + limits.omega_min) - 0.02

    def test_summary_reports_the_riccati_solve(self, grid, cefc_model, limits):
        from cefc.bench import control_scenario

        lqr = coordinate(grid, control_scenario(0.85), cefc_model, limits)
        const = coordinate(grid, control_scenario(0.85), cefc_model, limits, dc_mode="max")
        s = json.loads(json.dumps(lqr.summary(grid.base_frequency)))
        assert s["riccati"] == {"iterations": lqr.riccati.iterations, "residual": lqr.riccati.residual}
        assert 0 < s["riccati"]["iterations"] <= 20
        assert s["riccati"]["residual"] < 1e-10 * max(1.0, np.linalg.norm(lqr.riccati.P))
        assert const.riccati is None and const.summary(grid.base_frequency)["riccati"] is None

    # 5.0 s is no whole number of 0.12 s or 0.3 s samples; 4.8 s is
    @pytest.mark.parametrize("dt, trip_time", [(0.1, 5.0), (0.12, 4.8), (0.3, 4.8)])
    def test_arms_no_sooner_than_the_measurement_delay_after_detection(self, grid, limits, dt, trip_time):
        from cefc.bench import control_scenario

        model = KoopmanModel(
            A=np.array([[0.97]]),
            B_l=np.full((1, grid.n_loads), 0.02),
            B_d=np.full((1, grid.n_links), 1e-4),
            config=ObservableConfig(dt=dt, delay_span=0.0, dictionary="identity", include_voltage=False),
        )
        trace = coordinate(grid, replace(control_scenario(0.85), dt=dt, trip_time=trip_time), model, limits)
        rec = trace.record
        detected = rec.t[np.argmax(rec.omega <= -0.25 * limits.activation_threshold_pu)]
        assert trace.activation_time is not None
        assert trace.activation_time - detected >= MEASUREMENT_DELAY - 1e-9

    @pytest.mark.parametrize("dc_mode", ["lqr", "max"])
    def test_prediction_is_the_rollout_of_the_executed_plan(self, grid, cefc_model, limits, dc_mode):
        # omega_pred is om_free + C x; the lifted model is linear in its inputs,
        # so that is a rollout under the quantized shed, held from the second step
        w = cefc_model.config.window_len
        shed = 0
        for scale in SUBCASE_INERTIA:
            trace = coordinate(grid, control_scenario(scale), cefc_model, limits, dc_mode=dc_mode)
            rec, n = trace.record, len(trace.record)
            k = int(round(trace.activation_time / rec.dt))
            steps = min(int(round(controller.PREDICTION_HORIZON / rec.dt)), n - 1 - k)
            x = trace.plan.quantized_ratio if trace.plan is not None else np.zeros(grid.n_loads)
            ul_seq = np.tile(x, (steps, 1))
            ul_seq[0] = 0.0
            ud_seq = np.tile(limits.ud_support, (steps, 1))
            om_hat = predict_rollout(cefc_model, rec.omega[k - w + 1 : k + 1], rec.y[k - w + 1 : k + 1], ul_seq, ud_seq, steps)
            assert np.all(np.isnan(trace.omega_pred[:k])) and np.all(np.isnan(trace.omega_pred[k + steps + 1 :]))
            assert np.max(np.abs(trace.omega_pred[k : k + steps + 1] - om_hat)) <= 1e-10
            shed += np.any(x > 0)
        assert shed > 0  # some runs take the shedding path

    def test_record_length_prediction_steps_and_window_agree(self, grid, cefc_model, limits):
        # one record read by simulate (its length), coordinate (the prediction
        # span and the decision window) and predict_record (its rollout window)
        scenario = control_scenario(0.85)
        trace = coordinate(grid, scenario, cefc_model, limits, dc_mode="max")
        rec, cfg = trace.record, cefc_model.config
        assert len(rec) == scenario.n_steps + 1 == 601
        k = int(round(trace.activation_time / rec.dt))
        steps = min(prediction_steps(rec.dt), scenario.n_steps - k)
        assert prediction_steps(rec.dt) == 300 and steps == 300
        assert np.array_equal(np.flatnonzero(~np.isnan(trace.omega_pred)), np.arange(k, k + steps + 1))
        om, y = window_at(rec.omega, rec.y, k, cfg.window_len)
        assert len(om) == len(y) == cfg.window_len and om[-1] == rec.omega[k] and y[-1].tobytes() == rec.y[k].tobytes()
        om_free = predict_max_dc(cefc_model, om, y, limits, steps)
        shed = trace.plan.quantized_ratio if trace.plan is not None else np.zeros(grid.n_loads)
        om_pred = om_free + controller._memoized_sensitivity(cefc_model, steps) @ shed
        assert trace.omega_pred[k : k + steps + 1].tobytes() == om_pred.tobytes()
        k0, om_hat = predict_record(cefc_model, rec)
        assert len(om_hat) == scenario.n_steps + 1 - k0
        window = window_at(rec.omega, rec.y, k0, cfg.window_len)
        rollout = predict_rollout(cefc_model, *window, rec.ul[k0:-1], rec.ud[k0:-1], scenario.n_steps - k0)
        assert om_hat.tobytes() == rollout.tobytes()

    def test_rejects_unknown_dc_mode(self, grid, cefc_model, limits):
        from cefc.bench import control_scenario

        with pytest.raises(ValueError):
            coordinate(grid, control_scenario(0.85), cefc_model, limits, dc_mode="pid")


class TestNeedsShedding:
    def test_uses_the_planning_floor(self):
        lim = scalar_limits(planning_margin_pu=0.004)
        assert needs_shedding([-0.017], lim)
        assert not needs_shedding([-0.015], lim)


class TestLqrWeights:
    def test_validation(self):
        with pytest.raises(ValueError):
            LqrWeights(q_omega=-1.0)
        with pytest.raises(ValueError):
            LqrWeights(r=0.0)
        assert LqrWeights() == LqrWeights(q_omega=2e4, r=1e-4)
        assert [f.name for f in fields(LqrWeights)] == ["q_omega", "r"]

    @pytest.mark.parametrize("key", ["q_omega", "r"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), True])
    def test_non_finite_weight_rejected(self, key, value):
        # an infinite r gives K = 0: an LQR that commands nothing; true is not a number
        with pytest.raises(ValueError, match=f"[(]{key}[)] must be finite"):
            LqrWeights(**{key: value})


def grid_scalar_model(grid, a=0.97):
    """One-dimensional lifted model with the default grid's input shapes."""
    return KoopmanModel(
        A=np.array([[a]]),
        B_l=np.full((1, grid.n_loads), 0.02),
        B_d=np.full((1, grid.n_links), 1e-4),
        config=ObservableConfig(dt=0.1, delay_span=0.0, dictionary="identity", include_voltage=False),
    )


def record_bytes(trace) -> list:
    rec = trace.record
    arrays = (rec.t, rec.omega, rec.y, rec.ul, rec.ud, rec.ud_applied, trace.ud_commands, trace.omega_pred)
    return [a.tobytes() for a in arrays]


class TestComputedOnce:
    """Model-only results are computed once per model and reused bit for bit."""

    @pytest.fixture
    def dare_calls(self, monkeypatch):
        calls = []
        solve = controller.solve_dare

        def counted(*args, **kwargs):
            calls.append(1)
            return solve(*args, **kwargs)

        monkeypatch.setattr(controller, "solve_dare", counted)
        return calls

    def test_reruns_and_a_deep_copy_give_the_same_bytes(self, grid, cefc_model, limits):
        scenario = control_scenario(0.85)
        first, again, copied = (
            coordinate(grid, scenario, model, limits) for model in (cefc_model, cefc_model, copy.deepcopy(cefc_model))
        )
        assert first.plan is not None  # the run takes the shedding path
        for trace in (again, copied):
            assert record_bytes(trace) == record_bytes(first)
            assert json.dumps(trace.summary(50.0)) == json.dumps(first.summary(50.0))

    def test_one_riccati_solve_per_model(self, grid, limits, dare_calls):
        model = grid_scalar_model(grid)
        scenario = replace(control_scenario(0.85), horizon=10.0)
        for _ in range(3):
            coordinate(grid, scenario, model, limits)
        coordinate(grid, scenario, copy.deepcopy(model), limits)
        assert len(dare_calls) == 1

        nudged = grid_scalar_model(grid, a=np.nextafter(0.97, 2.0))
        trace = coordinate(grid, scenario, nudged, limits)
        assert len(dare_calls) == 2
        want = solve_dare(nudged.A, nudged.B_d, [2e4], [1e-4, 1e-4], discount=0.98)
        assert trace.riccati.K.tobytes() == want.K.tobytes()

    def test_cached_arrays_are_read_only(self, grid, limits):
        model = grid_scalar_model(grid)
        sol = coordinate(grid, replace(control_scenario(0.85), horizon=10.0), model, limits).riccati
        C = controller._memoized_sensitivity(model, 50)
        assert controller._memoized_sensitivity(model, 50) is C
        for a in (sol.P, sol.K, C):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0, 0] = 1.0
        assert C.tobytes() == shedding_sensitivity(model, 50).tobytes()

    @pytest.mark.parametrize("fitted_first", [True, False], ids=["fitted-first", "rebuilt-first"])
    def test_c_ordered_copies_give_the_fitted_bytes(self, grid, dataset_small, limits, fitted_first):
        # a fit-memo hit: the fitted matrices in a new model with its own memo
        fitted = fit(dataset_small, method_config("cefc"))
        rebuilt = KoopmanModel(
            A=np.ascontiguousarray(fitted.A),
            B_l=fitted.B_l.copy(),
            B_d=np.ascontiguousarray(fitted.B_d),
            config=fitted.config,
        )
        scenario = control_scenario(0.85)
        order = (fitted, rebuilt) if fitted_first else (rebuilt, fitted)
        traces = [coordinate(grid, scenario, model, limits) for model in order]
        assert traces[0].plan is not None  # the run takes the shedding path
        assert record_bytes(traces[1]) == record_bytes(traces[0])

    def test_passed_rollout_gives_the_plan_of_its_own_rollout(self, cefc_model, limits, node_base):
        w = cefc_model.config.window_len
        om_win, y_win = np.full(w, -0.018), np.ones((w, 2))
        om_free = predict_max_dc(cefc_model, om_win, y_win, limits, 200)
        own = solve_shedding(cefc_model, om_win, y_win, limits, node_base, 200)
        passed = solve_shedding(cefc_model, om_win, y_win, limits, node_base, 200, om_free=om_free)
        assert own.total_mw > 0 and passed.feasible == own.feasible
        for name in ("continuous_ratio", "continuous_mw", "quantized_mw", "quantized_ratio"):
            assert getattr(passed, name).tobytes() == getattr(own, name).tobytes()
