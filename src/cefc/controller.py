"""Coordinated emergency control: activation, one-shot shedding, DC-side LQR.

Decision pipeline on an under-frequency event:
  1. dead-zone activation on the measured COI frequency deviation,
  2. rollout of the lifted model with DC support held at its limit,
  3. if the predicted nadir still breaches the floor, a one-shot load
     shedding amount is sized in closed form (the least common ratio of
     every node that clears the floor) and quantized to the feeder
     granularity,
  4. from activation onward the DC references follow a saturated LQR on the
     lifted state, with the gain from a discrete algebraic Riccati equation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gridsim
from .gridsim import GridModel, Scenario, is_number
from .koopman import KoopmanModel, _memoized, check_sample_time, delay_samples, lift, output_response, predict_rollout, steady_state_samples, window_at
# `solve_qp` is not called here; perfbench's tracer wraps it in this module's namespace
from .qp import solve_qp  # noqa: F401

#: seconds of lifted-model prediction behind each shedding decision
PREDICTION_HORIZON = 30.0
#: samples from a shedding decision to its shed: decided at k, applied from k + SHED_LAG
SHED_LAG = 1
#: doubling steps before `solve_dare` gives up
DARE_MAX_ITER = 64

class StabilizabilityError(Exception):
    """Riccati iteration failed to converge."""


@dataclass
class ControlLimits:
    ud_min: np.ndarray  # MW per link
    ud_max: np.ndarray  # MW per link
    ul_max: np.ndarray  # max shedding ratio per node
    quantum_mw: float = 10.0  # feeder quantum d
    activation_threshold_hz: float = 0.2  # deviation magnitude triggering EFC
    omega_min: float = -0.02  # nadir floor, p.u. deviation
    planning_margin_pu: float = 0.004  # backoff above the floor used when sizing sheds
    base_frequency: float = 50.0
    ud_support: np.ndarray | None = None  # full-support reference per link, MW

    def __post_init__(self):
        # a NaN, infinite, boolean or out-of-range value here would size sheds
        # that break the floor or exceed the load, so each is a config error
        if np.asarray(self.ul_max).dtype == bool:  # true would read as a ratio of 1
            raise ValueError("ul_max entries must be numbers, not true or false")
        self.ud_min = np.asarray(self.ud_min, dtype=float)
        self.ud_max = np.asarray(self.ud_max, dtype=float)
        self.ul_max = np.asarray(self.ul_max, dtype=float)
        if not (is_number(self.quantum_mw) and self.quantum_mw > 0):
            raise ValueError(f"quantum_mw must be finite and > 0, got {self.quantum_mw!r}")
        if not (is_number(self.planning_margin_pu) and self.planning_margin_pu >= 0):
            raise ValueError(f"planning_margin_pu must be finite and >= 0, got {self.planning_margin_pu!r}")
        if not np.all((self.ul_max >= 0.0) & (self.ul_max <= 1.0)):  # NaN fails both
            raise ValueError(f"ul_max entries must be finite and in [0, 1], got {self.ul_max.tolist()}")
        if np.any(self.ul_max != self.ul_max[:1]):  # the shed is one ratio of every node
            raise ValueError(f"ul_max must be one ratio for every node, got {self.ul_max.tolist()}")
        if not (is_number(self.omega_min) and self.omega_min < 0):
            raise ValueError(f"omega_min (the nadir floor, deviation form) must be finite and < 0, got {self.omega_min!r}")
        if not (is_number(self.activation_threshold_hz) and self.activation_threshold_hz > 0):
            raise ValueError(f"activation_threshold_hz must be finite and > 0, got {self.activation_threshold_hz!r}")
        if not self.activation_threshold_pu < -self.omega_min:
            raise ValueError("activation threshold must be less severe than the nadir floor")
        if self.ud_support is None:
            self.ud_support = self.ud_max.copy()
        else:
            self.ud_support = np.asarray(self.ud_support, dtype=float)

    @property
    def activation_threshold_pu(self) -> float:
        return self.activation_threshold_hz / self.base_frequency

    @property
    def planning_floor(self) -> float:  # sheds are sized against it; the backoff absorbs prediction error
        return self.omega_min + self.planning_margin_pu

    @classmethod
    def for_grid(cls, grid: GridModel, **kw) -> "ControlLimits":
        ul_max = kw.pop("ul_max", 0.3)
        if not is_number(ul_max):  # np.full would turn a list, true included, into ratios
            raise ValueError(f"ul_max must be one finite number, the ratio of every load node, got {ul_max!r}")
        support = np.array(
            [lk.ud_max if lk.end == "receiving" else lk.ud_min for lk in grid.hvdc]
        )
        return cls(
            ud_min=np.array([lk.ud_min for lk in grid.hvdc]),
            ud_max=np.array([lk.ud_max for lk in grid.hvdc]),
            ul_max=np.full(grid.n_loads, ul_max),
            base_frequency=grid.base_frequency,
            ud_support=support,
            **kw,
        )


@dataclass
class SheddingPlan:
    continuous_ratio: np.ndarray  # optimal shedding ratio per node
    continuous_mw: np.ndarray
    quantized_mw: np.ndarray
    quantized_ratio: np.ndarray
    shed_time: float | None = None
    feasible: bool = True

    @property
    def total_mw(self) -> float:
        return float(np.sum(self.quantized_mw))

    def to_dict(self) -> dict:
        return {
            "continuous_mw": self.continuous_mw.tolist(),
            "quantized_mw": self.quantized_mw.tolist(),
            "shed_time": self.shed_time,
            "feasible": self.feasible,
        }


@dataclass(frozen=True)
class LqrWeights:
    q_omega: float = 2e4  # Q2's weight on the frequency observable; the other features weigh 0
    r: float = 1e-4  # R2's weight on each link's command

    def __post_init__(self):
        # an infinite r gives K = 0, an LQR that never acts
        if not (is_number(self.q_omega) and self.q_omega >= 0):
            raise ValueError(f"Q2 weight (q_omega) must be finite and >= 0, got {self.q_omega!r}")
        if not (is_number(self.r) and self.r > 0):
            raise ValueError(f"R2 weight (r) must be finite and > 0, got {self.r!r}")


@dataclass
class RiccatiSolution:
    P: np.ndarray
    K: np.ndarray
    residual: float
    iterations: int


@dataclass
class CoordinationTrace:
    record: gridsim.TrajectoryRecord
    activation_time: float | None
    plan: SheddingPlan | None
    omega_pred: np.ndarray | None  # model prediction from activation, nan-padded; om_free + C x under shed x
    ud_commands: np.ndarray  # (n, q) as issued by the controller
    riccati: RiccatiSolution | None  # the LQR gain's solve; None under constant support

    def nadir(self) -> float:
        return float(np.min(self.record.omega))

    def steady_state(self) -> float:
        tail = steady_state_samples(self.record.dt)
        return float(np.mean(self.record.omega[-tail:]))

    def summary(self, base_frequency: float) -> dict:
        return {
            "activation_time": self.activation_time,
            "shed": self.plan.to_dict() if self.plan is not None else None,
            "nadir_pu": self.nadir(),
            "nadir_hz": base_frequency * (1.0 + self.nadir()),
            "steady_state_pu": self.steady_state(),
            "steady_state_hz": base_frequency * (1.0 + self.steady_state()),
            "cumulative_abs_ud_mw_s": float(
                np.sum(np.abs(self.ud_commands)) * self.record.dt
            ),
            "riccati": None
            if self.riccati is None
            else {"iterations": self.riccati.iterations, "residual": self.riccati.residual},
        }


def prediction_steps(dt: float) -> int:
    """Steps of the `PREDICTION_HORIZON` rollout behind a decision, at sample time `dt`."""
    return int(round(PREDICTION_HORIZON / dt))


def check_activation(omega: float, limits: ControlLimits) -> bool:
    """Dead-zone test; the boundary counts as activated."""
    return omega <= -limits.activation_threshold_pu


def predict_max_dc(model: KoopmanModel, omega_window, y_window, limits: ControlLimits, steps: int) -> np.ndarray:
    """Rollout with every DC link at full support and no shedding."""
    ul = np.zeros((steps, model.n_loads))
    ud = np.tile(limits.ud_support, (steps, 1))
    return predict_rollout(model, omega_window, y_window, ul, ud, steps)


def needs_shedding(omega_hat, limits: ControlLimits) -> bool:
    """True unless the full-support prediction stays at or above the planning
    floor on every step a shed can move, from `SHED_LAG + 1` on (NaN is under)."""
    return not np.all(np.asarray(omega_hat)[SHED_LAG + 1 :] >= limits.planning_floor)


def shedding_sensitivity(model: KoopmanModel, steps: int) -> np.ndarray:
    """Per-step effect of a unit one-shot shedding ratio on predicted omega.

    Row t gives d(omega_t)/d(x) for the shedding vector x applied from step
    `SHED_LAG` onward; rows 0 to `SHED_LAG` are zero.  The lifted model is
    linear in its inputs, so a one-shot shed x predicts `om_free + C @ x`,
    with `om_free` the full-support rollout of `predict_max_dc`.
    """
    inputs = ([0.0] * SHED_LAG + [model.B_l] * steps)[:steps]
    return output_response(model.A, np.zeros((model.dim, model.n_loads)), inputs)


def _memoized_sensitivity(model: KoopmanModel, steps: int) -> np.ndarray:
    """`shedding_sensitivity`, solved once per model, `steps` and `SHED_LAG`; read-only."""

    def solve():
        C = shedding_sensitivity(model, steps)
        C.setflags(write=False)
        return C

    return _memoized(model._memo, ("sensitivity", model.A, model.B_l, steps, SHED_LAG), solve)


def quantize(amounts, d: float):
    """Round each amount to the nearest multiple of the feeder quantum, ties up."""
    amounts = np.asarray(amounts, dtype=float)
    if d <= 0:
        raise ValueError("quantum must be > 0")
    if np.any(amounts < -1e-12):
        raise ValueError("shedding amounts must be nonnegative")
    return np.floor(np.clip(amounts, 0.0, None) / d + 0.5) * d


def solve_shedding(
    model: KoopmanModel,
    omega_window,
    y_window,
    limits: ControlLimits,
    node_base_mw,
    steps: int,
    *,
    om_free=None,
) -> SheddingPlan:
    """One-shot shed, one ratio r at every node from step `SHED_LAG` on.

    DC support is held at its limit inside the prediction.  With c = C @ 1,
    the predicted response to r, the planning floor on step t reads
    c_t r >= floor - om_free_t; the plan is the least r in [0, ul_max] that
    meets it on every step the shed moves.  For a model fitted on the
    control grid's load base (B_l = β plᵀ) this is the Q1 optimum, since the
    prediction then depends on the shed power alone.  When no such r exists,
    or `om_free` holds a NaN or c a non-finite value, the plan is the cap with
    the feasibility flag cleared.  The quantized shed of a node is a whole
    number of quanta, at most its cap rounded down to a whole quantum.
    `om_free` is the full-support rollout of `predict_max_dc` on the same
    arguments, when the caller already has it.
    """
    node_base_mw = np.asarray(node_base_mw, dtype=float)
    p = model.n_loads

    if om_free is None:
        om_free = predict_max_dc(model, omega_window, y_window, limits, steps)

    # each node's cap, rounded down to a whole quantum (within 1e-9 quantum,
    # so that a cap of 210 MW stays 21 quanta of 10 MW)
    d = limits.quantum_mw
    cap_mw = np.floor(limits.ul_max * node_base_mw / d + 1e-9) * d

    def make_plan(r, feasible):
        x = np.full(p, r)
        mw = x * node_base_mw
        qmw = np.minimum(quantize(mw, limits.quantum_mw), cap_mw)
        return SheddingPlan(
            continuous_ratio=x,
            continuous_mw=mw,
            quantized_mw=qmw,
            quantized_ratio=qmw / node_base_mw,
            feasible=feasible,
        )

    # constrain only the steps the shed moves, from SHED_LAG + 1 on, as
    # `needs_shedding` does; with steps <= SHED_LAG there are none
    if not needs_shedding(om_free, limits):
        return make_plan(0.0, True)
    c = _memoized_sensitivity(model, steps)[SHED_LAG + 1 :] @ np.ones(p)
    need = limits.planning_floor - om_free[SHED_LAG + 1 :]  # c_t r must reach it
    cap = limits.ul_max[0]
    if np.isnan(need).any() or not np.isfinite(c).all() or np.any(need[c == 0] > 0):
        return make_plan(cap, False)
    lo = max(0.0, np.max(need[c > 0] / c[c > 0], initial=-np.inf))
    hi = min(cap, np.min(need[c < 0] / c[c < 0], initial=np.inf))
    return make_plan(lo, True) if lo <= hi else make_plan(cap, False)


def solve_dare(A, B, q_diag, r_diag, tol: float = 1e-10, discount: float = 1.0) -> RiccatiSolution:
    """Structure-preserving doubling for the discrete algebraic Riccati equation.

    Q2 = diag(q_diag) and R2 = diag(r_diag).  Writes the equation as
    P = Q + A'P(I + G P)^-1 A with G = B R2^-1 B' and iterates the doubling
    triple (A_k, G_k, H_k) from (A, G, Q) (Chu, Fan, Lin & Wang, Int. J.
    Control 77, 2004): H_k equals 2^k steps of the Riccati recursion and A_k
    the closed-loop map squared k times, so a few steps converge.  Stops when
    the doubling increment H_{k+1} - H_k, the contribution of Riccati steps
    2^k to 2^{k+1}, drops below `tol` scaled by max(1, ||P||), within
    `DARE_MAX_ITER` doubling steps.  `residual` is the Frobenius norm of the
    equation residual at the returned P; it can exceed `tol` * ||P|| when the
    model's rounding floor lies above that bar.  Raises StabilizabilityError on
    a non-finite value or without convergence: a mode that no input reaches
    and that does not decay keeps the increment comparable to ||P|| (a
    marginal mode grows P linearly, an unstable one overflows).
    `discount` < 1 solves the discounted problem (A, B scaled by the
    discount), which keeps P bounded when the identified A carries marginal
    modes that the DC inputs cannot move.
    """
    if not 0.0 < discount <= 1.0:
        raise ValueError("discount must be in (0, 1]")
    A = discount * np.atleast_2d(np.asarray(A, dtype=float))
    B = discount * np.atleast_2d(np.asarray(B, dtype=float))
    Q = np.diag(np.asarray(q_diag, dtype=float))
    R = np.diag(np.asarray(r_diag, dtype=float))
    n = A.shape[0]

    def residual_of(P):
        S = R + B.T @ P @ B
        return A.T @ P @ A - P + Q - A.T @ P @ B @ np.linalg.solve(S, B.T @ P @ A)

    Ak, G, P = A, B @ np.linalg.solve(R, B.T), Q.copy()
    # overflow before the finiteness check is the divergence signal, not an error
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(1, DARE_MAX_ITER + 1):
            W = np.eye(n) + G @ P
            WA, WG = np.split(np.linalg.solve(W, np.hstack([Ak, G])), 2, axis=1)
            step = Ak.T @ P @ WA
            G = G + Ak @ WG @ Ak.T
            Ak = Ak @ WA
            G = 0.5 * (G + G.T)
            P = P + 0.5 * (step + step.T)
            if not np.all(np.isfinite(P)):
                raise StabilizabilityError("Riccati iteration diverged; (A, B_d) may not be stabilizable")
            if np.linalg.norm(step) < tol * max(1.0, float(np.linalg.norm(P))):
                K = np.linalg.solve(R + B.T @ P @ B, B.T @ P @ A)
                return RiccatiSolution(P=P, K=K, residual=float(np.linalg.norm(residual_of(P))), iterations=it)
        raise StabilizabilityError(
            f"Riccati iteration did not converge in {DARE_MAX_ITER} doubling steps (residual {np.linalg.norm(residual_of(P)):.3e})"
        )


#: discount of the LQR's Riccati solve, which keeps P bounded under the
#: marginal modes of an identified A
RICCATI_DISCOUNT = 0.98


def _memoized_riccati(model: KoopmanModel, weights: LqrWeights) -> RiccatiSolution:
    """The LQR gain's `solve_dare`, solved once per model and weights; `P` and
    `K` are read-only.  A miss calls `solve_dare` by module name."""
    q_diag = np.zeros(model.dim)
    q_diag[0] = weights.q_omega
    r_diag = np.full(model.n_links, weights.r, dtype=float)

    def solve():
        sol = solve_dare(model.A, model.B_d, q_diag, r_diag, discount=RICCATI_DISCOUNT)
        sol.P.setflags(write=False)
        sol.K.setflags(write=False)
        return sol

    return _memoized(model._memo, ("riccati", model.A, model.B_d, q_diag, r_diag, RICCATI_DISCOUNT), solve)


def lqr_step(g, sol: RiccatiSolution, limits: ControlLimits) -> np.ndarray:
    """Saturated LQR feedback on the lifted state."""
    # with array bounds, np.minimum / np.maximum in this order give np.clip's bits
    return np.minimum(np.maximum(-sol.K @ g, limits.ud_min), limits.ud_max)


def coordinate(
    grid: GridModel,
    scenario: Scenario,
    model: KoopmanModel,
    limits: ControlLimits,
    weights: LqrWeights = LqrWeights(),
    dc_mode: str = "lqr",
) -> CoordinationTrace:
    """Closed-loop run of the full pipeline against the nonlinear simulator.

    dc_mode "lqr" follows the Riccati feedback after activation; "max" holds
    the DC references at full support (the time-invariant comparison case).
    """
    if dc_mode not in ("lqr", "max"):
        raise ValueError("dc_mode must be 'lqr' or 'max'")
    check_sample_time("the scenario", scenario.dt, model.config)
    sol = _memoized_riccati(model, weights) if dc_mode == "lqr" else None
    cfg = model.config
    w = cfg.window_len
    dt = scenario.dt
    delay_steps = delay_samples(dt)  # arm no sooner than the delay after detection
    p, q = grid.n_loads, grid.n_links
    n = scenario.n_steps + 1  # samples in the record
    ud_cmds = np.zeros((n, q))  # row k: the command issued at step k; the last row stays 0
    # the policy hands simulate these shared vectors, which it only reads
    no_shed, no_dc, support = np.zeros(p), np.zeros(q), limits.ud_support
    detect_k = activated_k = plan = omega_pred = None

    def policy(t, om_hist, y_hist):
        nonlocal detect_k, activated_k, plan, omega_pred
        k = len(om_hist) - 1
        om = om_hist[-1]
        if detect_k is None and om <= -0.25 * limits.activation_threshold_pu:
            detect_k = k

        if activated_k is None:
            ready = detect_k is not None and k - detect_k >= delay_steps and k >= w - 1
            if ready and check_activation(om, limits):
                activated_k = k
                om_win, y_win = window_at(om_hist, y_hist, k, w)
                steps = min(prediction_steps(dt), n - 1 - k)
                om_hat = predict_max_dc(model, om_win, y_win, limits, steps)
                if needs_shedding(om_hat, limits):
                    plan = solve_shedding(model, om_win, y_win, limits, grid.load_base_mw, steps, om_free=om_hat)
                    plan.shed_time = t + SHED_LAG * dt
                    om_hat = om_hat + _memoized_sensitivity(model, steps) @ plan.quantized_ratio
                omega_pred = np.full(n, np.nan)
                omega_pred[k : k + steps + 1] = om_hat
                ud = support
            else:
                ud = no_dc
        elif dc_mode == "max":
            ud = support
        else:
            g = lift(*window_at(om_hist, y_hist, k, w), cfg)
            ud = lqr_step(g, sol, limits)
        ud_cmds[k] = ud
        # the plan set at activation is applied from SHED_LAG samples after it
        ul = no_shed if plan is None or k < activated_k + SHED_LAG else plan.quantized_ratio
        return ul, ud

    rec = gridsim.simulate(grid, scenario, policy)
    return CoordinationTrace(
        record=rec,
        activation_time=None if activated_k is None else activated_k * dt,
        plan=plan,
        omega_pred=omega_pred,
        ud_commands=ud_cmds,
        riccati=sol,
    )
