"""Coordinated emergency control: activation, one-shot shedding, DC-side LQR.

Decision pipeline on an under-frequency event:
  1. dead-zone activation on the measured COI frequency deviation,
  2. rollout of the lifted model with DC support held at its limit,
  3. if the predicted nadir still breaches the floor, a one-shot load
     shedding amount is optimized (condensed convex QP) and quantized to the
     feeder granularity,
  4. from activation onward the DC references follow a saturated LQR on the
     lifted state, with the gain from a discrete algebraic Riccati equation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import gridsim
from .gridsim import GridModel, Scenario
from .koopman import KoopmanModel, _memoized, check_sample_time, first_sample_at, lift, predict_rollout, steady_state_samples, MEASUREMENT_DELAY
from .qp import QPError, solve_qp

#: seconds of lifted-model prediction behind each shedding decision
PREDICTION_HORIZON = 30.0
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
        self.ud_min = np.asarray(self.ud_min, dtype=float)
        self.ud_max = np.asarray(self.ud_max, dtype=float)
        self.ul_max = np.asarray(self.ul_max, dtype=float)
        # a NaN, infinite or out-of-range value here would size sheds that
        # break the floor or exceed the load, so each is a config error
        if not (math.isfinite(self.quantum_mw) and self.quantum_mw > 0):
            raise ValueError(f"quantum_mw must be finite and > 0, got {self.quantum_mw!r}")
        if not (math.isfinite(self.planning_margin_pu) and self.planning_margin_pu >= 0):
            raise ValueError(f"planning_margin_pu must be finite and >= 0, got {self.planning_margin_pu!r}")
        if not np.all((self.ul_max >= 0.0) & (self.ul_max <= 1.0)):  # NaN fails both
            raise ValueError(f"ul_max entries must be finite and in [0, 1], got {self.ul_max.tolist()}")
        if not (math.isfinite(self.omega_min) and self.omega_min < 0):
            raise ValueError(f"omega_min (the nadir floor, deviation form) must be finite and < 0, got {self.omega_min!r}")
        if not (math.isfinite(self.activation_threshold_hz) and self.activation_threshold_hz > 0):
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

    @classmethod
    def for_grid(cls, grid: GridModel, **kw) -> "ControlLimits":
        support = np.array(
            [lk.ud_max if lk.end == "receiving" else lk.ud_min for lk in grid.hvdc]
        )
        return cls(
            ud_min=np.array([lk.ud_min for lk in grid.hvdc]),
            ud_max=np.array([lk.ud_max for lk in grid.hvdc]),
            ul_max=np.full(grid.n_loads, kw.pop("ul_max", 0.3)),
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


@dataclass
class LqrWeights:
    q_diag: np.ndarray  # diagonal of Q2, length dim(g)
    r_diag: np.ndarray  # diagonal of R2, length #links

    def __post_init__(self):
        self.q_diag = np.asarray(self.q_diag, dtype=float)
        self.r_diag = np.asarray(self.r_diag, dtype=float)
        # NaN fails both comparisons; an infinite r gives K = 0, an LQR that never acts
        q_ok = (self.q_diag >= 0) & (self.q_diag < math.inf)
        if not np.all(q_ok):
            raise ValueError(f"Q2 diagonal (q_omega) must be finite and >= 0, got {self.q_diag[~q_ok].tolist()}")
        r_ok = (self.r_diag > 0) & (self.r_diag < math.inf)
        if not np.all(r_ok):
            raise ValueError(f"R2 diagonal (r) must be finite and > 0, got {self.r_diag[~r_ok].tolist()}")

    @classmethod
    def for_model(cls, model: KoopmanModel, q_omega: float = 2e4, r: float = 1e-4) -> "LqrWeights":
        q = np.zeros(model.dim)
        q[0] = q_omega
        return cls(q_diag=q, r_diag=np.full(model.n_links, r))


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


def check_activation(omega: float, limits: ControlLimits) -> bool:
    """Dead-zone test; the boundary counts as activated."""
    return omega <= -limits.activation_threshold_pu


def predict_max_dc(model: KoopmanModel, omega_window, y_window, limits: ControlLimits, steps: int) -> np.ndarray:
    """Rollout with every DC link at full support and no shedding."""
    ul = np.zeros((steps, model.n_loads))
    ud = np.tile(limits.ud_support, (steps, 1))
    return predict_rollout(model, omega_window, y_window, ul, ud, steps)


def needs_shedding(omega_hat, limits: ControlLimits) -> bool:
    """True when the full-support prediction dips under the planning floor."""
    return bool(np.min(omega_hat) < limits.omega_min + limits.planning_margin_pu)


def shedding_sensitivity(model: KoopmanModel, steps: int) -> np.ndarray:
    """Per-step effect of a unit one-shot shedding ratio on predicted omega.

    Row t gives d(omega_t)/d(x) for the shedding vector x applied from the
    second control step onward; rows 0 and 1 are zero.  The lifted model is
    linear in its inputs, so a one-shot shed x predicts `om_free + C @ x`,
    with `om_free` the full-support rollout of `predict_max_dc`.
    """
    C = np.zeros((steps + 1, model.n_loads))
    M = np.zeros((model.dim, model.n_loads))
    for j in range(steps):
        M = model.A @ M + (model.B_l if j >= 1 else 0.0)
        C[j + 1] = M[0]
    return C


def _memoized_sensitivity(model: KoopmanModel, steps: int) -> np.ndarray:
    """`shedding_sensitivity`, solved once per model and `steps`; read-only."""

    def solve():
        C = shedding_sensitivity(model, steps)
        C.setflags(write=False)
        return C

    return _memoized(model._memo, ("sensitivity", model.A, model.B_l, steps), solve)


def quantize(amounts, d: float):
    """Round each amount to the nearest multiple of the feeder quantum, ties up."""
    amounts = np.asarray(amounts, dtype=float)
    if d <= 0:
        raise ValueError("quantum must be > 0")
    if np.any(amounts < -1e-12):
        raise ValueError("shedding amounts must be nonnegative")
    return np.floor(np.clip(amounts, 0.0, None) / d + 0.5) * d


def shed_weights(node_base_mw) -> np.ndarray:
    """Diagonal of the shedding cost Q1: each node's base power over the mean."""
    node_base_mw = np.asarray(node_base_mw, dtype=float)
    q1_diag = node_base_mw / np.mean(node_base_mw)
    if np.any(q1_diag <= 0) or not np.all(np.isfinite(q1_diag)):
        raise ValueError("Q1 diagonal must be positive and finite")
    return q1_diag


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
    """One-shot shedding amount from the condensed convex QP.

    DC support is held at its limit inside the prediction; the decision
    variable is the single vector of shedding ratios held from the second
    step on.  The QP minimizes the Q1 cost subject to the planning floor on
    every step from the second on and 0 <= x <= ul_max; it is solved by
    `qp.solve_qp` from the no-shed point.  When no shed within `ul_max`
    clears the floor in the model, the plan is the per-node maximum with the
    feasibility flag cleared.  The quantized shed of a node is a whole
    number of quanta, at most its maximum rounded down to a whole quantum.
    `om_free` is the full-support rollout of
    `predict_max_dc` on the same arguments, when the caller already has it;
    the sensitivity matrix is computed once per model and `steps`.
    """
    node_base_mw = np.asarray(node_base_mw, dtype=float)
    p = model.n_loads
    q1_diag = shed_weights(node_base_mw)

    if om_free is None:
        om_free = predict_max_dc(model, omega_window, y_window, limits, steps)
    C = _memoized_sensitivity(model, steps)
    # size the shed against a floor raised by the planning backoff so that
    # prediction error of a plan sitting exactly on the constraint does not
    # turn into a real violation
    floor = limits.omega_min + limits.planning_margin_pu
    margin = om_free - floor  # must stay >= -C x

    # each node's cap, rounded down to a whole quantum (within 1e-9 quantum,
    # so that a cap of 210 MW stays 21 quanta of 10 MW)
    d = limits.quantum_mw
    cap_mw = np.floor(limits.ul_max * node_base_mw / d + 1e-9) * d

    def make_plan(x, feasible):
        x = np.clip(x, 0.0, limits.ul_max)
        mw = x * node_base_mw
        qmw = np.minimum(quantize(mw, limits.quantum_mw), cap_mw)
        return SheddingPlan(
            continuous_ratio=x,
            continuous_mw=mw,
            quantized_mw=qmw,
            quantized_ratio=qmw / node_base_mw,
            feasible=feasible,
        )

    # the shed is applied one step after the decision and acts from the step
    # after that, so rows 0-1 of the sensitivity are identically zero: those
    # steps are outside the decision's reach and are not constrained.  This
    # also covers steps <= 1, where the cost H below would be zero
    if np.all(margin[2:] >= 0):
        return make_plan(np.zeros(p), True)

    H = 2.0 * (steps - 1) * np.diag(q1_diag)
    G = np.vstack([-C[2:], -np.eye(p), np.eye(p)])
    h = np.concatenate([margin[2:], np.zeros(p), limits.ul_max])
    try:
        x, _ = solve_qp(H, np.zeros(p), G, h)
    except QPError:
        return make_plan(limits.ul_max, False)
    return make_plan(x, True)


def solve_dare(A, B, q_diag, r_diag, tol: float = 1e-10, discount: float = 1.0) -> RiccatiSolution:
    """Structure-preserving doubling for the discrete algebraic Riccati equation.

    Q2 = diag(q_diag) and R2 = diag(r_diag).  Writes the equation as
    P = Q + A'P(I + G P)^-1 A with G = B R2^-1 B' and iterates the doubling
    triple (A_k, G_k, H_k) from (A, G, Q) (Chu, Fan, Lin & Wang, Int. J.
    Control 77, 2004): H_k equals 2^k steps of the Riccati recursion and A_k
    the closed-loop map squared k times, so a few steps converge.  Stops when
    the equation residual (Frobenius norm) of P = H_k and the last doubling
    increment both drop below `tol` scaled by max(1, ||P||), within
    `DARE_MAX_ITER` doubling steps.  Raises StabilizabilityError on a non-finite
    value or without convergence: a mode that no input reaches and that does
    not decay keeps P growing, however small its residual is relative to ||P||.
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
    res = float("inf")
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
            scale = tol * max(1.0, float(np.linalg.norm(P)))
            res = float(np.linalg.norm(residual_of(P)))
            if res < scale and np.linalg.norm(step) < scale:
                K = np.linalg.solve(R + B.T @ P @ B, B.T @ P @ A)
                return RiccatiSolution(P=P, K=K, residual=res, iterations=it)
    raise StabilizabilityError(
        f"Riccati iteration did not converge in {DARE_MAX_ITER} doubling steps (residual {res:.3e})"
    )


#: discount of the LQR's Riccati solve, which keeps P bounded under the
#: marginal modes of an identified A
RICCATI_DISCOUNT = 0.98


def _memoized_riccati(model: KoopmanModel, weights: LqrWeights) -> RiccatiSolution:
    """The LQR gain's `solve_dare`, solved once per model and weights; `P` and
    `K` are read-only.  A miss calls `solve_dare` by module name."""

    def solve():
        sol = solve_dare(model.A, model.B_d, weights.q_diag, weights.r_diag, discount=RICCATI_DISCOUNT)
        sol.P.setflags(write=False)
        sol.K.setflags(write=False)
        return sol

    return _memoized(model._memo, ("riccati", model.A, model.B_d, weights.q_diag, weights.r_diag, RICCATI_DISCOUNT), solve)


def lqr_step(g, sol: RiccatiSolution, limits: ControlLimits) -> np.ndarray:
    """Saturated LQR feedback on the lifted state."""
    # with array bounds, np.minimum / np.maximum in this order give np.clip's bits
    return np.minimum(np.maximum(-sol.K @ g, limits.ud_min), limits.ud_max)


def coordinate(
    grid: GridModel,
    scenario: Scenario,
    model: KoopmanModel,
    limits: ControlLimits,
    weights: LqrWeights | None = None,
    dc_mode: str = "lqr",
) -> CoordinationTrace:
    """Closed-loop run of the full pipeline against the nonlinear simulator.

    dc_mode "lqr" follows the Riccati feedback after activation; "max" holds
    the DC references at full support (the time-invariant comparison case).
    """
    if dc_mode not in ("lqr", "max"):
        raise ValueError("dc_mode must be 'lqr' or 'max'")
    check_sample_time("the scenario", scenario.dt, model.config)
    if weights is None:
        weights = LqrWeights.for_model(model)
    sol = _memoized_riccati(model, weights) if dc_mode == "lqr" else None
    cfg = model.config
    w = cfg.window_len
    dt = scenario.dt
    delay_steps = first_sample_at(MEASUREMENT_DELAY, dt)  # arm no sooner than the delay after detection
    pred_steps = int(round(PREDICTION_HORIZON / dt))
    p, q = grid.n_loads, grid.n_links
    node_base = np.array([ld.base_power for ld in grid.loads])

    n_steps = int(round(scenario.horizon / dt))
    n = n_steps + 1  # samples in the record
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

        # activation (below) sets the plan; it is applied from the next step on
        ul = no_shed if plan is None else plan.quantized_ratio

        if activated_k is None:
            ready = detect_k is not None and k - detect_k >= delay_steps and k >= w - 1
            if ready and check_activation(om, limits):
                activated_k = k
                om_win = om_hist[k - w + 1 : k + 1]
                y_win = y_hist[k - w + 1 : k + 1]
                steps = min(pred_steps, n_steps - k)
                om_hat = predict_max_dc(model, om_win, y_win, limits, steps)
                if needs_shedding(om_hat, limits):
                    plan = solve_shedding(model, om_win, y_win, limits, node_base, steps, om_free=om_hat)
                    plan.shed_time = t + dt
                    om_hat = om_hat + _memoized_sensitivity(model, steps) @ plan.quantized_ratio
                omega_pred = np.full(n, np.nan)
                omega_pred[k : k + steps + 1] = om_hat
                ud = support
            else:
                ud = no_dc
        elif dc_mode == "max":
            ud = support
        else:
            g = lift(om_hist[k - w + 1 : k + 1], y_hist[k - w + 1 : k + 1], cfg)
            ud = lqr_step(g, sol, limits)
        ud_cmds[k] = ud
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
