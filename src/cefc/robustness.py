"""Switched-mode view of feeder shedding and the model-error selection check.

Each combination of on/off feeder switchings is a time-invariant mode of the
lifted dynamics.  Modes are ranked by Hamiltonian values at the costate of a
backward recursion with a zero terminal boundary, which is identically zero,
and the selection under the learned model is compared with the selection
under an accurate reference model and with brute-force enumeration on the
ground-truth simulator.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np

from . import gridsim
from .controller import SHED_LAG, ControlLimits, prediction_steps
from .gridsim import GridModel, Scenario, SimulationError, shed_weights
from .koopman import KoopmanModel, ObservableConfig, check_sample_time, lift, prediction_start, window_at

MODE_CAP = 4096


@dataclass
class FeederSpec:
    """On/off feeders available for switching: shedding quantum and host load node."""

    quanta_mw: np.ndarray  # (N,)
    nodes: np.ndarray  # (N,) load-node index of each feeder

    def __post_init__(self):
        self.quanta_mw = np.atleast_1d(np.asarray(self.quanta_mw, dtype=float))
        self.nodes = np.atleast_1d(np.asarray(self.nodes, dtype=int))
        if len(self.quanta_mw) != len(self.nodes):
            raise ValueError("one node per feeder required")
        if self.n_feeders < 1:
            raise ValueError("at least one feeder required")
        if not np.all(np.isfinite(self.quanta_mw) & (self.quanta_mw > 0)):
            raise ValueError(f"feeder quanta must be finite and > 0, got {self.quanta_mw.tolist()}")

    @property
    def n_feeders(self) -> int:
        return len(self.quanta_mw)

    @classmethod
    def uniform(cls, n_feeders: int, quantum_mw: float, n_nodes: int) -> "FeederSpec":
        # a count below one gives no feeders, which the checks above reject
        return cls(
            quanta_mw=[quantum_mw] * n_feeders,
            nodes=np.arange(n_feeders) % n_nodes,
        )


@dataclass
class ModeSet:
    modes: np.ndarray  # (n_modes, N) feeder on/off states, lexicographic
    shed_ratio: np.ndarray  # (n_modes, p) node shedding ratios
    B_modes: np.ndarray  # (n_modes, dim_g) lifted input column per mode
    costs: np.ndarray  # (n_modes,) control cost of each one-shot mode
    config: ObservableConfig  # the model's; its measured window ends at the decision sample

    @property
    def n_modes(self) -> int:
        return len(self.modes)


def enumerate_modes(feeders: FeederSpec, model: KoopmanModel, node_base_mw) -> ModeSet:
    """All feeder switching combinations with their lifted input columns and costs."""
    n_modes = 2**feeders.n_feeders
    if n_modes > MODE_CAP:
        raise ValueError(f"{n_modes} modes exceeds the cap of {MODE_CAP}")
    node_base_mw = np.asarray(node_base_mw, dtype=float)
    q1_diag = shed_weights(node_base_mw)

    modes = np.array(
        list(itertools.product((0, 1), repeat=feeders.n_feeders)),
        dtype=int,
    ).reshape(n_modes, feeders.n_feeders)
    shed_ratio = np.zeros((n_modes, model.n_loads))
    for j in range(feeders.n_feeders):
        shed_ratio[:, feeders.nodes[j]] += modes[:, j] * feeders.quanta_mw[j] / node_base_mw[feeders.nodes[j]]
    B_modes = shed_ratio @ model.B_l.T
    # one-shot timing: the mode vector is held from step SHED_LAG to the end
    # of the decision horizon, at the model's sample time
    costs = (prediction_steps(model.config.dt) - SHED_LAG) * np.einsum("ij,j,ij->i", shed_ratio, q1_diag, shed_ratio)
    return ModeSet(modes=modes, shed_ratio=shed_ratio, B_modes=B_modes, costs=costs, config=model.config)


def solve_costate(A, T: int) -> np.ndarray:
    """Backward costate recursion lam(t) = -A' lam(t+1), lam(T) = 0.

    The zero boundary condition makes the whole trajectory identically zero.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    lam = np.zeros((T, A.shape[0]))
    for t in range(T - 2, -1, -1):
        lam[t] = -A.T @ lam[t + 1]
    return lam


def mode_hamiltonian_values(lam_t, g, modes: ModeSet, A) -> np.ndarray:
    """a_i = lam'(A g + B_i) + P_i for every mode."""
    lam_t = np.asarray(lam_t, dtype=float)
    drift = np.asarray(A) @ np.asarray(g, dtype=float)
    return modes.B_modes @ lam_t + float(lam_t @ drift) + modes.costs


def select_mode(values) -> int:
    """Argmin with lowest-index tie-break (0-based)."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("empty value vector")
    return int(np.argmin(values))


@dataclass
class Prop1Report:
    k_star: int  # selection under the learned model (0-based)
    i_star: int  # selection under the accurate model
    brute_force_mode: int | None  # cheapest ground-truth-feasible mode
    holds: bool | None  # k_star == i_star; None when no mode is feasible
    values_learned: np.ndarray
    values_oracle: np.ndarray
    costs: np.ndarray
    feasible: np.ndarray  # ground-truth feasibility per mode
    modes: np.ndarray

    def to_dict(self) -> dict:
        return {
            "k_star": self.k_star,
            "i_star": self.i_star,
            "brute_force_mode": self.brute_force_mode,
            "holds": self.holds,
            "values_learned": self.values_learned.tolist(),
            "values_oracle": self.values_oracle.tolist(),
            "costs": self.costs.tolist(),
            "feasible": self.feasible.tolist(),
            "modes": self.modes.tolist(),
        }


def _measured_window(grid, scenario, limits, config):
    """Measured window of a run without shedding, under full DC support,
    ending at `prediction_start`.

    The run stops at the window's last sample: a record's prefix does not
    depend on its horizon.  A horizon that ends sooner is kept, and the short
    window fails in `lift`.
    """

    def policy(t, om_hist, y_hist):
        return np.zeros(grid.n_loads), limits.ud_support

    k0 = prediction_start(scenario, scenario.dt, config)
    horizon = min(scenario.horizon, max(k0, 1) * scenario.dt)
    rec = gridsim.simulate(grid, replace(scenario, horizon=horizon), policy)
    return window_at(rec.omega, rec.y, k0, config.window_len)


def brute_force_mode(
    grid: GridModel,
    scenario: Scenario,
    limits: ControlLimits,
    modes: ModeSet,
):
    """Simulate every mode on the ground truth; cheapest feasible mode wins.

    Each mode is switched in `SHED_LAG` samples after the decision sample, the
    last of `check_prop1`'s measured window under `modes.config`, as
    `coordinate` applies a plan.  Returns (index or None, feasibility mask).
    """
    shed_k = prediction_start(scenario, scenario.dt, modes.config) + SHED_LAG
    feasible = np.zeros(modes.n_modes, dtype=bool)
    for i in range(modes.n_modes):
        ratio = np.clip(modes.shed_ratio[i], 0.0, 1.0)

        def policy(t, om_hist, y_hist, _ratio=ratio):
            ul = _ratio if len(om_hist) > shed_k else np.zeros(len(_ratio))
            return ul, limits.ud_support

        try:
            rec = gridsim.simulate(grid, scenario, policy)
        except SimulationError:
            continue
        feasible[i] = np.min(rec.omega) >= limits.omega_min
    if not np.any(feasible):
        return None, feasible
    # the cheapest feasible mode, lowest index first on ties
    candidates = np.flatnonzero(feasible)
    return int(candidates[np.argmin(modes.costs[candidates])]), feasible


def check_prop1(
    learned: KoopmanModel,
    oracle: KoopmanModel,
    grid: GridModel,
    scenario: Scenario,
    feeders: FeederSpec,
    limits: ControlLimits,
) -> Prop1Report:
    """Compare mode selections of the learned and accurate lifted models.

    The zero terminal costate makes the costate identically zero over the
    horizon, so each model's Hamiltonian values equal its mode costs.
    """
    def values(model):
        check_sample_time("the scenario", scenario.dt, model.config)
        modes = enumerate_modes(feeders, model, grid.load_base_mw)
        g = lift(*_measured_window(grid, scenario, limits, model.config), model.config)
        return modes, mode_hamiltonian_values(np.zeros(model.dim), g, modes, model.A)

    modes_l, vals_l = values(learned)
    _, vals_o = values(oracle)
    k_star = select_mode(vals_l)
    i_star = select_mode(vals_o)
    bf, feasible = brute_force_mode(grid, scenario, limits, modes_l)
    holds = None if bf is None else (k_star == i_star)
    return Prop1Report(
        k_star=k_star,
        i_star=i_star,
        brute_force_mode=bf,
        holds=holds,
        values_learned=vals_l,
        values_oracle=vals_o,
        costs=modes_l.costs,
        feasible=feasible,
        modes=modes_l.modes,
    )
