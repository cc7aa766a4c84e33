"""Nonlinear ground-truth simulator of COI frequency dynamics.

Models a center-of-inertia swing equation with per-machine first-order
governors, a 40/60 split of dynamic (motor) and constant-impedance loads,
and rate-limited, lagged HVDC injections.  Voltage proxies at monitored
buses are algebraic functions of net power injections.  This is the "true"
system that the lifted linear model approximates, and the oracle used by
the test suite.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass, fields
from operator import truediv
from typing import NamedTuple

import numpy as np

MOTOR_FREQ_SENSITIVITY = 1.5  # p.u. load change per p.u. frequency, dynamic share
GOVERNOR_LIMIT = 0.25  # governor output cap, p.u. on machine base
SUBSTEPS = 4  # RK4 steps per sample step


class SimulationError(Exception):
    """Raised when integration diverges or a policy violates bounds."""


def is_number(value) -> bool:
    """Whether `value` is a finite real number; a bool (JSON's true or false) is not one."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)


def _check_numbers(obj, positive=(), prefix=""):
    """Refuse a field of `obj` annotated `float` that is not a finite number,
    or one named in `positive` (the plant divides or scales by it) that is not
    > 0.  The message starts with `prefix` and the field's name."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        bound = " > 0" if f.name in positive else ""
        if f.type == "float" and not (is_number(value) and (not bound or value > 0)):
            raise ValueError(f"{prefix}{f.name} must be a finite number{bound}, got {value!r}")


def _located(where: str, cls, kw: dict):
    """`cls(**kw)`, with `where`, the place of `kw` in its document, before a refusal's message."""
    try:
        return cls(**kw)
    except ValueError as exc:
        raise ValueError(f"{where}{exc}") from None


@dataclass(frozen=True)
class Machine:
    inertia: float  # H-constant, s, on machine base
    damping: float  # p.u./p.u. on machine base
    gov_gain: float  # p.u./p.u. on machine base
    gov_tc: float  # s
    capacity: float  # MW
    output: float  # MW dispatched pre-fault; lost if the machine trips
    can_trip: bool = True  # False for the large equivalent unit

    def __post_init__(self):
        _check_numbers(self, positive=("inertia", "gov_tc", "capacity"))
        if self.damping < 0:
            raise ValueError(f"damping must be >= 0, got {self.damping!r}")


@dataclass(frozen=True)
class LoadNode:
    node: str
    base_power: float  # MW
    dynamic_fraction: float = 0.4
    motor_tc: float = 2.0  # s, recovery time of the dynamic share

    def __post_init__(self):
        _check_numbers(self, positive=("base_power", "motor_tc"))
        if not 0.0 <= self.dynamic_fraction <= 1.0:
            raise ValueError(f"dynamic_fraction must lie in [0, 1], got {self.dynamic_fraction!r}")


@dataclass(frozen=True)
class HvdcLink:
    base_setpoint: float  # MW
    ud_min: float  # MW
    ud_max: float  # MW
    ramp_rate: float  # MW/s
    response_lag: float  # s
    end: str = "receiving"  # "sending" | "receiving"

    def __post_init__(self):
        _check_numbers(self, positive=("ramp_rate", "response_lag"))
        if not self.ud_min <= 0.0 <= self.ud_max:
            raise ValueError(f"ud_min and ud_max must bracket zero, got {self.ud_min!r} and {self.ud_max!r}")
        if self.end not in ("sending", "receiving"):
            raise ValueError(f"end must be 'sending' or 'receiving', got {self.end!r}")

    @property
    def sign(self) -> float:
        """+1 when a positive reference deviation injects power into the study grid."""
        return 1.0 if self.end == "receiving" else -1.0


@dataclass(frozen=True)
class GridModel:
    machines: tuple
    loads: tuple
    hvdc: tuple
    base_frequency: float = 50.0
    # p.u. voltage change per p.u. power change, rows = monitored buses,
    # columns = load nodes followed by HVDC links
    voltage_sensitivity: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "machines", tuple(self.machines))
        object.__setattr__(self, "loads", tuple(self.loads))
        object.__setattr__(self, "hvdc", tuple(self.hvdc))
        for key in ("machines", "loads", "hvdc"):  # the plant divides by the load base and steps every link
            if not getattr(self, key):
                raise ValueError(f"{key} must hold at least one entry")
        _check_numbers(self, positive=("base_frequency",))
        try:
            vs = np.atleast_2d(np.asarray(self.voltage_sensitivity, dtype=float))
        except ValueError:  # a string or a ragged row; the message must start with the field
            raise ValueError("voltage_sensitivity must be a matrix of numbers") from None
        n_ch = len(self.loads) + len(self.hvdc)
        if vs.size == 0:
            vs = np.zeros((0, n_ch))
        if vs.shape[1] != n_ch:
            raise ValueError(
                f"voltage_sensitivity needs {n_ch} columns (loads then links), got {vs.shape[1]}"
            )
        if not np.all(np.isfinite(vs)):
            raise ValueError("voltage_sensitivity must be finite")
        object.__setattr__(self, "voltage_sensitivity", tuple(map(tuple, vs)))

    # -- aggregates, all on the system base --

    @property
    def s_base(self) -> float:
        return sum(ld.base_power for ld in self.loads)

    @property
    def n_loads(self) -> int:
        return len(self.loads)

    @property
    def load_base_mw(self) -> np.ndarray:  # what a shedding ratio of 1 sheds, per node
        return np.array([ld.base_power for ld in self.loads])

    @property
    def n_links(self) -> int:
        return len(self.hvdc)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "GridModel":
        """The grid that `d` describes; a refusal names its value's place,
        `grid.<key>` or `grid.<machines|loads|hvdc>[i].<key>`."""
        entries = {
            key: tuple(_located(f"grid.{key}[{i}].", entry_cls, kw) for i, kw in enumerate(d[key]))
            for key, entry_cls in (("machines", Machine), ("loads", LoadNode), ("hvdc", HvdcLink))
        }
        return _located("grid.", cls, {**d, **entries})


def shed_weights(node_base_mw) -> np.ndarray:
    """Each node's base power over the mean: the shedding cost Q1's diagonal,
    and pl, the direction of the fitted shed input B_l = β plᵀ."""
    node_base_mw = np.asarray(node_base_mw, dtype=float)
    q1_diag = node_base_mw / np.mean(node_base_mw)
    if np.any(q1_diag <= 0) or not np.all(np.isfinite(q1_diag)):
        raise ValueError("Q1 diagonal must be positive and finite")
    return q1_diag


@dataclass(frozen=True)
class Scenario:
    """Disturbance description: trips, inertia scaling and excitation noise."""

    inertia_scale: float = 1.0
    trip_set: tuple = ()  # machine indices, lost at trip_time
    trip_time: float = 5.0
    extra_deficit: float = 0.0  # p.u. step power loss at trip_time, on top of trips
    noise_amplitude: float = 0.0  # MW, white noise held per sample step
    noise_seed: int = 0
    noise_channels: tuple = ("loads",)  # subset of {"loads", "dc"}
    horizon: float = 60.0
    dt: float = 0.1

    def __post_init__(self):
        object.__setattr__(self, "trip_set", tuple(self.trip_set))
        object.__setattr__(self, "noise_channels", tuple(self.noise_channels))
        for i in self.trip_set:
            if isinstance(i, bool) or not isinstance(i, numbers.Integral):
                raise ValueError(f"trip index {i!r} is not an integer")
        # a repeat would count the machine's power twice but its inertia once
        if len(set(self.trip_set)) != len(self.trip_set):
            raise ValueError(f"scenario trip_set repeats a machine: {list(self.trip_set)}")
        if isinstance(self.noise_seed, bool) or not isinstance(self.noise_seed, numbers.Integral) or self.noise_seed < 0:
            raise ValueError(f"scenario noise_seed must be an integer >= 0, got {self.noise_seed!r}")
        _check_numbers(self, positive=("inertia_scale",), prefix="scenario ")
        if self.noise_amplitude < 0:
            raise ValueError("noise amplitude must be >= 0")
        if self.dt <= 0 or self.horizon < self.dt:
            raise ValueError("invalid horizon / sample step")
        # a record ends on its horizon's sample, and an event strikes on a
        # sample, so the plant and the fit agree on which one
        for name in ("horizon", "trip_time") if self.event_time is not None else ("horizon",):
            value = getattr(self, name)
            if abs(value / self.dt - round(value / self.dt)) > 1e-9:
                raise ValueError(f"scenario {name} must be a whole number of dt samples, got {value!r} at dt {self.dt!r}")
        for ch in self.noise_channels:
            if ch not in ("loads", "dc"):
                raise ValueError(f"unknown noise channel {ch!r}")

    @property
    def n_steps(self) -> int:  # sample steps of a record, which holds n_steps + 1 samples
        return int(round(self.horizon / self.dt))

    @property
    def event_time(self) -> float | None:  # when trips or an extra deficit strike; None without either
        return self.trip_time if self.trip_set or self.extra_deficit else None

    @property
    def event_sample(self) -> int | None:  # the sample the event strikes at: step k is post-event from k on
        return None if self.event_time is None else round(self.trip_time / self.dt)

    def validate(self, grid: GridModel):
        if len(self.trip_set) > 3:
            raise ValueError("at most three simultaneous machine trips are supported")
        for i in self.trip_set:
            if not 0 <= i < len(grid.machines):
                raise ValueError(f"trip index {i} out of range")
            if not grid.machines[i].can_trip:
                raise ValueError(f"machine {i} is not trippable")
        if len(self.trip_set) >= len(grid.machines):
            raise ValueError("cannot trip every machine")
        if self.event_time is None and self.noise_amplitude == 0.0:
            raise ValueError("scenario needs a trip, an extra deficit or noise")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "Scenario":
        return cls(**d)


def write_table(path, header, rows):
    """Write a CSV table: the header, then one line per row, each value as its
    `str`: strings as they are, floats as the shortest text that reads back as
    the same float.  So a table reads back exactly, and reruns give the same bytes."""
    with open(path, "w", newline="") as fh:
        fh.writelines([",".join(map(str, row)) + "\r\n" for row in [header, *rows]])


@dataclass
class TrajectoryRecord:
    """Sampled closed- or open-loop run: COI frequency, voltages and controls."""

    dt: float
    t: np.ndarray  # (n,)
    omega: np.ndarray  # (n,) p.u. COI frequency deviation
    y: np.ndarray  # (n, m) bus-voltage proxies, p.u.
    ul: np.ndarray  # (n, p) shedding ratios, [0, 1]
    ud: np.ndarray  # (n, q) DC reference deviations, MW (as commanded)
    ud_applied: np.ndarray | None = None  # (n, q) after ramp limiting
    scenario: Scenario | None = None

    def __len__(self) -> int:
        return len(self.t)

    def write_csv(self, path):
        m, p, q = self.y.shape[1], self.ul.shape[1], self.ud.shape[1]
        header = (
            ["t", "omega"]
            + [f"y_{i + 1}" for i in range(m)]
            + [f"ul_{i + 1}" for i in range(p)]
            + [f"ud_{i + 1}" for i in range(q)]
        )
        write_table(path, header, np.column_stack([self.t, self.omega, self.y, self.ul, self.ud]).tolist())

    @classmethod
    def read_csv(cls, path) -> "TrajectoryRecord":
        """The record a CSV holds; ValueError on a value that is not finite or
        a shedding ratio outside [0, 1], which no simulation writes."""
        with open(path) as fh:
            header = fh.readline().rstrip("\n").split(",")
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
        m = sum(h.startswith("y_") for h in header)
        p = sum(h.startswith("ul_") for h in header)
        q = sum(h.startswith("ud_") for h in header)
        ul = data[:, 2 + m : 2 + m + p]
        bad = ~np.isfinite(data)
        bad[:, 2 + m : 2 + m + p] |= (ul < 0.0) | (ul > 1.0)
        if bad.any():
            row, col = np.argwhere(bad)[0]
            raise ValueError(
                f"{path} line {row + 2} column {col + 1} holds {float(data[row, col])!r}: "
                "values must be finite and shedding ratios in [0, 1]"
            )
        t = data[:, 0]
        dt = float(t[1] - t[0]) if len(t) > 1 else 0.0
        return cls(
            dt=dt,
            t=t,
            omega=data[:, 1],
            y=data[:, 2 : 2 + m],
            ul=ul,
            ud=data[:, 2 + m + p : 2 + m + p + q],
        )


def default_grid() -> GridModel:
    """Desk-scale testbed: an equivalent unit plus 3 trippable machines,
    3 load nodes and 2 HVDC links."""
    machines = (
        Machine(inertia=5.5, damping=1.0, gov_gain=11.0, gov_tc=5.0, capacity=2200.0, output=800.0, can_trip=False),
        Machine(inertia=1.5, damping=0.3, gov_gain=1.5, gov_tc=5.0, capacity=120.0, output=110.0),
        Machine(inertia=1.5, damping=0.3, gov_gain=1.5, gov_tc=5.5, capacity=110.0, output=100.0),
        Machine(inertia=1.5, damping=0.3, gov_gain=1.5, gov_tc=4.5, capacity=100.0, output=90.0),
    )
    loads = (
        LoadNode("L1", 700.0, 0.4, 2.0),
        LoadNode("L2", 600.0, 0.4, 2.5),
        LoadNode("L3", 500.0, 0.4, 1.8),
    )
    hvdc = (
        HvdcLink(base_setpoint=400.0, ud_min=-80.0, ud_max=80.0, ramp_rate=250.0, response_lag=0.15, end="receiving"),
        HvdcLink(base_setpoint=300.0, ud_min=-80.0, ud_max=80.0, ramp_rate=250.0, response_lag=0.2, end="receiving"),
    )
    vsens = (
        (-0.30, -0.12, -0.08, 0.50, 0.15),
        (-0.10, -0.25, -0.15, 0.18, 0.45),
    )
    return GridModel(machines=machines, loads=loads, hvdc=hvdc, voltage_sensitivity=vsens)


def _rk4_substep(f, x, h):
    """One RK4 step of ``dx/dt = f(x)`` from x over h: the next state and the
    stage points (x, s2, s3, s4) that f is evaluated at."""
    k1 = f(x)
    k2 = f(s2 := x + h / 2 * k1)
    k3 = f(s3 := x + h / 2 * k2)
    k4 = f(s4 := x + h * k3)
    return x + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4), (x, s2, s3, s4)


class _Held(NamedTuple):
    """Terms of one set of held shedding ratios, computed once per new `ul`."""

    ul: np.ndarray
    key: bytes  # ul.tobytes(), against which a new command is compared
    neg_c: list  # -(1 - ul) * c as floats, the voltage proxy's dynamic-load factor
    shed: float  # ul . Pl, the shed power of the forcing
    A: list  # [pre, post] trip side: `A` of the right-hand side, built on first use
    W: list  # [pre, post] trip side: (W, stage governor limits), built on first use


class _Plant:
    """Precomputed per-unit quantities and the affine ODE right-hand side of
    one run.

    With z = [x, clip(pg)] the dynamics are ``dx = A @ z + b``: the governor
    clip is the only nonlinearity, `A` depends on the held shedding ratios and
    on the pre/post-trip machine set, and `b` carries the held DC reference,
    the shed, the deficit and the load noise.  State layout:
    [omega, pg (machines), w (loads), pdc (links)].  Between sample steps the
    state `x` and the forcing `b` are lists of floats, and a fused sample step
    is ``W @ (x + b)``, a product with the concatenation [x, b].  `fused`
    builds W with the `_rk4_substep` that `step` takes on numbers.
    """

    def __init__(self, grid: GridModel, scenario: Scenario):
        s = grid.s_base
        self.nm = len(grid.machines)
        self.p = grid.n_loads
        self.q = grid.n_links
        self.M = np.array([m.inertia * m.capacity / s for m in grid.machines])
        self.D = np.array([m.damping * m.capacity / s for m in grid.machines])
        self.K = np.array([m.gov_gain * m.capacity / s for m in grid.machines])
        self.Tg = np.array([m.gov_tc for m in grid.machines])
        self.gov_lim = np.array([GOVERNOR_LIMIT * m.capacity / s for m in grid.machines])
        self.Pl = np.array([ld.base_power / s for ld in grid.loads])
        self.c = np.array(
            [MOTOR_FREQ_SENSITIVITY * ld.dynamic_fraction * ld.base_power / s for ld in grid.loads]
        )
        self.Tm = np.array([ld.motor_tc for ld in grid.loads])
        self.lag = np.array([lk.response_lag for lk in grid.hvdc])
        self.sign = np.array([lk.sign for lk in grid.hvdc])
        self.s_base = s
        self.online = np.ones(self.nm, dtype=bool)
        self.online[list(scenario.trip_set)] = False
        self.trip_deficit = (
            sum(grid.machines[i].output for i in scenario.trip_set) / s
            + scenario.extra_deficit
        )
        self.m_tot = tuple(
            float(scenario.inertia_scale * np.sum(self.M[self._active(post)])) for post in (False, True)
        )
        self.vsens = np.asarray(grid.voltage_sensitivity, dtype=float)
        self.nx = nx = 1 + self.nm + self.p + self.q
        self.pg = slice(1, 1 + self.nm)
        self.w = slice(1 + self.nm, 1 + self.nm + self.p)
        self.pdc = slice(1 + self.nm + self.p, nx)
        self.h = scenario.dt / SUBSTEPS
        # float copies for the per-step arithmetic
        self._lags, self._signs = self.lag.tolist(), self.sign.tolist()
        self._b_mid = [0.0] * (nx - 1 - self.q)  # b[1:pdc], always zero

    def _active(self, post: bool) -> np.ndarray:
        return self.online if post else np.ones(self.nm, dtype=bool)

    def hold(self, ul) -> _Held:
        """The terms of held shedding ratios `ul`, built once per run and `ul`:
        the shed only grows.  `matrix` and `fused` fill in their parts."""
        neg_c = (-(1.0 - ul) * self.c).tolist()
        return _Held(ul, ul.tobytes(), neg_c, float(np.dot(ul, self.Pl)), [None, None], [None, None])

    def matrix(self, held: _Held, post: bool) -> np.ndarray:
        """`A` of ``dx = A @ [x, clip(pg)] + b`` for held `ul`, cached."""
        A = held.A[post]
        if A is None:
            nx, act = self.nx, self._active(post)
            m_tot = self.m_tot[post]
            load = (1.0 - held.ul) * self.c  # frequency-sensitive load still connected
            A = np.zeros((nx, nx + self.nm))
            A[0, 0] = -(np.sum(load) + np.sum(self.D[act])) / m_tot
            A[0, self.w] = load / m_tot
            A[0, self.pdc] = self.sign / (self.s_base * m_tot)
            A[0, nx:] = act / m_tot
            pg, w, pdc = (np.arange(nx)[sl] for sl in (self.pg, self.w, self.pdc))
            A[pg, 0] = -self.K / self.Tg
            A[pg, pg] = -1.0 / self.Tg
            A[w, 0] = 1.0 / self.Tm
            A[w, w] = -1.0 / self.Tm
            A[pdc, pdc] = -1.0 / self.lag
            held.A[post] = A
        return A

    def forcing(self, shed, r, noise_sum, post: bool) -> list:
        """`b` of ``dx = A @ [x, clip(pg)] + b`` for the held inputs, as floats.

        `shed` is ul . Pl, `r` the applied DC references (MW) and `noise_sum`
        the summed load noise over s_base; b[0] and b[pdc] are the only
        nonzero entries.
        """
        deficit = (self.trip_deficit if post else 0.0) + noise_sum
        return [(shed - deficit) / self.m_tot[post], *self._b_mid, *map(truediv, r, self._lags)]

    def fused(self, held: _Held, post: bool):
        """One sample step of RK4 with the clip inactive, as a matrix on [x, b].

        Returns (W, lim): the first nx rows of ``W @ [x, b]`` are the state
        after all substeps; the rest are the governor outputs of the active
        machines at every stage point, to be checked against `lim`.
        """
        hit = held.W[post]
        if hit is None:
            nx, h, act = self.nx, self.h, self._active(post)
            A = self.matrix(held, post)
            A_lin = A[:, :nx].copy()
            A_lin[:, self.pg] += A[:, nx:]  # clip(pg) = pg inside the limits
            X = np.hstack([np.eye(nx), np.zeros((nx, nx))])  # x as a map of [x, b]
            B = np.hstack([np.zeros((nx, nx)), np.eye(nx)])
            gov = np.arange(nx)[self.pg][act]
            stages = []
            for _ in range(SUBSTEPS):
                X, points = _rk4_substep(lambda S: A_lin @ S + B, X, h)
                stages += [S[gov] for S in points]
            W = np.vstack([X, *stages])
            lim = np.tile(self.gov_lim[act], 4 * SUBSTEPS)
            hit = held.W[post] = (W, lim)
        return hit

    def step(self, x, post, held: _Held, r, noise_sum) -> list:
        """The state one sample step after the state `x`, both lists of floats.

        `post` is the step's trip side.  The fused map serves a step whose
        stage governor outputs stay inside their limits; a step where the
        clip engages is integrated stage by stage.
        """
        nx, b = self.nx, self.forcing(held.shed, r, noise_sum, post)
        W, lim = self.fused(held, post)
        out = W @ (x + b)
        if np.count_nonzero(np.abs(out[nx:]) <= lim) == len(lim):
            return out[:nx].tolist()
        A = self.matrix(held, post)

        def f(x_stage):
            z = np.concatenate([x_stage, np.clip(x_stage[self.pg], -self.gov_lim, self.gov_lim)])
            return A @ z + b

        x = np.array(x)
        for _ in range(SUBSTEPS):
            x, _ = _rk4_substep(f, x, self.h)
        return x.tolist()

    def voltages(self, x, neg_c, noise_s):
        """Bus-voltage proxies of the state `x` (floats); `neg_c` is
        -(1 - ul) * c and `noise_s` the load noise over s_base."""
        # PCC-side proxy: converter injections plus the uncontrolled load
        # variation; feeders disconnected by shedding drop off their own
        # radial branch and do not move the monitored buses.
        x0, s = x[0], self.s_base
        inj = [nc * (x0 - w) - ns for nc, w, ns in zip(neg_c, x[self.w], noise_s)]
        inj += [sg * pdc / s for sg, pdc in zip(self._signs, x[self.pdc])]
        return 1.0 + self.vsens @ inj


def simulate(grid: GridModel, scenario: Scenario, policy=None) -> TrajectoryRecord:
    """Fixed-step RK4 run of one scenario, optionally under a control policy.

    The policy, if given, is called once per sample step as
    ``policy(t, omega_hist, y_hist) -> (ul, ud)`` with measurement history up
    to and including the current sample; controls are applied with zero-order
    hold.  Shedding ratios are monotone (load is not restored within a run)
    and DC commands outside the link limits are rejected.  A command is
    checked, clipped and merged only when its shape or bytes differ from the
    policy's previous one.

    Per step, the arithmetic on the 2- to 3-element vectors (DC reference
    ramp, noise, forcing, voltage-proxy injections) runs on Python floats; the
    numpy calls left are the fused step ``W @ [x, b]``, the voltage proxy's
    ``vsens @ inj``, the governor-limit test and the history writes the
    policy reads.

    Noise is drawn from ``default_rng(noise_seed)`` as one block before the
    run, in per-step order: row k holds step k's load draws, then its link
    draws.  So a record is still a function of `noise_seed`.
    """
    scenario.validate(grid)
    plant = _Plant(grid, scenario)
    p, q, s = plant.p, plant.q, plant.s_base
    dt = scenario.dt
    n_steps = scenario.n_steps
    amp = scenario.noise_amplitude
    noise_loads = "loads" in scenario.noise_channels and amp > 0
    noise_dc = "dc" in scenario.noise_channels and amp > 0
    width = p * noise_loads + q * noise_dc
    if width:
        noise = np.random.default_rng(scenario.noise_seed).normal(0.0, amp, (n_steps, width))
    if noise_loads:
        # per step: load noise / s_base, and its sum / s_base (a row sum of the
        # block has the bits of the row's own .sum())
        noise_rows = (noise[:, :p] / s).tolist()
        noise_sums = (noise[:, :p].sum(axis=1) / s).tolist()
    if noise_dc:
        noise_links = noise[:, p * noise_loads :].tolist()

    ud_floor = np.array([lk.ud_min for lk in grid.hvdc]) - 1e-9
    ud_ceil = np.array([lk.ud_max for lk in grid.hvdc]) + 1e-9
    # per link: (ud_min, ud_max, -ramp * dt, ramp * dt); min(hi, max(lo, v))
    # gives np.clip's bits with array bounds, signed zeros included: on a tie
    # Python's max and min keep their first argument, the bound, as np.clip does
    links = [(lk.ud_min, lk.ud_max, -lk.ramp_rate * dt, lk.ramp_rate * dt) for lk in grid.hvdc]

    x = [0.0] * plant.nx
    r = [0.0] * q  # ramp-limited applied DC reference, MW
    held = plant.hold(np.zeros(p))
    ud = [0.0] * q  # the DC command in force, MW
    ul_key = ud_key = None  # (shape, bytes) of the policy's last commands
    noise_s, noise_sum = [0.0] * p, 0.0  # load noise / s_base, and its sum / s_base

    n = n_steps + 1
    t_arr = np.arange(n) * dt
    times = list(t_arr)
    event = n if scenario.event_sample is None else scenario.event_sample  # step k is post-trip from k = event on
    omega = np.zeros(n)
    y = np.zeros((n, plant.vsens.shape[0]))
    ul_rows, ud_rows, app_rows = [], [], []

    for k in range(n):
        omega[k] = x[0]
        y[k] = plant.voltages(x, held.neg_c, noise_s)
        if k == n_steps:
            ul_rows.append(held.ul)
            ud_rows.append(ud_rows[-1])
            app_rows.append(r)
            break

        if policy is not None:
            ul_cmd, ud_cmd = policy(times[k], omega[: k + 1], y[: k + 1])
            ul_cmd = np.asarray(ul_cmd, dtype=float)
            ud_cmd = np.asarray(ud_cmd, dtype=float)
            key = (ul_cmd.shape, ul_cmd.tobytes())
            if key != ul_key:
                # count the entries inside the bounds: NaN fails both comparisons
                inside = (ul_cmd >= -1e-12) & (ul_cmd <= 1.0 + 1e-12)
                if np.count_nonzero(inside) != inside.size:
                    raise SimulationError("policy returned shedding ratio outside [0, 1]")
                ul = np.maximum(held.ul, np.minimum(1.0, np.maximum(0.0, ul_cmd))).reshape(p)
                if ul.tobytes() != held.key:  # bytes, not values: a -0.0 shed stays -0.0
                    held = plant.hold(ul)
                ul_key = key
            key = (ud_cmd.shape, ud_cmd.tobytes())
            if key != ud_key:
                inside = (ud_cmd >= ud_floor) & (ud_cmd <= ud_ceil)
                if np.count_nonzero(inside) != inside.size:
                    raise SimulationError("policy returned DC command outside link limits")
                row = np.empty(q)
                row[:] = ud_cmd  # the shapes a record row takes
                ud, ud_key = row.tolist(), key

        if noise_loads:
            noise_s, noise_sum = noise_rows[k], noise_sums[k]
        cmd = ud
        if noise_dc:
            cmd = [min(hi, max(lo, u + e)) for u, e, (lo, hi, _, _) in zip(ud, noise_links[k], links)]
        r = [
            min(hi, max(lo, ri + min(up, max(down, u - ri))))
            for ri, u, (lo, hi, down, up) in zip(r, cmd, links)
        ]
        ul_rows.append(held.ul)
        ud_rows.append(cmd)
        app_rows.append(r)

        x = plant.step(x, k >= event, held, r, noise_sum)
        if not all(map(math.isfinite, x)) or abs(x[0]) > 1.0:
            raise SimulationError(f"integration diverged at t={(k + 1) * dt:.2f}s")

    return TrajectoryRecord(
        dt=dt,
        t=t_arr,
        omega=omega,
        y=y,
        ul=np.array(ul_rows),
        ud=np.array(ud_rows, dtype=float),
        ud_applied=np.array(app_rows, dtype=float),
        scenario=scenario,
    )
