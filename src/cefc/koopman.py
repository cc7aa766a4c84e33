"""Lifted-linear identification of frequency dynamics from trajectory data.

Observables are the current COI frequency deviation plus a configurable
dictionary over a trailing time-delay window of frequency and bus voltages
(delay coordinates, Gaussian radial basis features, or both).  The lifted
dynamics g+ = A g + B_l u_l + B_d u_d are fitted by ridge-regularized least
squares over all consecutive sample pairs.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
import os
from dataclasses import dataclass, field, fields, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .gridsim import GridModel, Scenario, TrajectoryRecord, SimulationError, is_number, simulate

DICTIONARIES = ("identity", "delay", "rbf", "delay_rbf")

#: measurement delay between a power deficit and the first usable window, s
MEASUREMENT_DELAY = 0.4
#: draws of a training trajectory before a diverging simulation is an error
MAX_RETRIES = 5
#: Tikhonov weight of both fit stages
RIDGE = 1e-8


class InsufficientHistoryError(Exception):
    """Lift window shorter than the configured delay span."""


@dataclass
class ObservableConfig:
    """Observable setup of a lifted model.

    The features depend only on `delay_span`, `rbf_count` and
    `include_voltage` (see `lift`); `dictionary` names the layout and must
    agree with them: `identity` and `rbf` take no delay span, `identity` and
    `delay` no RBF features, and `rbf` at least one.
    """

    dt: float = 0.1
    delay_span: float = 0.4  # tau, s; 0 disables delay embedding
    dictionary: str = "delay_rbf"
    rbf_count: int = 0
    rbf_centers: np.ndarray | None = None  # (count, length of the raw delay vector), set during fit
    rbf_widths: np.ndarray | None = None  # (count,)
    include_voltage: bool = True
    # -2 w^2, the divisor of the RBF exponent; derived from rbf_widths on construction
    rbf_divisor: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (is_number(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be a finite number > 0, got {self.dt!r}")
        if self.dictionary not in DICTIONARIES:
            raise ValueError(f"unknown dictionary {self.dictionary!r}")
        if isinstance(self.rbf_count, bool) or not isinstance(self.rbf_count, numbers.Integral) or self.rbf_count < 0:
            raise ValueError(f"rbf_count must be an integer >= 0, got {self.rbf_count!r}")
        if not isinstance(self.include_voltage, bool):
            raise ValueError(f"include_voltage must be true or false, got {self.include_voltage!r}")
        n = self.delay_span / self.dt
        if self.delay_span < 0 or abs(n - round(n)) > 1e-9:
            raise ValueError("delay span must be a nonnegative multiple of dt")
        if self.dictionary in ("identity", "rbf") and self.delay_span != 0:
            raise ValueError(f"{self.dictionary} dictionary takes no delay span; use delay or delay_rbf")
        if self.dictionary in ("identity", "delay") and self.rbf_count != 0:
            raise ValueError(f"{self.dictionary} dictionary takes no rbf features; use rbf or delay_rbf")
        if self.dictionary == "rbf" and self.rbf_count <= 0:
            raise ValueError("rbf dictionary requires rbf_count > 0")
        if self.rbf_centers is not None:
            self.rbf_centers = _read_only(self.rbf_centers)
        if self.rbf_widths is not None:
            self.rbf_widths = _read_only(self.rbf_widths)
            self.rbf_divisor = -(2.0 * self.rbf_widths**2)

    @property
    def n_delays(self) -> int:
        return int(round(self.delay_span / self.dt))

    @property
    def window_len(self) -> int:
        return self.n_delays + 1

    def to_dict(self) -> dict:
        values = {f.name: getattr(self, f.name) for f in fields(self) if f.init}
        return {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in values.items()}

    @classmethod
    def from_dict(cls, d: dict) -> "ObservableConfig":
        return cls(**d)


def method_config(name: str, dt: float = 0.1) -> ObservableConfig:
    """Observable configurations for the four benchmarked identification methods."""
    name = name.lower()
    if name == "cefc":
        return ObservableConfig(dt=dt, delay_span=0.4, dictionary="delay_rbf", rbf_count=30)
    if name == "cefc-ntd":
        # ablation: same pipeline with the delay span removed; the dictionary
        # width matches the no-delay baseline so only the embedding differs
        return ObservableConfig(dt=dt, delay_span=0.0, dictionary="delay_rbf", rbf_count=100)
    if name == "edmd":
        return ObservableConfig(dt=dt, delay_span=0.0, dictionary="rbf", rbf_count=100)
    if name == "dmd":
        # plain linear fit on the raw frequency measurement alone
        return ObservableConfig(dt=dt, delay_span=0.0, dictionary="identity", include_voltage=False)
    raise ValueError(f"unknown method {name!r}")


def check_sample_time(source: str, dt: float, config: ObservableConfig):
    """Raise ValueError unless `dt` equals the model's sample time `config.dt`.

    A lifted model is a map from one sample to the next, so it only holds at
    the sample time it was fitted at.  The 1e-9 relative tolerance covers a
    record's dt read from a time column that another tool wrote rounded.
    """
    if not math.isclose(dt, config.dt, rel_tol=1e-9):
        raise ValueError(f"{source} samples every {dt:g} s but the model runs at {config.dt:g} s")


def check_grid(model: "KoopmanModel", grid: GridModel):
    """Raise ValueError unless `model` takes `grid`'s shed and link inputs and
    lifts the voltages of its monitored buses.

    A model file does not record the bus count, so only the grid tells a
    model with an edited `delay_span` from one fitted on more buses.
    """
    if (model.n_loads, model.n_links) != (grid.n_loads, grid.n_links):
        raise ValueError(
            f"the model takes {model.n_loads} shed and {model.n_links} link inputs "
            f"but the grid has {grid.n_loads} loads and {grid.n_links} links"
        )
    n_buses = len(grid.voltage_sensitivity)
    features = _feature_count(model.config, n_buses)
    if features != model.dim:
        raise ValueError(f"{_layout(model.config)} gives {features} features on a grid of {n_buses} monitored buses, not {model.dim}")


def _feature_count(config, n_buses: int) -> int:
    """Length of `lift`'s feature vector on `n_buses` monitored buses."""
    voltages = config.window_len * n_buses if config.include_voltage else 0
    return 1 + config.n_delays + voltages + config.rbf_count


def _layout(config) -> str:
    return (
        f"config (delay_span {config.delay_span:g}, rbf_count {config.rbf_count}, "
        f"include_voltage {str(config.include_voltage).lower()})"
    )


def _event_sample(scenario) -> int:
    """`Scenario.event_sample`, or 0 (the record's start) without a scenario or an event."""
    return 0 if scenario is None or scenario.event_sample is None else scenario.event_sample


def _event_and_shed(rec, w: int) -> tuple:
    """The record's event sample e (`_event_sample`); e + w - 1, the end of the
    first window wholly after it; and the mask of shed samples."""
    e = _event_sample(rec.scenario)
    return e, e + w - 1, np.any(rec.ul > 0, axis=1)


def steady_state_samples(dt: float) -> int:
    """Samples in the 5 s steady-state window that ends a record."""
    return max(1, int(round(5.0 / dt)))


def _base_vector(omega_window, y_window, config):
    """Raw delay vector of each window: omegas, then the flattened voltages."""
    if not config.include_voltage:
        return omega_window
    return np.concatenate((omega_window, y_window.reshape(*y_window.shape[:-2], -1)), axis=-1)


def _rbf_features(z, config):
    c = config.rbf_centers
    if c is None or config.rbf_divisor is None:
        raise ValueError("rbf centers/widths not set; fit the model first")
    # d is the largest array a batched lift builds: it is squared in place and
    # dropped once summed, and the sums are scaled and exponentiated in place
    d = z[..., None, :] - c
    np.multiply(d, d, out=d)
    r = np.add.reduce(d, axis=-1)
    del d
    # exp(-|d|^2 / (2 w^2)) with the sign folded into the divisor: (-a) / b and
    # a / (-b) are the same float
    np.divide(r, config.rbf_divisor, out=r)
    return np.exp(r, out=r)


def lift(omega_window, y_window, config: ObservableConfig) -> np.ndarray:
    """Feature vector of a trailing window of L samples: the current omega, the
    L - 1 past omegas, the window's voltages if `include_voltage`, and the
    `rbf_count` RBF features of the raw delay vector.

    omega (..., L) and y (..., L, n_buses) give features (..., dim): leading
    axes are a batch of windows, each lifted on its last L samples.
    """
    om = np.asarray(omega_window, dtype=float)
    yv = np.asarray(y_window, dtype=float)
    w = config.window_len
    if om.shape[-1] < w or yv.shape[-2] < w:
        raise InsufficientHistoryError(f"need {w} samples, got {om.shape[-1]}")
    om = om[..., -w:]
    yv = yv[..., -w:, :]

    parts = [om[..., -1:], om[..., :-1]]  # past omegas oldest first, none at span 0
    if config.include_voltage:
        parts.append(yv.reshape(*yv.shape[:-2], -1))
    if config.rbf_count > 0:
        parts.append(_rbf_features(_base_vector(om, yv, config), config))
    return np.concatenate(parts, axis=-1)


def window_at(omega, y, k: int, w: int) -> tuple:
    """The trailing windows of `omega` and `y`: their w samples up to sample k."""
    return omega[k - w + 1 : k + 1], y[k - w + 1 : k + 1]


def _read_only(values, order="K") -> np.ndarray:
    """A read-only float view of `values` in the given memory layout."""
    view = np.asarray(values, dtype=float, order=order).view()
    view.setflags(write=False)
    return view


def _windows(rec, w):
    """Every trailing window of a record: omega (n - w + 1, w), y (n - w + 1, w, n_buses)."""
    return (
        sliding_window_view(rec.omega, w),
        sliding_window_view(rec.y, w, axis=0).swapaxes(-1, -2),
    )


@dataclass
class KoopmanModel:
    A: np.ndarray
    B_l: np.ndarray
    B_d: np.ndarray
    config: ObservableConfig
    # results that depend on the model alone, filled through `_memoized` by
    # the controller; not saved
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        # A and B_d Fortran-ordered, the layout `fit` returns them in: the
        # layout picks the BLAS call, and a rollout on a C-ordered A rounds
        # differently.  B_l is C-ordered as `fit` and `load` build it.
        self.A = _read_only(self.A, order="F")
        self.B_l = _read_only(self.B_l)
        self.B_d = _read_only(self.B_d, order="F")
        for name, mat in (("A", self.A), ("B_l", self.B_l), ("B_d", self.B_d)):
            if mat.ndim != 2:
                raise ValueError(f"{name} must be a 2-D matrix, got {mat.ndim}-D")
            if not np.all(np.isfinite(mat)):
                raise ValueError("model matrices must be finite")
        n = self.A.shape[0]
        if self.A.shape != (n, n):
            raise ValueError("A must be square")
        if self.B_l.shape[0] != n or self.B_d.shape[0] != n:
            raise ValueError("B blocks must match dim(g) rows")

    @property
    def dim(self) -> int:
        return self.A.shape[0]

    @property
    def n_loads(self) -> int:
        return self.B_l.shape[1]

    @property
    def n_links(self) -> int:
        return self.B_d.shape[1]

    def save(self, path):
        doc = {
            "dim": self.dim,
            "n_loads": self.n_loads,
            "n_links": self.n_links,
            "spectral_radius": float(np.max(np.abs(np.linalg.eigvals(self.A)))),  # written, not read
            "config": self.config.to_dict(),
            "A": self.A.tolist(),
            "B_l": self.B_l.tolist(),
            "B_d": self.B_d.tolist(),
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)

    @classmethod
    def load(cls, path) -> "KoopmanModel":
        """The model a file holds, whose config must describe its matrices.

        Keys other than the matrices and the config (`ridge` in older files
        among them) are ignored.
        """
        with open(path) as fh:
            doc = json.load(fh)
        model = cls(A=doc["A"], B_l=doc["B_l"], B_d=doc["B_d"], config=ObservableConfig.from_dict(doc["config"]))
        _check_layout(model.dim, model.config)
        return model


def _check_layout(dim: int, config: ObservableConfig):
    """Raise ValueError unless `lift` under `config` can give `dim` features
    and finds RBF centres and widths that fit its raw delay vector.

    The features are the current omega, `n_delays` past omegas, one voltage
    block of `window_len` samples per bus and `rbf_count` RBF values; the raw
    delay vector is all but the RBF values.
    """
    voltages = dim - 1 - config.n_delays - config.rbf_count
    if voltages < 0 or voltages % config.window_len or (voltages and not config.include_voltage):
        raise ValueError(f"{_layout(config)} does not give {dim} features")
    if config.rbf_count > 0:
        want = {"rbf_centers": (config.rbf_count, dim - config.rbf_count), "rbf_widths": (config.rbf_count,)}
        for name, shape in want.items():
            value = getattr(config, name)
            if value is None or value.shape != shape:
                got = "none" if value is None else f"shape {value.shape}"
                raise ValueError(f"{name} must have shape {shape}, got {got}")


@dataclass
class Dataset:
    train: list  # TrajectoryRecord
    test: list
    grid: GridModel | None = None
    seed: int | None = None
    # models fitted on `train`, filled through `_memoized` by `fit`; not saved
    _fits: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def save(self, outdir):
        os.makedirs(outdir, exist_ok=True)
        manifest = {"seed": self.seed, "train": [], "test": []}
        for split in ("train", "test"):
            os.makedirs(os.path.join(outdir, split), exist_ok=True)
            for i, rec in enumerate(getattr(self, split)):
                name = f"{split}/traj_{i:04d}.csv"
                rec.write_csv(os.path.join(outdir, name))
                entry = {"file": name}
                if rec.scenario is not None:
                    entry["scenario"] = rec.scenario.to_dict()
                manifest[split].append(entry)
        if self.grid is not None:
            manifest["grid"] = self.grid.to_dict()
        with open(os.path.join(outdir, "manifest.json"), "w") as fh:
            json.dump(manifest, fh, indent=2)

    @classmethod
    def load(cls, outdir) -> "Dataset":
        with open(os.path.join(outdir, "manifest.json")) as fh:
            manifest = json.load(fh)
        ds = cls(train=[], test=[], seed=manifest.get("seed"))
        if "grid" in manifest:
            ds.grid = GridModel.from_dict(manifest["grid"])
        for split in ("train", "test"):
            for entry in manifest[split]:
                rec = TrajectoryRecord.read_csv(os.path.join(outdir, entry["file"]))
                if "scenario" in entry:
                    rec.scenario = Scenario.from_dict(entry["scenario"])
                getattr(ds, split).append(rec)
        return ds


def _excitation_policy(grid, rng, dt):
    """Random one-shot shedding plus piecewise-constant DC reference wander.

    Persistent excitation through both control channels so that B_l and B_d
    are identifiable from the training runs.
    """
    p, q = grid.n_loads, grid.n_links
    ud_lo = np.array([lk.ud_min for lk in grid.hvdc])
    ud_hi = np.array([lk.ud_max for lk in grid.hvdc])
    do_shed = rng.random() < 0.7
    shed_time = rng.uniform(6.0, 25.0)
    # Small shedding steps: the lifted model is identified around the linear
    # part of the load response, and larger steps excite the load-scaling
    # nonlinearity that the constant input matrix cannot represent.
    shed_amount = rng.uniform(0.0, 0.1, p) * (rng.random(p) < 0.8)
    hold = max(1, int(round(5.0 / dt)))  # hold DC levels long enough to see the slow gain
    levels = {}

    def policy(t, om_hist, y_hist):
        k = len(om_hist) - 1
        block = k // hold
        if block not in levels:
            levels[block] = rng.uniform(0.35 * ud_lo, 0.35 * ud_hi)
        ul = shed_amount if (do_shed and t >= shed_time) else np.zeros(p)
        return ul, levels[block]

    return policy


def generate_dataset(grid: GridModel, n_train: int, n_test: int, seed: int) -> Dataset:
    """Randomized trips, inertia scales and excitation over 60 s records; train/test seed-disjoint."""
    if n_train <= 0 or n_test <= 0:
        raise ValueError("n_train and n_test must be > 0")
    root = np.random.SeedSequence(seed)
    train_ss, test_ss = root.spawn(2)
    ds = Dataset(train=[], test=[], grid=grid, seed=seed)
    for split, count, ss in (("train", n_train, train_ss), ("test", n_test, test_ss)):
        records = getattr(ds, split)
        for child in ss.spawn(count):
            rng = np.random.default_rng(child)
            for attempt in range(MAX_RETRIES):
                try:
                    records.append(_sample_trajectory(grid, rng))
                    break
                except SimulationError:
                    if attempt == MAX_RETRIES - 1:
                        raise
    return ds


def _sample_trajectory(grid, rng):
    trippable = [i for i, m in enumerate(grid.machines) if m.can_trip]
    n_trip = int(rng.integers(1, min(3, len(trippable)) + 1))
    trips = tuple(sorted(rng.choice(trippable, size=n_trip, replace=False).tolist()))
    scenario = Scenario(
        float(rng.uniform(0.8, 0.95)),  # the inertia scale, drawn after the trips
        trips,
        trip_time=5.0,
        noise_amplitude=float(rng.uniform(2.0, 6.0)),
        noise_seed=int(rng.integers(0, 2**31 - 1)),
        noise_channels=("dc",),
        horizon=60.0,
    )
    policy = _excitation_policy(grid, rng, scenario.dt)
    return simulate(grid, scenario, policy)


def _resolve_rbf(records, config):
    """Pick RBF centers from training-data quantiles of the base delay vectors."""
    if config.rbf_count <= 0:
        return config
    stride = 5
    samples = []
    for rec in records:
        om, y = _windows(rec, config.window_len)
        samples.append(_base_vector(om[::stride], y[::stride], config))
    Z = np.concatenate(samples)
    # quantile-spaced along the first frequency coordinate, deterministic
    order = np.argsort(Z[:, 0], kind="stable")
    idx = order[np.linspace(0, len(order) - 1, config.rbf_count).round().astype(int)]
    centers = Z[idx]
    if len(centers) > 1:
        d = np.sqrt(np.sum((centers[:, None, :] - centers[None, :, :]) ** 2, axis=-1))
        med = np.median(d[np.triu_indices(len(centers), 1)])
        width = max(med, 1e-6)
    else:
        width = 1.0
    return replace(
        config,
        rbf_centers=centers,
        rbf_widths=np.full(config.rbf_count, width),
    )


def _regression_pairs(records, config):
    """The first stage's ridge system (Zr, Yr): one row [g_k, ud_k] of Zr and
    g_{k+1} of Yr per lifted one-step pair, over sqrt(RIDGE) I and zeros.

    Pairs whose measurement window spans the event see the deficit step as
    an unmodelled input, so only windows lying fully before or fully after
    the event are kept.  Of those, the shedding-free pairs are used, or every
    kept pair when none is shedding-free.  The rows are counted first; then
    one batched `lift` per record lifts only the windows its kept pairs read
    (window j for row j of Zr, window j + 1 for row j of Yr), each once, and
    its rows are written in place by position, so no other array of the
    system's size is built.  A record with no kept pair is not lifted.  Each
    lifted row depends on its own window alone, so the rows keep their bits.
    """
    w = config.window_len
    kept, quiet = [], []
    for rec in records:
        k = np.arange(w - 1, len(rec) - 1)
        event, after, shed = _event_and_shed(rec, w)
        keep = (k + 1 < event) | (k >= after)
        kept.append(keep)
        quiet.append(keep & ~shed[w - 1 : -1])
    if any(map(np.any, quiet)):
        kept = quiet
    rows = sum(map(np.count_nonzero, kept))
    n = _feature_count(config, records[0].y.shape[1])
    m = n + records[0].ud.shape[1]
    Zr = np.zeros((rows + m, m))
    Yr = np.zeros((rows + m, n))
    np.fill_diagonal(Zr[rows:], np.sqrt(RIDGE))
    start = 0
    for rec, sel in zip(records, kept):
        if not sel.any():
            continue
        need = np.zeros(len(sel) + 1, dtype=bool)
        need[:-1] = sel
        need[1:] |= sel
        om, y = _windows(rec, w)
        lifted = lift(om[need], y[need], config)
        at = np.cumsum(need) - 1  # window j's row of `lifted`, where need[j]
        end = start + np.count_nonzero(sel)
        Zr[start:end, :n] = lifted[at[:-1][sel]]
        Zr[start:end, n:] = rec.ud[w - 1 : -1][sel]
        Yr[start:end] = lifted[at[1:][sel]]
        start = end
    return Zr, Yr


def _ridge_lstsq(Zr, Yr):
    """Ridge least squares as the plain least-squares solution of the system
    `_regression_pairs` builds, which carries the sqrt(RIDGE) I rows."""
    return np.linalg.lstsq(Zr, Yr, rcond=None)[0]


def _input_response_fit(records, config, A, B_d):
    """Shedding input matrix by simulation-error least squares, A and B_d fixed.

    The rolled-out frequency component is linear in the entries of B_l, so
    matching the measured trajectories after each shedding onset is still a
    convex least-squares problem.  One-step residual fits misattribute the
    response of a persistent shedding step: pairs after the onset carry
    almost no information (the measurement window already reflects the
    reduced net deficit), and the near-unit modes of A make the long-horizon
    response explosively sensitive to B_l.  The multi-step objective pins
    both the fast uplift and the settled gain.

    The segments are found first; each one's regressor rows and residuals
    are then written in place into one X and one Y, which are freed once
    XᵀX and XᵀY are formed, before the solve.
    """
    n = A.shape[0]
    p = records[0].ul.shape[1]
    w = config.window_len
    segments = []
    for rec in records:
        _, after, shed = _event_and_shed(rec, w)
        k0 = max(w - 1, int(np.argmax(shed)) - 3, after)
        steps = len(rec) - 1 - k0
        if shed.any() and steps > 0:
            segments.append((rec, k0, steps))
    if not segments:
        return np.zeros((n, p))
    total = sum(steps for _, _, steps in segments)
    X = np.empty((total, n * p))
    Y = np.empty(total)
    AT = A.T  # kept a view: its layout picks the BLAS call, which can change the rounding
    matmul, add = np.matmul, np.add
    zero = np.zeros((n, p))  # the coefficients before every onset
    start = 0
    for rec, k0, steps in segments:
        g = lift(*window_at(rec.omega, rec.y, k0, w), config)
        free = output_response(A, g, _input_terms(B_d, rec.ud[k0 : k0 + steps]))[1:]  # omega-hat with B_l = 0
        np.subtract(rec.omega[k0 + 1 : k0 + 1 + steps], free, out=Y[start : start + steps])
        # row t = d(omega-hat at k0 + t + 1) / d(B_l) = Aᵀ row (t-1) + e0 ulᵀ,
        # with the zero block as row -1; each row is a C-ordered (n, p) view
        # of X.  The shed is added to row 0 alone: the BLAS product holds no
        # -0.0 for the other rows' + 0.0 to turn into +0.0, so the bits are
        # the same.
        prev = zero
        for row, ul in zip(X[start : start + steps].reshape(steps, n, p), rec.ul[k0 : k0 + steps]):
            matmul(AT, prev, out=row)
            shed_row = row[0]
            add(shed_row, ul, out=shed_row)
            prev = row
        start += steps
    del row, prev, shed_row  # views of X
    G = X.T @ X
    XtY = X.T @ Y
    del X, Y
    G += RIDGE * np.eye(n * p)
    theta = np.linalg.solve(G, XtY)
    return theta.reshape(n, p)


def fit(data: Dataset, config: ObservableConfig) -> KoopmanModel:
    """Ridge least-squares fit of (A, B_l, B_d) over consecutive lifted pairs.

    `data` is a Dataset, and the fit uses its training records.  The fit runs
    in two stages: A and B_d come from the shedding-free pairs, then B_l from
    a simulation-error fit over the post-onset segments with A and B_d held
    fixed.  A persistent shedding step is nearly collinear with the slow
    modes of the lifted state, and a joint one-step fit trades accuracy of A
    against B_l, which wrecks long rollouts; the staged fit keeps A anchored
    to the drift data.

    Each stage fills one preallocated system a record at a time.  The first
    stage's system is freed before the second stage builds its own, and the
    second's once its normal equations are formed, before they are solved;
    the largest array alive is the larger of the two systems (and the copy
    `np.linalg.lstsq` makes of the first).

    The Dataset keeps the models fitted on it, keyed by its training records
    and the feature layout `(dt, delay_span, rbf_count, include_voltage)`.
    The `dictionary` label is not in the key, because it does not change the
    model.  Every fit returns a model under the caller's config that shares
    the kept read-only matrices, RBF centres and widths.
    """
    records = data.train
    if not records:
        raise ValueError("empty dataset")
    inputs = [float(config.dt), float(config.delay_span), config.rbf_count, config.include_voltage]
    for rec in records:
        check_sample_time("a training record", rec.dt, config)
        inputs += [repr(rec.scenario), rec.dt, rec.omega, rec.y, rec.ul, rec.ud]
    kept = _memoized(data._fits, inputs, lambda: _fit_records(records, config))
    if config.rbf_count > 0:
        config = replace(config, rbf_centers=kept.config.rbf_centers, rbf_widths=kept.config.rbf_widths)
    return KoopmanModel(A=kept.A, B_l=kept.B_l, B_d=kept.B_d, config=config)


def _memoized(store: dict, inputs, compute):
    """`compute()`, kept in `store` under a SHA-256 of `inputs`: the dtype,
    shape, memory layout (strides) and bytes of each, taken as an array.

    Equal values in another layout are another key, because the layout picks
    the BLAS call and so the rounding.  A call with the same inputs gets the
    kept value itself, so a kept value holds read-only arrays.
    """
    h = hashlib.sha256()
    for value in map(np.asarray, inputs):
        h.update(repr((value.dtype.str, value.shape, value.strides)).encode())
        h.update(value.tobytes())
    key = h.digest()
    if key not in store:
        store[key] = compute()
    return store[key]


def _fit_records(records, config) -> KoopmanModel:
    config = _resolve_rbf(records, config)
    # no name holds the ridge system, so it is freed before the second stage
    theta = _ridge_lstsq(*_regression_pairs(records, config))
    n = theta.shape[1]
    A = theta.T[:, :n]
    B_d = theta.T[:, n:]
    B_l = _input_response_fit(records, config, A, B_d)

    return KoopmanModel(A=A, B_l=B_l, B_d=B_d, config=config)


def predict_rollout(model: KoopmanModel, omega_window, y_window, ul_seq, ud_seq, steps: int) -> np.ndarray:
    """Iterate the lifted dynamics; returns omega-hat for t = 0..steps (length steps+1).

    Step t is ``A @ g + B_l @ ul_seq[t] + B_d @ ud_seq[t]``, by `output_response`.
    """
    ul_seq = np.atleast_2d(np.asarray(ul_seq, dtype=float))
    ud_seq = np.atleast_2d(np.asarray(ud_seq, dtype=float))
    if len(ul_seq) < steps or len(ud_seq) < steps:
        raise ValueError(f"control sequences must provide at least {steps} steps")
    g = lift(omega_window, y_window, model.config)
    return output_response(model.A, g, _input_terms(model.B_l, ul_seq[:steps]), _input_terms(model.B_d, ud_seq[:steps]))


def _input_terms(B, seq):
    """``B @ seq[t]`` for every row t, each taken on the row where it lies: a
    copy can take another BLAS path and round differently."""
    return np.matmul(B, seq[:, :, None])[:, :, 0]


def output_response(A, x, *inputs) -> np.ndarray:
    """Row 0 of x_t for t = 0..T under x_{t+1} = A x_t + inputs[0][t] + inputs[1][t] + ...,
    the terms added in that order; T is the length of each input.

    x is one state (dim,) or a block of states (dim, p), and each term a
    scalar or an array that broadcasts to x.  Returns (T + 1,) or (T + 1, p).
    """
    out = np.empty((len(inputs[0]) + 1, *np.shape(x)[1:]))
    out[0] = x[0]
    for t, terms in enumerate(zip(*inputs), 1):
        x = A @ x
        for term in terms:
            x += term
        out[t] = x[0]
    return out


def delay_samples(dt: float) -> int:
    """Samples in `MEASUREMENT_DELAY` at sample time `dt`, rounded up, with
    1e-9 of a sample as rounding tolerance."""
    return int(np.ceil(MEASUREMENT_DELAY / dt - 1e-9))


def prediction_start(scenario, dt: float, config) -> int:
    """Index of the first measured window of any record of `scenario` (None: no
    scenario) sampled every `dt`: the first sample with a full window and
    `delay_samples(dt)` after `_event_sample`, known before the run."""
    return max(config.window_len - 1, _event_sample(scenario) + delay_samples(dt))


def predict_record(model: KoopmanModel, rec):
    """Rollout of a record from `prediction_start`, driven by its recorded controls.

    Returns (start index, omega-hat for every sample from the start on).
    """
    check_sample_time("the record", rec.dt, model.config)
    k0 = prediction_start(rec.scenario, rec.dt, model.config)
    window = window_at(rec.omega, rec.y, k0, model.config.window_len)
    om_hat = predict_rollout(model, *window, rec.ul[k0:-1], rec.ud[k0:-1], len(rec) - 1 - k0)
    return k0, om_hat


def eval_metrics(model: KoopmanModel, test_records, base_frequency: float) -> dict:
    """Mean absolute nadir / steady-state / trajectory errors over a test set, in Hz.

    Each record is predicted open-loop by `predict_record`; records that end
    within one step of their prediction start are skipped.  A rollout with
    non-finite values counts in `n_diverged` and is scored with those values
    mapped to +-1e3.
    """
    nadir_err, ssv_err, traj_err = [], [], []
    n_diverged = 0
    for rec in test_records:
        if len(rec) - 1 - prediction_start(rec.scenario, rec.dt, model.config) <= 1:
            continue
        k0, om_hat = predict_record(model, rec)
        om_true = rec.omega[k0:]
        if not np.all(np.isfinite(om_hat)):
            n_diverged += 1
            om_hat = np.nan_to_num(om_hat, nan=1e3, posinf=1e3, neginf=-1e3)
        tail = steady_state_samples(rec.dt)
        nadir_err.append(abs(np.min(om_hat) - np.min(om_true)))
        ssv_err.append(abs(np.mean(om_hat[-tail:]) - np.mean(om_true[-tail:])))
        traj_err.append(np.mean(np.abs(om_hat - om_true)))
    scale = base_frequency
    return {
        "nadir_hz": scale * float(np.mean(nadir_err)),
        "ssv_hz": scale * float(np.mean(ssv_err)),
        "mean_hz": scale * float(np.mean(traj_err)),
        "n_records": len(traj_err),
        "n_diverged": n_diverged,
    }
