"""Small dense convex QP via a primal active-set method.

Solves  min 1/2 x'Hx + c'x  s.t.  Gx <= h  for positive-definite H, starting
from a feasible point.  Problem sizes here are tiny (a handful of decision
variables, a few hundred inequality rows), so plain dense linear algebra is
adequate.
"""

from __future__ import annotations

import numpy as np

TOL = 1e-10  # stationarity, multiplier and blocking-step tolerance
MAX_ITER = 200  # active-set iterations before QPError


class QPError(Exception):
    pass


def solve_qp(H, c, G, h, x0):
    """Primal active-set QP from a feasible start.

    Returns (x, active) where `active` is the final working set of row
    indices of G.  Raises QPError if x0 is infeasible or no progress is made.
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
        kkt = np.block(
            [[H, Gw.T], [Gw, np.zeros((len(work), len(work)))]]
        )
        grad = H @ x + c
        rhs = np.concatenate([-grad, np.zeros(len(work))])
        sol, *_ = np.linalg.lstsq(kkt, rhs, rcond=None)
        d = sol[:n]
        mu = sol[n:]

        # the KKT solve carries rounding noise proportional to the gradient
        # size, so the stationarity test must scale with it; after a full
        # unblocked step x already minimizes over the working set, however
        # large a d the solve of a nearly dependent working set returns
        if full_step or np.linalg.norm(d) < TOL * max(1.0, np.linalg.norm(grad)):
            full_step = False
            if len(mu) == 0 or np.min(mu) >= -TOL:
                return x, list(work)
            # drop the lowest-index violating row (Bland's rule, avoids cycling)
            work.pop(int(np.flatnonzero(mu < -TOL)[0]))
            continue

        # step to the nearest blocking row outside the working set, lowest
        # index first; a stack of (1, n) @ (n, 1) items rounds as each G[i] @ d
        # does, which G @ d does not
        Gd = np.matmul(G[:, None, :], d[:, None])[:, 0, 0]
        cand = [i for i in np.flatnonzero(Gd > TOL).tolist() if i not in work]
        Gx = np.matmul(G[cand][:, None, :], x[:, None])[:, 0, 0]
        alpha = 1.0
        blocking = None
        for i, a in zip(cand, ((h[cand] - Gx) / Gd[cand]).tolist()):
            if a < alpha - 1e-14:
                alpha = max(a, 0.0)
                blocking = i
        x = x + alpha * d
        full_step = blocking is None
        if blocking is not None:
            work.append(blocking)
            work = _independent_subset(G, work, n)
    raise QPError("active-set iteration limit exceeded")


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
