"""Small dense convex QP via a dual active-set method.

Solves  min 1/2 x'Hx + c'x  s.t.  Gx <= h  for positive-definite H with the
method of Goldfarb & Idnani ("A numerically stable dual method for solving
strictly convex quadratic programs", Math. Programming 27, 1983).  It needs
no start point: it starts at the unconstrained minimizer and adds violated
rows one at a time, so the iterate stays optimal over its active set and
becomes feasible only at the end.  Problem sizes here are tiny (a handful of
decision variables, a few hundred inequality rows), so plain dense linear
algebra is adequate.
"""

from __future__ import annotations

import numpy as np

TOL = 1e-10  # violation and row-dependence tolerance, per unit row norm
MAX_ITER = 200  # active-set iterations before QPError


class QPError(Exception):
    pass


def solve_qp(H, c, G, h):
    """Dual active-set QP.

    Returns (x, active) where `active` lists the row indices of G that bind
    at x, in the order they entered.  Raises QPError on a NaN input, if the
    rows admit no feasible point, or if `MAX_ITER` iterations do not reach one.
    """
    c = np.asarray(c, dtype=float)
    G = np.atleast_2d(np.asarray(G, dtype=float))
    h = np.asarray(h, dtype=float)
    if any(np.isnan(value).any() for value in (H, c, G, h)):
        raise QPError("H, c, G or h holds a NaN")
    # in y = L'x, with H = LL', the objective is 1/2 |y|^2 + (L^-1 c)'y: the
    # metric of every projection below is the plain Euclidean one
    Li = np.linalg.inv(np.linalg.cholesky(np.asarray(H, dtype=float)))
    Gy = G @ Li.T
    norms = np.linalg.norm(Gy, axis=1)
    zero = norms == 0.0
    if np.any(h[zero] < 0.0):
        raise QPError("a zero constraint row has a negative bound")
    norms[zero] = np.inf  # a zero row with h >= 0 never binds

    y = 0.0 - Li @ c  # the unconstrained minimizer, +0.0 rather than -0.0 at c = 0
    active, u = [], np.zeros(0)  # binding rows and their multipliers
    p = None  # the violated row being added
    for _ in range(MAX_ITER):
        if p is None:
            viol = (Gy @ y - h) / norms
            p = int(np.argmax(viol))
            if viol[p] <= TOL:
                return Li.T @ y, active
            up = 0.0
        # split row p into its part in the span of the active rows (weights r)
        # and the part w orthogonal to it: moving y along -w reduces row p's
        # violation and keeps every active row binding
        N = Gy[active].T
        r = np.linalg.lstsq(N, Gy[p], rcond=None)[0]
        w = Gy[p] - N @ r
        ww = float(w @ w)
        full = (Gy[p] @ y - h[p]) / ww if ww > (TOL * norms[p]) ** 2 else np.inf
        # raising row p's multiplier by t lowers the active ones by t r; the
        # partial step stops where the first of them reaches zero
        drop = np.flatnonzero(r > 0.0)
        ratios = u[drop] / r[drop]
        partial = float(np.min(ratios)) if len(drop) else np.inf
        t = min(full, partial)
        if t == np.inf:
            raise QPError("the constraints are infeasible")
        u, up = u - t * r, up + t
        if full < np.inf:
            y = y - t * w
        if full <= partial:
            active.append(p)
            u = np.append(u, up)
            p = None
        else:
            k = int(drop[np.argmin(ratios)])
            active.pop(k)
            u = np.delete(u, k)
    raise QPError("active-set iteration limit exceeded")
