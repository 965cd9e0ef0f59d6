"""Integration utilities shared by the rate and dynamics modules.

Adaptive 1-D quadrature (QUADPACK via scipy), a vectorized composite
Gauss-Legendre rule for smooth oscillatory windows, cumulative integrals
on sample grids, and an adaptive RK45 propagator with dense output.
All functions are pure; there is no shared mutable state.  scipy is
imported inside the two functions that use it, so the closed-form paths
(figures, sweep, analytic evolution) never pay for loading it.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "ToleranceSpec",
    "QuadratureError",
    "OdeSolveError",
    "adaptive_quadrature",
    "panel_gauss",
    "cumulative_integral",
    "ode_solve",
]


@dataclass(frozen=True)
class ToleranceSpec:
    """Error-control request: relative, absolute, and a step/subdivision budget."""

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_steps: int = 10_000

    def __post_init__(self):
        if not self.rel_tol > 0.0:
            raise ValueError(f"rel_tol must be positive, got {self.rel_tol}")
        if self.abs_tol < 0.0:
            raise ValueError(f"abs_tol must be nonnegative, got {self.abs_tol}")
        if self.max_steps < 1:
            raise ValueError(f"max_steps must be at least 1, got {self.max_steps}")


class QuadratureError(RuntimeError):
    """Quadrature did not converge; carries the best estimate and its error bound."""

    def __init__(self, message, estimate, error_bound):
        super().__init__(message)
        self.estimate = estimate
        self.error_bound = error_bound


class OdeSolveError(RuntimeError):
    """ODE propagation failed; ``last_t`` is the last time reached successfully."""

    def __init__(self, message, last_t):
        super().__init__(message)
        self.last_t = last_t


def adaptive_quadrature(f, a, b, tol=None, weight=None, wvar=None):
    """Integrate f over [a, b] to the requested tolerance.

    Wraps QUADPACK: plain adaptive Gauss-Kronrod on finite intervals,
    the Fourier transform routine when ``weight`` is 'cos' or 'sin' with
    oscillation frequency ``wvar`` (b may then be +inf).  Raises
    QuadratureError if the estimated absolute error cannot be brought
    below max(abs_tol, rel_tol*|result|) within tol.max_steps
    subdivisions; the exception carries the best estimate.
    """
    if tol is None:
        tol = ToleranceSpec()
    if a > b:
        raise ValueError(f"integration bounds out of order: a={a} > b={b}")
    if a == b:
        return 0.0
    from scipy.integrate import quad

    kwargs = dict(epsabs=tol.abs_tol, epsrel=tol.rel_tol,
                  limit=tol.max_steps, full_output=True)
    if weight is not None:
        kwargs.update(weight=weight, wvar=wvar)
    res = quad(f, a, b, **kwargs)
    estimate, err = res[0], res[1]
    if len(res) > 3:
        # QUADPACK appended a warning message: budget exhausted or roundoff limit
        raise QuadratureError(str(res[3]), estimate=estimate, error_bound=err)
    if err > max(tol.abs_tol, tol.rel_tol * abs(estimate)):
        raise QuadratureError(
            f"estimated error {err:.3e} above requested tolerance",
            estimate=estimate, error_bound=err)
    return estimate


@lru_cache(maxsize=None)
def _gauss_rule(order):
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


def panel_gauss(f, a, b, max_width, order=16, breakpoints=()):
    """Composite Gauss-Legendre quadrature with a cap on panel width.

    ``f`` must accept an array of abscissae and return the values
    elementwise (one vectorized call evaluates every node).  The
    interval is split at any interior ``breakpoints`` first, then each
    segment into uniform panels no wider than ``max_width``.  Exact to
    rounding for polynomials of degree <= 2*order-1 on a single panel;
    for smooth oscillatory integrands choose max_width below half the
    oscillation period.
    """
    if not b > a:
        raise ValueError(f"need b > a, got a={a}, b={b}")
    if not max_width > 0.0:
        raise ValueError(f"max_width must be positive, got {max_width}")
    x, w = _gauss_rule(order)
    edges = [a] + sorted(p for p in breakpoints if a < p < b) + [b]
    nodes, weights = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        n = max(1, int(np.ceil((hi - lo) / max_width)))
        bounds = np.linspace(lo, hi, n + 1)
        mid = 0.5 * (bounds[1:] + bounds[:-1])
        half = 0.5 * (bounds[1:] - bounds[:-1])
        nodes.append((mid[:, None] + half[:, None] * x[None, :]).ravel())
        weights.append((half[:, None] * w[None, :]).ravel())
    nodes = np.concatenate(nodes)
    weights = np.concatenate(weights)
    return float(np.dot(np.asarray(f(nodes), dtype=float), weights))


def cumulative_integral(t, values):
    """Cumulative integral from t[0] of sampled values on a strictly increasing grid.

    Composite trapezoid.  The output is aligned with ``t``: entry i holds
    the integral from t[0] to t[i], so entry 0 is 0.
    """
    t = np.asarray(t, dtype=float)
    values = np.asarray(values, dtype=float)
    if t.ndim != 1 or t.shape != values.shape:
        raise ValueError("t and values must be 1-D arrays of equal length")
    if t.size < 2:
        raise ValueError(f"need at least 2 samples, got {t.size}")
    if t[0] < 0.0:
        raise ValueError(f"grid must start at t >= 0, got t[0]={t[0]}")
    if np.any(np.diff(t) <= 0.0):
        raise ValueError("grid must be strictly increasing")
    steps = np.diff(t) * (values[1:] + values[:-1]) / 2.0
    return np.concatenate(([0.0], np.cumsum(steps)))


def ode_solve(deriv, state0, t_grid, tol=None, max_step=None, first_step=None):
    """Propagate state0 along t_grid with an adaptive RK45 pair.

    ``deriv(t, y) -> dy/dt`` may be real or complex valued; local error
    is controlled by tol.rel_tol / tol.abs_tol and interior steps are
    independent of the output grid (requested times are filled from
    dense output).  Returns an array of shape (len(t_grid), len(state0)).
    Raises OdeSolveError, carrying the last good time, on step failure
    or when tol.max_steps is exhausted.
    """
    if tol is None:
        tol = ToleranceSpec()
    ts = np.asarray(t_grid, dtype=float)
    if ts.ndim != 1 or ts.size < 1:
        raise ValueError("t_grid must be a nonempty 1-D array")
    if np.any(np.diff(ts) <= 0.0):
        raise ValueError("t_grid must be strictly increasing")
    y0 = np.atleast_1d(np.asarray(state0))
    out = np.empty((ts.size, y0.size), dtype=y0.dtype)
    out[0] = y0
    if ts.size == 1:
        return out
    from scipy.integrate import RK45

    solver = RK45(deriv, ts[0], y0, t_bound=ts[-1],
                  rtol=tol.rel_tol, atol=tol.abs_tol,
                  max_step=np.inf if max_step is None else max_step,
                  first_step=first_step)
    idx = 1
    steps = 0
    while idx < ts.size:
        solver.step()
        steps += 1
        # on failure solver.t is still the last accepted time
        if solver.status == "failed":
            raise OdeSolveError("step size underflow", last_t=solver.t)
        dense = solver.dense_output()
        while idx < ts.size and ts[idx] <= solver.t:
            out[idx] = dense(ts[idx])
            idx += 1
        if idx < ts.size and steps >= tol.max_steps:
            raise OdeSolveError(
                f"step budget {tol.max_steps} exhausted", last_t=solver.t)
        if idx < ts.size and solver.status == "finished":
            raise OdeSolveError("integration stopped early", last_t=solver.t)
    return out
