"""Integration utilities shared by the rate and dynamics modules.

Adaptive 1-D quadrature (QUADPACK via scipy), a vectorized composite
Gauss-Legendre rule for smooth oscillatory windows, cumulative integrals
on sample grids, and an adaptive RK45 propagator with dense output.
All functions are pure; there is no shared mutable state.  The
propagator's tolerances and step budget are constants of this module;
the quadrature's are arguments, set by each caller.  scipy is imported
inside the two functions that use it, so the closed-form paths (figures,
sweep, analytic evolution) never pay for loading it.
"""

from functools import lru_cache

import numpy as np

__all__ = [
    "QuadratureError",
    "OdeSolveError",
    "adaptive_quadrature",
    "panel_gauss",
    "cumulative_integral",
    "ode_solve",
]


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


def adaptive_quadrature(f, a, b, rel_tol, abs_tol, limit, weight=None, wvar=None):
    """Integrate f over [a, b] to the requested tolerance.

    Wraps QUADPACK: plain adaptive Gauss-Kronrod on finite intervals,
    the Fourier transform routine when ``weight`` is 'cos' or 'sin' with
    oscillation frequency ``wvar`` (b may then be +inf).  Raises
    QuadratureError if the estimated absolute error cannot be brought
    below max(abs_tol, rel_tol*|result|) within ``limit`` subdivisions;
    the exception carries the best estimate.
    """
    if a > b:
        raise ValueError(f"integration bounds out of order: a={a} > b={b}")
    if a == b:
        return 0.0
    from scipy.integrate import quad

    res = quad(f, a, b, epsabs=abs_tol, epsrel=rel_tol, limit=limit,
               weight=weight, wvar=wvar, full_output=True)
    estimate, err = res[0], res[1]
    if len(res) > 3:
        # QUADPACK appended a warning message: budget exhausted or roundoff limit
        raise QuadratureError(str(res[3]), estimate=estimate, error_bound=err)
    if err > max(abs_tol, rel_tol * abs(estimate)):
        raise QuadratureError(
            f"estimated error {err:.3e} above requested tolerance",
            estimate=estimate, error_bound=err)
    return estimate


_PANEL_BLOCK = 4096     # panels per vectorized call of f: caps each node array
_PANEL_BUDGET = 2**20   # panels per integral; a finer split raises instead


@lru_cache(maxsize=None)
def _gauss_rule():
    return np.polynomial.legendre.leggauss(16)


def panel_gauss(f, a, b, max_width):
    """Composite 16-point Gauss-Legendre quadrature with a cap on panel width.

    ``f`` must accept an array of abscissae and return the values
    elementwise; it is called on blocks of _PANEL_BLOCK panels, so memory
    stays bounded however fine the split.  [a, b] is split into uniform
    panels no wider than ``max_width``; more than _PANEL_BUDGET panels
    raise QuadratureError before f is called.  Exact to rounding for
    polynomials of degree <= 31 on a single panel; for smooth oscillatory
    integrands choose max_width below half the oscillation period.
    """
    if not b > a:
        raise ValueError(f"need b > a, got a={a}, b={b}")
    if not max_width > 0.0:
        raise ValueError(f"max_width must be positive, got {max_width}")
    n = np.ceil((b - a) / max_width)
    if not n <= _PANEL_BUDGET:
        raise QuadratureError(
            f"panel quadrature needs {n:.3g} panels, above the budget of {_PANEL_BUDGET}",
            estimate=np.nan, error_bound=np.inf)
    n = max(1, int(n))
    x, w = _gauss_rule()
    bounds = np.linspace(a, b, n + 1)
    mid = 0.5 * (bounds[1:] + bounds[:-1])
    half = 0.5 * (bounds[1:] - bounds[:-1])
    total = 0.0
    for i in range(0, n, _PANEL_BLOCK):
        m, h = mid[i:i + _PANEL_BLOCK, None], half[i:i + _PANEL_BLOCK, None]
        nodes, weights = (m + h * x).ravel(), (h * w).ravel()
        total += float(np.dot(np.asarray(f(nodes), dtype=float), weights))
    return total


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


_ODE_RTOL = 1e-10           # RK45 local error control, relative
_ODE_ATOL = 1e-12           # and absolute
_ODE_MAX_STEPS = 1_000_000  # accepted steps per call; more raise OdeSolveError


def ode_solve(deriv, state0, t_grid):
    """Propagate state0 along t_grid with an adaptive RK45 pair.

    ``deriv(t, y) -> dy/dt`` may be real or complex valued; local error
    is controlled by _ODE_RTOL / _ODE_ATOL (relative 1e-10, absolute
    1e-12) and interior steps are independent of the output grid
    (requested times are filled from dense output).  Returns an array of
    shape (len(t_grid), len(state0)).  Raises OdeSolveError, carrying the
    last good time, on step failure or after _ODE_MAX_STEPS steps.
    """
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

    # the last step is clamped to t_bound, so a finished solver has filled the grid
    solver = RK45(deriv, ts[0], y0, t_bound=ts[-1], rtol=_ODE_RTOL, atol=_ODE_ATOL)
    idx = 1
    for _ in range(_ODE_MAX_STEPS):
        solver.step()
        # on failure solver.t is still the last accepted time
        if solver.status == "failed":
            raise OdeSolveError("step size underflow", last_t=solver.t)
        if ts[idx] <= solver.t:
            dense = solver.dense_output()
            while idx < ts.size and ts[idx] <= solver.t:
                out[idx] = dense(ts[idx])
                idx += 1
            if idx == ts.size:
                return out
    raise OdeSolveError(f"step budget {_ODE_MAX_STEPS} exhausted", last_t=solver.t)
