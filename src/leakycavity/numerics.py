"""Integration utilities shared by the rate and dynamics modules.

A Fourier-sine tail integral (QUADPACK via scipy), a composite
Gauss-Legendre rule on [0, b] handed out in bounded blocks for smooth
oscillatory windows, and an adaptive DOP853 propagator with dense
output.
All functions are pure; there is no shared mutable state.  The
propagator's tolerances and call budget are constants of this module;
the quadrature's are arguments, set by each caller.  scipy is imported
inside the two functions that use it, so the closed-form paths (figures,
sweep, analytic and single-rate evolution) never pay for loading it.
"""

from functools import lru_cache

import numpy as np

__all__ = [
    "QuadratureError",
    "OdeSolveError",
    "adaptive_quadrature",
    "panel_gauss_blocks",
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


def adaptive_quadrature(f, a, freq, rel_tol, abs_tol, limit):
    """int_a^inf f(x) sin(freq x) dx by QUADPACK's Fourier routine (QAWF).

    ``limit`` caps the subdivisions per cycle.  Raises QuadratureError,
    carrying the best estimate, if the estimated absolute error exceeds
    max(abs_tol, rel_tol*|result|); QUADPACK refuses abs_tol = 0 here.
    """
    from scipy.integrate import quad

    res = quad(f, a, np.inf, epsabs=abs_tol, epsrel=rel_tol, limit=limit,
               weight="sin", wvar=freq, full_output=True)
    estimate, err = res[0], res[1]
    if len(res) > 3:
        # QUADPACK appended a warning message (budget exhausted or roundoff
        # limit), wrapped over several lines: keep it to one
        raise QuadratureError(" ".join(str(res[3]).split()), estimate=estimate,
                              error_bound=err)
    if err > max(abs_tol, rel_tol * abs(estimate)):
        raise QuadratureError(
            f"estimated error {err:.3e} above requested tolerance",
            estimate=estimate, error_bound=err)
    return estimate


_PANEL_BLOCK = 4096     # nodes per block of the rule: 256 panels of 16
_PANEL_BUDGET = 2**20   # panels per integral; a finer split raises instead


@lru_cache(maxsize=None)
def _gauss_rule():
    return np.polynomial.legendre.leggauss(16)


def panel_gauss_blocks(b, max_width):
    """Composite 16-point Gauss-Legendre rule on [0, b], as (nodes, weights) blocks.

    [0, b] is split into ceil(b / max_width) uniform panels, handed out in
    increasing x as blocks of _PANEL_BLOCK nodes (the last may hold
    fewer), so memory stays bounded however fine the split; the integral
    of f is the sum over blocks of f(nodes) . weights.  The blocks depend
    on b and the panel count alone.  More than _PANEL_BUDGET panels raise
    QuadratureError here, before any node is built.  Exact to rounding for
    polynomials of degree <= 31 on a single panel; for smooth oscillatory
    integrands choose max_width below half the oscillation period.
    """
    if not b > 0.0:
        raise ValueError(f"need b > 0, got {b}")
    if not max_width > 0.0:
        raise ValueError(f"max_width must be positive, got {max_width}")
    n = np.ceil(b / max_width)
    if not n <= _PANEL_BUDGET:
        raise QuadratureError(
            f"panel quadrature needs {n:.3g} panels, above the budget of {_PANEL_BUDGET}",
            estimate=np.nan, error_bound=np.inf)
    return _panel_blocks(b, max(1, int(n)))


def _panel_blocks(b, n):
    x, w = _gauss_rule()
    step = b / n
    per = _PANEL_BLOCK // x.size
    for i in range(0, n, per):
        # the edges np.linspace(0, b, n + 1) would give, one block at a time
        edges = np.arange(i, min(i + per, n) + 1) * step
        if i + per >= n:
            edges[-1] = b
        mid = 0.5 * (edges[1:, None] + edges[:-1, None])
        half = 0.5 * (edges[1:, None] - edges[:-1, None])
        yield (mid + half * x).ravel(), (half * w).ravel()


_ODE_RTOL = 1e-10           # DOP853 local error control, relative
_ODE_ATOL = 1e-12           # and absolute
_ODE_MAX_NFEV = 1_000_000   # right-hand-side calls per call; more raise OdeSolveError


def ode_solve(deriv, state0, t_grid):
    """Propagate state0 along t_grid with the adaptive DOP853 method.

    ``deriv(t, y) -> dy/dt`` may be real or complex valued; local error
    is controlled by _ODE_RTOL / _ODE_ATOL (relative 1e-10, absolute
    1e-12) and interior steps are independent of the output grid
    (requested times are filled from dense output).  Returns an array of
    shape (len(t_grid), len(state0)).  Raises OdeSolveError, carrying the
    last good time, on a non-finite derivative at t_grid[0], on step
    failure, after _ODE_MAX_NFEV right-hand-side calls, or once 1% of that
    budget has covered under 1% of the grid's span, a pace that would exhaust it.
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
    from scipy.integrate import DOP853

    # the last step is clamped to t_bound, so a finished solver has filled the grid
    solver = DOP853(deriv, ts[0], y0, t_bound=ts[-1], rtol=_ODE_RTOL, atol=_ODE_ATOL)
    # a NaN first step would make DOP853 reject steps forever inside one step()
    if not np.all(np.isfinite(solver.f)):
        raise OdeSolveError(f"non-finite derivative at t={ts[0]:g}", last_t=ts[0])
    while solver.nfev < _ODE_MAX_NFEV:
        if solver.nfev >= _ODE_MAX_NFEV // 100 and solver.t - ts[0] < 0.01 * (ts[-1] - ts[0]):
            raise OdeSolveError(f"budget of {_ODE_MAX_NFEV} RHS calls would run out: "
                                f"{solver.nfev} calls reached t={solver.t:g}, under 1% of "
                                f"the span to t={ts[-1]:g}", last_t=solver.t)
        solver.step()
        # on failure solver.t is still the last accepted time
        if solver.status == "failed":
            raise OdeSolveError("step size underflow", last_t=solver.t)
        # the grid points in (t_old, t], from one call of this step's interpolant
        start, end = np.searchsorted(ts, (solver.t_old, solver.t), side="right")
        if end > start:
            out[start:end] = solver.dense_output()(ts[start:end]).T
            if end == ts.size:
                return out
    raise OdeSolveError(f"budget of {_ODE_MAX_NFEV} RHS calls exhausted", last_t=solver.t)
