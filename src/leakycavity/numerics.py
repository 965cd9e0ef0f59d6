"""Integration utilities shared by the rate and dynamics modules.

A Fourier-sine tail integral (QUADPACK via scipy), a composite
Gauss-Legendre rule on [0, b] handed out in bounded blocks for smooth
oscillatory windows, and an adaptive DOP853 propagator with dense
output, ported to numpy from Hairer, Norsett & Wanner's method with the
step controller of scipy.integrate.DOP853.
All functions are pure; there is no shared mutable state.  The
propagator's tableau, tolerances and call budget are constants of this
module; the quadrature's are arguments, set by each caller.  scipy is
imported inside the Fourier-tail function alone, so only the quadrature
oracle pays for loading it: figures, sweep, analytic and single-rate
evolution, and the TCL ODE on closed-form rates never do.
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
        # QUADPACK appended a warning (a budget, roundoff, a bad cycle) over
        # several lines; its first sentence names the fault, the rest is
        # advice to read ``info`` that no caller acts on
        first = " ".join(str(res[3]).split()).split(".")[0]
        raise QuadratureError(f"{first} (Fourier tail at frequency {freq:g})",
                              estimate=estimate, error_bound=err)
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


def panel_gauss_blocks(b, n):
    """Composite 16-point Gauss-Legendre rule on [0, b], as (nodes, weights) blocks.

    [0, b] is split into n uniform panels, handed out in increasing x as
    blocks of _PANEL_BLOCK nodes (the last may hold fewer), so memory
    stays bounded however fine the split; the integral of f is the sum
    over blocks of f(nodes) . weights.  The blocks depend on b and n
    alone.  A count n above _PANEL_BUDGET (inf included) raises
    QuadratureError here, before any node is built.  Exact to rounding
    for polynomials of degree <= 31 on a single panel; for smooth
    oscillatory integrands choose n so a panel is below half the
    oscillation period.
    """
    if not b > 0.0:
        raise ValueError(f"need b > 0, got {b}")
    if not n >= 1:
        raise ValueError(f"need at least one panel, got {n}")
    if not n <= _PANEL_BUDGET:
        raise QuadratureError(
            f"panel quadrature needs {n:.3g} panels, above the budget of {_PANEL_BUDGET}",
            estimate=np.nan, error_bound=np.inf)
    return _panel_blocks(b, int(n))


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


def _floats(text):
    return np.array(text.split(), dtype=float)


# Dormand & Prince's DOP853 tableau, as printed in Hairer, Norsett & Wanner,
# "Solving Ordinary Differential Equations I", sec. II.10, and their Fortran code.
# Line s (one indent) opens row s = 1..15 of A, the stage weights A[s, :s]: rows
# 1-11 build the 12 stages, row 12 is the weights B of the 8th-order solution, and
# rows 13-15 are the 3 extra stages of the dense output.
_A = np.zeros((16, 16))
_A[np.tril_indices(16, -1)] = _floats("""
    0.05260015195876773
    0.0197250569845379 0.0591751709536137
    0.02958758547680685 0 0.08876275643042054
    0.2413651341592667 0 -0.8845494793282861 0.924834003261792
    0.037037037037037035 0 0 0.17082860872947386 0.12546768756682242
    0.037109375 0 0 0.17025221101954405 0.06021653898045596 -0.017578125
    0.03709200011850479 0 0 0.17038392571223998 0.10726203044637328 -0.015319437748624402
        0.008273789163814023
    0.6241109587160757 0 0 -3.3608926294469414 -0.868219346841726 27.59209969944671
        20.154067550477894 -43.48988418106996
    0.47766253643826434 0 0 -2.4881146199716677 -0.590290826836843 21.230051448181193
        15.279233632882423 -33.28821096898486 -0.020331201708508627
    -0.9371424300859873 0 0 5.186372428844064 1.0914373489967295 -8.149787010746927
        -18.52006565999696 22.739487099350505 2.4936055526796523 -3.0467644718982196
    2.273310147516538 0 0 -10.53449546673725 -2.0008720582248625 -17.9589318631188
        27.94888452941996 -2.8589982771350235 -8.87285693353063 12.360567175794303
        0.6433927460157636
    0.054293734116568765 0 0 0 0 4.450312892752409 1.8915178993145003 -5.801203960010585
        0.3111643669578199 -0.1521609496625161 0.20136540080403034 0.04471061572777259
    0.056167502283047954 0 0 0 0 0 0.25350021021662483 -0.2462390374708025 -0.12419142326381637
        0.15329179827876568 0.00820105229563469 0.007567897660545699 -0.008298
    0.03183464816350214 0 0 0 0 0.028300909672366776 0.053541988307438566 -0.05492374857139099 0 0
        -0.00010834732869724932 0.0003825710908356584 -0.00034046500868740456 0.1413124436746325
    -0.42889630158379194 0 0 0 0 -4.697621415361164 7.683421196062599 4.06898981839711
        0.3567271874552811 0 0 0 -0.0013990241651590145 2.9475147891527724 -9.15095847217987""")
_B = _A[12, :12]
_C = _floats("""
    0 0.05260015195876773 0.0789002279381516 0.1183503419072274 0.2816496580927726
    0.3333333333333333 0.25 0.3076923076923077 0.6512820512820513 0.6 0.8571428571428571 1.0 1.0
    0.1 0.2 0.7777777777777778""")
# the error estimators over the 12 stages and f at the step's end: E5 of 5th order,
# E3 = B - BHH of 3rd order
_E5 = _floats("""
    0.01312004499419488 0 0 0 0 -1.2251564463762044 -0.4957589496572502 1.6643771824549864
    -0.35032884874997366 0.3341791187130175 0.08192320648511571 -0.022355307863886294 0""")
_E3 = np.append(_B, 0.0)
_E3[[0, 8, 11]] -= (0.2440944881889764, 0.7338466882816118, 0.022058823529411766)
# the interpolant's coefficients 4-7 over all 16 stages (one indent opens a row)
_D = _floats("""
    -8.428938276109013 0 0 0 0 0.5667149535193777 -3.0689499459498917 2.38466765651207
        2.117034582445028 -0.871391583777973 2.2404374302607883 0.6315787787694688
        -0.08899033645133331 18.148505520854727 -9.194632392478356 -4.436036387594894
    10.427508642579134 0 0 0 0 242.28349177525817 165.20045171727028 -374.5467547226902
        -22.113666853125306 7.733432668472264 -30.674084731089398 -9.332130526430229
        15.697238121770845 -31.139403219565178 -9.35292435884448 35.81684148639408
    19.985053242002433 0 0 0 0 -387.0373087493518 -189.17813819516758 527.8081592054236
        -11.57390253995963 6.8812326946963 -1.0006050966910838 0.7777137798053443
        -2.778205752353508 -60.19669523126412 84.32040550667716 11.99229113618279
    -25.69393346270375 0 0 0 0 -154.18974869023643 -231.5293791760455 357.6391179106141
        93.40532418362432 -37.45832313645163 104.0996495089623 29.8402934266605 -43.53345659001114
        96.32455395918828 -39.17726167561544 -149.72683625798564""").reshape(4, 16)


def _rms(x):
    return np.linalg.norm(x) / x.size ** 0.5


def _initial_step(fun, t, y, f, t_bound):
    """Hairer, Norsett & Wanner's first-step guess (sec. II.4) for an order-7 error."""
    span = abs(t_bound - t)
    scale = _ODE_ATOL + np.abs(y) * _ODE_RTOL
    d0, d1 = _rms(y / scale), _rms(f / scale)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, span)
    d2 = _rms((fun(t + h0, y + h0 * f) - f) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.125
    return min(100 * h0, h1, span)


def _dop853_steps(fun, t, y, t_bound):
    """Yield (t_old, t, interpolant) for each accepted DOP853 step until t_bound.

    The step controller and the dense output are those of
    ``scipy.integrate.DOP853``: the error norm of the E5/E3 pair, safety
    factor 0.9, step factors within [0.2, 10], and a step clamped to
    t_bound.  ``interpolant(ts)`` returns the states at the times ts in
    [t_old, t] as rows; each call evaluates the 3 extra stages, and it
    holds only until the next step is drawn.  Raises OdeSolveError on a
    non-finite derivative at the start and once the step falls below ten
    ulps of t.
    """
    f = fun(t, y)
    # a NaN derivative makes a NaN first step, which no underflow test catches:
    # it would be rejected forever
    if not np.all(np.isfinite(f)):
        raise OdeSolveError(f"non-finite derivative at t={t:g}", last_t=t)
    h_abs = _initial_step(fun, t, y, f, t_bound)
    K = np.empty((16, y.size), dtype=y.dtype)
    while t < t_bound:
        min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
        h_abs, rejected = max(h_abs, min_step), False
        while True:
            if h_abs < min_step:
                raise OdeSolveError("step size underflow", last_t=t)
            t_new = min(t + h_abs, t_bound)
            h = t_new - t
            h_abs = np.abs(h)
            K[0] = f
            for s in range(1, 12):
                K[s] = fun(t + _C[s] * h, y + np.dot(K[:s].T, _A[s, :s]) * h)
            y_new = y + h * np.dot(K[:12].T, _B)
            K[12] = f_new = fun(t + h, y_new)
            scale = _ODE_ATOL + np.maximum(np.abs(y), np.abs(y_new)) * _ODE_RTOL
            e5 = np.linalg.norm(np.dot(K[:13].T, _E5) / scale) ** 2
            e3 = np.linalg.norm(np.dot(K[:13].T, _E3) / scale) ** 2
            if e5 == 0 and e3 == 0:
                err = 0.0
            else:
                err = np.abs(h) * e5 / np.sqrt((e5 + 0.01 * e3) * y.size)
            if err < 1:
                factor = 10 if err == 0 else min(10, 0.9 * err ** -0.125)
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(0.2, 0.9 * err ** -0.125)
            rejected = True
        t_old, y_old, f_old = t, y, f
        t, y, f = t_new, y_new, f_new

        def interpolant(ts):
            for s in range(13, 16):
                K[s] = fun(t_old + _C[s] * h, y_old + np.dot(K[:s].T, _A[s, :s]) * h)
            dy = y - y_old
            F = [dy, h * f_old - dy, 2 * dy - h * (f + f_old), *(h * np.dot(_D, K))]
            x = ((ts - t_old) / h)[:, None]
            out = np.zeros((x.size, y.size), dtype=y.dtype)
            for i, c in enumerate(reversed(F)):
                out += c
                out *= x if i % 2 == 0 else 1 - x
            return out + y_old

        yield t_old, t, interpolant


def ode_solve(deriv, state0, t_grid):
    """Propagate state0 along t_grid with the adaptive DOP853 method.

    ``deriv(t, y) -> dy/dt`` may be real or complex valued; local error
    is controlled by _ODE_RTOL / _ODE_ATOL (relative 1e-10, absolute
    1e-12) and interior steps are independent of the output grid
    (requested times are filled from dense output).  The integrator is
    _dop853_steps, Dormand and Prince's eighth-order pair with its
    seventh-degree interpolant, in numpy alone.  Returns an array of
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
    y0 = np.atleast_1d(np.asarray(state0, dtype=complex if np.iscomplexobj(state0) else float))
    out = np.empty((ts.size, y0.size), dtype=y0.dtype)
    out[0] = y0
    if ts.size == 1 or y0.size == 0:  # nothing to step
        return out
    nfev = 0

    def fun(t, y):
        nonlocal nfev
        nfev += 1
        return np.asarray(deriv(t, y), dtype=y0.dtype)

    # the last step is clamped to ts[-1], so it fills the grid and ends the loop
    for t_old, t, interpolant in _dop853_steps(fun, ts[0], y0, ts[-1]):
        # the grid points in (t_old, t], from one call of this step's interpolant
        start, end = np.searchsorted(ts, (t_old, t), side="right")
        if end > start:
            out[start:end] = interpolant(ts[start:end])
        if end == ts.size:
            break
        if nfev >= _ODE_MAX_NFEV:
            raise OdeSolveError(f"budget of {_ODE_MAX_NFEV} RHS calls exhausted", last_t=t)
        if nfev >= _ODE_MAX_NFEV // 100 and t - ts[0] < 0.01 * (ts[-1] - ts[0]):
            raise OdeSolveError(f"budget of {_ODE_MAX_NFEV} RHS calls would run out: "
                                f"{nfev} calls reached t={t:g}, under 1% of "
                                f"the span to t={ts[-1]:g}", last_t=t)
    return out
