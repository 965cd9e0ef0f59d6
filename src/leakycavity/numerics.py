"""Integration utilities: the quadrature oracle's rules and the TCL ODE's propagator.

The spectral module's quadrature oracle uses the Gauss-Legendre rule on
[0, 1] and a Fourier-sine tail integral over many frequencies at once
(Gauss panels and an accelerated sum over half-periods).  The dynamics
module uses ode_solve, one loop that steps y' = A(t) y by Dormand &
Prince's DOP853, ported to numpy from Hairer, Norsett & Wanner, and
fills its output grid from the dense output of many accepted steps at once.
Both take their time checks from here: _time_grid and _check_nonnegative_time.
All functions are pure; there is no shared mutable state.  The
propagator's tableau, tolerances and call budget are constants of this
module, as are the tail's rules and its relative tolerance; only the
tail's absolute tolerance, which scales with the integrand, is its
caller's.  Everything here is numpy: no route of the package
imports scipy, which the tests use as a reference alone.
"""

from functools import lru_cache

import numpy as np

__all__ = [
    "QuadratureError",
    "OdeSolveError",
    "fourier_sine_tail",
    "gauss_legendre",
    "ode_solve",
]


class QuadratureError(ArithmeticError):
    """Quadrature missed its tolerance or would pass its budget; the message gives the numbers."""


class OdeSolveError(ArithmeticError):
    """ODE propagation failed; ``last_t`` is the last time reached successfully."""

    def __init__(self, message, last_t):
        super().__init__(message)
        self.last_t = last_t


def _check_nonnegative_time(t):
    if (np.asarray(t) < 0.0).any():
        raise ValueError("t must be nonnegative")


def _time_grid(t_grid):
    """t_grid as a 1-D float array of finite times from t >= 0, strictly increasing;
    each comparison is written so that a NaN fails it."""
    ts = np.asarray(t_grid, dtype=float)
    if ts.ndim != 1 or ts.size < 1:
        raise ValueError("t_grid must be a nonempty 1-D array")
    if not (ts[0] >= 0.0 and ts[-1] < np.inf and np.all(np.diff(ts) > 0.0)):
        raise ValueError("t_grid must be finite, start at t >= 0 and strictly increase")
    return ts


_TAIL_TERMS = 28    # half-periods in its accelerated sum; the error estimate drops 8
_TAIL_RTOL = 1e-10  # the tail's relative tolerance


@lru_cache(maxsize=None)
def gauss_legendre(n):
    """The n-point Gauss-Legendre rule on [0, 1], as (nodes, weights).

    numpy's nodes, with weights from Bonnet's recurrence: numpy's own,
    rescaled to sum to 2, are 3e-15 high in the middle at n = 20;
    2 (1 - x^2) / (n (P_{n-1}(x) - x P_n(x)))^2 at its nodes is not.
    Exact to rounding for polynomials of degree <= 2n - 1.  Each n's
    arrays are built once and shared, so they are read-only.
    """
    x, _ = np.polynomial.legendre.leggauss(n)
    p0, p1 = np.ones(n), x  # P_{k-1}(x), P_k(x) by Bonnet's recurrence
    for k in range(2, n + 1):
        p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
    rule = 0.5 * (x + 1.0), (1.0 - x) * (1.0 + x) / (n * (p0 - x * p1)) ** 2
    for a in rule:
        a.flags.writeable = False
    return rule


@lru_cache(maxsize=None)
def _cvz_weights(n, size):
    """w, zero past n, with sum_k (-1)^k a_k ~ sum_k w_k a_k: algorithm 1 of Cohen,
    Rodriguez Villegas & Zagier, off by about 5.8^-n for a moment sequence a_k.
    Built once per (n, size) and shared, so read-only."""
    d = (3.0 + 8.0 ** 0.5) ** n
    d = 0.5 * (d + 1.0 / d)
    b, c, w = -1.0, -d, np.zeros(size)
    for k in range(n):
        c = b - c
        w[k] = c / d
        b = (k + n) * (k - n) * b / ((k + 0.5) * (k + 1.0))
    w.flags.writeable = False
    return w


def _tail_pieces(f, a, origin, t, nodes):
    """(the tail from a to x0, (-1)^k times the integral over each of the
    _TAIL_TERMS half-periods [x0 + k pi/t, x0 + (k + 1) pi/t]) for each t."""
    xi, w = gauss_legendre(nodes)
    head, gap = np.zeros(t.size), a - origin
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        inv, half = 1.0 / t, np.pi / t  # inf at a subnormal t
        x0 = origin + np.maximum(gap, inv) if gap > 0.0 else np.full(t.size, a)
        phase = t * x0
        # the times whose half-periods and phase t x0 are finite (all terms >= 0)
        rows = np.flatnonzero(np.isfinite(x0 + _TAIL_TERMS * half + phase))
    # [a, x0] where (x - origin) t < 1: panels at most one unit of ln(x - origin)
    # wide, the last ending at the largest float where 1/t overflows
    logs = np.flatnonzero(inv > gap) if gap > 0.0 else np.empty(0, dtype=int)
    u0 = np.log(gap) if logs.size else 0.0
    span = np.log(np.minimum(inv[logs], np.finfo(float).max)) - u0
    count = np.ceil(span)
    step = span / count
    for k in range(int(count.max(initial=0))):
        live = count > k
        r, h = logs[live], step[live, None]
        y = np.exp(u0 + (k + xi) * h)
        x = origin + y
        head[r] += np.einsum("ij,j->i", f(x) * y * np.sin(t[r, None] * x), w) * h[:, 0]
    # on the k-th half-period past x0, sin(t x) = (-1)^k sin(t x0 + pi xi)
    s, c = np.sin(phase[rows, None]), np.cos(phase[rows, None])
    kernel = w * (s * np.cos(np.pi * xi) + c * np.sin(np.pi * xi))
    x = x0[rows, None, None] + (np.arange(_TAIL_TERMS)[:, None] + xi) * half[rows, None, None]
    terms = np.zeros((t.size, _TAIL_TERMS))
    terms[rows] = np.einsum("ijk,ik->ij", f(x), kernel) * half[rows, None]
    return head, terms


def fourier_sine_tail(f, a, origin, freqs, abs_tol):
    """int_a^inf f(x) sin(t x) dx for each t > 0 in freqs, with 0 <= origin <= a.

    ``f`` maps an array of nodes in [a, inf) to its values there; it must
    be smooth there and decay monotonically to 0, and ``origin`` is the
    real part of its nearest singularity (0 for one at x = 0).  Two
    pieces, with x0 = origin + max(a - origin, 1/t), or a if a = origin:
    [a, x0] on panels at most one unit of ln(x - origin) wide, where
    (x - origin) t < 1; and _TAIL_TERMS half-periods pi/t wide from x0,
    on each of which sin(t x) is (-1)^k (sin(t x0) cos(pi xi) + cos(t x0)
    sin(pi xi)) at x = x0 + (k + xi) pi/t, whose alternating sum is
    accelerated by Cohen, Rodriguez Villegas & Zagier (Experiment. Math.
    9, 2000).  Every panel takes a 20-point Gauss-Legendre rule.  Where a
    half-period overflows (t below about 2e-308), or t x0 does, the tail
    past x0 is dropped.  f is called with overflow ignored: at a small t
    the far nodes are where a decaying f's terms overflow, and f reads its
    limit 0.  The error estimate adds the change from 16-point rules and
    from 8 accelerated terms fewer; above max(abs_tol, the smallest normal
    float, _TAIL_RTOL*|result|) it raises QuadratureError quoting both
    numbers (the floor keeps a zero abs_tol from asking for the relative
    accuracy of rounding noise), and a non-finite f gives a non-finite
    result instead.  The whole batch is taken at once, so the temporaries
    grow with it (a peak of about 27 kB a time); a time's value does not
    depend on the rest of the batch.
    """
    t = np.asarray(freqs, dtype=float)
    accel, check = (_cvz_weights(n, _TAIL_TERMS) for n in (_TAIL_TERMS, _TAIL_TERMS - 8))
    with np.errstate(over="ignore"):
        (head, terms), (head16, terms16) = (_tail_pieces(f, a, origin, t, n) for n in (20, 16))
        value = head + np.einsum("ij,j->i", terms, accel)
        err = (np.abs(value - head16 - np.einsum("ij,j->i", terms16, accel))
               + np.abs(np.einsum("ij,j->i", terms, accel - check)))
    tol = np.maximum(max(abs_tol, np.finfo(float).tiny), _TAIL_RTOL * np.abs(value))
    bad = np.flatnonzero(err > tol)
    if bad.size:
        j = bad[0]
        raise QuadratureError(
            f"Fourier tail at frequency {t[j]:g}: estimated error {err[j]:.3e} "
            f"above the tolerance {tol[j]:.3e}")
    return value


_ODE_RTOL = 1e-10           # DOP853 local error control, relative
_ODE_ATOL = 1e-12           # and absolute
_ODE_MAX_NFEV = 1_000_000   # right-hand-side calls per call; more raise OdeSolveError
# accepted steps whose dense output is computed at once; for a small system this cap, not
# the 1 MB rule on the stage matrices, bounds the stage buffer, the queue and the Horner rows
_ODE_DENSE_STEPS = 256


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


def _initial_step(stages, t, y, f, t_bound):
    """Hairer, Norsett & Wanner's first-step guess (sec. II.4) for an order-7 error."""
    span = abs(t_bound - t)
    scale = _ODE_ATOL + np.abs(y) * _ODE_RTOL
    d0, d1 = _rms(y / scale), _rms(f / scale)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, span)
    d2 = _rms((stages(np.array([t + h0]))[0] @ (y + h0 * f) - f) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.125
    return min(100 * h0, h1, span)


def ode_solve(generator, state0, t_grid):
    """Propagate state0 along t_grid under y' = A(t) y with the adaptive DOP853 method.

    ``generator(ts)`` returns A, real or complex, at every time of the 1-D
    array ts as a (len(ts), n, n) stack.  A step attempt asks for its 12
    stage times at once, the last giving f at the new state.  Step control
    is ``scipy.integrate.DOP853``'s: the E5/E3 error norm against _ODE_RTOL
    and _ODE_ATOL (relative 1e-10, absolute 1e-12), safety factor 0.9, step
    factors within [0.2, 10], the last step clamped to t_grid[-1]; no other
    step depends on the grid.  An accepted step that covers grid points is
    queued, its 3 dense stage times counted at once; with _ODE_DENSE_STEPS
    (256) queued (fewer if their stage matrices pass 1 MB) or the grid covered,
    one call asks for all of theirs, and each step's seventh-degree
    interpolant fills its points, bit for bit as alone.  t_grid must be
    finite, from t >= 0 and strictly increasing, else (NaN too) it is a
    ValueError.  Returns an array of shape (len(t_grid), len(state0)).
    Raises OdeSolveError, carrying the last good time, on a non-finite
    derivative at t_grid[0], once the step is under 10 ulps of t, or,
    after a step that leaves the grid unfilled, once _ODE_MAX_NFEV stage
    times are spent or 1% of them has covered under 1% of the span.
    """
    ts = _time_grid(t_grid)
    y = np.atleast_1d(np.asarray(state0, dtype=complex if np.iscomplexobj(state0) else float))
    out = np.empty((ts.size, y.size), dtype=y.dtype)
    out[0] = y
    if ts.size == 1 or y.size == 0:  # nothing to step
        return out
    nfev = 0

    def stages(times):
        nonlocal nfev
        nfev += times.size
        return np.asarray(generator(times), dtype=out.dtype)

    t, t_end, filled = ts[0], ts[-1], 1
    f = stages(np.array([t]))[0] @ y
    # a NaN derivative makes a NaN first step, which no underflow test catches:
    # it would be rejected forever
    if not np.all(np.isfinite(f)):
        raise OdeSolveError(f"non-finite derivative at t={t:g}", last_t=t)
    h_abs = _initial_step(stages, t, y, f, t_end)
    size = max(1, min(_ODE_DENSE_STEPS, 2 ** 20 // (3 * y.size ** 2 * y.itemsize)))
    Ks, queue, done = np.empty((size, 16, y.size), dtype=y.dtype), [], 1
    while True:
        min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
        h_abs, rejected, K = max(h_abs, min_step), False, Ks[len(queue)]
        while True:
            if h_abs < min_step:
                raise OdeSolveError(f"step size underflow at t={t:g}", last_t=t)
            t_new = min(t + h_abs, t_end)
            h = t_new - t
            h_abs = np.abs(h)
            K[0] = f
            for s, A_s in enumerate(stages(t + _C[1:13] * h), 1):
                K[s] = A_s @ (y + np.dot(K[:s].T, _A[s, :s]) * h)
            y_new = y + h * np.dot(K[:12].T, _B)
            f_new = K[12].copy()
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
        # the flush fills (t, t_new] from this step's dense output; its 3 stage times count now
        end = np.searchsorted(ts, t_new, side="right")
        if end > filled:
            queue.append((t, h, end, y, y_new))
            filled, nfev = end, nfev + 3
        if len(queue) == size or filled == ts.size:
            T, H, ends, Y, Y_new = map(np.array, zip(*queue))
            T, H, Q = T[:, None], H[:, None], Ks[:len(queue)]
            A = np.asarray(generator((T + _C[13:16] * H).ravel()), dtype=out.dtype)
            for s in range(13, 16):  # a stacked @ keeps each step's bits; einsum does not
                Q[:, s] = (A[s - 13::3] @ (Y + (_A[s, :s] @ Q[:, :s]) * H)[..., None])[..., 0]
            dy = Y_new - Y
            F = [dy, H * Q[:, 0] - dy, 2 * dy - H * (Q[:, 12] + Q[:, 0]),
                 *(H * (_D @ Q).swapaxes(0, 1))]
            step = np.repeat(np.arange(len(queue)), np.diff(ends, prepend=done))
            x = (ts[done:filled, None] - T[step]) / H[step]
            dense = out[done:filled]
            dense[:] = 0
            for i, c in enumerate(reversed(F)):
                dense += c[step]
                dense *= x if i % 2 == 0 else 1 - x
            dense += Y[step]
            queue, done = [], filled
        t, y, f = t_new, y_new, f_new
        if filled == ts.size:
            return out
        if nfev >= _ODE_MAX_NFEV:
            raise OdeSolveError(f"budget of {_ODE_MAX_NFEV} RHS calls exhausted at t={t:g}",
                                last_t=t)
        if nfev >= _ODE_MAX_NFEV // 100 and t - ts[0] < 0.01 * (t_end - ts[0]):
            raise OdeSolveError(f"budget of {_ODE_MAX_NFEV} RHS calls would run out: "
                                f"{nfev} calls reached t={t:g}, under 1% of "
                                f"the span to t={t_end:g}", last_t=t)
