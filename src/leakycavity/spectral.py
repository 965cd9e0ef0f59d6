"""Lorentzian reservoir spectrum and the time-dependent decay rates it induces.

The cavity loss reservoir is characterized by the spectral density

    J(omega) = (1/2pi) * alpha * lam**2 / ((detuning - omega)**2 + lam**2),

a Lorentzian of half-width lam and integrated weight alpha*lam/2, with
frequencies as offsets from omega0: it peaks at detuning = omega1 - omega0,
and the decay rate of a dressed channel at offset omega = -+Omega is, to
second order in the coupling, the partial Fourier cosine transform

    gamma(omega, t) = 2 Re int_0^t dtau int domega' e^{i(omega-omega')tau} J(omega'),

which for the Lorentzian evaluates in closed form: the omega' integral
leaves one correlation (alpha lam/2) e^{-z tau}, z = lam - i(detuning - omega),
and the rate and its time integral are the exponential-integrator
phi-functions of -z t.  This module provides the closed form, its
stationary limit 2*pi*J(omega), the accumulated rate
I(omega, t) = int_0^t gamma, and a brute-force quadrature oracle that
evaluates the double integral directly without using the closed form:
after the time integral, one window integral and one Fourier tail over
the distance x = |omega' - omega| from the channel frequency.
"""

import math
from dataclasses import dataclass

import numpy as np

from .numerics import QuadratureError, _check_nonnegative_time, fourier_sine_tail, gauss_legendre

__all__ = [
    "LorentzianSpectrum",
    "rate_closed_form",
    "stationary_rate",
    "rate_quadrature_oracle",
    "accumulated_rate",
]


@dataclass(frozen=True)
class LorentzianSpectrum:
    """Reservoir parameters: coupling alpha, half-width lam, peak detuning omega1 - omega0.

    ``lam`` is the spectral width (inverse memory time); the name avoids
    the reserved word, config files spell it ``reservoir.lambda``.
    """

    alpha: float
    lam: float
    detuning: float

    def __post_init__(self):
        if not self.alpha > 0.0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if not self.lam > 0.0:
            raise ValueError(f"lam must be positive, got {self.lam}")


def _exponent(s, omega):
    """z = lam - i(detuning - omega): the correlation at channel omega is (alpha lam/2) e^{-z tau}."""
    return s.lam - 1j * (s.detuning - omega)


# 1/(k + p)! for k = 0..11, highest first: Horner order for the series of phi_p
_PHI_SERIES = {p: [1.0 / math.factorial(k + p) for k in reversed(range(12))] for p in (1, 2)}


def _phi(w, p):
    """phi_1(w) = expm1(w)/w, or phi_2(w) = (phi_1(w) - 1)/w for p = 2, elementwise.

    Inside |w| < 0.1, where the quotients cancel (and read 0/0 at w = 0),
    the Taylor series sum_k w^k/(k + p)! to 12 terms takes over; it is
    evaluated on those entries alone, as it overflows on large ones.
    """
    w = np.asarray(w)
    small = np.abs(w) < 0.1
    any_small = small.any()
    big = np.where(small, 1.0, w) if any_small else w
    phi = np.expm1(big) / big
    if p == 2:
        phi = (phi - 1.0) / big  # not (expm1(w) - w)/w**2, whose square overflows
    if any_small:
        phi, w = np.asarray(phi), w[small]
        series = 0.0
        for c in _PHI_SERIES[p]:
            series = series * w + c
        phi[small] = series
    return phi[()]


def rate_closed_form(s, omega, t):
    """Decay rate gamma(omega, t) for the Lorentzian reservoir.

    gamma = alpha lam t Re phi_1(-z t), z = lam - i(detuning - omega) (see
    docs/rate_integral.md).  Exactly zero at t = 0 for every omega;
    relaxes to the stationary value alpha lam Re(1/z) = 2 pi J(omega) on
    the memory time 1/lam.  For channels detuned by |detuning - omega| > lam
    the transient oscillates and the rate goes negative over part of the
    first few periods.  Broadcasts over omega and t: the channel axis
    SystemParams.channels[:, None] against a time grid gives both channels.
    """
    _check_nonnegative_time(t)
    return s.alpha * s.lam * t * _phi(-_exponent(s, omega) * t, 1).real


def stationary_rate(s, omega):
    """Long-time limit of the rate, alpha lam Re(1/z) = 2 pi J(omega)."""
    return s.alpha * s.lam * (1.0 / _exponent(s, omega)).real


_WINDOW_HALFWIDTHS = 200  # K in the oracle docstring
_ROWS = 32                # times per block: the window's sums over panels, then the tail
_PANEL_BLOCK = 256        # panels per kernel block: 4096 nodes of the 16-point rule
_PANEL_BUDGET = 2**20     # panels per window; a finer split raises instead


def rate_quadrature_oracle(s, omega, t):
    """gamma(omega, t) by direct quadrature of the spectral-density integral.

    Performs the time integral analytically under the omega' integral and
    folds the result about omega (x = |omega' - omega|), so that both sides
    share the kernel sin(x t)/x:

        gamma(omega, t) = int_0^inf [J(omega+x) + J(omega-x)] * 2 sin(x t)/x dx.

    The x integral is evaluated numerically: composite Gauss-Legendre on
    the window [0, R], R = |detuning - omega| + K half-widths with K = 200,
    in base * 2**k panels, base = ceil(R / (lam/2)), at the time's level
    k = max(0, ceil(log2(t lam / (4 pi)))), each at most half a half-width
    and one oscillation period 2 pi/t of the kernel wide, plus the Fourier-sine
    tail of the smooth integrand 2 [J(omega+x) + J(omega-x)]/x on
    [R, inf) by numerics.fourier_sine_tail (panels in ln(x - |detuning -
    omega|) up to x t ~ 1, then half-periods of sin(x t) summed with
    Cohen-Rodriguez Villegas-Zagier acceleration), to the tail's relative
    1e-10 and absolute 1e-12 alpha.  No use is made of the closed-form
    result; this is a test oracle, not a fast path.
    Broadcasts over omega and t like rate_closed_form.  The window [0, R]
    does not depend on t: per distinct omega, every time of one level
    shares one panel set.  The n panels are 2h wide, h = R/(2n), and node
    j of panel p is x = e_p + u_j: the panel's left edge e_p = 2ph plus
    the Gauss offset u_j = 2h x_j, with (x_j, w_j) the 16-point
    Gauss-Legendre rule on [0, 1], the same in every panel, as is its
    weight 2h w_j.  By angle addition the window is
    sum_j [cos(t u_j) U_j + sin(t u_j) V_j] with U_j = sum_p sin(t e_p) W_pj
    and V_j = sum_p cos(t e_p) W_pj, W_pj the folded weight times 2h w_j:
    two sines per time and panel, not one per time and node.  The times go
    in blocks of _ROWS: each level in a block sums U and V over its
    panels, _PANEL_BLOCK at a time, so memory stays bounded however fine
    the split, and then the block takes its tail.  A point's value does
    not depend on the rest of the batch.  The panel count doubles with
    each level, and past _PANEL_BUDGET (t above about 7.7e4 at lam = 1/3)
    the oracle raises QuadratureError, checking the top level's count
    before it evaluates any of that omega's window.
    """
    _check_nonnegative_time(t)
    omega, t = np.broadcast_arrays(np.asarray(omega, dtype=float), np.asarray(t, dtype=float))
    channels, which = np.unique(omega.ravel(), return_inverse=True)
    which = which.reshape(omega.shape)
    out = np.empty(omega.shape)
    for k, w in enumerate(channels.tolist()):
        at = which == k
        out[at] = _oracle_channel(s, w, t[at])
    return out[()]


def _oracle_channel(s, omega, t):
    """rate_quadrature_oracle at one float omega over a 1-D array of times."""
    d = float(s.detuning - omega)
    lam2 = float(s.lam * s.lam)  # a product overflows to inf where lam**2 would raise
    c = float(s.alpha * lam2 / np.pi)  # 2 J(omega') = c / ((detuning - omega')^2 + lam2)
    R = abs(d) + _WINDOW_HALFWIDTHS * float(s.lam)
    # J at the peak reads 0/0, or the detuning overflows: NaN, as in the closed forms
    if lam2 == 0.0 or not R < np.inf:
        return np.full(t.shape, np.nan)

    def folded(x):  # 2 [J(omega+x) + J(omega-x)] / x, at a float or over an array
        u, v = d - x, d + x
        return (c / (u * u + lam2) + c / (v * v + lam2)) / x

    out = np.where(t > 0.0, 0.0, t)  # 0 at t = 0, NaN at a NaN time
    rows = np.flatnonzero(t > 0.0)
    if rows.size == 0:
        return out
    # level k: base * 2**k panels, at most lam/2 and, as 2**k >= t lam/(4 pi), one
    # period 2 pi/t wide; a count past the float range (t = inf) fails the budget
    level = np.maximum(np.ceil(np.log2(t[rows]) + np.log2(s.lam / (4.0 * np.pi))), 0.0)
    with np.errstate(over="ignore"):
        base = np.ceil(R / (s.lam / 2.0))
        top = base * np.exp2(level.max())
    if not top <= _PANEL_BUDGET:  # checked before any node is built
        raise QuadratureError(
            f"panel quadrature needs {top:.3g} panels, above the budget of {_PANEL_BUDGET}")
    xi, w = gauss_legendre(16)
    for i in range(0, rows.size, _ROWS):
        block, levels = rows[i:i + _ROWS], level[i:i + _ROWS]
        for k in set(levels.tolist()):
            r = block[levels == k]
            n = int(base * 2.0**k)
            width = R / n  # 2h
            offsets, weights = width * xi, width * w
            U = V = 0.0
            for p in range(0, n, _PANEL_BLOCK):
                edges = np.arange(p, min(p + _PANEL_BLOCK, n)) * width
                # W as (offsets, panels), so that the sums over panels run along rows
                W = folded(offsets[:, None] + edges) * weights[:, None]
                # row-wise sums whose bits do not depend on how many rows
                # there are, as a BLAS matrix product's do
                te = np.multiply.outer(t[r], edges)
                U += np.einsum("ip,jp->ij", np.sin(te), W)
                V += np.einsum("ip,jp->ij", np.cos(te), W)
            # sin(t x) = sin(t e) cos(t u) + cos(t e) sin(t u) at x = e + u
            tu = np.multiply.outer(t[r], offsets)
            out[r] = np.einsum("ij,ij->i", np.cos(tu), U) + np.einsum("ij,ij->i", np.sin(tu), V)
        # folded's nearest poles are at x = |d| -+ i lam, 200 half-widths below R
        out[block] += fourier_sine_tail(folded, R, abs(d), t[block], 1e-12 * s.alpha)
    return out


def accumulated_rate(s, omega, t):
    """I(omega, t) = int_0^t gamma(omega, t') dt', in closed form.

    I = alpha lam t^2 Re phi_2(-z t) with z = lam - i(detuning - omega)
    (derivation in docs/rate_integral.md); it vanishes at t = 0 and
    broadcasts over omega and t like rate_closed_form.
    """
    _check_nonnegative_time(t)
    return s.alpha * s.lam * t * t * _phi(-_exponent(s, omega) * t, 2).real
