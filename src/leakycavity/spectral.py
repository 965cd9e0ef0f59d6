"""Lorentzian reservoir spectrum and the time-dependent decay rates it induces.

The cavity loss reservoir is characterized by the spectral density

    J(omega) = (1/2pi) * alpha * lam**2 / ((omega1 - omega)**2 + lam**2),

a Lorentzian of half-width lam centered at omega1 with integrated weight
alpha*lam/2.  To second order in the coupling the decay rate of a channel
at transition frequency omega is the partial Fourier cosine transform

    gamma(omega, t) = 2 Re int_0^t dtau int domega' e^{i(omega-omega')tau} J(omega'),

which for the Lorentzian evaluates in closed form: the omega' integral
leaves one correlation (alpha lam/2) e^{-z tau}, z = lam - i(omega1 - omega),
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

from .numerics import adaptive_quadrature, panel_gauss_blocks

__all__ = [
    "LorentzianSpectrum",
    "rate_closed_form",
    "stationary_rate",
    "rate_quadrature_oracle",
    "accumulated_rate",
]


@dataclass(frozen=True)
class LorentzianSpectrum:
    """Reservoir parameters: coupling alpha, half-width lam, peak frequency omega1.

    ``lam`` is the spectral width (inverse memory time); the name avoids
    the reserved word, config files spell it ``reservoir.lambda``.
    """

    alpha: float
    lam: float
    omega1: float

    def __post_init__(self):
        if not self.alpha > 0.0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if not self.lam > 0.0:
            raise ValueError(f"lam must be positive, got {self.lam}")


def _check_nonnegative_time(t):
    if (np.asarray(t) < 0.0).any():
        raise ValueError("t must be nonnegative")


def _exponent(s, omega):
    """z = lam - i(omega1 - omega): the correlation at channel omega is (alpha lam/2) e^{-z tau}."""
    return s.lam - 1j * (s.omega1 - omega)


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

    gamma = alpha lam t Re phi_1(-z t), z = lam - i(omega1 - omega) (see
    docs/rate_integral.md).  Exactly zero at t = 0 for every omega;
    relaxes to the stationary value alpha lam Re(1/z) = 2 pi J(omega) on
    the memory time 1/lam.  For channels detuned by |omega1 - omega| > lam
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
_WINDOW_ROWS = 16         # times per kernel block of 16 x _PANEL_BLOCK entries
_TAIL_LIMIT = 200         # QUADPACK subdivisions for the Fourier tail


def rate_quadrature_oracle(s, omega, t):
    """gamma(omega, t) by direct quadrature of the spectral-density integral.

    Performs the time integral analytically under the omega' integral and
    folds the result about omega (x = |omega' - omega|), so that both sides
    share the kernel sin(x t)/x:

        gamma(omega, t) = int_0^inf [J(omega+x) + J(omega-x)] * 2 sin(x t)/x dx.

    The x integral is evaluated numerically: composite Gauss-Legendre on
    the window [0, R], R = |omega1 - omega| + K half-widths with K = 200,
    in ceil(R / min(lam/2, pi/(2t))) panels, each below half a half-width
    and half an oscillation period of the kernel, plus one Fourier-weighted
    quadrature of the smooth tail integrand 2 [J(omega+x) + J(omega-x)]/x
    against sin(x t) on [R, inf), to relative 1e-10 and absolute 1e-12
    alpha within _TAIL_LIMIT subdivisions.  No use is made of the
    closed-form result; this is a test oracle, not a fast path.
    Broadcasts over omega and t like rate_closed_form.  The window [0, R]
    does not depend on t: per distinct omega, every time with the same
    panel count shares one panel set and its folded spectral weight, and
    the window is a sum of sin(t x) against that weight, in blocks of 16
    times by _PANEL_BLOCK nodes.  A point's value does not depend on the
    rest of the batch.  The tail is one quadrature per point.  The panel
    count, handed to panel_gauss_blocks, grows like t, and past its budget
    (t above about 2.4e4 at lam = 1/3) the oracle raises QuadratureError
    before evaluating that omega's window.
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
    # plain floats: the tail integrand runs once per QUADPACK node
    d = float(s.omega1 - omega)
    lam2 = float(s.lam * s.lam)  # a product overflows to inf where lam**2 would raise
    c = float(s.alpha * lam2 / np.pi)  # 2 J(omega') = c / ((omega1 - omega')^2 + lam2)
    R = abs(d) + _WINDOW_HALFWIDTHS * float(s.lam)
    # J(omega1) reads 0/0, or the detuning overflows: NaN, as in the closed forms
    if lam2 == 0.0 or not R < np.inf:
        return np.full(t.shape, np.nan)

    def folded(x):  # 2 [J(omega+x) + J(omega-x)] / x, at a float or over an array
        u, v = d - x, d + x
        return (c / (u * u + lam2) + c / (v * v + lam2)) / x

    out = np.where(t > 0.0, 0.0, t)  # 0 at t = 0, NaN at a NaN time
    rows = np.flatnonzero(t > 0.0)
    # pi/(2t) overflows at a subnormal t, the count at t near the float
    # maximum; an infinite count fails the budget check below
    with np.errstate(over="ignore"):
        count = np.ceil(R / np.minimum(s.lam / 2.0, 0.5 * np.pi / t[rows]))
    # every budget is checked before any node is built
    groups = [(rows[count == n], panel_gauss_blocks(R, n)) for n in np.unique(count)]
    for group, blocks in groups:
        for x, w in blocks:
            weight = folded(x) * w
            for i in range(0, group.size, _WINDOW_ROWS):
                r = group[i:i + _WINDOW_ROWS]
                # a row-wise sum whose bits do not depend on how many rows
                # there are, as a BLAS matrix-vector product's do
                out[r] += np.einsum("ij,j->i", np.sin(np.multiply.outer(t[r], x)), weight)

    # QUADPACK refuses a zero absolute tolerance for a Fourier integral, and
    # 1e-12 * alpha underflows to it for a subnormal alpha
    abs_tol = max(1e-12 * s.alpha, np.finfo(float).tiny)
    for i in rows.tolist():
        try:
            out[i] += adaptive_quadrature(folded, R, float(t[i]), rel_tol=1e-10,
                                          abs_tol=abs_tol, limit=_TAIL_LIMIT)
        except ZeroDivisionError:  # R far below a cycle: QAWF rounds a node onto x = 0
            out[i] = np.nan
    return out


def accumulated_rate(s, omega, t):
    """I(omega, t) = int_0^t gamma(omega, t') dt', in closed form.

    I = alpha lam t^2 Re phi_2(-z t) with z = lam - i(omega1 - omega)
    (derivation in docs/rate_integral.md); it vanishes at t = 0 and
    broadcasts over omega and t like rate_closed_form.
    """
    _check_nonnegative_time(t)
    return s.alpha * s.lam * t * t * _phi(-_exponent(s, omega) * t, 2).real
