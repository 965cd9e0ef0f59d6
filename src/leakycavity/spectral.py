"""Lorentzian reservoir spectrum and the time-dependent decay rates it induces.

The cavity loss reservoir is characterized by the spectral density

    J(omega) = (1/2pi) * alpha * lam**2 / ((omega1 - omega)**2 + lam**2),

a Lorentzian of half-width lam centered at omega1 with integrated weight
alpha*lam/2.  To second order in the coupling the decay rate of a channel
at transition frequency omega is the partial Fourier cosine transform

    gamma(omega, t) = 2 Re int_0^t dtau int domega' e^{i(omega-omega')tau} J(omega'),

which for the Lorentzian evaluates in closed form.  This module provides
the closed form, its stationary limit 2*pi*J(omega), the accumulated rate
I(omega, t) = int_0^t gamma, and a brute-force quadrature oracle that
evaluates the double integral directly without using the closed form:
after the time integral, one window integral and one Fourier tail over
the distance x = |omega' - omega| from the channel frequency.
"""

from dataclasses import dataclass

import numpy as np

from .numerics import adaptive_quadrature, panel_gauss

__all__ = [
    "LorentzianSpectrum",
    "spectral_density",
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


def spectral_density(s, omega):
    """J(omega) at a float omega or elementwise over an array of them."""
    d = s.omega1 - omega
    lam2 = s.lam * s.lam  # a product overflows to inf where lam**2 would raise
    return (s.alpha * lam2 / (2.0 * np.pi)) / (d * d + lam2)


def _check_nonnegative_time(t):
    if (np.asarray(t) < 0.0).any():
        raise ValueError("t must be nonnegative")


def rate_closed_form(s, omega, t):
    """Decay rate gamma(omega, t) for the Lorentzian reservoir.

    gamma = k * (1 + ((d/lam) sin(d t) - cos(d t)) e^{-lam t}),
    d = omega1 - omega, k = alpha lam^2 / (d^2 + lam^2) = 2 pi J(omega).

    Exactly zero at t = 0 for every omega; relaxes to the stationary value
    k on the memory time 1/lam.  For channels detuned by |d| > lam the
    transient oscillates and the rate goes negative over part of the
    first few periods.  Broadcasts over omega and t: the channel axis
    SystemParams.channels[:, None] against a time grid gives both channels.
    """
    _check_nonnegative_time(t)
    d = s.omega1 - omega
    lam2 = s.lam * s.lam
    k = s.alpha * lam2 / (d * d + lam2)
    return k * (1.0 + ((d / s.lam) * np.sin(d * t) - np.cos(d * t)) * np.exp(-s.lam * t))


def stationary_rate(s, omega):
    """Long-time limit of the rate, 2 pi J(omega)."""
    return 2.0 * np.pi * spectral_density(s, omega)


_WINDOW_HALFWIDTHS = 200  # K in the oracle docstring
_TAIL_LIMIT = 200         # QUADPACK subdivisions for the Fourier tail


def rate_quadrature_oracle(s, omega, t):
    """gamma(omega, t) by direct quadrature of the spectral-density integral.

    Performs the time integral analytically under the omega' integral and
    folds the result about omega (x = |omega' - omega|), so that both sides
    share the kernel sin(x t)/x:

        gamma(omega, t) = int_0^inf [J(omega+x) + J(omega-x)] * 2 sin(x t)/x dx.

    The x integral is evaluated numerically: composite Gauss-Legendre on
    the window [0, R], R = |omega1 - omega| + K half-widths with K = 200
    (panels kept below half a half-width and below half an oscillation
    period of the kernel), plus one Fourier-weighted quadrature of the
    smooth tail integrand 2 [J(omega+x) + J(omega-x)]/x against sin(x t)
    on [R, inf), to relative 1e-10 and absolute 1e-12 alpha within
    _TAIL_LIMIT subdivisions.  No use is made of the closed-form result;
    this is a test oracle, not a fast path.  Broadcasts over omega and t
    like rate_closed_form, one quadrature per point in row-major order.
    The window's panel count grows like t, and past panel_gauss's budget
    (t above about 2.4e4 at lam = 1/3) the oracle raises QuadratureError.
    """
    _check_nonnegative_time(t)
    return np.vectorize(_oracle_point, otypes=[float], excluded={0})(s, omega, t)[()]


def _oracle_point(s, omega, t):
    """rate_quadrature_oracle at one float omega and one float t >= 0."""
    omega, t = float(omega), float(t)  # plain float arithmetic, whatever the caller passes
    R = abs(s.omega1 - omega) + _WINDOW_HALFWIDTHS * s.lam
    # J(omega1) reads 0/0, or the detuning overflows: NaN, as in the closed forms
    if s.lam * s.lam == 0.0 or R == np.inf:
        return np.nan
    if t == 0.0:
        return 0.0

    def folded(x):
        return spectral_density(s, omega + x) + spectral_density(s, omega - x)

    width = min(s.lam / 2.0, 0.5 * np.pi / t)
    # 2 sin(x t)/x with the removable singularity at x = 0
    window = panel_gauss(lambda x: folded(x) * 2.0 * t * np.sinc(x * t / np.pi), R, width)
    # QUADPACK refuses a zero absolute tolerance for a Fourier integral, and
    # 1e-12 * alpha underflows to it for a subnormal alpha
    try:
        tail = adaptive_quadrature(lambda x: 2.0 * folded(x) / x, R, t,
                                   rel_tol=1e-10,
                                   abs_tol=max(1e-12 * s.alpha, np.finfo(float).tiny),
                                   limit=_TAIL_LIMIT)
    except ZeroDivisionError:  # R far below a cycle: QAWF rounds a node onto x = 0
        return np.nan
    return window + tail


def accumulated_rate(s, omega, t):
    """I(omega, t) = int_0^t gamma(omega, t') dt', in closed form.

    The antiderivative of the rate expression (derivation in
    docs/rate_integral.md) is

        I = k * ( t + (d^2 - lam^2)/(lam D)
                  - e^{-lam t} [ 2 d sin(d t) + ((d^2 - lam^2)/lam) cos(d t) ] / D ),

    with d = omega1 - omega and D = d^2 + lam^2; it vanishes at t = 0 and
    broadcasts over omega and t like rate_closed_form.
    """
    _check_nonnegative_time(t)
    d = s.omega1 - omega
    lam2 = s.lam * s.lam
    D = d * d + lam2
    k = s.alpha * lam2 / D
    c = (d * d - lam2) / s.lam
    return k * (t + c / D
                - np.exp(-s.lam * t) * (2.0 * d * np.sin(d * t) + c * np.cos(d * t)) / D)
