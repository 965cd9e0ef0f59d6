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
evaluates the double integral directly without using the closed form.
"""

from dataclasses import dataclass

import numpy as np

from .numerics import ToleranceSpec, adaptive_quadrature, panel_gauss

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
    """J(omega), vectorized over omega."""
    omega = np.asarray(omega, dtype=float)
    out = (s.alpha * s.lam**2 / (2.0 * np.pi)) / ((s.omega1 - omega) ** 2 + s.lam**2)
    return out if out.ndim else float(out)


def _check_nonnegative_time(t):
    if np.any(np.asarray(t) < 0.0):
        raise ValueError("t must be nonnegative")


def rate_closed_form(s, omega, t):
    """Decay rate gamma(omega, t) for the Lorentzian reservoir.

    gamma = k * (1 + ((d/lam) sin(d t) - cos(d t)) e^{-lam t}),
    d = omega1 - omega, k = alpha lam^2 / (d^2 + lam^2) = 2 pi J(omega).

    Exactly zero at t = 0 for every omega; relaxes to the stationary value
    k on the memory time 1/lam.  For channels detuned by |d| > lam the
    transient oscillates and the rate goes negative over part of the
    first few periods.  Broadcasts over omega and t.
    """
    _check_nonnegative_time(t)
    omega = np.asarray(omega, dtype=float)
    t = np.asarray(t, dtype=float)
    d = s.omega1 - omega
    k = s.alpha * s.lam**2 / (d * d + s.lam**2)
    out = k * (1.0 + ((d / s.lam) * np.sin(d * t) - np.cos(d * t)) * np.exp(-s.lam * t))
    return out if out.ndim else float(out)


def stationary_rate(s, omega):
    """Long-time limit of the rate, 2 pi J(omega)."""
    return 2.0 * np.pi * spectral_density(s, omega)


def rate_quadrature_oracle(s, omega, t, window_halfwidths=200, tol=None):
    """gamma(omega, t) by direct quadrature of the spectral-density integral.

    Performs the time integral analytically under the omega' integral,

        gamma(omega, t) = int domega' J(omega') * 2 sin((omega-omega') t) / (omega-omega'),

    and evaluates the omega' integral numerically: composite Gauss-Legendre
    over a window of K = window_halfwidths half-widths around the peak
    (panels subdivided at omega1 and at omega, and kept below half an
    oscillation period of the kernel), plus Fourier-weighted infinite-tail
    quadrature outside the window.  The tail integrand J(u)/(omega - u) is
    smooth there because the window always covers omega.  No use is made
    of the closed-form result; this is a test oracle, not a fast path.
    """
    _check_nonnegative_time(t)
    t = float(t)
    if window_halfwidths < 10:
        raise ValueError(f"window_halfwidths must be >= 10, got {window_halfwidths}")
    if t == 0.0:
        return 0.0
    if tol is None:
        tol = ToleranceSpec(rel_tol=1e-10, abs_tol=1e-12 * s.alpha, max_steps=200)
    K = float(window_halfwidths)
    lo = min(s.omega1, omega) - K * s.lam
    hi = max(s.omega1, omega) + K * s.lam

    def kernel(u):
        # 2 sin((omega-u) t)/(omega-u) with the removable singularity at u=omega
        return spectral_density(s, u) * 2.0 * t * np.sinc((omega - u) * t / np.pi)

    width = min(s.lam / 2.0, 0.5 * np.pi / t)
    window = panel_gauss(kernel, lo, hi, width, breakpoints=(s.omega1, omega))

    # tails: expand sin((omega-u)t) and integrate J(u)/(omega-u) against
    # cos(ut), sin(ut) with the Fourier-weighted rule out to infinity
    def right(u):
        return spectral_density(s, u) / (omega - u)

    def left(v):
        return spectral_density(s, -v) / (omega + v)

    qc_r = adaptive_quadrature(right, hi, np.inf, tol, weight="cos", wvar=t)
    qs_r = adaptive_quadrature(right, hi, np.inf, tol, weight="sin", wvar=t)
    qc_l = adaptive_quadrature(left, -lo, np.inf, tol, weight="cos", wvar=t)
    qs_l = adaptive_quadrature(left, -lo, np.inf, tol, weight="sin", wvar=t)
    tails = (2.0 * np.sin(omega * t) * (qc_r + qc_l)
             + 2.0 * np.cos(omega * t) * (qs_l - qs_r))
    return window + tails


def accumulated_rate(s, omega, t):
    """I(omega, t) = int_0^t gamma(omega, t') dt', in closed form.

    The antiderivative of the rate expression (derivation in
    docs/rate_integral.md) is

        I = k * ( t + (d^2 - lam^2)/(lam D)
                  - e^{-lam t} [ 2 d sin(d t) + ((d^2 - lam^2)/lam) cos(d t) ] / D ),

    with d = omega1 - omega and D = d^2 + lam^2; it vanishes at t = 0 and
    broadcasts over omega and t.
    """
    _check_nonnegative_time(t)
    omega = np.asarray(omega, dtype=float)
    t = np.asarray(t, dtype=float)
    d = s.omega1 - omega
    D = d * d + s.lam**2
    k = s.alpha * s.lam**2 / D
    c = (d * d - s.lam**2) / s.lam
    out = k * (t + c / D
               - np.exp(-s.lam * t) * (2.0 * d * np.sin(d * t) + c * np.cos(d * t)) / D)
    return out if out.ndim else float(out)
