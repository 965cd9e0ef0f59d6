import tracemalloc

import numpy as np
import pytest

from leakycavity import spectral
from leakycavity.analysis import reference_case
from leakycavity.numerics import QuadratureError, adaptive_quadrature
from leakycavity.spectral import (LorentzianSpectrum, accumulated_rate,
                                  rate_closed_form, rate_quadrature_oracle,
                                  spectral_density, stationary_rate)

# an off-reference spectrum so checks do not rely on the canonical numbers
GENERIC = LorentzianSpectrum(alpha=0.2, lam=0.37, omega1=5.0)


def test_spectrum_validation():
    with pytest.raises(ValueError):
        LorentzianSpectrum(alpha=0.0, lam=1.0, omega1=1.0)
    with pytest.raises(ValueError):
        LorentzianSpectrum(alpha=1.0, lam=-1.0, omega1=1.0)


def test_density_peak_halfwidth_and_tail():
    s = GENERIC
    assert abs(spectral_density(s, s.omega1) - s.alpha / (2 * np.pi)) < 1e-16
    for sign in (-1, 1):
        val = spectral_density(s, s.omega1 + sign * s.lam)
        assert abs(val - s.alpha / (4 * np.pi)) < 1e-16
        far = spectral_density(s, s.omega1 + sign * 1000 * s.lam)
        assert far <= s.alpha / (2 * np.pi) * 1e-6
    # positivity everywhere
    w = np.linspace(s.omega1 - 50, s.omega1 + 50, 999)
    assert np.all(spectral_density(s, w) > 0.0)


def test_rate_zero_at_t0_exactly():
    for s in (GENERIC, reference_case("a")[1], reference_case("b")[1]):
        w = np.linspace(s.omega1 - 10 * s.lam, s.omega1 + 10 * s.lam, 100)
        assert np.all(rate_closed_form(s, w, 0.0) == 0.0)


def test_rate_resonant_channel_form():
    # on the peak the rate is alpha (1 - e^{-lam t}), termwise
    s = GENERIC
    t = np.linspace(0.0, 30.0, 301)
    expected = s.alpha * (1.0 - np.exp(-s.lam * t))
    np.testing.assert_allclose(rate_closed_form(s, s.omega1, t), expected,
                               rtol=1e-14, atol=0.0)


def test_rate_detuned_channel_form():
    # one Rabi splitting above the peak: k [1 + ((2W/lam) sin 2Wt - cos 2Wt) e^{-lam t}]
    sys, s = reference_case("a")
    W = sys.Omega
    t = np.linspace(0.0, 40.0, 401)
    k = s.alpha * s.lam**2 / (4 * W**2 + s.lam**2)
    expected = k * (1.0 + ((2 * W / s.lam) * np.sin(2 * W * t)
                           - np.cos(2 * W * t)) * np.exp(-s.lam * t))
    got = rate_closed_form(s, s.omega1 + 2 * W, t)
    np.testing.assert_allclose(got, expected, rtol=1e-13, atol=1e-17 * s.alpha)


def test_rate_negative_transient_narrow_reservoir():
    sys, s = reference_case("b")
    t = np.linspace(0.0, 60.0, 6001)
    g_plus = rate_closed_form(s, sys.omega_plus, t)
    assert g_plus.min() < -0.04 * s.alpha
    # contrast: the broad reservoir's overshoot sqrt(1 + (d/lam)^2) e^{-lam t}
    # never beats 1, so its upper-channel rate stays nonnegative
    _, sa = reference_case("a")
    assert rate_closed_form(sa, sys.omega_plus, t).min() >= 0.0


def test_rate_rejects_negative_time():
    with pytest.raises(ValueError):
        rate_closed_form(GENERIC, GENERIC.omega1, -0.1)
    with pytest.raises(ValueError):
        rate_quadrature_oracle(GENERIC, GENERIC.omega1, -1.0)
    with pytest.raises(ValueError):
        accumulated_rate(GENERIC, GENERIC.omega1, -1.0)


def test_rate_relaxation_to_stationary():
    # |gamma - stat| <= stat e^{-lam t} (1 + |d|/lam) pointwise; past 30
    # memory times the residual sits at the rounding floor, so allow a few
    # ulps of the stationary value on top of the analytic envelope
    s = GENERIC
    eps = np.finfo(float).eps
    for w in (s.omega1, s.omega1 + 3.7 * s.lam, s.omega1 - 9 * s.lam):
        stat = stationary_rate(s, w)
        t = np.linspace(30.0 / s.lam, 60.0 / s.lam, 50)
        dev = np.abs(rate_closed_form(s, w, t) - stat)
        bound = stat * np.exp(-s.lam * t) * (1.0 + abs(s.omega1 - w) / s.lam)
        assert np.all(dev <= bound + 16 * eps * stat)


def test_stationary_rate_values():
    sys, sa = reference_case("a")
    _, sb = reference_case("b")
    assert abs(stationary_rate(sa, sa.omega1) - sa.alpha) < 1e-15
    assert abs(stationary_rate(sa, sys.omega_plus) / stationary_rate(sa, sys.omega_minus)
               - 0.1) < 1e-12
    assert abs(stationary_rate(sb, sys.omega_plus) / stationary_rate(sb, sys.omega_minus)
               - 0.01) < 1e-12
    # definitionally 2 pi J
    w = 4.2
    assert stationary_rate(GENERIC, w) == 2 * np.pi * spectral_density(GENERIC, w)


def test_oracle_trivial_time_and_preconditions():
    assert rate_quadrature_oracle(GENERIC, GENERIC.omega1, 0.0) == 0.0


def test_oracle_matches_closed_form_on_peak():
    _, s = reference_case("a")
    t = 5.0 / s.lam
    got = rate_quadrature_oracle(s, s.omega1, t)
    assert abs(got - rate_closed_form(s, s.omega1, t)) < 1e-6 * s.alpha


def test_oracle_matches_closed_form_grid():
    for case in ("a", "b"):
        sys, s = reference_case(case)
        # omega = 0 lies far below the peak: omega - x crosses zero frequency
        omegas = [0.0, s.omega1 - 10 * s.lam, sys.omega_minus - 2 * sys.Omega,
                  s.omega1, sys.omega_plus, s.omega1 + 10 * s.lam]
        for w in omegas:
            for t in (1e-3, 0.5 / s.lam, 2.0 / s.lam, 20.0 / s.lam, 300.0):
                diff = abs(rate_quadrature_oracle(s, w, t)
                           - rate_closed_form(s, w, t))
                assert diff < 1e-6 * s.alpha, (case, w, t, diff)


def test_oracle_uses_no_closed_form(monkeypatch):
    sys, s = reference_case("b")
    points = [(w, t) for w in (sys.omega_minus, sys.omega_plus)
              for t in (0.1, 3.0, 40.0)]
    expected = [rate_closed_form(s, w, t) for w, t in points]

    def forbidden(*args, **kwargs):
        raise AssertionError("the quadrature oracle called a closed form")

    for name in ("rate_closed_form", "accumulated_rate", "stationary_rate"):
        monkeypatch.setattr(spectral, name, forbidden)
    for (w, t), want in zip(points, expected):
        assert abs(rate_quadrature_oracle(s, w, t) - want) < 1e-6 * s.alpha


def test_oracle_generic_spectrum():
    # not tied to the canonical configuration
    s = GENERIC
    for w in (s.omega1 + 1.3, s.omega1 - 2.2):
        for t in (0.3, 2.0, 11.0):
            diff = abs(rate_quadrature_oracle(s, w, t) - rate_closed_form(s, w, t))
            assert diff < 1e-6 * s.alpha


def test_accumulated_rate_zero_and_resonant_form():
    s = GENERIC
    assert accumulated_rate(s, s.omega1 + 1.0, 0.0) == 0.0
    t = np.linspace(0.0, 20.0, 201)
    expected = s.alpha * (t - (1.0 - np.exp(-s.lam * t)) / s.lam)
    np.testing.assert_allclose(accumulated_rate(s, s.omega1, t), expected,
                               rtol=1e-12, atol=1e-16)


def accumulated_rate_by_quadrature(s, omega, t):
    """Oracle for the antiderivative: adaptive quadrature of the closed-form rate."""
    return adaptive_quadrature(lambda tp: rate_closed_form(s, omega, tp), 0.0, t,
                               rel_tol=1e-10, abs_tol=1e-13, limit=200)


def test_accumulated_rate_quadrature_mode_agrees():
    for case in ("a", "b"):
        sys, s = reference_case(case)
        for w in (sys.omega_minus, sys.omega_plus):
            for t in (0.7, 5.0, 33.0):
                closed = accumulated_rate(s, w, t)
                quad = accumulated_rate_by_quadrature(s, w, t)
                assert abs(closed - quad) < 1e-10


def test_accumulated_rate_asymptotic_slope():
    # after ~30 memory times the transient under the finite difference is
    # below e^{-30} (d/lam) and the slope is the stationary rate
    for case in ("a", "b"):
        sys, s = reference_case(case)
        h, t = 0.25, 30.0 / s.lam
        slope = (accumulated_rate(s, sys.omega_plus, t + h)
                 - accumulated_rate(s, sys.omega_plus, t - h)) / (2 * h)
        assert abs(slope - stationary_rate(s, sys.omega_plus)) < 1e-8 * s.alpha


def test_accumulated_rate_monotone_where_rate_nonnegative():
    _, s = reference_case("a")
    t = np.linspace(0.0, 50.0, 501)
    assert np.all(rate_closed_form(s, s.omega1, t) >= 0.0)
    I = accumulated_rate(s, s.omega1, t)
    assert np.all(np.diff(I) >= 0.0)


def test_oracle_quadrature_failure_surfaces(monkeypatch):
    # starve the tail quadrature so non-convergence propagates as an error
    s = GENERIC
    monkeypatch.setattr(spectral, "_TAIL_LIMIT", 1)
    with pytest.raises(QuadratureError):
        rate_quadrature_oracle(s, s.omega1 + 0.3, 2.0)


def test_oracle_at_huge_time_raises_without_allocating():
    # at t = 1e12 the window would need ~4e13 panels of 16 nodes each
    _, s = reference_case("a")
    tracemalloc.start()
    try:
        with pytest.raises(QuadratureError, match="budget"):
            rate_quadrature_oracle(s, s.omega1, 1e12)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
