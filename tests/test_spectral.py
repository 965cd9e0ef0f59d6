import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from leakycavity import numerics, spectral
from leakycavity.dynamics import SystemParams
from leakycavity.numerics import QuadratureError
from leakycavity.spectral import (LorentzianSpectrum, accumulated_rate,
                                  rate_closed_form, rate_quadrature_oracle,
                                  stationary_rate)
from reference import reference_case

# an off-reference spectrum so checks do not rely on the canonical numbers
GENERIC = LorentzianSpectrum(alpha=0.2, lam=0.37, detuning=5.0)


def test_spectrum_validation():
    with pytest.raises(ValueError):
        LorentzianSpectrum(alpha=0.0, lam=1.0, detuning=1.0)
    with pytest.raises(ValueError):
        LorentzianSpectrum(alpha=1.0, lam=-1.0, detuning=1.0)
    with pytest.raises(TypeError):  # the peak is placed by its detuning from omega0
        LorentzianSpectrum(alpha=1.0, lam=1.0, omega1=1.0)


def test_density_peak_halfwidth_and_tail():
    # the spectral density J read off the stationary rate, 2 pi J
    s = GENERIC

    def spectral_density(s, omega):
        return stationary_rate(s, omega) / (2 * np.pi)

    assert abs(spectral_density(s, s.detuning) - s.alpha / (2 * np.pi)) < 1e-16
    for sign in (-1, 1):
        val = spectral_density(s, s.detuning + sign * s.lam)
        assert abs(val - s.alpha / (4 * np.pi)) < 1e-16
        far = spectral_density(s, s.detuning + sign * 1000 * s.lam)
        assert far <= s.alpha / (2 * np.pi) * 1e-6
    # positivity everywhere
    w = np.linspace(s.detuning - 50, s.detuning + 50, 999)
    assert np.all(spectral_density(s, w) > 0.0)


def test_rate_zero_at_t0_exactly():
    for s in (GENERIC, reference_case("a")[1], reference_case("b")[1]):
        w = np.linspace(s.detuning - 10 * s.lam, s.detuning + 10 * s.lam, 100)
        assert np.all(rate_closed_form(s, w, 0.0) == 0.0)


def test_rate_resonant_channel_form():
    # on the peak the rate is alpha (1 - e^{-lam t}), termwise
    s = GENERIC
    t = np.linspace(0.0, 30.0, 301)
    expected = s.alpha * (1.0 - np.exp(-s.lam * t))
    np.testing.assert_allclose(rate_closed_form(s, s.detuning, t), expected,
                               rtol=1e-14, atol=0.0)


def test_rate_detuned_channel_form():
    # one Rabi splitting above the peak: k [1 + ((2W/lam) sin 2Wt - cos 2Wt) e^{-lam t}]
    sys, s = reference_case("a")
    W = sys.Omega
    t = np.linspace(0.0, 40.0, 401)
    k = s.alpha * s.lam**2 / (4 * W**2 + s.lam**2)
    expected = k * (1.0 + ((2 * W / s.lam) * np.sin(2 * W * t)
                           - np.cos(2 * W * t)) * np.exp(-s.lam * t))
    got = rate_closed_form(s, s.detuning + 2 * W, t)
    np.testing.assert_allclose(got, expected, rtol=1e-13, atol=1e-17 * s.alpha)


def test_rate_negative_transient_narrow_reservoir():
    sys, s = reference_case("b")
    t = np.linspace(0.0, 60.0, 6001)
    g_plus = rate_closed_form(s, sys.channels[1], t)
    assert g_plus.min() < -0.04 * s.alpha
    # contrast: the broad reservoir's overshoot sqrt(1 + (d/lam)^2) e^{-lam t}
    # never beats 1, so its upper-channel rate stays nonnegative
    _, sa = reference_case("a")
    assert rate_closed_form(sa, sys.channels[1], t).min() >= 0.0


def test_rate_rejects_negative_time():
    with pytest.raises(ValueError):
        rate_closed_form(GENERIC, GENERIC.detuning, -0.1)
    with pytest.raises(ValueError):
        rate_quadrature_oracle(GENERIC, GENERIC.detuning, -1.0)
    with pytest.raises(ValueError):
        accumulated_rate(GENERIC, GENERIC.detuning, -1.0)


def test_rate_relaxation_to_stationary():
    # |gamma - stat| <= stat e^{-lam t} (1 + |d|/lam) pointwise; past 30
    # memory times the residual sits at the rounding floor, so allow a few
    # ulps of the stationary value on top of the analytic envelope
    s = GENERIC
    eps = np.finfo(float).eps
    for w in (s.detuning, s.detuning + 3.7 * s.lam, s.detuning - 9 * s.lam):
        stat = stationary_rate(s, w)
        t = np.linspace(30.0 / s.lam, 60.0 / s.lam, 50)
        dev = np.abs(rate_closed_form(s, w, t) - stat)
        bound = stat * np.exp(-s.lam * t) * (1.0 + abs(s.detuning - w) / s.lam)
        assert np.all(dev <= bound + 16 * eps * stat)


def test_stationary_rate_values():
    sys, sa = reference_case("a")
    _, sb = reference_case("b")
    assert abs(stationary_rate(sa, sa.detuning) - sa.alpha) < 1e-15
    assert abs(stationary_rate(sa, sys.channels[1]) / stationary_rate(sa, sys.channels[0])
               - 0.1) < 1e-12
    assert abs(stationary_rate(sb, sys.channels[1]) / stationary_rate(sb, sys.channels[0])
               - 0.01) < 1e-12
    # 2 pi J, with J the Lorentzian of the module docstring
    s, w = GENERIC, 4.2
    J = s.alpha * s.lam**2 / (2 * np.pi * ((s.detuning - w)**2 + s.lam**2))
    assert abs(stationary_rate(s, w) - 2 * np.pi * J) <= 4 * np.finfo(float).eps * 2 * np.pi * J


def _channel_ratio(s, sys):
    """Stationary rate of the upper dressed channel over the lower one, as sweep has it."""
    lower, upper = stationary_rate(s, sys.channels)
    return upper / lower


def test_stationary_rate_ratio_reference_values():
    sys, sa = reference_case("a")
    _, sb = reference_case("b")
    assert abs(_channel_ratio(sa, sys) - 0.1) < 1e-15
    assert abs(_channel_ratio(sb, sys) - 0.01) < 1e-15


def test_stationary_rate_ratio_flat_spectrum_limit():
    sys = SystemParams(Omega=0.5)
    s = LorentzianSpectrum(alpha=0.1, lam=1e4, detuning=sys.channels[0])
    assert _channel_ratio(s, sys) > 1.0 - 1e-7


def test_stationary_rate_ratio_scale_invariance():
    for scale in (2.0, 7.5):
        sys1 = SystemParams(Omega=0.5)
        sys2 = SystemParams(Omega=0.5 * scale)
        s1 = LorentzianSpectrum(alpha=0.1, lam=0.31, detuning=sys1.channels[0])
        s2 = LorentzianSpectrum(alpha=0.1, lam=0.31 * scale,
                                detuning=sys2.channels[0])
        assert abs(_channel_ratio(s1, sys1) - _channel_ratio(s2, sys2)) < 1e-14


def test_oracle_trivial_time_and_preconditions():
    assert rate_quadrature_oracle(GENERIC, GENERIC.detuning, 0.0) == 0.0


def test_oracle_matches_closed_form_on_peak():
    _, s = reference_case("a")
    t = 5.0 / s.lam
    got = rate_quadrature_oracle(s, s.detuning, t)
    assert abs(got - rate_closed_form(s, s.detuning, t)) < 1e-6 * s.alpha


def test_oracle_matches_closed_form_grid():
    for case in ("a", "b"):
        sys, s = reference_case(case)
        # omega = -100, absolute frequency 0, lies far below the peak
        omegas = [-100.0, s.detuning - 10 * s.lam, sys.channels[0] - 2 * sys.Omega,
                  s.detuning, sys.channels[1], s.detuning + 10 * s.lam]
        for w in omegas:
            for t in (1e-3, 0.5 / s.lam, 2.0 / s.lam, 20.0 / s.lam, 300.0):
                diff = abs(rate_quadrature_oracle(s, w, t)
                           - rate_closed_form(s, w, t))
                assert diff < 1e-6 * s.alpha, (case, w, t, diff)


def test_oracle_uses_no_closed_form(monkeypatch):
    sys, s = reference_case("b")
    points = [(w, t) for w in (sys.channels[0], sys.channels[1])
              for t in (0.1, 3.0, 40.0)]
    expected = [rate_closed_form(s, w, t) for w, t in points]

    def forbidden(*args, **kwargs):
        raise AssertionError("the quadrature oracle called a closed form")

    for name in ("rate_closed_form", "accumulated_rate", "stationary_rate"):
        monkeypatch.setattr(spectral, name, forbidden)
    for (w, t), want in zip(points, expected):
        assert abs(rate_quadrature_oracle(s, w, t) - want) < 1e-6 * s.alpha


@pytest.mark.parametrize("rate, t", [
    (rate_closed_form, np.linspace(0.0, 40.0, 81)),
    (accumulated_rate, np.linspace(0.0, 40.0, 81)),
    (rate_quadrature_oracle, np.array([0.0, 0.7, 3.0])),
], ids=["closed-form", "accumulated", "oracle"])
def test_channel_axis_matches_per_channel_calls(rate, t):
    # one call over the (2, 1) channel axis against a time grid gives the
    # same bits as one scalar call per channel and time
    sys, s = reference_case("b")
    got = rate(s, sys.channels[:, None], t)
    want = [[rate(s, w, u) for u in t.tolist()] for w in sys.channels.tolist()]
    np.testing.assert_array_equal(got, want)


def test_oracle_generic_spectrum():
    # not tied to the canonical configuration
    s = GENERIC
    for w in (s.detuning + 1.3, s.detuning - 2.2):
        for t in (0.3, 2.0, 11.0):
            diff = abs(rate_quadrature_oracle(s, w, t) - rate_closed_form(s, w, t))
            assert diff < 1e-6 * s.alpha


def test_accumulated_rate_zero_and_resonant_form():
    s = GENERIC
    assert accumulated_rate(s, s.detuning + 1.0, 0.0) == 0.0
    t = np.linspace(0.0, 20.0, 201)
    expected = s.alpha * (t - (1.0 - np.exp(-s.lam * t)) / s.lam)
    np.testing.assert_allclose(accumulated_rate(s, s.detuning, t), expected,
                               rtol=1e-12, atol=1e-16)


def accumulated_rate_by_quadrature(s, omega, t):
    """Oracle for the antiderivative: adaptive quadrature of the closed-form rate."""
    value, err = quad(lambda tp: rate_closed_form(s, omega, tp), 0.0, t,
                      epsrel=1e-10, epsabs=1e-13, limit=200)
    assert err <= max(1e-13, 1e-10 * abs(value))
    return value


def test_accumulated_rate_quadrature_mode_agrees():
    for case in ("a", "b"):
        sys, s = reference_case(case)
        for w in (sys.channels[0], sys.channels[1]):
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
        slope = (accumulated_rate(s, sys.channels[1], t + h)
                 - accumulated_rate(s, sys.channels[1], t - h)) / (2 * h)
        assert abs(slope - stationary_rate(s, sys.channels[1])) < 1e-8 * s.alpha


def test_accumulated_rate_monotone_where_rate_nonnegative():
    _, s = reference_case("a")
    t = np.linspace(0.0, 50.0, 501)
    assert np.all(rate_closed_form(s, s.detuning, t) >= 0.0)
    I = accumulated_rate(s, s.detuning, t)
    assert np.all(np.diff(I) >= 0.0)


def test_oracle_quadrature_failure_surfaces(monkeypatch):
    # starve the tail's accelerated sum, 9 half-periods against 1, so
    # non-convergence propagates as an error
    s = GENERIC
    monkeypatch.setattr(numerics, "_TAIL_TERMS", 9)
    with pytest.raises(QuadratureError):
        rate_quadrature_oracle(s, s.detuning + 0.3, 2.0)


def test_oracle_at_huge_time_raises_without_allocating():
    # at t = 1e12 the window would need ~4e13 panels of 16 nodes each
    _, s = reference_case("a")
    tracemalloc.start()
    try:
        with pytest.raises(QuadratureError, match="budget"):
            rate_quadrature_oracle(s, s.detuning, 1e12)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_oracle_at_overflowing_panel_count_is_the_budget_error():
    # base * 2**k overflows to an infinite panel count: one error, no warning
    _, s = reference_case("a")
    with pytest.raises(QuadratureError, match="needs inf panels"):
        rate_quadrature_oracle(s, s.detuning, 1e308)


def test_oracle_at_infinite_time_is_the_budget_error():
    # log2(t) and so the level are inf at t = inf: one error, no warning
    with pytest.raises(QuadratureError, match="needs inf panels"):
        rate_quadrature_oracle(LorentzianSpectrum(0.1, 0.1, -0.5), -0.5, float("inf"))


def test_oracle_with_no_positive_time_builds_no_panel():
    # lam = 1e-7 a unit from the peak needs 2e7 panels at level 0, past the
    # budget; times that need no window never ask for them
    s = LorentzianSpectrum(0.1, 1e-7, 0.0)
    got = rate_quadrature_oracle(s, 1.0, [0.0, np.nan])
    assert got[0] == 0.0 and np.isnan(got[1])
    with pytest.raises(QuadratureError, match="needs 2e[+]07 panels"):
        rate_quadrature_oracle(s, 1.0, [0.0, 1.0])


def test_oracle_window_at_large_time_stays_in_small_blocks():
    # t = 2e4 at lam = 0.1 sits at level 8: the window takes 400 * 2**8 panels,
    # 1.6e6 nodes
    s = LorentzianSpectrum(alpha=0.1, lam=0.1, detuning=-0.5)
    tracemalloc.start()
    try:
        value = rate_quadrature_oracle(s, s.detuning, 2e4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert abs(value - rate_closed_form(s, s.detuning, 2e4)) < 1e-6 * s.alpha
    assert peak < 2_000_000


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(log_lam=st.floats(-2.0, 0.0), offset=st.floats(-3.0, 3.0),
       below=st.floats(0.1, 0.9), above=st.floats(1.2, 3.5),
       more=st.lists(st.floats(0.1, 3.5), max_size=3))
def test_oracle_point_does_not_depend_on_the_batch(log_lam, offset, below, above, more):
    # one time at level 0, below 4 pi/lam, and one at level 1 or 2, where the
    # window's panels halve once or twice, so the batch holds at least two
    # panel sets; t = 0 joins it
    lam = 10.0**log_lam
    s = LorentzianSpectrum(alpha=0.1, lam=lam, detuning=5.0)
    t = np.array([0.0, below, above, *more]) * 4.0 * np.pi / lam
    omegas = s.detuning + np.array([offset, -0.5 * offset])
    got = rate_quadrature_oracle(s, omegas[:, None], t)
    want = [[rate_quadrature_oracle(s, w, u) for u in t.tolist()] for w in omegas.tolist()]
    np.testing.assert_array_equal(got, want)


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(log_lam=st.floats(-2.0, 0.0), offset=st.floats(-3.0, 3.0),
       below=st.floats(0.1, 0.9), above=st.floats(1.2, 3.5))
def test_oracle_window_matches_the_per_node_kernel(log_lam, offset, below, above):
    # the window by angle addition against sum sin(t x) f(x) w node by node,
    # on the documented layout: at level k = max(0, ceil(log2(t lam / 4 pi))),
    # n = ceil(R / (lam/2)) * 2**k panels 2h wide, node e_p + 2h x_j and weight
    # 2h w_j of the 16-point rule on [0, 1]; one time at level 0, below
    # 4 pi/lam, and one at level 1 or 2; both sides add the same tail
    lam = 10.0**log_lam
    s = LorentzianSpectrum(alpha=0.1, lam=lam, detuning=5.0)
    omega = s.detuning + offset
    R, origin, f = _folded_tail_integrand(s, omega)
    t = np.array([below, above]) * 4.0 * np.pi / lam
    want = numerics.fourier_sine_tail(f, R, origin, t, 1e-12 * s.alpha)
    xi, w = numerics.gauss_legendre(16)
    for k, u in enumerate(t.tolist()):
        level = max(0, int(np.ceil(np.log2(u * lam / (4.0 * np.pi)))))
        n = int(np.ceil(R / (lam / 2.0))) * 2**level
        width = R / n
        assert width <= lam / 2.0 and width <= 2.0 * np.pi / u * (1.0 + 1e-15)
        x = (width * np.arange(n))[:, None] + width * xi
        want[k] += np.sum(np.sin(u * x) * f(x) * (width * w))
    got = rate_quadrature_oracle(s, omega, t)
    assert np.max(np.abs(got - want)) <= 1e-13 * s.alpha, (got, want)


def closed_forms_50_digits(s, omega, t):
    """(gamma, I) in 50-digit arithmetic, from the float parameters taken exactly.

    gamma = alpha lam t Re phi_1(w) and I = alpha lam t^2 Re phi_2(w), with
    w = -z t, z = lam - i(detuning - omega), phi_1(w) = expm1(w)/w and
    phi_2 = (phi_1 - 1)/w.  That quotient loses the digits of 1/|w|, which
    the working precision adds back.
    """
    size = abs(complex(s.lam, s.detuning - omega)) * t
    with mpmath.workdps(50 + (int(-np.log10(size)) if 0.0 < size < 1.0 else 0)):
        z = mpmath.mpc(s.lam, -(mpmath.mpf(s.detuning) - mpmath.mpf(omega)))
        t = mpmath.mpf(t)
        w = -z * t
        if not w:
            return mpmath.mpf(0), mpmath.mpf(0)
        phi1 = mpmath.expm1(w) / w
        phi2 = (phi1 - 1) / w
        alpha_lam = mpmath.mpf(s.alpha) * mpmath.mpf(s.lam)
        return alpha_lam * t * phi1.real, alpha_lam * t * t * phi2.real


def _assert_closed_forms_match_50_digits(s, omega, t, rel):
    got = rate_closed_form(s, omega, t), accumulated_rate(s, omega, t)
    for name, value, exact in zip(("gamma", "I"), got, closed_forms_50_digits(s, omega, t)):
        assert abs(value - exact) <= rel * abs(exact), (name, s, omega, t, value, exact)


def test_closed_forms_match_50_digits_across_the_decades():
    # 168 points with lam t and |d| t from 1e-14 to 1e3, the short-time end
    # included, where real-arithmetic forms subtract nearly equal terms;
    # detuning = 0 and omega = -d make d exact
    for lam in (1e-6, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0):
        s = LorentzianSpectrum(alpha=0.1, lam=lam, detuning=0.0)
        for d in (0.0, 1e-3 * lam, 10.0 * lam, 1.0):
            for t in (1e-8, 1e-6, 1e-4, 1e-2, 1.0, 100.0):
                _assert_closed_forms_match_50_digits(s, -d, t, rel=1e-12)


def _decades(lo, hi):
    return st.floats(lo, hi).map(lambda e: 10.0**e)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(alpha=_decades(-6.0, 2.0), lam=_decades(-8.0, 4.0),
       ratio=st.one_of(st.just(0.0), _decades(-6.0, 6.0)), sign=st.sampled_from((-1.0, 1.0)),
       size=_decades(-14.0, 3.0))
def test_closed_forms_properties_across_the_decades(alpha, lam, ratio, sign, size):
    # d = detuning - omega runs from 1e-6 lam to 1e6 lam; t is drawn through
    # |w| = |z| t up to 1e3, beyond which the rounding of w itself moves the
    # oscillating factor by more than 1e-12
    s = LorentzianSpectrum(alpha=alpha, lam=lam, detuning=0.0)
    omega = -sign * ratio * lam
    t = size / abs(complex(lam, ratio * lam))
    _assert_closed_forms_match_50_digits(s, omega, t, rel=1e-12)
    assert rate_closed_form(s, omega, 0.0) == 0.0
    assert accumulated_rate(s, omega, 0.0) == 0.0
    # I = int dw J(w) 2 (1 - cos((omega - w) t)) / (omega - w)^2: J >= 0 against
    # a Fejer kernel, so I >= 0
    assert accumulated_rate(s, omega, t) >= 0.0
    # dI/dt = gamma by a central difference: against alpha lam t / (1 + |w|),
    # the size of gamma, its truncation error (h |w| / t)^2 / 6 is below 2e-7
    h = 1e-3 * t / (1.0 + size)
    lo, hi = t - h, t + h
    slope = (accumulated_rate(s, omega, hi) - accumulated_rate(s, omega, lo)) / (hi - lo)
    assert abs(slope - rate_closed_form(s, omega, t)) <= 1e-6 * alpha * lam * t / (1.0 + size)


def test_oracle_relative_accuracy_at_tiny_time():
    errors = []
    for case in ("a", "b"):
        sys, s = reference_case(case)
        for w in sys.channels.tolist():
            for t in (1e-9, 1e-8):
                exact, _ = closed_forms_50_digits(s, w, t)
                errors.append(float(abs((rate_quadrature_oracle(s, w, t) - exact) / exact)))
    assert max(errors) <= 1e-8


def test_oracle_relative_accuracy_across_the_decades():
    # 101 times from 1e-9 to 20: the log panels below t = 1/(200 lam), the
    # partial half-period and the accelerated half-periods above it
    t = np.logspace(-9.0, np.log10(20.0), 101)
    errors = []
    for case in ("a", "b"):
        sys, s = reference_case(case)
        for w in sys.channels.tolist():
            got = rate_quadrature_oracle(s, w, t)
            for u, value in zip(t.tolist(), got.tolist()):
                exact, _ = closed_forms_50_digits(s, w, u)
                errors.append(float(abs((value - exact) / exact)))
    assert max(errors) <= 1e-8


def test_oracle_below_t_1e_154_is_exact_without_warnings():
    # the tail's log panels reach x ~ 1/t, where the folded density's
    # squares overflow; a RuntimeWarning would fail this test
    for case in ("a", "b"):
        sys, s = reference_case(case)
        for w in sys.channels.tolist():
            for t in (1e-160, 1e-300):
                exact, _ = closed_forms_50_digits(s, w, t)
                assert abs(rate_quadrature_oracle(s, w, t) - exact) <= 1e-12 * abs(exact)


def test_oracle_on_far_detuned_channels():
    # |d| = 50 and 100 at lam = 1e-3 put the Lorentzian's poles 0.2 from R;
    # panels spaced in ln x, about |d| wide there, miss the tolerance
    s = LorentzianSpectrum(alpha=0.1, lam=1e-3, detuning=0.0)
    t = np.array([1e-3, 0.1, 1.0, 10.0])
    for omega in (-100.0, -50.0, 50.0, 100.0):
        got = rate_quadrature_oracle(s, omega, t)
        assert np.max(np.abs(got - rate_closed_form(s, omega, t))) < 1e-13 * s.alpha


def _folded_tail_integrand(s, omega):
    """The oracle's tail: R, |d| and 2 [J(omega + x) + J(omega - x)] / x past R."""
    d, lam2 = s.detuning - omega, s.lam * s.lam
    c = s.alpha * lam2 / np.pi
    return (abs(d) + 200 * s.lam, abs(d),
            lambda x: (c / ((d - x) ** 2 + lam2) + c / ((d + x) ** 2 + lam2)) / x)


@pytest.mark.parametrize("lam", [0.08, 0.12])
def test_fourier_tail_matches_qawf_where_qawf_is_sound(lam):
    # the benchmark's oracle grid (401 points to t = 20, Omega = 0.5,
    # alpha = 0.1) where R t >= 1; QAWF runs 100 times tighter than the bound,
    # as at the oracle's own 1e-12 alpha it is off by up to 1.9e-13 alpha
    s = LorentzianSpectrum(alpha=0.1, lam=lam, detuning=-0.5)
    t = np.linspace(0.0, 20.0, 401)[1:]
    for omega in (-0.5, 0.5):
        R, origin, f = _folded_tail_integrand(s, omega)
        got = numerics.fourier_sine_tail(f, R, origin, t, 1e-12 * s.alpha)
        for u, value in zip(t.tolist(), got.tolist()):
            if R * u >= 1.0:
                want = quad(f, R, np.inf, weight="sin", wvar=u, epsabs=1e-16 * s.alpha,
                            epsrel=1e-13, limit=200)[0]
                assert abs(value - want) <= 1e-14 * s.alpha, (omega, u, value, want)


def test_oracle_memory_does_not_grow_with_the_batch():
    # times go in blocks of _ROWS, window and tail alike, so 2560 times peak
    # no higher than 640 past the per-time index and result arrays (about
    # 50 bytes a time; the tail alone peaks at about 27 kB a time)
    s = LorentzianSpectrum(alpha=0.1, lam=0.1, detuning=-0.5)
    # a first call fills the cached rules, which would otherwise count only
    # in the smaller batch's peak
    rate_quadrature_oracle(s, 0.5, np.linspace(0.01, 20.0, 10))
    sizes, peaks = (640, 2560), []
    for n in sizes:
        t = np.linspace(0.01, 20.0, n)
        tracemalloc.start()
        try:
            rate_quadrature_oracle(s, 0.5, t)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        peaks.append(peak)
    assert peaks[1] - peaks[0] < 64 * (sizes[1] - sizes[0]), peaks
