import numpy as np
import pytest

from leakycavity import numerics
from leakycavity.numerics import (OdeSolveError, QuadratureError,
                                  adaptive_quadrature, cumulative_integral,
                                  ode_solve, panel_gauss)


TOL = dict(rel_tol=1e-10, abs_tol=1e-12, limit=10_000)


def test_quadrature_linear():
    assert abs(adaptive_quadrature(lambda t: t, 0.0, 1.0, **TOL) - 0.5) < 1e-14


def test_quadrature_zero_integrand():
    assert adaptive_quadrature(lambda t: 0.0, 0.0, 10.0, **TOL) == 0.0


def test_quadrature_degenerate_interval():
    assert adaptive_quadrature(lambda t: t**3, 2.0, 2.0, **TOL) == 0.0


def test_quadrature_polynomial_exactness():
    # well inside the embedded rule's degree
    exact = 3.0**13 / 13.0 + 3.0**5
    got = adaptive_quadrature(lambda t: t**12 + 5 * t**4, 0.0, 3.0, **TOL)
    assert abs(got - exact) < 1e-12 * exact


def test_quadrature_lorentzian_window():
    alpha, lam, omega1 = 0.2, 0.37, 3.2

    def J(w):
        return (alpha * lam**2 / (2 * np.pi)) / ((omega1 - w) ** 2 + lam**2)

    tol = dict(rel_tol=1e-12, abs_tol=1e-12 * alpha * lam, limit=500)
    got = adaptive_quadrature(J, omega1 - 200 * lam, omega1 + 200 * lam, **tol)
    # arctan antiderivative over the finite window
    expected = (alpha * lam / np.pi) * np.arctan(200.0)
    assert abs(got - expected) < 1e-6 * alpha * lam
    # the window mass deliberately differs from the full-line mass alpha*lam/2
    # by the O(1/K) tail weight, about 1.6e-3 of it here
    assert abs(expected - alpha * lam / 2) > 1e-4 * alpha * lam
    full = adaptive_quadrature(J, -np.inf, np.inf, **tol)
    assert abs(full - alpha * lam / 2) < 1e-9 * alpha * lam


def test_quadrature_rejects_reversed_bounds():
    with pytest.raises(ValueError):
        adaptive_quadrature(lambda t: t, 1.0, 0.0, **TOL)


def test_quadrature_nonconvergence_carries_estimate():
    # a very narrow peak cannot be resolved with a single subdivision
    lam = 1e-7

    def peak(x):
        return lam / (x * x + lam * lam)

    tol = dict(rel_tol=1e-12, abs_tol=1e-14, limit=1)
    with pytest.raises(QuadratureError) as err:
        adaptive_quadrature(peak, -1.0, 1.0, **tol)
    assert np.isfinite(err.value.estimate)
    assert err.value.error_bound > 0.0


def test_panel_gauss_polynomial_exactness():
    # the 16-point rule is exact through degree 31 on each panel
    got = panel_gauss(lambda t: t**7, 0.0, 2.0, max_width=2.0)
    assert abs(got - 2.0**8 / 8.0) < 1e-12


def test_panel_gauss_evaluates_in_bounded_blocks():
    # more panels than one block: f sees at most one block of nodes per call
    sizes = []

    def f(x):
        sizes.append(x.size)
        return np.cos(x)

    n = 3 * numerics._PANEL_BLOCK + 5
    got = panel_gauss(f, 0.0, float(n), max_width=1.0)
    assert sizes == [16 * numerics._PANEL_BLOCK] * 3 + [16 * 5]
    assert abs(got - np.sin(n)) < 1e-10


@pytest.mark.parametrize("max_width", [1.0 / (numerics._PANEL_BUDGET + 1), 1e-300])
def test_panel_gauss_over_budget_raises_before_evaluating(max_width):
    def f(x):
        raise AssertionError("integrand evaluated")

    with pytest.raises(QuadratureError, match="budget"):
        panel_gauss(f, 0.0, 1.0, max_width=max_width)


def test_panel_gauss_oscillatory():
    got = panel_gauss(np.sin, 0.0, 20 * np.pi, max_width=np.pi / 2)
    assert abs(got) < 1e-12
    got = panel_gauss(lambda t: np.cos(10 * t), 0.0, 1.0, max_width=0.1)
    assert abs(got - np.sin(10.0) / 10.0) < 1e-12


def test_panel_gauss_rejects_bad_interval():
    with pytest.raises(ValueError):
        panel_gauss(np.sin, 1.0, 0.0, max_width=0.1)
    with pytest.raises(ValueError):
        panel_gauss(np.sin, 0.0, 1.0, max_width=0.0)


def test_cumulative_constant():
    alpha = 0.7
    t = np.array([0.0, 1.0, 2.0])
    out = cumulative_integral(t, np.full(3, alpha))
    np.testing.assert_allclose(out, [0.0, alpha, 2 * alpha], rtol=0, atol=1e-15)


def test_cumulative_matches_antiderivative():
    # f(t) = alpha (1 - e^{-lam t}) has antiderivative alpha [t - (1-e^{-lam t})/lam]
    alpha, lam = 0.7, 0.4
    t = np.linspace(0.0, 5.0, 20001)
    f = alpha * (1.0 - np.exp(-lam * t))
    exact = alpha * (t - (1.0 - np.exp(-lam * t)) / lam)
    got = cumulative_integral(t, f)
    assert np.all(np.abs(got - exact) <= 1e-8 * alpha * t + 1e-15)


def test_cumulative_rejects_degenerate_input():
    with pytest.raises(ValueError):
        cumulative_integral(np.array([1.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        cumulative_integral(np.array([0.0, 2.0, 1.0]), np.zeros(3))
    with pytest.raises(ValueError):
        cumulative_integral(np.array([-1.0, 0.0]), np.zeros(2))
    with pytest.raises(ValueError):
        cumulative_integral(np.array([0.0, 1.0]), np.zeros(3))


def test_cumulative_nonnegative_integrand_is_nondecreasing():
    t = np.linspace(0.0, 10.0, 301)
    out = cumulative_integral(t, np.abs(np.sin(3 * t)) + 0.1)
    assert np.all(np.diff(out) >= 0.0)


def test_ode_scalar_exponential():
    out = ode_solve(lambda t, y: -y, np.array([1.0]), np.array([0.0, 1.0]))
    assert abs(out[-1, 0] - np.exp(-1.0)) < 1e-9


def test_ode_phase_rotation_preserves_norm():
    omega = 3.0
    ts = np.linspace(0.0, 5.0, 11)
    out = ode_solve(lambda t, y: 1j * omega * y, np.array([1.0 + 0.0j]), ts)
    assert out.dtype.kind == "c"
    assert np.max(np.abs(np.abs(out[:, 0]) - 1.0)) < 1e-9
    # phase agrees with e^{i omega t}
    assert np.max(np.abs(out[:, 0] - np.exp(1j * omega * ts))) < 1e-8


def test_ode_dense_output_fills_grid():
    ts = np.linspace(0.0, 2.0, 21)
    out = ode_solve(lambda t, y: -y, np.array([1.0]), ts)
    assert np.max(np.abs(out[:, 0] - np.exp(-ts))) < 1e-9

    # a one-point grid is the initial state, without a step
    def deriv(t, y):
        raise AssertionError("right-hand side evaluated")

    out = ode_solve(deriv, np.array([1.0, 2.0]), np.array([0.5]))
    assert out.shape == (1, 2) and np.array_equal(out[0], [1.0, 2.0])


def test_ode_step_failure_reports_last_time():
    # y' = y^2 from y(0)=1 blows up at t=1
    def deriv(t, y):
        with np.errstate(over="ignore", invalid="ignore"):
            return y * y

    with pytest.raises(OdeSolveError) as err:
        ode_solve(deriv, np.array([1.0]), np.array([0.0, 2.0]))
    assert 0.5 < err.value.last_t <= 1.05


def test_ode_step_budget_exhausted(monkeypatch):
    monkeypatch.setattr(numerics, "_ODE_MAX_STEPS", 3)
    with pytest.raises(OdeSolveError) as err:
        ode_solve(lambda t, y: -y, np.array([1.0]), np.array([0.0, 100.0]))
    assert err.value.last_t < 100.0


def test_ode_rejects_bad_grid():
    with pytest.raises(ValueError):
        ode_solve(lambda t, y: -y, np.array([1.0]), np.array([0.0, 1.0, 0.5]))
    with pytest.raises(ValueError):
        ode_solve(lambda t, y: -y, np.array([1.0]), np.array([]))
