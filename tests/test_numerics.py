import numpy as np
import pytest

from leakycavity.numerics import (OdeSolveError, QuadratureError,
                                  ToleranceSpec, adaptive_quadrature,
                                  cumulative_integral, ode_solve, panel_gauss)


def test_tolerance_spec_validation():
    ToleranceSpec(rel_tol=1e-8, abs_tol=0.0, max_steps=1)
    with pytest.raises(ValueError):
        ToleranceSpec(rel_tol=0.0)
    with pytest.raises(ValueError):
        ToleranceSpec(abs_tol=-1e-3)
    with pytest.raises(ValueError):
        ToleranceSpec(max_steps=0)


def test_quadrature_linear():
    assert abs(adaptive_quadrature(lambda t: t, 0.0, 1.0) - 0.5) < 1e-14


def test_quadrature_zero_integrand():
    assert adaptive_quadrature(lambda t: 0.0, 0.0, 10.0) == 0.0


def test_quadrature_degenerate_interval():
    assert adaptive_quadrature(lambda t: t**3, 2.0, 2.0) == 0.0


def test_quadrature_polynomial_exactness():
    # well inside the embedded rule's degree
    exact = 3.0**13 / 13.0 + 3.0**5
    got = adaptive_quadrature(lambda t: t**12 + 5 * t**4, 0.0, 3.0)
    assert abs(got - exact) < 1e-12 * exact


def test_quadrature_lorentzian_window():
    alpha, lam, omega1 = 0.2, 0.37, 3.2

    def J(w):
        return (alpha * lam**2 / (2 * np.pi)) / ((omega1 - w) ** 2 + lam**2)

    tol = ToleranceSpec(rel_tol=1e-12, abs_tol=1e-12 * alpha * lam, max_steps=500)
    got = adaptive_quadrature(J, omega1 - 200 * lam, omega1 + 200 * lam, tol)
    # arctan antiderivative over the finite window
    expected = (alpha * lam / np.pi) * np.arctan(200.0)
    assert abs(got - expected) < 1e-6 * alpha * lam
    # the window mass deliberately differs from the full-line mass alpha*lam/2
    # by the O(1/K) tail weight, about 1.6e-3 of it here
    assert abs(expected - alpha * lam / 2) > 1e-4 * alpha * lam
    full = adaptive_quadrature(J, -np.inf, np.inf, tol)
    assert abs(full - alpha * lam / 2) < 1e-9 * alpha * lam


def test_quadrature_rejects_reversed_bounds():
    with pytest.raises(ValueError):
        adaptive_quadrature(lambda t: t, 1.0, 0.0)


def test_quadrature_nonconvergence_carries_estimate():
    # a very narrow peak cannot be resolved with a single subdivision
    lam = 1e-7

    def peak(x):
        return lam / (x * x + lam * lam)

    tol = ToleranceSpec(rel_tol=1e-12, abs_tol=1e-14, max_steps=1)
    with pytest.raises(QuadratureError) as err:
        adaptive_quadrature(peak, -1.0, 1.0, tol)
    assert np.isfinite(err.value.estimate)
    assert err.value.error_bound > 0.0


def test_panel_gauss_polynomial_exactness():
    # order n is exact through degree 2n-1 on each panel
    got = panel_gauss(lambda t: t**7, 0.0, 2.0, max_width=2.0, order=4,
                      breakpoints=(0.3,))
    assert abs(got - 2.0**8 / 8.0) < 1e-12


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


def test_ode_convergence_order():
    # force fixed steps and loose error control; the pair propagates its
    # fifth-order solution, so halving h should shrink the error ~32x
    loose = ToleranceSpec(rel_tol=0.9, abs_tol=1.0, max_steps=100_000)
    errs = []
    for h in (0.2, 0.1, 0.05):
        out = ode_solve(lambda t, y: -y, np.array([1.0]), np.array([0.0, 2.0]),
                        loose, max_step=h, first_step=h)
        errs.append(abs(out[-1, 0] - np.exp(-2.0)))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(orders >= 4.0)


def test_ode_step_failure_reports_last_time():
    # y' = y^2 from y(0)=1 blows up at t=1
    def deriv(t, y):
        with np.errstate(over="ignore", invalid="ignore"):
            return y * y

    with pytest.raises(OdeSolveError) as err:
        ode_solve(deriv, np.array([1.0]), np.array([0.0, 2.0]))
    assert 0.5 < err.value.last_t <= 1.05


def test_ode_step_budget_exhausted():
    tol = ToleranceSpec(rel_tol=1e-12, abs_tol=1e-14, max_steps=3)
    with pytest.raises(OdeSolveError) as err:
        ode_solve(lambda t, y: -y, np.array([1.0]), np.array([0.0, 100.0]), tol)
    assert err.value.last_t < 100.0


def test_ode_rejects_bad_grid():
    with pytest.raises(ValueError):
        ode_solve(lambda t, y: -y, np.array([1.0]), np.array([0.0, 1.0, 0.5]))
    with pytest.raises(ValueError):
        ode_solve(lambda t, y: -y, np.array([1.0]), np.array([]))
