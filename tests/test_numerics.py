import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from leakycavity import numerics
from leakycavity.numerics import (OdeSolveError, QuadratureError,
                                  adaptive_quadrature, ode_solve,
                                  panel_gauss_blocks)


TOL = dict(rel_tol=1e-10, abs_tol=1e-12, limit=10_000)


def test_quadrature_zero_integrand():
    assert adaptive_quadrature(lambda x: 0.0, 0.0, 1.0, **TOL) == 0.0


@pytest.mark.parametrize("a, freq", [(0.0, 1.0), (0.5, 3.0), (2.0, 0.7), (1.0, 10.0)])
def test_quadrature_exponential_fourier_tail(a, freq):
    # int_a^inf e^{-x} sin(w x) dx = e^{-a} (sin(w a) + w cos(w a)) / (1 + w^2)
    exact = np.exp(-a) * (np.sin(freq * a) + freq * np.cos(freq * a)) / (1 + freq**2)
    got = adaptive_quadrature(lambda x: np.exp(-x), a, freq, **TOL)
    assert abs(got - exact) < 1e-15


def test_quadrature_nonconvergence_carries_estimate():
    # a very narrow peak cannot be resolved with a single subdivision per cycle
    lam = 1e-7

    def peak(x):
        return lam / ((x - 1.0) ** 2 + lam * lam)

    tol = dict(rel_tol=1e-12, abs_tol=1e-14, limit=1)
    with pytest.raises(QuadratureError) as err:
        adaptive_quadrature(peak, 0.0, 1.0, **tol)
    assert np.isfinite(err.value.estimate)
    assert err.value.error_bound > 0.0


def integrate(f, b, max_width):
    return sum(float(np.dot(f(x), w)) for x, w in panel_gauss_blocks(b, max_width))


def test_panel_gauss_polynomial_exactness():
    # the 16-point rule is exact through degree 31 on each panel
    got = integrate(lambda t: t**7, 2.0, max_width=2.0)
    assert abs(got - 2.0**8 / 8.0) < 1e-12


def test_panel_gauss_evaluates_in_bounded_blocks():
    # more panels than one block: no block holds more than _PANEL_BLOCK nodes,
    # and the blocks tile [0, n] in order
    per = numerics._PANEL_BLOCK // 16
    n = 3 * per + 5
    blocks = list(panel_gauss_blocks(float(n), max_width=1.0))
    assert [x.size for x, _ in blocks] == [numerics._PANEL_BLOCK] * 3 + [16 * 5]
    nodes = np.concatenate([x for x, _ in blocks])
    assert np.all(np.diff(nodes) > 0.0) and 0.0 < nodes[0] and nodes[-1] < n
    assert abs(integrate(np.cos, float(n), max_width=1.0) - np.sin(n)) < 1e-10


@pytest.mark.parametrize("max_width", [1.0 / (numerics._PANEL_BUDGET + 1), 1e-300])
def test_panel_gauss_over_budget_raises_before_evaluating(max_width):
    # the call itself raises, before a single block is built
    with pytest.raises(QuadratureError, match="budget"):
        panel_gauss_blocks(1.0, max_width=max_width)


def test_panel_gauss_oscillatory():
    got = integrate(np.sin, 20 * np.pi, max_width=np.pi / 2)
    assert abs(got) < 1e-12
    got = integrate(lambda t: np.cos(10 * t), 1.0, max_width=0.1)
    assert abs(got - np.sin(10.0) / 10.0) < 1e-12


def test_panel_gauss_rejects_bad_interval():
    with pytest.raises(ValueError):
        panel_gauss_blocks(0.0, max_width=0.1)
    with pytest.raises(ValueError):
        panel_gauss_blocks(1.0, max_width=0.0)


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


def test_ode_fills_each_grid_point_once_from_the_step_that_covers_it(monkeypatch):
    import scipy.integrate
    ends, filled = [], []

    class Recording(scipy.integrate.DOP853):
        def step(self):
            super().step()
            ends.append(self.t)

        def dense_output(self):
            dense, t_old, t_new = super().dense_output(), self.t_old, self.t

            def recorded(t):
                assert np.all((t_old <= t) & (t <= t_new))
                filled.append(t)
                return dense(t)
            return recorded

    monkeypatch.setattr(scipy.integrate, "DOP853", Recording)

    def deriv(t, y):
        return np.cos(t) * np.ones_like(y)

    # the steps do not depend on the output grid, so a first run finds an
    # interior step end for the second, much finer grid to contain
    ode_solve(deriv, np.array([0.0]), np.array([0.0, 10.0]))
    t_end = ends[len(ends) // 2]
    ts = np.union1d(np.linspace(0.0, 10.0, 10001), [t_end])
    ends.clear()
    filled.clear()
    out = ode_solve(deriv, np.array([0.0]), ts)
    assert np.array_equal(np.concatenate(filled), ts[1:])
    assert len(filled) <= len(ends) and any(t[-1] == t_end for t in filled)
    assert np.max(np.abs(out[:, 0] - np.sin(ts))) < 1e-9


def test_ode_step_failure_reports_last_time():
    # y' = y^2 from y(0)=1 blows up at t=1
    def deriv(t, y):
        with np.errstate(over="ignore", invalid="ignore"):
            return y * y

    with pytest.raises(OdeSolveError) as err:
        ode_solve(deriv, np.array([1.0]), np.array([0.0, 2.0]))
    assert 0.5 < err.value.last_t <= 1.05


NAN_START_SCRIPT = """\
import numpy as np
from leakycavity.numerics import OdeSolveError, ode_solve

try:
    ode_solve(lambda t, y: np.full_like(y, np.nan), np.array([1.0]), np.array([0.5, 1.0]))
except OdeSolveError as exc:
    print(exc.last_t, exc)
"""


def test_ode_nonfinite_initial_derivative_raises_at_once():
    # a NaN first derivative makes a NaN first step, which DOP853 would reject
    # forever inside one step(); the timeout turns such a hang into a failure
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", NAN_START_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0.5 non-finite derivative at t=0.5\n"


def test_ode_step_budget_exhausted(monkeypatch):
    # y' = cos(t^2) oscillates ever faster, so the steps shrink: 1% of a
    # 20000-call budget covers more than 1% of [0, 100], but the whole
    # budget runs out near t = 30
    monkeypatch.setattr(numerics, "_ODE_MAX_NFEV", 20_000)
    calls = []

    def deriv(t, y):
        calls.append(t)
        return np.cos(t * t) * np.ones_like(y)

    with pytest.raises(OdeSolveError, match="exhausted") as err:
        ode_solve(deriv, np.array([0.0]), np.array([0.0, 100.0]))
    assert 1.0 < err.value.last_t < 100.0
    # the budget counts RHS calls; the last step may pass it by its own stages
    assert 20_000 <= len(calls) < 20_100


def test_ode_hopeless_horizon_raises_after_one_percent_of_the_budget(monkeypatch):
    # y' = cos t keeps DOP853's step near 0.43 at twelve RHS calls a step:
    # 1% of a 100000-call budget reaches t ~ 33, under 1% of a 1e7 span, so
    # the whole budget could not get there; the solver stops at once
    monkeypatch.setattr(numerics, "_ODE_MAX_NFEV", 100_000)
    calls = []

    def deriv(t, y):
        calls.append(t)
        return np.cos(t) * np.ones_like(y)

    with pytest.raises(OdeSolveError, match="under 1% of the span") as err:
        ode_solve(deriv, np.array([0.0]), np.array([0.0, 1e7]))
    assert 0.0 < err.value.last_t < 1e5
    # 1% of the budget and at most one more step's calls, not the budget
    assert 1000 <= len(calls) < 1100
    # a span that the same pace covers within the budget still succeeds
    ts = np.linspace(0.0, 500.0, 6)
    out = ode_solve(deriv, np.array([0.0]), ts)
    assert np.max(np.abs(out[:, 0] - np.sin(ts))) < 1e-8


def test_ode_rejects_bad_grid():
    with pytest.raises(ValueError):
        ode_solve(lambda t, y: -y, np.array([1.0]), np.array([0.0, 1.0, 0.5]))
    with pytest.raises(ValueError):
        ode_solve(lambda t, y: -y, np.array([1.0]), np.array([]))
