import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from leakycavity import dynamics, numerics, spectral
from leakycavity.numerics import (OdeSolveError, QuadratureError,
                                  fourier_sine_tail, ode_solve)
from reference import reference_case


TOL = 1e-12  # absolute; the relative tolerance is the tail's own


def test_quadrature_zero_integrand():
    assert fourier_sine_tail(np.zeros_like, 0.0, 0.0, [1.0], TOL) == 0.0


# the last two put x0 = a on a zero of sin(t x) and a quarter period past one
@pytest.mark.parametrize("a, freq", [(0.0, 1.0), (0.5, 3.0), (2.0, 0.7), (1.0, 10.0),
                                     (np.pi / 2, 2.0), (np.pi / 4, 2.0)])
def test_quadrature_exponential_fourier_tail(a, freq):
    # int_a^inf e^{-x} sin(w x) dx = e^{-a} (sin(w a) + w cos(w a)) / (1 + w^2)
    exact = np.exp(-a) * (np.sin(freq * a) + freq * np.cos(freq * a)) / (1 + freq**2)
    got = fourier_sine_tail(lambda x: np.exp(-x), a, 0.0, [freq], TOL)[0]
    assert abs(got - exact) < 1e-15


def test_quadrature_nonconvergence_carries_estimate():
    # a very narrow peak cannot be resolved by a fixed rule per half-period
    lam = 1e-7

    def peak(x):
        return lam / ((x - 1.0) ** 2 + lam * lam)

    with pytest.raises(QuadratureError) as err:
        fourier_sine_tail(peak, 0.0, 0.0, [1.0], 1e-14)
    found = re.fullmatch(r"Fourier tail at frequency 1: estimated error (\S+) "
                         r"above the tolerance (\S+)", str(err.value))
    error, bound = map(float, found.groups())
    assert np.isfinite(error) and error > bound >= 1e-14


def test_quadrature_floors_a_zero_absolute_tolerance():
    # at a = 3 pi/4 the exact tail of e^{-x} sin(x) is 0, so for a subnormal
    # integrand the result is rounding noise below the smallest normal float;
    # a tolerance of 0 would ask for its relative accuracy and raise
    got = fourier_sine_tail(lambda x: 1e-310 * np.exp(-x), 0.75 * np.pi, 0.0, [1.0], 0.0)
    assert np.isfinite(got[0]) and abs(got[0]) < np.finfo(float).tiny


@pytest.mark.parametrize("n", [16, 20])
def test_gauss_legendre_integrates_polynomials_exactly(n):
    # the n-point rule on [0, 1] is exact through degree 2n - 1
    x, w = numerics.gauss_legendre(n)
    assert abs(np.dot(w, x ** (2 * n - 1)) - 1.0 / (2 * n)) < 1e-15


def test_shared_rule_arrays_are_read_only():
    # each is cached and shared: one write would change every later tail
    for a in (*numerics.gauss_legendre(20), numerics._cvz_weights(20, numerics._TAIL_TERMS)):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.0


def _constant(A):
    """The generator of y' = A y: A at every time asked for."""
    A = np.asarray(A)
    return lambda ts: np.broadcast_to(A, (ts.size, *A.shape))


def _driven(drive, calls=None):
    """y' = drive(t) as the linear system [y, 1]' = [[0, drive(t)], [0, 0]] [y, 1]."""
    def generator(ts):
        if calls is not None:
            calls.extend(ts)
        A = np.zeros((ts.size, 2, 2))
        A[:, 0, 1] = drive(ts)
        return A
    return generator


def test_ode_scalar_exponential():
    out = ode_solve(_constant([[-1.0]]), np.array([1.0]), np.array([0.0, 1.0]))
    assert abs(out[-1, 0] - np.exp(-1.0)) < 1e-9


def test_ode_zero_generator_keeps_the_state():
    # both error norms vanish on every step, which must accept it, not shrink it
    ts = np.linspace(0.0, 3.0, 7)
    out = ode_solve(_constant(np.zeros((2, 2))), np.array([1.0, -2.0]), ts)
    assert np.array_equal(out, np.tile([1.0, -2.0], (ts.size, 1)))


def test_ode_phase_rotation_preserves_norm():
    omega = 3.0
    ts = np.linspace(0.0, 5.0, 11)
    out = ode_solve(_constant([[1j * omega]]), np.array([1.0 + 0.0j]), ts)
    assert out.dtype.kind == "c"
    assert np.max(np.abs(np.abs(out[:, 0]) - 1.0)) < 1e-9
    # phase agrees with e^{i omega t}
    assert np.max(np.abs(out[:, 0] - np.exp(1j * omega * ts))) < 1e-8


def test_ode_dense_output_fills_grid():
    ts = np.linspace(0.0, 2.0, 21)
    out = ode_solve(_constant([[-1.0]]), np.array([1.0]), ts)
    assert np.max(np.abs(out[:, 0] - np.exp(-ts))) < 1e-9

    # a one-point grid is the initial state, without a step
    def generator(ts):
        raise AssertionError("generator evaluated")

    out = ode_solve(generator, np.array([1.0, 2.0]), np.array([0.5]))
    assert out.shape == (1, 2) and np.array_equal(out[0], [1.0, 2.0])
    # and an empty state has nothing to step
    assert ode_solve(generator, np.array([]), np.array([0.0, 1.0])).shape == (2, 0)


def test_ode_fills_each_grid_point_once_from_the_step_that_covers_it(monkeypatch):
    generator = _driven(np.cos)

    def run(ts):
        calls = []

        def recording(times):
            calls.append(times.copy())
            return generator(times)
        # the first two calls are f at t = 0 and the first-step guess
        return ode_solve(recording, np.array([0.0, 1.0]), ts), calls[2:]

    # a step attempt asks for 12 stage times, the last being its end; the
    # steps do not depend on the output grid, so a first run finds an interior
    # step end for the second, much finer grid to contain; on [0, 10] only the
    # last step covers a grid point, and its dense output asks for 3 times
    _, coarse = run(np.array([0.0, 10.0]))
    attempts = coarse[:-1]
    assert {times.size for times in attempts} == {12} and coarse[-1].size == 3
    mid = len(attempts) // 2
    t_end = attempts[mid][-1]
    assert attempts[mid + 1][0] > t_end  # the attempt was accepted
    # an attempt is accepted when the next starts past its end; the last one is
    steps = [a for a, b in zip(attempts, attempts[1:]) if b[0] > a[-1]] + attempts[-1:]
    ts = np.union1d(np.linspace(0.0, 10.0, 10001), [t_end])
    # with the batch at 3 steps, a dense output call asks for 9 stage times at
    # most, so the 12-time calls are the attempts
    monkeypatch.setattr(numerics, "_ODE_DENSE_STEPS", 3)
    out, fine = run(ts)
    assert np.array_equal([times for times in fine if times.size == 12], attempts)
    # every accepted step covers grid points here; its dense output is 3
    # stage times inside it, asked for with those of the next two steps, not
    # once per grid point, right after the last of the three is accepted
    dense = [i for i, times in enumerate(fine) if times.size != 12]
    sizes = [fine[i].size for i in dense]
    full, rest = divmod(len(steps), 3)
    assert sizes == [9] * full + [3 * rest] * (rest > 0)
    triples = np.concatenate([fine[i] for i in dense]).reshape(-1, 3)
    for step, times in zip(steps, triples):
        assert step.min() <= times.min() and times.max() <= step.max()
    for k, i in enumerate(dense):
        assert np.array_equal(fine[i - 1], steps[min(3 * k + 2, len(steps) - 1)])
    assert np.max(np.abs(out[:, 0] - np.sin(ts))) < 1e-9


def test_ode_budget_is_checked_only_after_the_grid_is_full(monkeypatch):
    # the final step of a run that takes N stage times crosses a budget of
    # N - 1, yet the grid is full by then, so the run returns it; the first
    # step, near 0.01, covers 1% of the span, so the pace rule stays quiet
    calls = []
    generator = _driven(np.cos, calls)
    ts = np.linspace(0.0, 0.5, 11)
    want = ode_solve(generator, np.array([0.0, 1.0]), ts)
    monkeypatch.setattr(numerics, "_ODE_MAX_NFEV", len(calls) - 1)
    assert np.array_equal(ode_solve(generator, np.array([0.0, 1.0]), ts), want)


def test_dop853_tableau_is_scipys():
    from scipy.integrate import DOP853

    ours = {"A": numerics._A[:12, :12], "B": numerics._B, "C": numerics._C[:12],
            "E3": numerics._E3, "E5": numerics._E5, "D": numerics._D,
            "A_EXTRA": numerics._A[13:], "C_EXTRA": numerics._C[13:]}
    for name, value in ours.items():
        theirs = getattr(DOP853, name)
        assert value.shape == theirs.shape and np.array_equal(value, theirs), name
    # the stages are explicit: nothing on or above A's diagonal
    assert not np.triu(numerics._A).any()


def _scipy_dop853(generator, y0, ts):
    """ts filled by scipy's DOP853 at ode_solve's tolerances: (states, nfev, t at failure)."""
    from scipy.integrate import DOP853

    solver = DOP853(lambda t, y: generator(np.array([t]))[0] @ y, ts[0], y0, t_bound=ts[-1], rtol=numerics._ODE_RTOL,
                    atol=numerics._ODE_ATOL)
    out = np.empty((ts.size, y0.size), dtype=solver.y.dtype)
    out[0] = y0
    while solver.status == "running":
        solver.step()
        if solver.status == "failed":
            return None, solver.nfev, solver.t
        start, end = np.searchsorted(ts, (solver.t_old, solver.t), side="right")
        if end > start:
            out[start:end] = solver.dense_output()(ts[start:end]).T
    return out, solver.nfev, None


def _ported_dop853(generator, y0, ts):
    """The same from ode_solve, its stage times counted: (states, nfev, OdeSolveError)."""
    calls = []

    def counted(times):
        calls.extend(times)
        return generator(times)
    try:
        return ode_solve(counted, y0, ts), len(calls), None
    except OdeSolveError as exc:
        return None, len(calls), exc


def _case_b_problem():
    # the 9x9 generator evolve_tcl_ode builds for case b
    problem = {}

    def capture(generator, state0, t_grid):
        problem.update(generator=generator, y0=state0)
        return np.zeros((len(t_grid), 9))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dynamics, "ode_solve", capture)
        dynamics.evolve_tcl_ode(*reference_case("b"), [0.0, 1.0])
    return problem["generator"], problem["y0"], np.linspace(0.0, 100.0, 2001)


def _blow_up(ts):
    # y' = y / (1 - t): y = 1 / (1 - t) from y(0) = 1, as y' = y^2 has
    with np.errstate(divide="ignore"):
        return (1.0 / (1.0 - ts))[:, None, None]


@pytest.mark.parametrize("problem", [
    _case_b_problem,
    lambda: (_constant([[3j]]), np.array([1.0 + 0.0j]), np.linspace(0.0, 20.0, 41)),
    lambda: (_blow_up, np.array([1.0]), np.array([0.0, 2.0])),
], ids=["case-b-generator", "complex-rotation", "blow-up"])
def test_ode_solve_steps_as_scipys_dop853(problem):
    generator, y0, ts = problem()
    want, want_nfev, want_fail = _scipy_dop853(generator, y0, ts)
    got, got_nfev, got_fail = _ported_dop853(generator, y0, ts)
    assert got_nfev == want_nfev
    if want_fail is None:
        # scipy's dense output is one step at a time, and the same arithmetic
        # per step: the batched flush must give its bits
        assert got_fail is None and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
    else:
        # y = 1 / (1 - t) blows up at t = 1: both stop there on step underflow,
        # ode_solve by OdeSolveError with its last_t, which the message names
        assert got is None and abs(got_fail.last_t - want_fail) <= 1e-12
        assert str(got_fail) == f"step size underflow at t={got_fail.last_t:g}"


def test_numerical_failures_are_arithmetic_errors(monkeypatch):
    # one except clause in a library caller, as in the CLI's exit 3, takes
    # both the oracle's budget error and the ODE's OdeSolveError, here from
    # the hopeless-horizon rule after 1000 stage times
    _, s = reference_case("a")
    with pytest.raises(ArithmeticError, match="budget"):
        spectral.rate_quadrature_oracle(s, s.detuning, 1e12)
    monkeypatch.setattr(numerics, "_ODE_MAX_NFEV", 100_000)
    with pytest.raises(ArithmeticError, match="under 1% of the span"):
        ode_solve(_driven(np.cos), np.array([0.0, 1.0]), np.array([0.0, 1e7]))


def _sparse_case_b_problem():
    # steps that cover no grid point, and one that covers two
    generator, y0, _ = _case_b_problem()
    return generator, y0, np.array([0.0, 0.5, 37.0, 37.001, 100.0])


@pytest.mark.parametrize("batch", [1, 3])
@pytest.mark.parametrize("problem", [
    _case_b_problem,
    lambda: (_constant([[3j]]), np.array([1.0 + 0.0j]), np.linspace(0.0, 20.0, 41)),
    _sparse_case_b_problem,
], ids=["case-b-generator", "complex-rotation", "sparse-grid"])
def test_ode_dense_output_does_not_depend_on_the_batch(problem, batch, monkeypatch):
    generator, y0, ts = problem()
    want = ode_solve(generator, y0, ts)
    monkeypatch.setattr(numerics, "_ODE_DENSE_STEPS", batch)
    got = ode_solve(generator, y0, ts)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_ode_budget_counts_dense_stage_times_when_a_step_is_queued(monkeypatch):
    # every step covers points of this grid, and a step's 3 dense stage times
    # count when it is queued, so the budget runs out at the same step whatever
    # the batch, with steps still queued at 256
    monkeypatch.setattr(numerics, "_ODE_MAX_NFEV", 20_000)
    generator = _driven(lambda t: np.cos(t * t))
    last_t = []
    for batch in (1, 256):
        monkeypatch.setattr(numerics, "_ODE_DENSE_STEPS", batch)
        with pytest.raises(OdeSolveError, match="exhausted") as err:
            ode_solve(generator, np.array([0.0, 1.0]), np.linspace(0.0, 100.0, 100001))
        last_t.append(err.value.last_t)
    assert last_t[0] == last_t[1]


def test_ode_dense_output_batch_stays_under_a_megabyte():
    # 3 stage matrices of 150 x 150 doubles take 540 kB, so each accepted
    # step's dense output is asked for alone
    n, calls = 150, []

    def generator(ts):
        calls.append(ts.size)
        return np.broadcast_to(-np.eye(n), (ts.size, n, n))
    ts = np.linspace(0.0, 1.0, 11)
    out = ode_solve(generator, np.ones(n), ts)
    assert calls.count(3) > 1 and max(size for size in calls if size != 12) == 3
    assert np.max(np.abs(out - np.exp(-ts)[:, None])) < 1e-9


NAN_START_SCRIPT = """\
import numpy as np
from leakycavity.numerics import OdeSolveError, ode_solve

try:
    ode_solve(lambda ts: np.full((ts.size, 1, 1), np.nan), np.array([1.0]), np.array([0.5, 1.0]))
except OdeSolveError as exc:
    print(exc.last_t, exc)
try:
    ode_solve(lambda ts: -np.ones((ts.size, 1, 1)), np.array([1.0]), np.array([np.nan, 1.0]))
except ValueError as exc:
    print(exc)
"""


def test_ode_nonfinite_initial_derivative_raises_at_once():
    # a NaN first derivative makes a NaN first step, which DOP853 would reject
    # forever inside one step(); from a NaN start time the minimum step is NaN,
    # so a rejected step neither underflows nor reaches the budget check; the
    # timeout turns such a hang into a failure
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", NAN_START_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ("0.5 non-finite derivative at t=0.5\n"
                           "t_grid must be finite, start at t >= 0 and strictly increase\n")


def test_ode_step_budget_exhausted(monkeypatch):
    # y' = cos(t^2) oscillates ever faster, so the steps shrink: 1% of a
    # 20000-call budget covers more than 1% of [0, 100], but the whole
    # budget runs out near t = 30
    monkeypatch.setattr(numerics, "_ODE_MAX_NFEV", 20_000)
    calls = []
    generator = _driven(lambda t: np.cos(t * t), calls)

    with pytest.raises(OdeSolveError, match="exhausted") as err:
        ode_solve(generator, np.array([0.0, 1.0]), np.array([0.0, 100.0]))
    assert 1.0 < err.value.last_t < 100.0
    assert str(err.value) == f"budget of 20000 RHS calls exhausted at t={err.value.last_t:g}"
    # the budget counts stage times; the last step may pass it by its own stages
    assert 20_000 <= len(calls) < 20_100


def test_ode_hopeless_horizon_raises_after_one_percent_of_the_budget(monkeypatch):
    # y' = cos t keeps DOP853's step near 0.43 at twelve stage times a step:
    # 1% of a 100000-call budget reaches t ~ 36, under 1% of a 1e7 span, so
    # the whole budget could not get there; the solver stops at once
    monkeypatch.setattr(numerics, "_ODE_MAX_NFEV", 100_000)
    calls = []
    generator = _driven(np.cos, calls)

    with pytest.raises(OdeSolveError, match="under 1% of the span") as err:
        ode_solve(generator, np.array([0.0, 1.0]), np.array([0.0, 1e7]))
    assert 0.0 < err.value.last_t < 1e5
    # 1% of the budget and at most one more step's calls, not the budget
    assert 1000 <= len(calls) < 1100
    # a span that the same pace covers within the budget still succeeds
    ts = np.linspace(0.0, 500.0, 6)
    out = ode_solve(generator, np.array([0.0, 1.0]), ts)
    assert np.max(np.abs(out[:, 0] - np.sin(ts))) < 1e-8


def test_ode_rejects_bad_grid():
    with pytest.raises(ValueError):
        ode_solve(_constant([[-1.0]]), np.array([1.0]), np.array([0.0, 1.0, 0.5]))
    with pytest.raises(ValueError):
        ode_solve(_constant([[-1.0]]), np.array([1.0]), np.array([]))
    # a NaN passes a comparison like diff <= 0, and an infinite end or a negative
    # start passes a check of order alone; each is refused before the generator
    # is asked for anything
    calls = []
    for grid in ([0.0, np.nan, 1.0], [0.0, 1.0, np.nan], [0.0, np.inf], [-1.0, 0.0]):
        with pytest.raises(ValueError, match="must be finite, start at t >= 0"):
            ode_solve(_driven(np.cos, calls), np.array([0.0, 1.0]), np.array(grid))
    assert calls == []
