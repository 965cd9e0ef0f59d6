import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import leakycavity
from leakycavity import analysis, dynamics, numerics, spectral
from leakycavity.analysis import detect_plateau
from leakycavity.dynamics import evolve_analytic
from powerlaw import short_time_exponent
from reference import reference_case

RABI_PERIOD = np.pi / 0.5  # pi / Omega in the canonical units


def _atom_excited_envelope(case, t_max, n):
    # P_atom_e without its Rabi term, the dressed coherence
    sys, s = reference_case(case)
    ts = np.linspace(0.0, t_max, n)
    traj = evolve_analytic(sys, s, ts)
    return ts, 0.5 * (traj.P_minus + traj.P_plus)


def test_detect_plateau_broad_reservoir():
    ts, P = _atom_excited_envelope("a", 150.0, 7501)
    report = detect_plateau(ts, P, osc_period=RABI_PERIOD)
    assert np.isfinite(report.plateau_start)
    assert 0.14 <= report.trapped_value <= 0.21
    assert report.plateau_end - report.plateau_start >= 10 * RABI_PERIOD
    assert report.plateau_end == ts[-1]


def test_detect_plateau_narrow_reservoir():
    ts, P = _atom_excited_envelope("b", 300.0, 15001)
    report = detect_plateau(ts, P, osc_period=RABI_PERIOD)
    assert np.isfinite(report.plateau_start)
    assert 0.21 <= report.trapped_value <= 0.25
    assert report.plateau_end - report.plateau_start >= 10 * RABI_PERIOD


def test_detect_plateau_single_rate_decay_is_not_trapping():
    # e^{-kappa t/2}/2 with kappa = alpha, the envelope of
    # e^{-kappa t/2} cos^2(Omega t): it loses ~30% per period, so nothing qualifies
    t = np.linspace(0.0, 150.0, 7501)
    P = 0.5 * np.exp(-0.05 * t)
    report = detect_plateau(t, P, osc_period=RABI_PERIOD)
    assert np.isnan(report.plateau_start)


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(log_amp=st.floats(-3.0, 1.0), drift=st.one_of(st.floats(1e-3, 0.04),
                                                     st.floats(0.06, 1.0)),
       period=st.floats(0.5, 10.0), t0=st.floats(0.0, 50.0),
       n_periods=st.floats(12.0, 40.0), per_period=st.integers(4, 40))
def test_detect_plateau_on_an_exponential(log_amp, drift, period, t0, n_periods,
                                          per_period):
    # S = A e^{-r t} drifts by exactly r*T per period T, everywhere
    r = drift / period
    t = t0 + np.linspace(0.0, n_periods * period, int(n_periods * per_period) + 1)
    S = 10.0**log_amp * np.exp(-r * t)
    report = detect_plateau(t, S, osc_period=period)
    assert np.isfinite(report.plateau_start) == (drift <= 0.04)
    if np.isfinite(report.plateau_start):
        i0, i1 = np.searchsorted(t, [report.plateau_start, report.plateau_end])
        assert S[i1] <= report.trapped_value <= S[i0]


def test_detect_plateau_series_too_short():
    t = np.linspace(0.0, 10.0, 101)
    report = detect_plateau(t, np.full(101, 0.3), osc_period=RABI_PERIOD)
    assert np.isnan(report.plateau_start)
    assert "too short" in report.note
    assert report.trapped_value == 0.0


def test_detect_plateau_nothing_qualifies():
    t = np.linspace(0.0, 400.0, 4001)
    report = detect_plateau(t, np.exp(-t / 10.0), osc_period=RABI_PERIOD)
    assert np.isnan(report.plateau_start)
    assert report.note != ""


def test_detect_plateau_slow_interval_below_ten_periods_is_no_plateau():
    # to t = 80 the trapped tail of case a is slow for only about 17 time
    # units, short of the 10 Rabi periods (62.8) a plateau needs
    ts, P = _atom_excited_envelope("a", 80.0, 1601)
    report = detect_plateau(ts, P, osc_period=RABI_PERIOD)
    assert np.isnan(report.plateau_start)
    assert np.isnan(report.plateau_start) and np.isnan(report.plateau_end)
    assert report.trapped_value == 0.0
    assert "below the minimum of 62.8319" in report.note


def test_detect_plateau_rejects_mismatched_arrays():
    with pytest.raises(ValueError):
        detect_plateau(np.linspace(0, 1, 10), np.zeros(9), osc_period=1.0)


def test_short_time_exponent_exact_power_law():
    t = np.logspace(-3, -2, 30)
    exponent, r_squared = short_time_exponent(t, 0.37 * t**2)
    assert abs(exponent - 2.0) < 1e-10
    assert r_squared > 1.0 - 1e-12


def test_short_time_exponent_linear_law():
    t = np.logspace(-3, -2, 30)
    exponent, r_squared = short_time_exponent(t, 1.0 - np.exp(-0.3 * t))
    assert abs(exponent - 1.0) < 0.05
    assert r_squared > 0.999


def test_short_time_exponent_reference_dynamics():
    for case in ("a", "b"):
        sys, s = reference_case(case)
        ts = np.logspace(-3, -2, 25)
        P = evolve_analytic(sys, s, ts).P_E0
        exponent, r_squared = short_time_exponent(ts, P)
        assert abs(exponent - 2.0) < 0.05
        assert r_squared > 0.999


def test_package_exports_each_module_all():
    modules = (analysis, dynamics, numerics, spectral)
    assert sorted(leakycavity.__all__) == sorted(
        [name for m in modules for name in m.__all__] + ["__version__"])
    for m in modules:
        for name in m.__all__:
            assert getattr(leakycavity, name) is getattr(m, name)


def test_reference_case_values():
    sys, sa = reference_case("a")
    assert sys.Omega == 0.5
    assert sa.alpha == 0.1 and sa.detuning == -0.5
    assert sa.lam == 1.0 / 3.0
    _, sb = reference_case("b")
    assert sb.lam == 1.0 / np.sqrt(99.0)
