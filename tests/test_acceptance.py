"""Acceptance suite: one check per shipped claim, one printed line each.

Run ``pytest -s -v tests/test_acceptance.py`` to see the per-criterion
report; each check prints ``criterion NN: PASS - <claim>`` on success or
the matching FAIL line before re-raising.  Tolerances are stated inline;
every expected number was computed from an independent route (stationary
limits, the quadrature oracle, or the closed-form solution) before the
implementation was written, never copied from its own output.
"""

from contextlib import contextmanager
from pathlib import Path

import numpy as np

from leakycavity.analysis import detect_plateau
from leakycavity.dynamics import (SystemParams, evolve_analytic,
                                  evolve_phenomenological, evolve_tcl_ode,
                                  populations, rho_analytic)
from leakycavity.spectral import (LorentzianSpectrum, accumulated_rate,
                                  rate_closed_form, rate_quadrature_oracle,
                                  stationary_rate)
from leakycavity import cli
from powerlaw import short_time_exponent
from reference import reference_case

RABI_PERIOD = np.pi / 0.5  # canonical units, 2*Omega = 1


@contextmanager
def criterion(num, claim):
    try:
        yield
    except Exception:
        print(f"criterion {num:02d}: FAIL - {claim}")
        raise
    print(f"criterion {num:02d}: PASS - {claim}")


def test_criterion_01_stationary_rates():
    with criterion(1, "stationary rates: gamma_-(inf) = alpha, channel ratios 1/10 and 1/100"):
        for case, ratio in (("a", 0.1), ("b", 0.01)):
            sys, s = reference_case(case)
            g_minus = stationary_rate(s, sys.channels[0])
            g_plus = stationary_rate(s, sys.channels[1])
            assert abs(g_minus - s.alpha) <= 1e-12
            assert abs(g_plus / g_minus - ratio) <= 1e-12


def test_criterion_02_rates_vanish_at_t0():
    with criterion(2, "gamma(omega, 0) is exactly zero across omega1 +- 10 lambda"):
        for case in ("a", "b"):
            _, s = reference_case(case)
            omegas = np.linspace(s.omega1 - 10.0 * s.lam,
                                 s.omega1 + 10.0 * s.lam, 100)
            rates = rate_closed_form(s, omegas, 0.0)
            assert np.all(rates == 0.0)


def test_criterion_03_oracle_equivalence():
    with criterion(3, "quadrature oracle matches the closed-form rate to 1e-6*alpha "
                      "at 50 (omega, t) points per case"):
        for case in ("a", "b"):
            sys, s = reference_case(case)
            omegas = (s.omega1 - 10.0 * s.lam, s.omega1 - 2.0 * sys.Omega,
                      s.omega1, s.omega1 + 2.0 * sys.Omega,
                      s.omega1 + 10.0 * s.lam)
            times = np.linspace(0.5, 20.0, 10) / s.lam
            worst = max(abs(rate_quadrature_oracle(s, w, t)
                            - float(rate_closed_form(s, w, t)))
                        for w in omegas for t in times)
            assert worst <= 1e-6 * s.alpha


def test_criterion_04_ode_matches_exact_solution():
    with criterion(4, "ODE propagation matches the exact density matrix to 1e-8 on [0, 50]"):
        ts = np.linspace(0.0, 50.0, 501)
        for case in ("a", "b"):
            sys, s = reference_case(case)
            ode = evolve_tcl_ode(sys, s, ts)
            exact = evolve_analytic(sys, s, ts)
            assert np.max(np.abs(ode.states - exact.states)) <= 1e-8


def test_criterion_05_negative_transient_rate():
    with criterion(5, "narrow reservoir (case b): upper-channel rate dips below zero"):
        sys, s = reference_case("b")
        ts = np.linspace(0.0, 60.0, 6001)
        assert np.min(rate_closed_form(s, sys.channels[1], ts)) < 0.0


def test_criterion_06_ground_state_plateau_then_decay():
    with criterion(6, "case b: P_0g stays in [0.45, 0.58] on [80, 300], exceeds 0.9 by t = 5000"):
        sys, s = reference_case("b")
        ts = np.linspace(80.0, 300.0, 4401)
        P_0g = evolve_analytic(sys, s, ts).P_0g
        assert np.all(P_0g >= 0.45) and np.all(P_0g <= 0.58)
        late = evolve_analytic(sys, s, np.array([5000.0])).P_0g
        assert late[-1] > 0.9


def test_criterion_07_trapped_population_windows():
    with criterion(7, "trapped P_atom_e in [0.14, 0.21] (case a) and [0.21, 0.25] (case b), "
                      "plateau longer than 10 Rabi periods"):
        for case, t_max, n, lo, hi in (("a", 150.0, 7501, 0.14, 0.21),
                                       ("b", 300.0, 15001, 0.21, 0.25)):
            sys, s = reference_case(case)
            ts = np.linspace(0.0, t_max, n)
            traj = evolve_analytic(sys, s, ts)
            # P_atom_e without its Rabi term, the dressed coherence
            report = detect_plateau(ts, 0.5 * (traj.P_minus + traj.P_plus),
                                    osc_period=RABI_PERIOD)
            assert np.isfinite(report.plateau_start)
            assert lo <= report.trapped_value <= hi
            assert report.plateau_end - report.plateau_start > 10.0 * RABI_PERIOD


def test_criterion_08_exact_trapping_limit():
    with criterion(8, "with the upper channel switched off, P_atom_e(2000) = 1/4 and "
                      "P_0g = 1/2 to 1e-6"):
        sys, s = reference_case("a")
        ts = np.linspace(0.0, 2000.0, 401)
        traj = evolve_tcl_ode(
            sys, s, ts, rate=lambda s, omega, t: (rate_closed_form(s, omega[0], t), 0.0))
        assert abs(traj.P_atom_e[-1] - 0.25) <= 1e-6
        assert abs(traj.P_0g[-1] - 0.5) <= 1e-6
        # closed-form cross-check of the same limit
        I_minus = accumulated_rate(s, sys.channels[0], 2000.0)
        exact = populations(rho_analytic(sys, I_minus, 0.0, 2000.0))
        assert abs(exact["P_atom_e"] - 0.25) <= 1e-6
        assert abs(exact["P_0g"] - 0.5) <= 1e-6


def test_criterion_09_short_time_quadratic_law():
    with criterion(9, "ground-state growth is quadratic at short times "
                      "(exponent 2 +- 0.05, r^2 > 0.999)"):
        ts = np.logspace(-3.0, -2.0, 25)
        for case in ("a", "b"):
            sys, s = reference_case(case)
            P_E0 = evolve_analytic(sys, s, ts).P_E0
            exponent, r_squared = short_time_exponent(ts, P_E0)
            assert abs(exponent - 2.0) <= 0.05
            assert r_squared > 0.999


def test_criterion_10_single_rate_model_cannot_trap():
    with criterion(10, "single-rate cavity loss keeps the channels equal and shows no plateau"):
        sys, s = reference_case("a")
        ts = np.linspace(0.0, 150.0, 3001)
        traj = evolve_phenomenological(sys, kappa=s.alpha, t_grid=ts)
        P_minus = traj.P_minus
        P_plus = traj.P_plus
        assert np.max(np.abs(P_plus / P_minus - 1.0)) <= 1e-10
        report = detect_plateau(ts, 0.5 * (P_minus + P_plus), osc_period=RABI_PERIOD)
        assert np.isnan(report.plateau_start)


def test_criterion_11_omega0_invariance():
    with criterion(11, "shifting omega0 across {50, 100, 200} moves no population "
                       "by more than 1e-10"):
        ts = np.linspace(0.0, 50.0, 501)
        names = ("P_E0", "P_minus", "P_plus", "P_0g", "P_1g", "P_0e",
                 "P_atom_g", "P_atom_e")
        for case in ("a", "b"):
            _, s0 = reference_case(case)
            ode_pops, exact_pops = {}, {}
            for omega0 in (50.0, 100.0, 200.0):
                sys = SystemParams(omega0=omega0, Omega=0.5)
                s = LorentzianSpectrum(alpha=s0.alpha, lam=s0.lam,
                                       omega1=sys.channels[0])
                ode = evolve_tcl_ode(sys, s, ts)
                exact = evolve_analytic(sys, s, ts)
                assert np.max(np.abs(ode.states - exact.states)) <= 1e-8
                ode_pops[omega0] = np.column_stack([getattr(ode, n) for n in names])
                exact_pops[omega0] = np.column_stack([getattr(exact, n) for n in names])
            for omega0 in (50.0, 200.0):
                assert np.max(np.abs(ode_pops[omega0] - ode_pops[100.0])) <= 1e-10
                assert np.max(np.abs(exact_pops[omega0] - exact_pops[100.0])) <= 1e-10


def test_criterion_12_byte_identical_reruns(tmp_path, capsys):
    with criterion(12, "two CLI runs of the same figure command emit byte-identical CSV"):
        paths = [str(tmp_path / name) for name in ("first.csv", "second.csv")]
        for out_path in paths:
            code = cli.main(["figures", "--id", "2", "--case", "b",
                             "--set", f"output.path={out_path}"])
            assert code == 0
        capsys.readouterr()
        first, second = (Path(p).read_bytes() for p in paths)
        assert first == second and len(first) > 0
