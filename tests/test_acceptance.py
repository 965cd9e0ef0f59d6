"""Acceptance suite: one check per shipped claim, one printed line each.

Run ``pytest -s -v tests/test_acceptance.py`` to see the per-criterion
report; each check prints ``criterion NN: PASS - <claim>`` on success or
the matching FAIL line before re-raising.  Tolerances are stated inline;
every expected number was computed from an independent route (stationary
limits, the quadrature oracle, or the closed-form solution) before the
implementation was written, never copied from its own output.
"""

import io
import os
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from leakycavity.analysis import detect_plateau
from leakycavity.dynamics import (evolve_analytic, evolve_phenomenological,
                                  evolve_tcl_ode, populations, rho_analytic)
from leakycavity.spectral import (accumulated_rate, rate_closed_form,
                                  rate_quadrature_oracle, stationary_rate)
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
            omegas = np.linspace(s.detuning - 10.0 * s.lam,
                                 s.detuning + 10.0 * s.lam, 100)
            rates = rate_closed_form(s, omegas, 0.0)
            assert np.all(rates == 0.0)


def test_criterion_03_oracle_equivalence():
    with criterion(3, "quadrature oracle matches the closed-form rate to 1e-6*alpha "
                      "at 50 (omega, t) points per case"):
        for case in ("a", "b"):
            sys, s = reference_case(case)
            omegas = (s.detuning - 10.0 * s.lam, s.detuning - 2.0 * sys.Omega,
                      s.detuning, s.detuning + 2.0 * sys.Omega,
                      s.detuning + 10.0 * s.lam)
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
            sys, s, ts,
            rate=lambda s, omega, t: (rate_closed_form(s, omega[0], t), np.zeros_like(t)))
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


# criterion 11's runs: the closed-form and oracle rates, both evolve solvers
# and a sweep, each at Omega = 1/3, where omega0 -/+ Omega would round
_OMEGA0_RUNS = {
    "rates": ["rates"],
    "oracle": ["rates", "--set", "rates.mode=quadrature",
               "--set", "evolve.t_max=3", "--set", "evolve.n_output=61"],
    "analytic": ["evolve"],
    "tcl-ode": ["evolve", "--set", "solver.mode=tcl-ode"],
    "sweep": ["sweep", "--set", "evolve.t_max=300", "--set", "evolve.n_output=3001",
              "--param", "lambda", "--from", "0.1", "--to", "1.0", "--steps", "3"],
}


def test_criterion_11_omega0_invariance(capsys):
    with criterion(11, "shifting omega0 across {50, 1e8, 1e16, 1e300} moves no byte "
                       "of the rates, evolve or sweep output"):
        def output(run, *settings):
            cmd, *rest = _OMEGA0_RUNS[run]
            argv = [cmd, "--config", os.devnull, "--set", "system.Omega=0.3333333333333333",
                    "--set", "output.precision=17", *rest]
            for kv in settings:
                argv += ["--set", kv]
            assert cli.main(argv) == 0
            out, err = capsys.readouterr()
            assert err == "" and out
            return out

        base = {run: output(run) for run in _OMEGA0_RUNS}
        for run in _OMEGA0_RUNS:
            for omega0 in ("50", "1e8", "1e16", "1e300"):
                assert output(run, f"system.omega0={omega0}") == base[run], (run, omega0)
        # a peak set off the lower channel: omega1 - omega0 = 0.25 exactly at both
        for run in ("rates", "analytic"):
            assert (output(run, "system.omega0=1e8", "reservoir.omega1=100000000.25")
                    == output(run, "reservoir.omega1=100.25")), run
        # and the shared tables are right: the ODE within criterion 04's 1e-8
        ode, exact = (np.loadtxt(io.StringIO(base[run]), delimiter=",", skiprows=1)
                      for run in ("tcl-ode", "analytic"))
        assert np.max(np.abs(ode - exact)) <= 1e-8


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
