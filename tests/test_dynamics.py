import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.polynomial import Chebyshev

from leakycavity import dynamics, spectral
from leakycavity.cli import RunConfig
from leakycavity.dynamics import (SystemParams, _pack, _unpack,
                                  evolve_analytic, evolve_phenomenological,
                                  evolve_tcl_ode, hamiltonian,
                                  initial_state_atom_excited, populations,
                                  rho_analytic)
from leakycavity.numerics import ode_solve
from leakycavity.spectral import (LorentzianSpectrum, accumulated_rate,
                                  rate_closed_form, rate_quadrature_oracle,
                                  stationary_rate)
from reference import pseudomode_excitation, pseudomode_hamiltonian, reference_case


def test_system_params_validation_and_warning():
    with pytest.raises(ValueError):
        RunConfig(omega0=-1.0).system()
    with pytest.raises(ValueError):
        SystemParams(Omega=0.0)
    with pytest.raises(TypeError):  # the channels are offsets from omega0
        SystemParams(omega0=100.0, Omega=0.5)
    with pytest.warns(UserWarning, match="rotating-wave"):
        RunConfig(omega0=1.0, Omega=0.5).system()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sys = RunConfig(omega0=5.0, Omega=0.5).system()
    assert sys.channels[0] == -0.5 and sys.channels[1] == 0.5


def test_rotating_wave_warning_names_the_caller():
    with pytest.warns(UserWarning, match="rotating-wave") as record:
        RunConfig(omega0=1.0, Omega=0.5).system()
    assert record[0].filename == __file__


def test_initial_state():
    rho = initial_state_atom_excited()
    assert rho[0, 0] == 0.0
    assert rho[1, 1] == 0.5 and rho[2, 2] == 0.5
    assert rho[1, 2] == -0.5 and rho[2, 1] == -0.5
    assert abs(np.trace(rho) - 1.0) == 0.0
    # pure state
    assert abs(np.trace(rho @ rho).real - 1.0) < 1e-15
    np.testing.assert_array_equal(rho, rho.conj().T)


def test_rho_analytic_matches_initial_state_at_t0():
    sys = SystemParams(Omega=0.5)
    np.testing.assert_array_equal(rho_analytic(sys, 0.0, 0.0, 0.0),
                                  initial_state_atom_excited())


def test_rho_analytic_full_decay():
    sys = SystemParams(Omega=0.5)
    rho = rho_analytic(sys, 800.0, 800.0, 10.0)
    np.testing.assert_allclose(rho, np.diag([1.0, 0.0, 0.0]), atol=1e-15)


def test_rho_analytic_one_channel_switched_off():
    # the upper channel keeps its half of the population forever
    sys = SystemParams(Omega=0.5)
    rho = rho_analytic(sys, 700.0, 0.0, 5.0)
    assert abs(rho[0, 0] - 0.5) < 1e-15
    assert abs(rho[2, 2] - 0.5) < 1e-15
    assert abs(rho[1, 2]) < 1e-15


def test_rho_analytic_trace_and_saturated_coherence():
    sys = SystemParams(Omega=0.5)
    rng_I = [(0.0, 0.0), (0.3, 0.01), (2.0, 0.4), (9.0, 0.05), (40.0, 3.0)]
    for I_m, I_p in rng_I:
        rho = rho_analytic(sys, I_m, I_p, 1.7)
        assert abs(np.trace(rho).real - 1.0) <= 1e-12
        np.testing.assert_allclose(rho, rho.conj().T, rtol=0, atol=0)
        # |coh| saturates sqrt(P- P+)
        sat = np.sqrt(rho[1, 1].real * rho[2, 2].real)
        assert abs(abs(rho[1, 2]) - sat) < 1e-14
    with pytest.raises(ValueError):
        rho_analytic(sys, 0.0, 0.0, -1.0)


def test_populations_of_reference_states():
    rec = populations(initial_state_atom_excited())
    assert abs(rec["P_atom_e"] - 1.0) < 1e-15
    assert abs(rec["P_atom_g"]) < 1e-15
    assert rec["P_0g"] == 0.0
    plus = np.zeros((3, 3), dtype=complex)
    plus[2, 2] = 1.0
    rec = populations(plus)
    assert rec["P_1g"] == 0.5 and rec["P_0e"] == 0.5
    assert abs(rec["P_atom_g"] - 0.5) < 1e-15


def _rho_analytic_per_sample(sys, I_minus, I_plus, t):
    """Scalar reference for rho_analytic: one 3x3 state per call."""
    rho = np.zeros((3, 3), dtype=complex)
    rho[1, 1] = 0.5 * np.exp(-0.5 * I_minus)
    rho[2, 2] = 0.5 * np.exp(-0.5 * I_plus)
    rho[0, 0] = -0.5 * (np.expm1(-0.5 * I_minus) + np.expm1(-0.5 * I_plus))
    coh = -0.5 * np.exp(-0.25 * (I_minus + I_plus)) * np.exp(2j * sys.Omega * t)
    rho[1, 2] = coh
    rho[2, 1] = np.conj(coh)
    return rho


def _populations_per_sample(rho):
    """Scalar reference for populations: Python numbers from one state."""
    P_E0, P_minus, P_plus = rho[0, 0].real, rho[1, 1].real, rho[2, 2].real
    coh = complex(rho[1, 2])
    half = 0.5 * (P_minus + P_plus)
    P_1g, P_0e = half + coh.real, half - coh.real
    return dict(P_E0=P_E0, P_minus=P_minus, P_plus=P_plus,
                re_coh=coh.real, im_coh=coh.imag, P_0g=P_E0, P_1g=P_1g, P_0e=P_0e,
                P_atom_g=P_E0 + P_1g, P_atom_e=P_0e)


@pytest.mark.parametrize("case", ["a", "b"])
def test_vectorized_analytic_matches_per_sample_reference(case):
    sys, s = reference_case(case)
    ts = np.linspace(0.0, 300.0, 6001)  # the figure-3 grid
    I_m = accumulated_rate(s, sys.channels[0], ts)
    I_p = accumulated_rate(s, sys.channels[1], ts)
    ref_states = np.array([_rho_analytic_per_sample(sys, im, ip, ti)
                           for im, ip, ti in zip(I_m, I_p, ts)])
    np.testing.assert_array_equal(rho_analytic(sys, I_m, I_p, ts), ref_states)
    traj = evolve_analytic(sys, s, ts)
    np.testing.assert_array_equal(traj.states, ref_states)
    ref = [_populations_per_sample(rho) for rho in ref_states]
    for name in ref[0]:
        np.testing.assert_array_equal(getattr(traj, name), [r[name] for r in ref])


def test_population_identities_along_analytic_trajectory():
    sys, s = reference_case("a")
    ts = np.linspace(0.0, 40.0, 401)
    traj = evolve_analytic(sys, s, ts)
    P_E0 = traj.P_E0
    P_m = traj.P_minus
    P_p = traj.P_plus
    coh = traj.re_coh + 1j * traj.im_coh
    assert np.max(np.abs(P_E0 + P_m + P_p - 1.0)) < 1e-12
    np.testing.assert_array_equal(traj.P_0g, P_E0)
    np.testing.assert_allclose(traj.P_1g + traj.P_0e,
                               P_m + P_p, rtol=0, atol=1e-14)
    np.testing.assert_allclose(traj.P_atom_g,
                               traj.P_0g + traj.P_1g,
                               rtol=0, atol=0)
    assert np.all(np.abs(coh) <= np.sqrt(P_m * P_p) + 1e-12)


def test_bare_population_oscillates_at_twice_the_coupling():
    # peak spacing of P_0e is pi/Omega
    sys, s = reference_case("a")
    ts = np.linspace(0.0, 20.0, 20001)
    P_0e = evolve_analytic(sys, s, ts).P_0e
    interior = (P_0e[1:-1] > P_0e[:-2]) & (P_0e[1:-1] > P_0e[2:])
    peaks = ts[1:-1][interior]
    spacing = np.diff(peaks)
    assert np.allclose(spacing, np.pi / sys.Omega, rtol=5e-3)


def test_ode_matches_analytic_solution():
    sys, s = reference_case("a")
    ts = np.linspace(0.0, 10.0, 101)
    ref = evolve_analytic(sys, s, ts)
    got = evolve_tcl_ode(sys, s, ts)
    assert np.max(np.abs(got.states - ref.states)) < 1e-8
    # trace and Hermiticity to solver tolerance
    traces = np.einsum("tii->t", got.states).real
    assert np.max(np.abs(traces - 1.0)) < 1e-10
    herm = np.max(np.abs(got.states - np.conj(np.swapaxes(got.states, 1, 2))))
    assert herm == 0.0  # structural: the ODE state is the Hermitian packing


def test_unpack_fills_the_lower_triangle_in_place():
    # adding the conjugated upper triangle as a whole stack makes three
    # temporaries of the stack's size, a peak of 3.0x the result; in place
    # the peak is 1.11x
    y = np.random.default_rng(9).standard_normal((20001, 9))
    tracemalloc.start()
    try:
        rho = _unpack(y)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * rho.nbytes
    np.testing.assert_array_equal(rho, np.conj(np.swapaxes(rho, -1, -2)))
    np.testing.assert_array_equal(_pack(rho), y)


def test_ode_quadrature_rate_mode():
    # same equation with rates from the oracle; short horizon
    sys, s = reference_case("a")
    ts = np.linspace(0.0, 3.0, 31)
    ref = evolve_analytic(sys, s, ts)
    got = evolve_tcl_ode(sys, s, ts, rate=rate_quadrature_oracle)
    assert np.max(np.abs(got.states - ref.states)) < 1e-6


def test_tcl_ode_makes_one_rate_call_per_rhs_evaluation(monkeypatch):
    # one rate call per generator call, which covers a step's stage times at once
    sys, s = reference_case("b")
    calls = {"rate": 0, "rhs": 0}

    def counting_rate(s, omega, t):
        calls["rate"] += 1
        return rate_closed_form(s, omega, t)

    def counting_ode_solve(generator, state0, t_grid):
        def counted(times):
            calls["rhs"] += 1
            return generator(times)
        return ode_solve(counted, state0, t_grid)

    monkeypatch.setattr(dynamics, "ode_solve", counting_ode_solve)
    ts = np.linspace(0.0, 5.0, 11)
    got = evolve_tcl_ode(sys, s, ts, rate=counting_rate)
    assert calls["rhs"] > 0 and calls["rate"] == calls["rhs"]
    assert np.max(np.abs(got.states - evolve_analytic(sys, s, ts).states)) < 1e-8


def test_tcl_ode_case_b_to_t100_makes_under_6000_rhs_calls(monkeypatch):
    # case b to t = 100 on 2001 points: DOP853 makes about 4200 right-hand-side
    # evaluations (stage times) where the fifth-order RK45 made 15518, and
    # asks for them in about 284 generator calls: one per step attempt, and
    # one per 256 accepted steps for their dense output
    sys, s = reference_case("b")
    calls = {"rhs": 0, "generator": 0}

    def counting_ode_solve(generator, state0, t_grid):
        def counted(times):
            calls["rhs"] += times.size
            calls["generator"] += 1
            return generator(times)
        return ode_solve(counted, state0, t_grid)

    monkeypatch.setattr(dynamics, "ode_solve", counting_ode_solve)
    ts = np.linspace(0.0, 100.0, 2001)
    got = evolve_tcl_ode(sys, s, ts)
    assert 0 < calls["rhs"] < 6000
    assert 0 < calls["generator"] < calls["rhs"] / 12
    assert np.max(np.abs(got.states - evolve_analytic(sys, s, ts).states)) < 1e-8


@st.composite
def _stage_batches(draw):
    """A system, a spectrum and a batch of times with |z t| on both sides of
    _phi's series switch at 0.1 for the lower channel."""
    sys = SystemParams(Omega=draw(st.floats(0.05, 1.0)))
    s = LorentzianSpectrum(alpha=draw(st.floats(1e-3, 1.0)), lam=draw(st.floats(1e-3, 10.0)),
                           detuning=sys.channels[0] + draw(st.floats(-5.0, 5.0)))
    switch = 0.1 / abs(s.lam - 1j * (s.detuning - sys.channels[0]))
    scales = [draw(st.floats(0.0, 0.999)), draw(st.floats(1.001, 50.0)),
              *draw(st.lists(st.floats(0.0, 50.0), max_size=10))]
    return sys, s, switch * np.array(draw(st.permutations(scales)))


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(batch=_stage_batches())
def test_batched_rates_and_generator_are_bitwise_the_per_time_ones(batch):
    # ode_solve asks for a step's stage times at once; the states match the
    # per-stage right-hand side bit for bit only if no value depends on its batch
    sys, s, ts = batch
    w = np.abs(s.lam - 1j * (s.detuning - sys.channels[:, None])) * ts
    assert (w < 0.1).any() and (w >= 0.1).any()
    rates = rate_closed_form(s, sys.channels[:, None], ts)
    np.testing.assert_array_equal(
        rates, np.column_stack([rate_closed_form(s, sys.channels, t) for t in ts]))
    captured = {}

    def capture(generator, state0, t_grid):
        captured["generator"] = generator
        return np.zeros((len(t_grid), 9))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dynamics, "ode_solve", capture)
        evolve_tcl_ode(sys, s, [0.0, 1.0])
    generator = captured["generator"]
    G0, G_m, G_p = dynamics._generator(sys)
    per_time = [(G0 + g_m * G_m + g_p * G_p)
                for g_m, g_p in (rate_closed_form(s, sys.channels, t) for t in ts)]
    np.testing.assert_array_equal(generator(ts), np.stack(per_time))
    np.testing.assert_array_equal(
        generator(ts), np.concatenate([generator(ts[i:i + 1]) for i in range(ts.size)]))


def test_ode_rates_forced_to_zero_gives_rabi_oscillation():
    sys, s = reference_case("a")
    ts = np.linspace(0.0, 12.0, 241)
    traj = evolve_tcl_ode(sys, s, ts, rate=lambda s, omega, t: np.zeros((2, t.size)))
    expected = np.cos(sys.Omega * ts) ** 2
    assert np.max(np.abs(traj.P_0e - expected)) < 1e-9
    assert np.max(np.abs(traj.P_minus - 0.5)) < 1e-10


@pytest.mark.parametrize("case", ["a", "b"])
def test_figure_2_from_interpolated_oracle_rates_matches_the_exact_solution(case, monkeypatch):
    # figures 2a and 2b by the route that never touches a closed form: per
    # channel, the oracle's rate as a degree-80 Chebyshev interpolant on
    # [0, 100] (gamma is entire in t, so the fit converges geometrically;
    # Trefethen, Approximation Theory and Approximation Practice, 2013),
    # handed to the ODE.  Its smallest node, t ~ 0.009, is far above the
    # oracle's small-t failures.
    sys, s = reference_case(case)
    ts = np.linspace(0.0, 100.0, 2001)
    exact = evolve_analytic(sys, s, ts)

    def forbidden(*args, **kwargs):
        raise AssertionError("the oracle route called a closed form")

    for module, names in ((spectral, ("rate_closed_form", "accumulated_rate")),
                          (dynamics, ("rate_closed_form", "accumulated_rate", "rho_analytic"))):
        for name in names:
            monkeypatch.setattr(module, name, forbidden)
    fits = [Chebyshev.interpolate(lambda t, w=w: rate_quadrature_oracle(s, w, t), 80,
                                  domain=[0.0, 100.0])
            for w in sys.channels.tolist()]
    ode = evolve_tcl_ode(sys, s, ts, rate=lambda s, omega, t: (fits[0](t), fits[1](t)))
    assert np.max(np.abs(ode.states - exact.states)) <= 1e-8


def _per_call_generator(sys, rates):
    """Reference generator: the master equation re-derived on 3x3 states at
    every time, its columns the right-hand side at each packed basis state."""
    H = hamiltonian(sys)
    L_m = np.zeros((3, 3), dtype=complex)
    L_m[0, 1] = 1.0
    L_p = np.zeros((3, 3), dtype=complex)
    L_p[0, 2] = 1.0
    channels = ((L_m, L_m.conj().T @ L_m), (L_p, L_p.conj().T @ L_p))

    def rhs(t, y):
        rho = _unpack(y)
        drho = -1j * (H @ rho - rho @ H)
        for g, (L, proj) in zip(rates(t), channels):
            drho += 0.5 * g * (L @ rho @ L.conj().T)
            drho -= 0.25 * g * (proj @ rho + rho @ proj)
        return _pack(drho)

    def generator(ts):
        return np.stack([np.column_stack([rhs(t, e) for e in np.eye(9)]) for t in ts])
    return generator


SYS_B, S_B = reference_case("b")


@pytest.mark.parametrize("rates", [
    lambda t: (rate_closed_form(S_B, SYS_B.channels[0], t),
               rate_closed_form(S_B, SYS_B.channels[1], t)),
    lambda t: (np.full(t.size, 0.3), np.full(t.size, 0.05)),
], ids=["case-b", "constant-unequal"])
def test_generator_matches_per_call_reference(rates):
    ts = np.linspace(0.0, 12.0, 241)
    # case b on [0, 12] takes the upper-channel rate negative
    assert rate_closed_form(S_B, SYS_B.channels[1], ts).min() < 0.0
    ref = _unpack(ode_solve(_per_call_generator(SYS_B, rates),
                            _pack(initial_state_atom_excited()), ts))
    got = evolve_tcl_ode(SYS_B, S_B, ts, rate=lambda s, omega, t: rates(t))
    assert np.max(np.abs(got.states - ref)) < 1e-10


def test_ground_population_monotone_for_nonnegative_rates():
    sys, s = reference_case("a")
    ts = np.linspace(0.0, 30.0, 601)
    gm = rate_closed_form(s, sys.channels[0], ts)
    gp = rate_closed_form(s, sys.channels[1], ts)
    assert np.all(gm >= 0.0) and np.all(gp >= 0.0)
    P_E0 = evolve_tcl_ode(sys, s, ts).P_E0
    assert np.all(np.diff(P_E0) >= -1e-12)


def test_dressed_channels_decouple():
    # dP/dt + gamma P / 2 = 0 per channel, checked by finite differences
    sys, s = reference_case("a")
    ts = np.linspace(0.0, 20.0, 2001)
    traj = evolve_tcl_ode(sys, s, ts)
    dt = ts[1] - ts[0]
    for name, omega in (("P_minus", sys.channels[0]), ("P_plus", sys.channels[1])):
        P = getattr(traj, name)
        dP = (P[2:] - P[:-2]) / (2 * dt)
        resid = dP + 0.5 * rate_closed_form(s, omega, ts[1:-1]) * P[1:-1]
        assert np.max(np.abs(resid)) < 1e-6


def test_populations_independent_of_omega0():
    # omega0 stays in the config: with the peak on the lower channel
    # (omega1 unset) every omega0 hands the library the same system and
    # spectrum, so the same populations, at Omega = 1/3 too, where
    # omega0 -/+ Omega would round
    base = RunConfig(Omega=1.0 / 3.0)
    assert base.spectrum().detuning == -base.Omega
    for omega0 in (50.0, 200.0, 1e8, 1e16, 1e300):
        cfg = RunConfig(omega0=omega0, Omega=1.0 / 3.0)
        assert cfg.system() == base.system() and cfg.spectrum() == base.spectrum()


def test_phenomenological_kappa_zero_is_rabi():
    sys, _ = reference_case("a")
    ts = np.linspace(0.0, 12.0, 241)
    traj = evolve_phenomenological(sys, 0.0, ts)
    assert np.max(np.abs(traj.P_0e - np.cos(sys.Omega * ts) ** 2)) < 1e-9


def test_phenomenological_equal_channels_and_decay_bound():
    sys, s = reference_case("a")
    kappa = s.alpha
    ts = np.linspace(0.0, 150.0, 1501)
    traj = evolve_phenomenological(sys, kappa, ts)
    P_m = traj.P_minus
    P_p = traj.P_plus
    assert np.max(np.abs(P_p / P_m - 1.0)) < 1e-10
    # both channels decay as e^{-kappa t / 2}: past 10/kappa the atom is in g
    late = ts >= 10.0 / kappa
    assert np.all(traj.P_atom_e[late] <= 0.05)


def test_phenomenological_rejects_negative_kappa():
    sys, _ = reference_case("a")
    with pytest.raises(ValueError):
        evolve_phenomenological(sys, -0.1, np.linspace(0.0, 1.0, 5))
    # a NaN rate would give an all-NaN trajectory
    with pytest.raises(ValueError):
        evolve_phenomenological(sys, np.nan, np.linspace(0.0, 1.0, 5))


@pytest.mark.parametrize("kappa", [0.0, 0.1, 1.0])
def test_phenomenological_closed_form_matches_the_master_equation_ode(kappa):
    # the closed form against the ODE route on the same constant rates,
    # within criterion 04's bound
    sys, s = reference_case("a")
    ts = np.linspace(0.0, 50.0, 501)
    got = evolve_phenomenological(sys, kappa, ts)
    ode = evolve_tcl_ode(sys, s, ts, rate=lambda s, omega, t: np.full((2, t.size), kappa))
    assert np.max(np.abs(got.states - ode.states)) < 1e-8
    for P in (got.P_minus, got.P_plus):
        assert np.max(np.abs(P - 0.5 * np.exp(-0.5 * kappa * ts))) < 1e-15


def test_positivity_monitor_reports_without_crashing():
    # narrow reservoir, negative-rate transient: the monitor may go slightly
    # negative but must stay at solver-tolerance scale
    sys, s = reference_case("b")
    ts = np.linspace(0.0, 12.0, 121)
    min_eigenvalues = np.linalg.eigvalsh(evolve_tcl_ode(sys, s, ts).states)[:, 0]
    assert np.all(np.isfinite(min_eigenvalues))
    assert min_eigenvalues.min() > -1e-8
    # the exact solution's smallest eigenvalue is identically zero
    exact = np.linalg.eigvalsh(evolve_analytic(sys, s, ts).states)[:, 0]
    assert np.max(np.abs(exact)) < 1e-12


@settings(derandomize=True, database=None, max_examples=20, deadline=None)
@given(log_alpha=st.floats(-4.0, 0.0), log_lam=st.floats(-3.0, 1.0),
       offset=st.floats(-3.0, 3.0))
def test_ode_matches_the_exact_solution_across_the_parameter_box(log_alpha, log_lam, offset):
    # criterion 04's 1e-8 off the reference cases: the peak anywhere within
    # 3 of the lower channel, above the upper one included, lam >> Omega and
    # alpha near Omega; the ODE states stay positive to 1e-9.  These 20
    # examples read at worst 4.2e-10 and -1.3e-10
    sys = SystemParams(Omega=0.5)
    s = LorentzianSpectrum(alpha=10.0**log_alpha, lam=10.0**log_lam,
                           detuning=sys.channels[0] + offset)
    ts = np.linspace(0.0, 50.0, 501)
    got = evolve_tcl_ode(sys, s, ts).states
    assert np.max(np.abs(got - evolve_analytic(sys, s, ts).states)) <= 1e-8
    assert np.linalg.eigvalsh(got)[:, 0].min() >= -1e-9


@settings(derandomize=True, database=None, max_examples=5, deadline=None)
@given(log_alpha=st.floats(-4.0, 0.0), log_lam=st.floats(-3.0, 1.0),
       offset=st.floats(-3.0, 3.0))
@example(log_alpha=0.0, log_lam=0.7, offset=3.0)
@example(log_alpha=-2.0, log_lam=1.0, offset=-3.0)
def test_ode_on_oracle_rates_matches_the_exact_solution_across_the_parameter_box(
        log_alpha, log_lam, offset):
    # the same box with fresh quadrature-oracle rates at every stage time, to
    # t = 3.  Above lam = 4 pi/3 the later stage times sit at the oracle
    # window's levels 1 and 2, on panels a half and a quarter as wide; the
    # five derandomized draws stay below lam = 2, so two examples pin lam = 5
    # and 10
    sys = SystemParams(Omega=0.5)
    s = LorentzianSpectrum(alpha=10.0**log_alpha, lam=10.0**log_lam,
                           detuning=sys.channels[0] + offset)
    ts = np.linspace(0.0, 3.0, 61)
    got = evolve_tcl_ode(sys, s, ts, rate=rate_quadrature_oracle).states
    assert np.max(np.abs(got - evolve_analytic(sys, s, ts).states)) <= 1e-8
    assert np.linalg.eigvalsh(got)[:, 0].min() >= -1e-9


def test_time_grid_validation():
    sys, s = reference_case("a")
    with pytest.raises(ValueError):
        evolve_analytic(sys, s, np.array([0.0, 2.0, 1.0]))
    with pytest.raises(ValueError):
        evolve_tcl_ode(sys, s, np.array([-1.0, 1.0]))
    with pytest.raises(ValueError):
        evolve_analytic(sys, s, np.array([[0.0], [1.0]]))
    with pytest.raises(ValueError):
        evolve_analytic(sys, s, np.array([]))
    # NaN and inf anywhere in a grid, in each route, before any rate is asked for
    calls = []

    def rate(s, omega, t):
        calls.append(t)
        return rate_closed_form(s, omega, t)
    routes = [lambda ts: evolve_analytic(sys, s, ts),
              lambda ts: evolve_tcl_ode(sys, s, ts, rate=rate),
              lambda ts: evolve_phenomenological(sys, 0.1, ts)]
    for evolve in routes:
        for grid in ([np.nan, 1.0], [0.0, np.nan, 1.0], [0.0, 1.0, np.nan],
                     [0.0, np.inf], [-np.inf, 0.0], [np.inf]):
            with pytest.raises(ValueError):
                evolve(np.array(grid))
    assert calls == []


# ---------------------------------------------------------------- beyond second order
# The Lorentzian reservoir is exactly one damped mode, so the exact solution
# in tests/reference.py shows what the second-order equation leaves out, at
# weaker couplings alpha than the paper's, with lam and the detuning fixed.


def _weaker(case, alpha):
    sys, s = reference_case(case)
    return sys, dataclasses.replace(s, alpha=alpha)


# measured max error / alpha: 0.396 and 0.400 (case a), 0.620 and 0.640 (case b)
@pytest.mark.parametrize("case, bound", [("a", 0.5), ("b", 0.8)])
@pytest.mark.parametrize("alpha", [1e-2, 1e-3])
def test_excitation_envelope_is_first_order_in_alpha(case, bound, alpha):
    # the bounds sit 25% over the worst reading; the floor, under the
    # smallest, shows the error is of first order and not rounding
    sys, s = _weaker(case, alpha)
    ts = np.linspace(0.0, 10.0 / alpha, 4001)
    traj = evolve_analytic(sys, s, ts)
    error = np.max(np.abs(traj.P_minus + traj.P_plus - pseudomode_excitation(sys, s, ts)))
    assert 0.3 * alpha < error < bound * alpha


def _dressed_levels(sys, s):
    """The exact eigenvalues nearest the dressed levels -Omega and +Omega."""
    energies = np.linalg.eigvals(pseudomode_hamiltonian(sys, s))
    return [energies[np.argmin(np.abs(energies - w))] for w in sys.channels.tolist()]


# measured relative error / alpha: 0.76 and 0.045 (case a), 2.62 and 0.024 (case b)
@pytest.mark.parametrize("case, bound", [("a", 1.0), ("b", 3.0)])
@pytest.mark.parametrize("alpha", [1e-2, 1e-3])
def test_exact_dressed_rates_are_half_the_stationary_rates(case, bound, alpha):
    # a dressed population decays at -2 Im E; bounds 30% (a) and 15% (b) over
    # the measured worst case, the lower channel at alpha = 1e-2
    sys, s = _weaker(case, alpha)
    rates = -2.0 * np.imag(_dressed_levels(sys, s))
    want = 0.5 * stationary_rate(s, sys.channels)
    assert np.max(np.abs(rates / want - 1.0)) < bound * alpha


@pytest.mark.parametrize("case", ["a", "b"])
@pytest.mark.parametrize("alpha", [1e-2, 1e-3])
def test_upper_level_carries_the_lamb_shift_the_rates_drop(case, alpha):
    # gamma keeps the real part of the second-order coefficient alpha lam / z;
    # its imaginary part would shift the upper level by -Im(alpha lam / 2z) / 2,
    # 0.075 alpha (case a) and 0.0249 alpha (case b). The exact level matches
    # it to 1.62e-3 alpha^2 (a) and 1.8e-5 alpha^2 (b), under a bound 23% over.
    # The lower level sits on the peak, d = 0, where the second-order shift is
    # 0; its exact shift reads 0.063-0.068 alpha^2, under a bound 18% over
    sys, s = _weaker(case, alpha)
    lower, upper = _dressed_levels(sys, s)
    z = complex(s.lam, sys.Omega - s.detuning)
    shift = -(s.alpha * s.lam / (2.0 * z)).imag / 2.0
    assert abs(upper.real - sys.Omega - shift) < 2e-3 * alpha**2
    assert abs(lower.real + sys.Omega) < 0.08 * alpha**2
