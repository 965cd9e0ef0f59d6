import tracemalloc

import numpy as np
import pytest
from numpy.polynomial import Chebyshev

from leakycavity import dynamics, spectral
from leakycavity.dynamics import (SystemParams, _pack, _unpack,
                                  evolve_analytic, evolve_phenomenological,
                                  evolve_tcl_ode, hamiltonian,
                                  initial_state_atom_excited, populations,
                                  rho_analytic)
from leakycavity.numerics import ode_solve
from leakycavity.spectral import (LorentzianSpectrum, accumulated_rate,
                                  rate_closed_form, rate_quadrature_oracle)
from reference import reference_case


def test_system_params_validation_and_warning():
    with pytest.raises(ValueError):
        SystemParams(omega0=-1.0, Omega=0.5)
    with pytest.raises(ValueError):
        SystemParams(omega0=10.0, Omega=0.0)
    with pytest.warns(UserWarning, match="rotating-wave"):
        SystemParams(omega0=1.0, Omega=0.5)
    sys = SystemParams(omega0=100.0, Omega=0.5)
    assert sys.channels[0] == 99.5 and sys.channels[1] == 100.5


def test_rotating_wave_warning_names_the_caller():
    with pytest.warns(UserWarning, match="rotating-wave") as record:
        SystemParams(omega0=1.0, Omega=0.5)
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
    sys = SystemParams(omega0=100.0, Omega=0.5)
    np.testing.assert_array_equal(rho_analytic(sys, 0.0, 0.0, 0.0),
                                  initial_state_atom_excited())


def test_rho_analytic_full_decay():
    sys = SystemParams(omega0=100.0, Omega=0.5)
    rho = rho_analytic(sys, 800.0, 800.0, 10.0)
    np.testing.assert_allclose(rho, np.diag([1.0, 0.0, 0.0]), atol=1e-15)


def test_rho_analytic_one_channel_switched_off():
    # the upper channel keeps its half of the population forever
    sys = SystemParams(omega0=100.0, Omega=0.5)
    rho = rho_analytic(sys, 700.0, 0.0, 5.0)
    assert abs(rho[0, 0] - 0.5) < 1e-15
    assert abs(rho[2, 2] - 0.5) < 1e-15
    assert abs(rho[1, 2]) < 1e-15


def test_rho_analytic_trace_and_saturated_coherence():
    sys = SystemParams(omega0=100.0, Omega=0.5)
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
    sys, s = reference_case("b")
    calls = {"rate": 0, "rhs": 0}

    def counting_rate(s, omega, t):
        calls["rate"] += 1
        return rate_closed_form(s, omega, t)

    def counting_ode_solve(deriv, state0, t_grid):
        def counted(t, y):
            calls["rhs"] += 1
            return deriv(t, y)
        return ode_solve(counted, state0, t_grid)

    monkeypatch.setattr(dynamics, "ode_solve", counting_ode_solve)
    ts = np.linspace(0.0, 5.0, 11)
    got = evolve_tcl_ode(sys, s, ts, rate=counting_rate)
    assert calls["rhs"] > 0 and calls["rate"] == calls["rhs"]
    assert np.max(np.abs(got.states - evolve_analytic(sys, s, ts).states)) < 1e-8


def test_tcl_ode_case_b_to_t100_makes_under_6000_rhs_calls(monkeypatch):
    # case b to t = 100 on 2001 points: DOP853 makes about 4200 right-hand-side
    # calls where the fifth-order RK45 made 15518
    sys, s = reference_case("b")
    calls = {"rhs": 0}

    def counting_ode_solve(deriv, state0, t_grid):
        def counted(t, y):
            calls["rhs"] += 1
            return deriv(t, y)
        return ode_solve(counted, state0, t_grid)

    monkeypatch.setattr(dynamics, "ode_solve", counting_ode_solve)
    ts = np.linspace(0.0, 100.0, 2001)
    got = evolve_tcl_ode(sys, s, ts)
    assert 0 < calls["rhs"] < 6000
    assert np.max(np.abs(got.states - evolve_analytic(sys, s, ts).states)) < 1e-8


def test_ode_rates_forced_to_zero_gives_rabi_oscillation():
    sys, s = reference_case("a")
    ts = np.linspace(0.0, 12.0, 241)
    traj = evolve_tcl_ode(sys, s, ts, rate=lambda s, omega, t: (0.0, 0.0))
    expected = np.cos(sys.Omega * ts) ** 2
    assert np.max(np.abs(traj.P_0e - expected)) < 1e-9
    assert np.max(np.abs(traj.P_minus - 0.5)) < 1e-10


def test_tcl_ode_keeps_the_rabi_splitting_at_large_omega0():
    # H rotates at omega0, so 2 Omega is not rebuilt as the difference of two
    # energies near omega0/2, which at omega0 = 1e8 rounds it by 1e-8
    sys = SystemParams(omega0=1e8, Omega=1.0 / 3.0)
    s = LorentzianSpectrum(alpha=0.1, lam=1.0 / 3.0, omega1=sys.channels[0])
    ts = np.linspace(0.0, 100.0, 2001)
    got = evolve_tcl_ode(sys, s, ts)
    assert np.max(np.abs(got.states - evolve_analytic(sys, s, ts).states)) < 1e-8
    gens = [np.array(dynamics._generator(SystemParams(omega0=omega0, Omega=1.0 / 3.0)))
            for omega0 in (50.0, 1e20)]
    assert gens[0].tobytes() == gens[1].tobytes()


@pytest.mark.xfail(strict=True, reason="omega0 -/+ Omega rounds at ulp(omega0): "
                   "the channels merge and the trapping is lost (ROADMAP item 7)")
@pytest.mark.parametrize("omega0", [1e8, 1e16])
def test_large_omega0_moves_no_population(omega0):
    # at omega0 = 100 every channel difference is exact; with the channels
    # rounded at ulp(omega0), max |dP+| on [0, 300] reads 4.4e-9 at 1e8 and
    # 0.26 at 1e16
    ts = np.linspace(0.0, 300.0, 3001)
    pops, rates = [], []
    for w0 in (100.0, omega0):
        sys = SystemParams(omega0=w0, Omega=1.0 / 3.0)
        s = LorentzianSpectrum(alpha=0.2 * sys.Omega, lam=1.0 / 3.0, omega1=sys.channels[0])
        traj = evolve_analytic(sys, s, ts)
        pops.append(np.column_stack([traj.P_E0, traj.P_minus, traj.P_plus, traj.P_atom_e]))
        rates.append(rate_closed_form(s, sys.channels[:, None], ts))
    assert np.max(np.abs(pops[1] - pops[0])) <= 1e-12
    assert np.max(np.abs(rates[1] - rates[0])) <= 1e-12


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


def _per_call_rhs(sys, rates):
    """Reference RHS: the master equation re-derived on 3x3 states at every call."""
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
    return rhs


SYS_B, S_B = reference_case("b")


@pytest.mark.parametrize("rates", [
    lambda t: (rate_closed_form(S_B, SYS_B.channels[0], t),
               rate_closed_form(S_B, SYS_B.channels[1], t)),
    lambda t: (0.3, 0.05),
], ids=["case-b", "constant-unequal"])
def test_generator_matches_per_call_reference(rates):
    ts = np.linspace(0.0, 12.0, 241)
    # case b on [0, 12] takes the upper-channel rate negative
    assert rate_closed_form(S_B, SYS_B.channels[1], ts).min() < 0.0
    ref = _unpack(ode_solve(_per_call_rhs(SYS_B, rates),
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
    # under the standard configuration the peak tracks the lower channel
    # (omega1 = omega0 - Omega), so omega0 only shifts absolute energies
    _, s = reference_case("a")
    ts = np.linspace(0.0, 25.0, 251)
    base = None
    for omega0 in (50.0, 100.0, 200.0):
        sys = SystemParams(omega0=omega0, Omega=0.5)
        s_w = LorentzianSpectrum(alpha=s.alpha, lam=s.lam,
                                 omega1=sys.channels[0])
        traj = evolve_analytic(sys, s_w, ts)
        cols = np.column_stack([getattr(traj, n) for n in
                                ("P_E0", "P_minus", "P_plus", "P_0e", "P_atom_g")])
        if base is None:
            base = cols
        else:
            assert np.max(np.abs(cols - base)) < 1e-14


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


@pytest.mark.parametrize("kappa", [0.0, 0.1, 1.0])
def test_phenomenological_closed_form_matches_the_master_equation_ode(kappa):
    # the closed form against the ODE route on the same constant rates,
    # within criterion 04's bound
    sys, s = reference_case("a")
    ts = np.linspace(0.0, 50.0, 501)
    got = evolve_phenomenological(sys, kappa, ts)
    ode = evolve_tcl_ode(sys, s, ts, rate=lambda s, omega, t: (kappa, kappa))
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
