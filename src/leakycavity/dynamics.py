"""Dissipative dynamics of a two-level atom in a leaky cavity, one-excitation sector.

At resonance the atom-cavity system is diagonalized by the dressed states
|E1,+-> = (|1,g> +- |0,e>)/sqrt(2) with energies omega0/2 -+ Omega; together
with the ground state |E0> = |0,g> they span the full state space reachable
from an initially excited atom in an empty, zero-temperature cavity.  The
reservoir couples each dressed state to |E0> through its own channel with
its own time-dependent rate gamma(omega0 -+ Omega, t), giving the
time-local master equation

    drho/dt = -i[H, rho]
              + sum_c gamma_c(t) * ( L_c rho L_c^dag / 2
                                     - {L_c^dag L_c, rho} / 4 ),

L_c = |E0><E1,c|.  Populations of the two channels decay independently at
half their rates and the equation integrates in closed form, which the
ODE path here deliberately does not use so the two routes check each other.

Basis order everywhere: [|E0>, |E1,->, |E1,+>].
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .numerics import ToleranceSpec, ode_solve
from .spectral import accumulated_rate, rate_closed_form, rate_quadrature_oracle

__all__ = [
    "SystemParams",
    "Trajectory",
    "hamiltonian",
    "initial_state_atom_excited",
    "rho_analytic",
    "populations",
    "evolve_analytic",
    "evolve_tcl_ode",
    "evolve_phenomenological",
]

E0, MINUS, PLUS = 0, 1, 2


@dataclass(frozen=True)
class SystemParams:
    """Atomic Bohr frequency omega0 and vacuum Rabi coupling Omega.

    The documented canonical configuration sets 2*Omega = 1 so times are
    in units of 1/(2 Omega).  omega0 only shifts absolute energies; it
    never moves a population (checked by test).  The dressed-channel
    dissipator assumes Omega << omega0, so Omega/omega0 > 0.1 draws a
    warning rather than an error.
    """

    omega0: float = 100.0
    Omega: float = 0.5

    def __post_init__(self):
        if not self.omega0 > 0.0:
            raise ValueError(f"omega0 must be positive, got {self.omega0}")
        if not self.Omega > 0.0:
            raise ValueError(f"Omega must be positive, got {self.Omega}")
        if self.Omega / self.omega0 > 0.1:
            warnings.warn(
                f"Omega/omega0 = {self.Omega / self.omega0:.3g} > 0.1; the "
                "rotating-wave treatment behind the dressed-state channels "
                "is questionable here", stacklevel=2)

    @property
    def omega_minus(self):
        return self.omega0 - self.Omega

    @property
    def omega_plus(self):
        return self.omega0 + self.Omega


@dataclass(frozen=True)
class Trajectory:
    """Density matrices and derived populations on an output time grid.

    One array per quantity, each aligned with ``times``: the dressed
    populations and coherence, the bare-basis populations and the
    reduced-atom populations (see ``populations``).  ``min_eigenvalues``
    monitors transient positivity: within solver tolerance it may dip
    below zero while a rate is negative (a known second-order feature,
    reported rather than rejected).
    """

    times: np.ndarray
    states: np.ndarray  # (n, 3, 3) complex
    P_E0: np.ndarray
    P_minus: np.ndarray
    P_plus: np.ndarray
    coh: np.ndarray  # <E1,-| rho |E1,+>, complex
    P_0g: np.ndarray
    P_1g: np.ndarray
    P_0e: np.ndarray
    P_atom_g: np.ndarray
    P_atom_e: np.ndarray
    min_eigenvalues: np.ndarray


def hamiltonian(sys):
    """Dressed-basis Hamiltonian diag(-omega0/2, omega0/2 - Omega, omega0/2 + Omega)."""
    return np.diag([-0.5 * sys.omega0,
                    0.5 * sys.omega0 - sys.Omega,
                    0.5 * sys.omega0 + sys.Omega]).astype(complex)


def initial_state_atom_excited():
    """rho(0) for |0,e> = (|E1,+> - |E1,->)/sqrt(2): a pure one-excitation state."""
    rho = np.zeros((3, 3), dtype=complex)
    rho[MINUS, MINUS] = 0.5
    rho[PLUS, PLUS] = 0.5
    rho[MINUS, PLUS] = -0.5
    rho[PLUS, MINUS] = -0.5
    return rho


def rho_analytic(sys, I_minus, I_plus, t):
    """Exact state at time t given the accumulated rates I_+-.

    P_- = e^{-I_-/2}/2, P_+ = e^{-I_+/2}/2, the ground state takes up the
    rest, and the dressed coherence only dephases and rotates:
    <E1,-|rho|E1,+> = -e^{-(I_- + I_+)/4} e^{2 i Omega t} / 2.  Its modulus
    saturates sqrt(P_- P_+) exactly, so trapping survives as long as both
    channels hold population.  Broadcasts over the three arguments: the
    result has their common shape followed by (3, 3).
    """
    I_minus, I_plus, t = np.broadcast_arrays(
        np.asarray(I_minus, dtype=float), np.asarray(I_plus, dtype=float),
        np.asarray(t, dtype=float))
    if np.any(t < 0.0):
        raise ValueError("t must be nonnegative")
    rho = np.zeros(t.shape + (3, 3), dtype=complex)
    rho[..., MINUS, MINUS] = 0.5 * np.exp(-0.5 * I_minus)
    rho[..., PLUS, PLUS] = 0.5 * np.exp(-0.5 * I_plus)
    # 1 - P_- - P_+ via expm1 keeps the small-t quadratic growth exact
    rho[..., E0, E0] = -0.5 * (np.expm1(-0.5 * I_minus) + np.expm1(-0.5 * I_plus))
    coh = -0.5 * np.exp(-0.25 * (I_minus + I_plus)) * np.exp(2j * sys.Omega * t)
    rho[..., MINUS, PLUS] = coh
    rho[..., PLUS, MINUS] = np.conj(coh)
    return rho


def populations(rho):
    """Dressed populations plus bare-basis and reduced-atom probabilities.

    Returns a dict keyed by the ``Trajectory`` field names, each value
    shaped like the leading axes of ``rho`` (a stack of 3x3 states, or
    one).  The bare pair mixes through the real part of the dressed
    coherence: P_1g, P_0e = (P_- + P_+)/2 +- Re coh.  The atomic
    excited-state population equals P_0e since |E0> and |1,g> both hold
    the atom in g.
    """
    P_E0 = rho[..., E0, E0].real
    P_minus = rho[..., MINUS, MINUS].real
    P_plus = rho[..., PLUS, PLUS].real
    coh = rho[..., MINUS, PLUS]
    half = 0.5 * (P_minus + P_plus)
    P_1g = half + coh.real
    P_0e = half - coh.real
    return dict(P_E0=P_E0, P_minus=P_minus, P_plus=P_plus, coh=coh,
                P_0g=P_E0, P_1g=P_1g, P_0e=P_0e,
                P_atom_g=P_E0 + P_1g, P_atom_e=P_0e)


def _as_time_grid(t_grid):
    ts = np.asarray(t_grid, dtype=float)
    if ts.ndim != 1 or ts.size < 1:
        raise ValueError("t_grid must be a nonempty 1-D array")
    if ts[0] < 0.0:
        raise ValueError("t_grid must start at t >= 0")
    if np.any(np.diff(ts) <= 0.0):
        raise ValueError("t_grid must be strictly increasing")
    return ts


def evolve_analytic(sys, s, t_grid):
    """Trajectory from the closed-form solution, rates accumulated analytically.

    The exact state is |E0><E0| P_E0 plus a 2x2 dressed block whose
    coherence saturates |coh|^2 = P_- P_+, so its spectrum is known in
    closed form and the minimum eigenvalue needs no diagonalisation.
    """
    ts = _as_time_grid(t_grid)
    I_m = accumulated_rate(s, sys.omega_minus, ts)
    I_p = accumulated_rate(s, sys.omega_plus, ts)
    states = rho_analytic(sys, I_m, I_p, ts)
    pops = populations(states)
    P_m, P_p = pops["P_minus"], pops["P_plus"]
    block_min = 0.5 * (P_m + P_p
                       - np.sqrt((P_m - P_p) ** 2 + 4.0 * np.abs(pops["coh"]) ** 2))
    return Trajectory(times=ts, states=states,
                      min_eigenvalues=np.minimum(pops["P_E0"], block_min), **pops)


# real 9-vector packing of a Hermitian 3x3: diagonal then re/im of the
# upper triangle; keeps the ODE state real and Hermiticity structural
def _pack(rho):
    return np.array([
        rho[0, 0].real, rho[1, 1].real, rho[2, 2].real,
        rho[0, 1].real, rho[0, 1].imag,
        rho[0, 2].real, rho[0, 2].imag,
        rho[1, 2].real, rho[1, 2].imag])


def _unpack(y):
    rho = np.empty((3, 3), dtype=complex)
    rho[0, 0] = y[0]
    rho[1, 1] = y[1]
    rho[2, 2] = y[2]
    rho[0, 1] = y[3] + 1j * y[4]
    rho[0, 2] = y[5] + 1j * y[6]
    rho[1, 2] = y[7] + 1j * y[8]
    rho[1, 0] = np.conj(rho[0, 1])
    rho[2, 0] = np.conj(rho[0, 2])
    rho[2, 1] = np.conj(rho[1, 2])
    return rho


def _propagate(sys, rates_fn, t_grid, tol):
    ts = _as_time_grid(t_grid)
    H = hamiltonian(sys)
    L_m = np.zeros((3, 3), dtype=complex)
    L_m[E0, MINUS] = 1.0
    L_p = np.zeros((3, 3), dtype=complex)
    L_p[E0, PLUS] = 1.0
    channels = ((L_m, L_m.conj().T @ L_m), (L_p, L_p.conj().T @ L_p))

    def rhs(t, y):
        rho = _unpack(y)
        drho = -1j * (H @ rho - rho @ H)
        for g, (L, proj) in zip(rates_fn(t), channels):
            drho += 0.5 * g * (L @ rho @ L.conj().T)
            drho -= 0.25 * g * (proj @ rho + rho @ proj)
        return _pack(drho)

    y = ode_solve(rhs, _pack(initial_state_atom_excited()), ts, tol)
    states = np.array([_unpack(row) for row in y])
    return Trajectory(times=ts, states=states,
                      min_eigenvalues=np.linalg.eigvalsh(states)[:, 0],
                      **populations(states))


def evolve_tcl_ode(sys, s, t_grid, rate_mode="closed-form", tol=None,
                   rate_override=None):
    """Propagate the master equation directly as a 9-real-dimensional ODE.

    rate_mode selects where gamma_-+(t) comes from: 'closed-form' (fast)
    or 'quadrature' (the oracle, evaluated fresh at every solver stage,
    so keep the horizon short).  rate_override, a callable
    t -> (gamma_minus, gamma_plus), replaces both and serves limit
    studies such as switching one channel off.
    """
    if tol is None:
        tol = ToleranceSpec(rel_tol=1e-10, abs_tol=1e-12, max_steps=1_000_000)
    if rate_override is not None:
        rates_fn = rate_override
    elif rate_mode == "closed-form":
        def rates_fn(t):
            return (rate_closed_form(s, sys.omega_minus, t),
                    rate_closed_form(s, sys.omega_plus, t))
    elif rate_mode == "quadrature":
        def rates_fn(t):
            return (rate_quadrature_oracle(s, sys.omega_minus, t),
                    rate_quadrature_oracle(s, sys.omega_plus, t))
    else:
        raise ValueError(
            f"unknown rate_mode {rate_mode!r}, expected 'closed-form' or 'quadrature'")
    return _propagate(sys, rates_fn, t_grid, tol)


def evolve_phenomenological(sys, kappa, t_grid, tol=None):
    """Same dissipator with one constant rate kappa in both channels.

    This is the textbook single-rate cavity-loss model.  Equal rates keep
    P_- = P_+ at all times for the initial state here, so the mechanism
    that traps population (one channel starving while the other drains)
    is absent by construction.
    """
    if kappa < 0.0:
        raise ValueError(f"kappa must be nonnegative, got {kappa}")
    if tol is None:
        tol = ToleranceSpec(rel_tol=1e-10, abs_tol=1e-12, max_steps=1_000_000)
    return _propagate(sys, lambda t: (kappa, kappa), t_grid, tol)
