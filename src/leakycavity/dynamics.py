"""Dissipative dynamics of a two-level atom in a leaky cavity, one-excitation sector.

At resonance the atom-cavity system is diagonalized by the dressed states
|E1,+-> = (|1,g> +- |0,e>)/sqrt(2) with energies omega0/2 +- Omega; together
with the ground state |E0> = |0,g> they span the full state space reachable
from an initially excited atom in an empty, zero-temperature cavity.  The
reservoir couples each dressed state to |E0> through its own channel with
its own time-dependent rate gamma(+-Omega, t), giving the time-local master
equation, in the frame rotating at omega0 on the excitation number
(H = diag(0, -Omega, +Omega), less a constant)

    drho/dt = -i[H, rho]
              + sum_c gamma_c(t) * ( L_c rho L_c^dag / 2
                                     - {L_c^dag L_c, rho} / 4 ),

L_c = |E0><E1,c|.  Populations of the two channels decay independently at
half their rates and the equation integrates in closed form, which the
ODE path here deliberately does not use so the two routes check each other:
it builds the linear generator G0 + gamma_-(t) G- + gamma_+(t) G+ on a real
9-vector from H and the L_c alone, and integrates that.

Basis order everywhere: [|E0>, |E1,->, |E1,+>].
"""

from dataclasses import dataclass

import numpy as np

from .numerics import _check_nonnegative_time, _time_grid, ode_solve
from .spectral import accumulated_rate, rate_closed_form

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
    """Vacuum Rabi coupling Omega, in the frame rotating at omega0.

    The documented canonical configuration sets 2*Omega = 1 so times are
    in units of 1/(2 Omega).  omega0 itself never enters: the channels
    are offsets from it, and the reservoir is placed by its detuning
    (``LorentzianSpectrum.detuning``), so no frequency near omega0 is
    ever formed and rounded.  The dressed-channel dissipator assumes
    Omega << omega0; the CLI, which reads omega0, warns where
    Omega/omega0 > 0.1.
    """

    Omega: float

    def __post_init__(self):
        if not self.Omega > 0.0:
            raise ValueError(f"Omega must be positive, got {self.Omega}")

    @property
    def channels(self):
        """The dressed channel offsets from omega0, [-Omega, +Omega]."""
        return np.array([-self.Omega, self.Omega])


@dataclass(frozen=True)
class Trajectory:
    """Density matrices and derived populations on an output time grid.

    One real array per quantity, each aligned with ``times``: the dressed
    populations, the real and imaginary parts of the dressed coherence
    <E1,-| rho |E1,+>, the bare-basis populations and the reduced-atom
    populations (see ``populations``).  The fields after ``states`` are
    the columns of the CLI's ``evolve`` table, in order.  While a rate is
    negative an ODE state may lose positivity within solver tolerance (a
    known second-order feature); np.linalg.eigvalsh(states) shows it.
    """

    times: np.ndarray
    states: np.ndarray  # (n, 3, 3) complex
    P_E0: np.ndarray
    P_minus: np.ndarray
    P_plus: np.ndarray
    re_coh: np.ndarray
    im_coh: np.ndarray
    P_0g: np.ndarray
    P_1g: np.ndarray
    P_0e: np.ndarray
    P_atom_g: np.ndarray
    P_atom_e: np.ndarray


def hamiltonian(sys):
    """Dressed-basis Hamiltonian diag(0, -Omega, +Omega), in the frame rotating at omega0."""
    return np.diag([0.0, -sys.Omega, sys.Omega]).astype(complex)


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
    _check_nonnegative_time(t)
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
    return dict(P_E0=P_E0, P_minus=P_minus, P_plus=P_plus,
                re_coh=coh.real, im_coh=coh.imag,
                P_0g=P_E0, P_1g=P_1g, P_0e=P_0e,
                P_atom_g=P_E0 + P_1g, P_atom_e=P_0e)


def _trajectory(ts, states):
    return Trajectory(times=ts, states=states, **populations(states))


def evolve_analytic(sys, s, t_grid):
    """Trajectory from the closed-form solution, rates accumulated analytically."""
    ts = _time_grid(t_grid)
    return _trajectory(ts, rho_analytic(sys, *accumulated_rate(s, sys.channels[:, None], ts), ts))


# Hermitian 3x3 states (over leading axes) as real 9-vectors: the diagonal,
# then re/im of the upper triangle, picked from the (3, 6) real view
_PACKED = ([0, 1, 2, 0, 0, 0, 0, 1, 1], [0, 2, 4, 2, 3, 4, 5, 4, 5])


def _pack(rho):
    return np.ascontiguousarray(rho).view(float)[..., _PACKED[0], _PACKED[1]]


def _unpack(y):
    rho = np.zeros(np.shape(y)[:-1] + (3, 3), dtype=complex)
    rho.view(float)[..., _PACKED[0], _PACKED[1]] = y
    for i, j in ((0, 1), (0, 2), (1, 2)):  # the lower triangle, in place
        rho[..., j, i] += np.conj(rho[..., i, j])
    return rho


def _generator(sys):
    """[G0, G-, G+]: column k is -i[H, .] or a dissipator applied to _unpack(e_k)."""
    basis = _unpack(np.eye(9))
    H = hamiltonian(sys)
    gens = [_pack(-1j * (H @ basis - basis @ H)).T]
    for c in (MINUS, PLUS):
        L = np.zeros((3, 3), dtype=complex)
        L[E0, c] = 1.0
        proj = L.conj().T @ L
        gens.append(_pack(0.5 * (L @ basis @ L.conj().T)
                          - 0.25 * (proj @ basis + basis @ proj)).T)
    return gens


def evolve_tcl_ode(sys, s, t_grid, rate=rate_closed_form):
    """The master equation with the rates of spectrum s, propagated as an ODE.

    The state is a real 9-vector and the generator G0 + gamma_- G- +
    gamma_+ G+ is linear in it; ``ode_solve`` integrates it by its numpy
    DOP853 (relative 1e-10, absolute 1e-12), so this route loads no scipy
    unless ``rate`` does.  ``rate(s, omega, t)``, rate_closed_form (fast) or
    spectral.rate_quadrature_oracle (slow: keep the horizon short), returns
    gamma on the channel axis omega = channels[:, None] as a (2, len(t))
    array at the times t of one ode_solve generator call; ode_solve's
    docstring gives how it batches the stage times.
    """
    ts = _time_grid(t_grid)
    G0, G_m, G_p = _generator(sys)
    channels = sys.channels[:, None]

    def generator(times):
        g_m, g_p = rate(s, channels, times)
        return G0 + g_m[:, None, None] * G_m + g_p[:, None, None] * G_p

    return _trajectory(ts, _unpack(ode_solve(generator, _pack(initial_state_atom_excited()), ts)))


def evolve_phenomenological(sys, kappa, t_grid):
    """Same dissipator with one constant rate kappa in both channels.

    This is the textbook single-rate cavity-loss model.  Equal rates keep
    P_- = P_+ at all times for the initial state here, so the mechanism
    that traps population (one channel starving while the other drains)
    is absent by construction.  rho_analytic at I_-+ = kappa t is exact.
    """
    if not kappa >= 0.0:
        raise ValueError(f"kappa must be nonnegative, got {kappa}")
    ts = _time_grid(t_grid)
    return _trajectory(ts, rho_analytic(sys, kappa * ts, kappa * ts, ts))
