"""The paper's two reference cases, the configuration the tests compare against."""

import numpy as np

from leakycavity.dynamics import SystemParams
from leakycavity.spectral import LorentzianSpectrum


def reference_case(case):
    """(SystemParams, LorentzianSpectrum) of case 'a' or 'b'.

    Units 2*Omega = 1 with alpha = 0.2*Omega and the reservoir peaked on
    the lower dressed channel, detuning omega1 - omega0 = -Omega;
    case a: lam = 2*Omega/3 (stationary rate ratio 1/10), case b:
    lam = 2*Omega/sqrt(99) (ratio 1/100).
    """
    sys = SystemParams(Omega=0.5)
    lam = {"a": 2.0 * sys.Omega / 3.0, "b": 2.0 * sys.Omega / np.sqrt(99.0)}[case]
    s = LorentzianSpectrum(alpha=0.2 * sys.Omega, lam=lam, detuning=-sys.Omega)
    return sys, s


def pseudomode_hamiltonian(sys, s):
    """Exact one-excitation Hamiltonian with a Lorentzian reservoir as one damped mode.

    A Lorentzian J is the spectrum of a single pseudomode (Garraway,
    Phys. Rev. A 55, 2290, 1997) of weight W = int J = alpha lam / 2, at
    the reservoir's detuning and with amplitude damping lam. Amplitudes
    (c_0e, c_1g, c_mode) obey i dc/dt = H c, no Born or Markov step taken.
    """
    g = np.sqrt(0.5 * s.alpha * s.lam)
    return np.array([[0.0, sys.Omega, 0.0],
                     [sys.Omega, 0.0, g],
                     [0.0, g, complex(s.detuning, -s.lam)]])


def pseudomode_excitation(sys, s, ts):
    """Exact P_- + P_+ = |c_0e|^2 + |c_1g|^2 at times ts, from the excited atom."""
    energies, modes = np.linalg.eig(pseudomode_hamiltonian(sys, s))
    weights = np.linalg.solve(modes, [1.0, 0.0, 0.0])
    c = (np.exp(-1j * np.outer(ts, energies)) * weights) @ modes.T
    return np.abs(c[:, 0]) ** 2 + np.abs(c[:, 1]) ** 2
