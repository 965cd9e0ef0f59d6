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
