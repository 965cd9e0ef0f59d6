"""Quantitative checks on trajectories: trapping plateaus, stationary rate
ratios, and the reference tables behind the standard figures.

The canonical configuration used throughout sets 2*Omega = 1, alpha = 0.2*Omega
and peaks the reservoir on the lower dressed channel, omega1 = omega0 - Omega.
Two reference widths are studied: case a, lam = 2*Omega/3 (stationary rate
ratio 1/10) and case b, lam = 2*Omega/sqrt(99) (ratio 1/100).
"""

from dataclasses import dataclass

import numpy as np

from .dynamics import SystemParams, evolve_analytic
from .spectral import LorentzianSpectrum, rate_closed_form, stationary_rate

__all__ = [
    "TrappingReport",
    "detect_plateau",
    "asymptotic_rate_ratio",
    "reference_case",
    "figure_data",
]


@dataclass(frozen=True)
class TrappingReport:
    """Longest slow-drift interval of a non-oscillating population series.

    ``detected`` is True only when that interval lasts at least the
    minimum duration; ``trapped_value`` is then the mean of the series
    over the interval (a trapped population still leaks slowly, so the
    window mean is the honest number).  Otherwise the start and end are
    NaN, ``trapped_value`` is 0 and ``note`` says why nothing qualified.
    """

    plateau_start: float
    plateau_end: float
    trapped_value: float
    detected: bool
    slope_at_plateau: float
    note: str = ""


_PLATEAU_SLOPE_TOL = 0.05    # relative drift per oscillation period
_PLATEAU_MIN_PERIODS = 10.0  # shortest plateau that counts, in periods


def _no_plateau(note):
    return TrappingReport(plateau_start=np.nan, plateau_end=np.nan,
                          trapped_value=0.0, detected=False,
                          slope_at_plateau=np.nan, note=note)


def detect_plateau(t, P, osc_period):
    """Find the longest interval where a non-oscillating series drifts slowly.

    ``P`` should carry no Rabi oscillation: for the excited atom that is
    the exact envelope (P_minus + P_plus)/2 of P_atom_e, whose remaining
    term, the dressed coherence, is the oscillation.  ``osc_period`` sets
    the time scale: the relative change per period |P'/P|*osc_period is
    compared against _PLATEAU_SLOPE_TOL, and samples must also sit above 0.
    The longest contiguous qualifying interval is reported if it spans
    at least _PLATEAU_MIN_PERIODS osc_periods; a shorter one is no plateau.

    The slope tolerance of 0.05 per period sits between the slow leak
    of a trapped population in the reference cases (about 0.03 per period
    for the faster case) and the decay of the single-rate model (about
    0.3 per period), so it separates the two regimes cleanly.
    """
    t = np.asarray(t, dtype=float)
    P = np.asarray(P, dtype=float)
    if t.shape != P.shape or t.ndim != 1:
        raise ValueError("t and P must be 1-D arrays of equal length")
    min_duration = _PLATEAU_MIN_PERIODS * osc_period
    if t.size < 2 or t[-1] - t[0] < min_duration:
        return _no_plateau("series too short to cover the minimum duration")
    dP = np.gradient(P, t)
    rel_per_period = np.abs(dP) * osc_period / np.maximum(P, 1e-300)
    ok = (rel_per_period < _PLATEAU_SLOPE_TOL) & (P > 0.0)

    padded = np.concatenate(([0], ok.astype(int), [0]))
    edges = np.diff(padded)
    starts = np.flatnonzero(edges == 1)
    ends = np.flatnonzero(edges == -1) - 1
    if starts.size == 0:
        return _no_plateau("no positive sample satisfies the slope criterion")
    k = int(np.argmax(t[ends] - t[starts]))
    i0, i1 = int(starts[k]), int(ends[k])
    duration = t[i1] - t[i0]
    if not duration >= min_duration:
        return _no_plateau(f"longest slow interval lasts {duration:.6g}, "
                           f"below the minimum of {min_duration:.6g}")
    return TrappingReport(
        plateau_start=float(t[i0]), plateau_end=float(t[i1]),
        trapped_value=float(np.trapezoid(P[i0:i1 + 1], t[i0:i1 + 1]) / duration),
        detected=True, slope_at_plateau=float((P[i1] - P[i0]) / duration))


def asymptotic_rate_ratio(s, sys):
    """Stationary rate of the upper channel over the lower one.

    With the spectrum peaked on the lower channel this is
    lam**2 / (4 Omega**2 + lam**2); configurations with omega1 elsewhere
    are rejected since the simple ratio formula no longer applies.
    """
    if not np.isclose(s.omega1, sys.channels[0], rtol=1e-9, atol=1e-12):
        raise ValueError(
            "asymptotic_rate_ratio assumes the spectrum peaks on the lower "
            f"dressed channel (omega1 = omega0 - Omega), got omega1={s.omega1}")
    # one array, so that a 0/0 is a NaN for the caller's finite check
    lower, upper = stationary_rate(s, sys.channels)
    return upper / lower


def reference_case(case):
    """Canonical (SystemParams, LorentzianSpectrum) for case 'a' or 'b'.

    Units 2*Omega = 1, alpha = 0.2*Omega, omega1 = omega0 - Omega;
    case a: lam = 2*Omega/3, case b: lam = 2*Omega/sqrt(99).
    """
    sys = SystemParams(omega0=100.0, Omega=0.5)
    if case == "a":
        lam = 2.0 * sys.Omega / 3.0
    elif case == "b":
        lam = 2.0 * sys.Omega / np.sqrt(99.0)
    else:
        raise ValueError(f"unknown case {case!r}, expected 'a' or 'b'")
    s = LorentzianSpectrum(alpha=0.2 * sys.Omega, lam=lam,
                           omega1=sys.omega0 - sys.Omega)
    return sys, s


_FIGURE_DEFAULTS = {1: (20.0, 801), 2: (100.0, 2001), 3: (300.0, 6001)}


def figure_data(figure_id, case, t_max=None, n_points=None):
    """Reference tables: 1 = both channel rates, 2 = P_0g, 3 = P_atom_g.

    Returns ``(columns, values)``, values of shape (n_points, len(columns)).
    Times in units of 1/(2 Omega), rates in units of 2 Omega (numerically
    direct since the canonical configuration sets 2 Omega = 1).  Output is
    deterministic for fixed arguments.
    """
    if figure_id not in _FIGURE_DEFAULTS:
        raise ValueError(f"unknown figure id {figure_id!r}, expected 1, 2 or 3")
    sys, s = reference_case(case)
    default_tmax, default_n = _FIGURE_DEFAULTS[figure_id]
    t_max = default_tmax if t_max is None else float(t_max)
    n_points = default_n if n_points is None else int(n_points)
    if not 0.0 < t_max < np.inf or n_points < 2:
        raise ValueError("need 0 < t_max < inf and n_points >= 2")
    t = np.linspace(0.0, t_max, n_points)
    if figure_id == 1:
        rates = rate_closed_form(s, sys.channels[:, None], t)
        return ("t", "gamma_minus", "gamma_plus"), np.column_stack([t, rates.T])
    traj = evolve_analytic(sys, s, t)
    if figure_id == 2:
        return ("t", "P_0g"), np.column_stack([t, traj.P_0g])
    return ("t", "P_atom_g"), np.column_stack([t, traj.P_atom_g])
