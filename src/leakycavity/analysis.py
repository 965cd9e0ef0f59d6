"""Quantitative checks on trajectories: trapping plateaus."""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "TrappingReport",
    "detect_plateau",
]


@dataclass(frozen=True)
class TrappingReport:
    """Longest slow-drift interval of a non-oscillating population series.

    A plateau was found when ``plateau_start`` is finite: the interval
    lasts at least the minimum duration, and ``trapped_value`` is the mean
    of the series over it (a trapped population still leaks slowly, so the
    window mean is the honest number).  Otherwise the start and end are
    NaN, ``trapped_value`` is 0 and ``note`` says why nothing qualified.
    """

    plateau_start: float
    plateau_end: float
    trapped_value: float
    note: str = ""


_PLATEAU_SLOPE_TOL = 0.05    # relative drift per oscillation period
_PLATEAU_MIN_PERIODS = 10.0  # shortest plateau that counts, in periods


def _no_plateau(note):
    return TrappingReport(plateau_start=np.nan, plateau_end=np.nan,
                          trapped_value=0.0, note=note)


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
        trapped_value=float(np.trapezoid(P[i0:i1 + 1], t[i0:i1 + 1]) / duration))
