"""Least-squares power-law fit behind the short-time scaling checks."""

import numpy as np


def short_time_exponent(t, P):
    """(exponent, r_squared) of a straight-line fit of log P against log t.

    The caller restricts the window to early times (well below the
    reservoir memory time 1/lam), with t > 0 and P > 0 throughout.
    """
    x, y = np.log(t), np.log(P)
    slope, intercept = np.polyfit(x, y, 1)
    ss_res = np.sum((y - (slope * x + intercept)) ** 2)
    ss_tot = np.sum((y - y.mean()) ** 2)
    return float(slope), float(1.0 - ss_res / ss_tot)
