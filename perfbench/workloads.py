"""The benchmark workloads: the CLI invocations of one pass, drawn from a
seed, and the checks every output must pass.

Four parts each load one set of layers: ``figures``, ``sweep``, ``tcl-ode``
and ``oracle``.  The benchmark's two workloads join them in pairs, so that
a run is long enough to be steady on a noisy host: ``analytic`` is
figures + sweep, ``crosscheck`` is tcl-ode + oracle.  A part can still be
run on its own by its name.

A seed draws lambda values and grid lengths inside fixed ranges.  Where it
varies a grid length it moves two invocations in opposite directions, so
the work of one pass stays the same for every seed.  README.md says why
each part exists and which layers it loads.
"""

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

OMEGA = 0.5  # canonical units, 2*Omega = 1
ALPHA = 0.2 * OMEGA
CASE_LAMBDA = {"a": 2.0 * OMEGA / 3.0, "b": 2.0 * OMEGA / np.sqrt(99.0)}
KAPPA = ALPHA  # single-rate reference: the stationary rate of the peaked channel

EVOLVE_COLUMNS = ("t", "P_E0", "P_minus", "P_plus", "re_coh", "im_coh",
                  "P_0g", "P_1g", "P_0e", "P_atom_g", "P_atom_e")
PROBABILITIES = ("P_E0", "P_minus", "P_plus", "P_0g", "P_1g", "P_0e",
                 "P_atom_g", "P_atom_e")
TRACES = (("P_E0", "P_minus", "P_plus"), ("P_0g", "P_1g", "P_0e"),
          ("P_atom_g", "P_atom_e"))

# acceptance criterion 04 (ODE vs exact) and 03 (oracle vs closed form)
ODE_EXACT_TOL = 1e-8
ORACLE_TOL = 1e-6 * ALPHA
# slack for 12-significant-digit CSV values and solver tolerance
POPULATION_TOL = 1e-9


@dataclass(frozen=True)
class Invocation:
    """One CLI call of a pass and how to judge what it wrote.

    ``check(columns, values, reference)`` returns a list of error strings.
    ``reference_argv`` names an analytic run made once, outside the timed
    region, whose CSV (at ``reference_output``) the check compares against.
    """

    key: str
    argv: tuple
    output: Path
    check: Callable
    reference_argv: Optional[tuple] = None
    reference_output: Optional[Path] = None


def read_csv(path):
    """Header and float rows of a CSV the CLI wrote."""
    with open(path, encoding="utf-8") as fh:
        columns = tuple(fh.readline().strip().split(","))
        values = np.loadtxt(fh, delimiter=",", ndmin=2)
    return columns, values


def _expect_shape(columns, values, want_columns, rows):
    if columns != tuple(want_columns):
        return [f"columns {columns}, expected {tuple(want_columns)}"]
    if values.shape != (rows, len(want_columns)):
        return [f"shape {values.shape}, expected {(rows, len(want_columns))}"]
    return []


def _population_errors(columns, values):
    col = {name: values[:, columns.index(name)] for name in PROBABILITIES}
    errors = [f"{name} leaves [0, 1]" for name, v in col.items()
              if v.min() < -POPULATION_TOL or v.max() > 1.0 + POPULATION_TOL]
    for names in TRACES:
        drift = np.abs(sum(col[n] for n in names) - 1.0).max()
        if drift > POPULATION_TOL:
            errors.append(f"{'+'.join(names)} misses 1 by {drift:.3g}")
    return errors


def _config(path, lines):
    path.write_text("".join(f"{k} = {v!r}\n" if isinstance(v, float) else f"{k} = {v}\n"
                            for k, v in lines.items()), encoding="utf-8")
    return path


def _paired_lengths(rng, base, jitter):
    """Two grid lengths around base whose sum is always 2*base."""
    delta = rng.randint(-jitter, jitter)
    return base + delta, base - delta


# ---------------------------------------------------------------- figures

_FIGURE_GRID = {1: (20.0, 801), 2: (100.0, 2001), 3: (300.0, 6001)}
_FIGURE_COLUMNS = {1: ("t", "gamma_minus", "gamma_plus"), 2: ("t", "P_0g"),
                   3: ("t", "P_atom_g")}


def _figure_check(fig, t_max, n):
    def check(columns, values, _reference):
        errors = _expect_shape(columns, values, _FIGURE_COLUMNS[fig], n)
        if errors:
            return errors
        t = values[:, 0]
        if t[0] != 0.0 or abs(t[-1] - t_max) > 1e-9 * t_max:
            errors.append(f"grid runs {t[0]}..{t[-1]}, expected 0..{t_max}")
        if fig == 1:
            if np.any(values[0, 1:] != 0.0):
                errors.append(f"rates at t=0 are {values[0, 1:]}, expected exactly 0")
        else:
            P = values[:, 1]
            if P.min() < -POPULATION_TOL or P.max() > 1.0 + POPULATION_TOL:
                errors.append(f"{columns[1]} leaves [0, 1]")
            if P[0] != 0.0:
                errors.append(f"{columns[1]}(0) = {P[0]}, expected 0 for an excited atom")
        return errors
    return check


def figures(rng, work, tiny):
    invs = []
    for fig, (t_max, n) in _FIGURE_GRID.items():
        lengths = _paired_lengths(rng, 21 if tiny else n, 5 if tiny else 50)
        for case, n_case in zip("ab", lengths):
            out = work / f"figures-{fig}{case}.csv"
            argv = ("figures", "--id", str(fig), "--case", case,
                    "--t-max", repr(t_max), "--n-points", str(n_case),
                    "--set", f"output.path={out}")
            invs.append(Invocation(f"figures-{fig}{case}", argv, out,
                                   _figure_check(fig, t_max, n_case)))
    return invs


# ---------------------------------------------------------------- sweep

def _sweep_check(lo, hi, steps):
    def check(columns, values, _reference):
        errors = _expect_shape(columns, values, ("lambda", "rate_ratio", "trapped_value",
                                                 "plateau_start", "plateau_end"), steps)
        if errors:
            return errors
        lam, ratio, trapped = values[:, 0], values[:, 1], values[:, 2]
        if not np.allclose(lam, np.linspace(lo, hi, steps), rtol=1e-10, atol=0.0):
            errors.append("lambda column is not the requested sweep")
        want = lam**2 / (4.0 * OMEGA**2 + lam**2)
        worst = np.abs(ratio / want - 1.0).max()
        if worst > 1e-9:
            errors.append(f"rate_ratio misses lambda^2/(4 Omega^2 + lambda^2) by {worst:.3g} (rel)")
        if trapped.min() < 0.0 or trapped.max() > 1.0:
            errors.append("trapped_value leaves [0, 1]")
        return errors
    return check


def sweep(rng, work, tiny):
    lo, hi = rng.uniform(0.04, 0.08), rng.uniform(0.5, 0.7)
    steps = 3 if tiny else 40
    cfg = _config(work / "sweep.cfg", {
        "reservoir.alpha": ALPHA, "system.Omega": OMEGA, "evolve.t_max": 300.0,
        "evolve.n_output": 601 if tiny else 6001,
        "output.path": work / "sweep.csv"})
    argv = ("sweep", "--config", str(cfg), "--param", "lambda",
            "--from", repr(lo), "--to", repr(hi), "--steps", str(steps))
    return [Invocation("sweep", argv, work / "sweep.csv", _sweep_check(lo, hi, steps))]


# ---------------------------------------------------------------- tcl-ode

def _tcl_check(n):
    def check(columns, values, reference):
        errors = _expect_shape(columns, values, EVOLVE_COLUMNS, n)
        if errors:
            return errors
        ref_columns, ref_values = reference
        if ref_columns != columns or ref_values.shape != values.shape:
            return ["analytic reference has another layout"]
        drift = np.abs(values - ref_values).max()
        if drift > ODE_EXACT_TOL:
            errors.append(f"tcl-ode is {drift:.3g} from the exact solution, above {ODE_EXACT_TOL}")
        return errors + _population_errors(columns, values)
    return check


def _phenomenological_check(n):
    def check(columns, values, _reference):
        errors = _expect_shape(columns, values, EVOLVE_COLUMNS, n)
        if errors:
            return errors
        want = 0.5 * np.exp(-0.5 * KAPPA * values[:, 0])
        for name in ("P_minus", "P_plus"):
            drift = np.abs(values[:, columns.index(name)] - want).max()
            if drift > ODE_EXACT_TOL:
                errors.append(f"{name} is {drift:.3g} from exp(-kappa t/2)/2")
        return errors + _population_errors(columns, values)
    return check


def tcl_ode(rng, work, tiny):
    t_max, base = (5.0, 51) if tiny else (100.0, 2001)
    lengths = dict(zip("ab", _paired_lengths(rng, base, 5 if tiny else 100)))
    invs = []
    for case, n in lengths.items():
        cfg = _config(work / f"tcl-{case}.cfg", {
            "reservoir.alpha": ALPHA, "reservoir.lambda": float(CASE_LAMBDA[case]),
            "system.Omega": OMEGA, "evolve.t_max": t_max, "evolve.n_output": n})
        out, ref = work / f"tcl-{case}.csv", work / f"tcl-{case}-exact.csv"
        invs.append(Invocation(
            f"tcl-ode-{case}",
            ("evolve", "--config", str(cfg), "--set", "solver.mode=tcl-ode",
             "--set", f"output.path={out}"),
            out, _tcl_check(n),
            reference_argv=("evolve", "--config", str(cfg), "--set", "solver.mode=analytic",
                            "--set", f"output.path={ref}"),
            reference_output=ref))
    cfg = _config(work / "phenomenological.cfg", {
        "system.Omega": OMEGA, "evolve.t_max": t_max, "evolve.n_output": base,
        "solver.mode": "phenomenological", "solver.kappa": KAPPA})
    out = work / "phenomenological.csv"
    invs.append(Invocation("phenomenological",
                           ("evolve", "--config", str(cfg), "--set", f"output.path={out}"),
                           out, _phenomenological_check(base)))
    return invs


# ---------------------------------------------------------------- oracle

def _oracle_check(n):
    def check(columns, values, _reference):
        errors = _expect_shape(columns, values, ("t", "gamma_minus", "gamma_plus",
                                                 "gamma_minus_oracle", "gamma_plus_oracle"), n)
        if errors:
            return errors
        if np.any(values[0, 1:] != 0.0):
            errors.append(f"rates at t=0 are {values[0, 1:]}, expected exactly 0")
        drift = np.abs(values[:, 3:5] - values[:, 1:3]).max()
        if drift > ORACLE_TOL:
            errors.append(f"oracle is {drift:.3g} from the closed form, above {ORACLE_TOL:.3g}")
        return errors
    return check


def oracle(rng, work, tiny):
    n = 5 if tiny else 401
    cfg = _config(work / "oracle.cfg", {
        "reservoir.alpha": ALPHA, "reservoir.lambda": rng.uniform(0.08, 0.12),
        "system.Omega": OMEGA, "evolve.t_max": 20.0, "evolve.n_output": n,
        "rates.mode": "quadrature", "output.path": work / "oracle.csv"})
    return [Invocation("oracle", ("rates", "--config", str(cfg)), work / "oracle.csv",
                       _oracle_check(n))]


PARTS = {"figures": figures, "sweep": sweep, "tcl-ode": tcl_ode, "oracle": oracle}
WORKLOADS = {"analytic": ("figures", "sweep"), "crosscheck": ("tcl-ode", "oracle")}


def build(name, seed, work, tiny=False):
    """Write the config files of a workload, or of one part, into ``work``
    and return its invocations."""
    invs = []
    for part in WORKLOADS.get(name, (name,)):
        invs += PARTS[part](random.Random(f"{part}/{seed}"), Path(work), tiny)
    return invs
