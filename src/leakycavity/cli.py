"""Batch front-end: config parsing, subcommand dispatch, CSV emission.

Subcommands: rates, evolve, figures, sweep.  Configuration is a flat
text file of ``section.key = value`` lines ('#' starts a comment), each
key at most once; ``--set section.key=value`` overrides individual
entries.  Every float must be finite.  Output is CSV with a header row,
12 significant digits by default, written to output.path ('-' means
stdout).  Runs are fully deterministic: the same config yields
byte-identical output.

Exit codes: 0 success, 2 malformed config or usage (including an output
file or stdout pipe that cannot be written), 3 numerical failure (including a
table that would hold NaN or inf) or out of memory, 64 unknown subcommand.
A warning, such as the rotating-wave one, is one 'warning:' stderr line.
"""

import argparse
import gc
import os
import sys
import warnings
from dataclasses import dataclass, fields, replace

import numpy as np

from .analysis import asymptotic_rate_ratio, detect_plateau, figure_data
from .dynamics import (SystemParams, evolve_analytic, evolve_phenomenological,
                       evolve_tcl_ode)
from .numerics import OdeSolveError, QuadratureError
from .spectral import LorentzianSpectrum, rate_closed_form, rate_quadrature_oracle

__all__ = ["RunConfig", "ConfigError", "main", "console_main"]


class ConfigError(ValueError):
    """Malformed configuration: unknown key, bad literal, broken invariant."""


@dataclass(frozen=True)
class RunConfig:
    """Validated run parameters; field names flatten the config sections."""

    omega0: float = 100.0
    Omega: float = 0.5
    alpha: float = 0.1
    lam: float = 1.0 / 3.0
    omega1: float = None  # defaults to omega0 - Omega when unset
    t_max: float = 100.0
    n_output: int = 2001
    solver_mode: str = "analytic"
    kappa: float = None
    rates_mode: str = "closed-form"
    output_path: str = "-"
    precision: int = 12

    def __post_init__(self):
        key = {field: k for k, (field, _) in _KEYMAP.items()}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not np.isfinite(value):
                raise ConfigError(f"{key[f.name]} must be finite, got {value}")
        for name in ("omega0", "Omega", "alpha", "lam", "t_max"):
            if not getattr(self, name) > 0.0:
                raise ConfigError(f"{key[name]} must be positive, got {getattr(self, name)}")
        if self.omega1 is not None and not self.omega1 > 0.0:
            raise ConfigError(f"{key['omega1']} must be positive, got {self.omega1}")
        if self.n_output < 2:
            raise ConfigError(f"evolve.n_output must be >= 2, got {self.n_output}")
        if self.precision < 1:
            raise ConfigError(f"output.precision must be >= 1, got {self.precision}")
        if self.solver_mode not in ("analytic", "tcl-ode", "phenomenological"):
            raise ConfigError(f"unknown solver.mode {self.solver_mode!r}")
        if self.rates_mode not in ("closed-form", "quadrature"):
            raise ConfigError(f"unknown rates.mode {self.rates_mode!r}")
        if self.solver_mode == "phenomenological":
            if self.kappa is None:
                raise ConfigError("solver.kappa is required when solver.mode = phenomenological")
            if self.kappa < 0.0:
                raise ConfigError(f"solver.kappa must be nonnegative, got {self.kappa}")
        elif self.kappa is not None:
            raise ConfigError("solver.kappa is only meaningful with solver.mode = phenomenological")

    def system(self):
        return SystemParams(omega0=self.omega0, Omega=self.Omega)

    def spectrum(self):
        omega1 = self.omega0 - self.Omega if self.omega1 is None else self.omega1
        return LorentzianSpectrum(alpha=self.alpha, lam=self.lam, omega1=omega1)

    def grid(self):
        return np.linspace(0.0, self.t_max, self.n_output)


# config-file key -> (RunConfig field, parser)
_KEYMAP = {
    "system.omega0": ("omega0", float),
    "system.Omega": ("Omega", float),
    "reservoir.alpha": ("alpha", float),
    "reservoir.lambda": ("lam", float),
    "reservoir.omega1": ("omega1", float),
    "evolve.t_max": ("t_max", float),
    "evolve.n_output": ("n_output", int),
    "solver.mode": ("solver_mode", str),
    "solver.kappa": ("kappa", float),
    "rates.mode": ("rates_mode", str),
    "output.path": ("output_path", str),
    "output.precision": ("precision", int),
}


def _parse_pair(key, value):
    key = key.strip()
    if key not in _KEYMAP:
        raise ConfigError(f"unknown config key {key!r}")
    field, conv = _KEYMAP[key]
    try:
        return field, conv(value.strip())
    except ValueError:
        raise ConfigError(f"bad value for {key}: {value.strip()!r}") from None


def _read_config_file(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from None
    updates, first_line = {}, {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'section.key = value'")
        key, value = line.split("=", 1)
        field, parsed = _parse_pair(key, value)
        if field in first_line:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key.strip()!r}, "
                              f"first set on line {first_line[field]}")
        first_line[field] = lineno
        updates[field] = parsed
    return updates


def load_config(config_path, set_pairs):
    updates = {} if config_path is None else _read_config_file(config_path)
    for item in set_pairs:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, value = item.split("=", 1)
        field, parsed = _parse_pair(key, value)
        updates[field] = parsed
    return RunConfig(**updates)


def write_csv(columns, values, path, precision):
    values = np.atleast_2d(np.asarray(values, dtype=float))
    row_fmt = ",".join([f"%.{precision}g"] * values.shape[1])
    lines = [",".join(columns)] + [row_fmt % tuple(row) for row in values.tolist()]
    text = "\n".join(lines) + "\n"
    if path == "-":
        try:
            if hasattr(sys.stdout, "buffer"):
                data = memoryview(text.encode())
                # an unbuffered stdout takes a short write when the pipe's
                # reader has gone; the next write raises
                while data:
                    data = data[sys.stdout.buffer.write(data):]
            else:  # a text-only stream, such as io.StringIO
                sys.stdout.write(text)
            sys.stdout.flush()
        except OSError as exc:
            # what is still buffered would fail again, with a traceback, in the
            # interpreter's final flush: send it to /dev/null instead
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            raise ConfigError(f"cannot write output to stdout: {exc}") from None
    else:
        try:
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write output file {path!r}: {exc}") from None


def _require_finite(values, what):
    """Refuse to write NaN or inf: the run failed numerically (exit 3)."""
    if not np.all(np.isfinite(values)):
        raise FloatingPointError(f"non-finite values in the {what}")


def _trajectory_table(traj):
    cols = ["t", "P_E0", "P_minus", "P_plus", "re_coh", "im_coh",
            "P_0g", "P_1g", "P_0e", "P_atom_g", "P_atom_e"]
    data = np.column_stack(
        [traj.times, traj.P_E0, traj.P_minus, traj.P_plus,
         traj.coh.real, traj.coh.imag,
         traj.P_0g, traj.P_1g, traj.P_0e, traj.P_atom_g, traj.P_atom_e])
    return cols, data


def cmd_rates(args, cfg):
    channels = cfg.system().channels[:, None]
    s = cfg.spectrum()
    ts = cfg.grid()
    cols = ["t", "gamma_minus", "gamma_plus"]
    data = [ts, rate_closed_form(s, channels, ts).T]
    if cfg.rates_mode == "quadrature":
        cols += ["gamma_minus_oracle", "gamma_plus_oracle"]
        data.append(rate_quadrature_oracle(s, channels, ts).T)
    data = np.column_stack(data)
    _require_finite(data, "rates table")
    return cols, data


def cmd_evolve(args, cfg):
    sys_params = cfg.system()
    ts = cfg.grid()
    if cfg.solver_mode == "analytic":
        traj = evolve_analytic(sys_params, cfg.spectrum(), ts)
    elif cfg.solver_mode == "tcl-ode":
        rate = rate_quadrature_oracle if cfg.rates_mode == "quadrature" else rate_closed_form
        traj = evolve_tcl_ode(sys_params, cfg.spectrum(), ts, rate=rate)
    else:
        traj = evolve_phenomenological(sys_params, cfg.kappa, ts)
    cols, data = _trajectory_table(traj)
    _require_finite(data, "evolve table")
    return cols, data


def cmd_figures(args, cfg):
    cols, data = figure_data(args.id, args.case, t_max=args.t_max,
                             n_points=args.n_points)
    _require_finite(data, "figure table")
    return cols, data


def cmd_sweep(args, cfg):
    if not 0.0 < args.lo <= args.hi < np.inf or args.steps < 1:
        raise ConfigError("sweep needs 0 < --from <= --to < inf and --steps >= 1")
    sys_params = cfg.system()
    ts = cfg.grid()
    period = np.pi / sys_params.Omega
    rows = []
    for lam in np.linspace(args.lo, args.hi, args.steps):
        # asymptotic_rate_ratio rejects an omega1 off the lower channel
        s = replace(cfg.spectrum(), lam=float(lam))
        ratio = asymptotic_rate_ratio(s, sys_params)
        traj = evolve_analytic(sys_params, s, ts)
        # P_atom_e less its Rabi term, the coherence; detect_plateau reads
        # a NaN series as "no plateau", so check first
        envelope = 0.5 * (traj.P_minus + traj.P_plus)
        _require_finite(envelope, f"trajectory at lambda={lam:.12g}")
        report = detect_plateau(ts, envelope, osc_period=period)
        rows.append([lam, ratio, report.trapped_value,
                     report.plateau_start, report.plateau_end])
    rows = np.asarray(rows)
    # plateau_start and plateau_end are NaN by design where no plateau qualifies
    _require_finite(rows[:, :3], "sweep table")
    return ["lambda", "rate_ratio", "trapped_value",
            "plateau_start", "plateau_end"], rows


_COMMANDS = {
    "rates": cmd_rates,
    "evolve": cmd_evolve,
    "figures": cmd_figures,
    "sweep": cmd_sweep,
}

_USAGE = """\
usage: leakycavity <subcommand> [options]

subcommands:
  rates    tabulate the two dressed-channel decay rates on a time grid
  evolve   propagate the master equation and tabulate populations
  figures  emit one of the reference tables (--id 1|2|3 --case a|b)
  sweep    scan the spectral width and report trapping per point

common options: --config FILE, --set section.key=value (repeatable)
"""


def _build_parser(cmd):
    parser = argparse.ArgumentParser(prog=f"leakycavity {cmd}")
    parser.add_argument("--config", required=cmd != "figures",
                        help="path to a 'section.key = value' config file")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override one config entry")
    if cmd == "figures":
        parser.add_argument("--id", type=int, choices=(1, 2, 3), required=True)
        parser.add_argument("--case", choices=("a", "b"), required=True)
        parser.add_argument("--t-max", type=float, default=None, dest="t_max")
        parser.add_argument("--n-points", type=int, default=None, dest="n_points")
    if cmd == "sweep":
        parser.add_argument("--param", choices=("lambda",), required=True)
        parser.add_argument("--from", type=float, required=True, dest="lo")
        parser.add_argument("--to", type=float, required=True, dest="hi")
        parser.add_argument("--steps", type=int, required=True)
    return parser


def main(argv=None):
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if not argv or argv[0] in ("-h", "--help"):
        stream = sys.stderr if not argv else sys.stdout
        stream.write(_USAGE)
        return 2 if not argv else 0
    cmd, rest = argv[0], argv[1:]
    if cmd not in _COMMANDS:
        sys.stderr.write(f"error: usage: unknown subcommand {cmd!r}, "
                         "expected rates, evolve, figures or sweep\n")
        return 64
    try:
        args = _build_parser(cmd).parse_args(rest)
    except SystemExit as exc:  # argparse prints usage itself
        return int(exc.code or 0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            cfg = load_config(args.config, args.set)
            # overflow and 0/0 surface through _require_finite as one error
            # line, not as RuntimeWarnings on stderr
            with np.errstate(all="ignore"):
                columns, values = _COMMANDS[cmd](args, cfg)
            write_csv(columns, values, cfg.output_path, cfg.precision)
            return 0
        except (QuadratureError, OdeSolveError,
                ArithmeticError,  # FloatingPointError, and float overflow or x/0
                np.linalg.LinAlgError) as exc:  # ahead of ValueError, its base class
            sys.stderr.write(f"error: numerical: {exc}\n")
            return 3
        except ValueError as exc:  # ConfigError included
            sys.stderr.write(f"error: config: {exc}\n")
            return 2
        except MemoryError as exc:  # a grid too large to allocate
            sys.stderr.write(f"error: memory: {exc}\n")
            return 3
        finally:
            for message in dict.fromkeys(str(w.message) for w in caught):
                sys.stderr.write(f"warning: {message}\n")


def console_main():
    code = main()
    # interpreter teardown would otherwise run full GC passes over scipy's heap
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    console_main()
