"""Batch front-end: config parsing, subcommand dispatch, CSV emission.

The subcommands, each with its handler and one-line help, are the table
``_COMMANDS``; argparse builds the usage and ``-h`` from it.  ``figures``
is a preset of ``rates`` or ``evolve``: the figure's grid from ``_FIGURES``,
which ``--t-max`` and ``--n-points`` override as evolve.t_max and
evolve.n_output, and the case's reservoir.lambda from ``_CASES``; of the
config it reads only ``output.*``.
Configuration is a flat text file of ``section.key = value`` lines ('#'
starts a comment), each key at most once; ``--set section.key=value``
overrides individual entries.  Every float must be finite.  Output is
CSV with a header row, 12 significant digits by default, written to
output.path ('-' means stdout).  Runs are fully deterministic: the same
config yields byte-identical output.

Exit codes: 0 success, 2 malformed config or usage (including an output
file or stdout pipe that cannot be written), 3 numerical failure (including a
table that would hold NaN or inf) or out of memory, 64 unknown subcommand
(a first argument that is neither a subcommand nor an option).
Each error is one 'error:' stderr line, a malformed or missing flag or
subcommand included ('error: usage: ...'); so a bare ``leakycavity`` is one
usage line, and ``-h`` writes the generated help to stdout.  A warning,
such as the rotating-wave one, is one 'warning:' stderr line.
"""

import argparse
import gc
import os
import sys
import warnings
from dataclasses import dataclass, field, fields, replace
from itertools import chain

import numpy as np

from .analysis import detect_plateau
from .dynamics import (SystemParams, evolve_analytic, evolve_phenomenological,
                       evolve_tcl_ode)
from .spectral import (LorentzianSpectrum, rate_closed_form, rate_quadrature_oracle,
                       stationary_rate)

__all__ = ["RunConfig", "ConfigError", "main", "console_main"]


class ConfigError(ValueError):
    """Malformed configuration: unknown key, bad literal, broken invariant."""


def _key(key, default):
    """A RunConfig field set by config key ``key``, parsed by its annotation."""
    return field(default=default, metadata={"key": key})


@dataclass(frozen=True)
class RunConfig:
    """Validated run parameters; field names flatten the config sections."""

    omega0: float = _key("system.omega0", 100.0)
    Omega: float = _key("system.Omega", 0.5)
    alpha: float = _key("reservoir.alpha", 0.1)
    lam: float = _key("reservoir.lambda", 1.0 / 3.0)
    omega1: float = _key("reservoir.omega1", None)  # defaults to omega0 - Omega when unset
    t_max: float = _key("evolve.t_max", 100.0)
    n_output: int = _key("evolve.n_output", 2001)
    solver_mode: str = _key("solver.mode", "analytic")
    kappa: float = _key("solver.kappa", None)
    rates_mode: str = _key("rates.mode", "closed-form")
    output_path: str = _key("output.path", "-")
    precision: int = _key("output.precision", 12)

    def __post_init__(self):
        key = {f.name: f.metadata["key"] for f in fields(self)}
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
        if self.precision > 767:  # a float64's longest exact expansion; %g prints no more
            raise ConfigError(f"output.precision must be <= 767, got {self.precision}")
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
        if self.Omega / self.omega0 > 0.1:
            warnings.warn(
                f"Omega/omega0 = {self.Omega / self.omega0:.3g} > 0.1; the "
                "rotating-wave treatment behind the dressed-state channels "
                "is questionable here", stacklevel=2)
        return SystemParams(Omega=self.Omega)

    def spectrum(self):
        # omega1 - omega0 rounds nothing (Sterbenz) within a factor 2 of omega0
        detuning = -self.Omega if self.omega1 is None else self.omega1 - self.omega0
        return LorentzianSpectrum(alpha=self.alpha, lam=self.lam, detuning=detuning)

    def grid(self, row_bytes):
        # past physical memory the kernel may grant the pages, then kill the run
        memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        if self.n_output * row_bytes > memory:
            raise MemoryError(f"evolve.n_output = {self.n_output} times of {row_bytes} B each "
                              f"exceed the {memory / 2**30:.3g} GiB of physical memory")
        ts = np.linspace(0.0, self.t_max, self.n_output)
        # a spacing that underflows repeats or reverses the times
        if not np.all(np.diff(ts) > 0.0):
            raise ConfigError(f"evolve.t_max = {self.t_max!r} is too small for "
                              f"evolve.n_output = {self.n_output} distinct times")
        return ts


# config-file key -> (RunConfig field, parser)
_KEYMAP = {f.metadata["key"]: (f.name, f.type) for f in fields(RunConfig)}


def _parse_pair(key, value):
    key = key.strip()
    if key not in _KEYMAP:
        raise ConfigError(f"unknown config key {key!r}")
    name, conv = _KEYMAP[key]
    try:
        return name, conv(value.strip())
    except ValueError:
        raise ConfigError(f"bad value for {key}: {value.strip()!r}") from None


def _read_config_file(path):
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
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
        name, parsed = _parse_pair(key, value)
        if name in first_line:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key.strip()!r}, "
                              f"first set on line {first_line[name]}")
        first_line[name] = lineno
        updates[name] = parsed
    return updates


def load_config(config_path, set_pairs):
    updates = {} if config_path is None else _read_config_file(config_path)
    for item in set_pairs:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, value = item.split("=", 1)
        name, parsed = _parse_pair(key, value)
        updates[name] = parsed
    return RunConfig(**updates)


_BLOCK_ROWS = 1024  # rows per write: a run holds one block of text, not the table


def write_csv(columns, values, path, precision):
    values = np.atleast_2d(np.asarray(values, dtype=float))
    row_fmt = ",".join([f"%.{precision}g"] * values.shape[1]) + "\n"
    rows = np.split(values, range(_BLOCK_ROWS, len(values), _BLOCK_ROWS))
    blocks = chain([",".join(columns) + "\n"],
                   (row_fmt * len(block) % tuple(block.ravel().tolist()) for block in rows))
    if path == "-":
        try:
            for text in blocks:
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
                fh.writelines(blocks)
        except OSError as exc:
            raise ConfigError(f"cannot write output file {path!r}: {exc}") from None


def _require_finite(values, what):
    """Refuse to write NaN or inf: the run failed numerically (exit 3)."""
    if not np.all(np.isfinite(values)):
        raise FloatingPointError(f"non-finite values in the {what}")


def _trajectory_table(traj):
    """The evolve table: "t", then each Trajectory field after ``states``."""
    names = [f.name for f in fields(traj)[2:]]
    return ["t", *names], np.column_stack([traj.times, *(getattr(traj, n) for n in names)])


# peak bytes per output time over the imported package: VmHWM at 1e6 times, +10%
_ROW_BYTES = {"closed-form": 127, "quadrature": 180,  # rates, by rates.mode
              "evolve": 315, "sweep": 265}  # any solver; one lambda at a time


def cmd_rates(args, cfg):
    channels = cfg.system().channels[:, None]
    s = cfg.spectrum()
    ts = cfg.grid(_ROW_BYTES[cfg.rates_mode])
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
    ts = cfg.grid(_ROW_BYTES["evolve"])
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


# reference case -> its reservoir.lambda, 2*Omega/3 and 2*Omega/sqrt(99); every
# other key keeps its RunConfig default, the canonical configuration 2*Omega = 1,
# alpha = 0.2*Omega, reservoir peaked on the lower channel omega0 - Omega
_CASES = {"a": 1.0 / 3.0, "b": 1.0 / np.sqrt(99.0)}

# figure id -> (default evolve.t_max, default evolve.n_output, columns kept)
_FIGURES = {1: (20.0, 801, ("t", "gamma_minus", "gamma_plus")),
            2: (100.0, 2001, ("t", "P_0g")),
            3: (300.0, 6001, ("t", "P_atom_g"))}


def cmd_figures(args, cfg):
    """``rates`` (id 1) or ``evolve`` (ids 2, 3) on reference case ``args.case``."""
    t_max, n_output, keep = _FIGURES[args.id]
    preset = RunConfig(lam=_CASES[args.case],
                       t_max=t_max if args.t_max is None else args.t_max,
                       n_output=n_output if args.n_points is None else args.n_points)
    cols, data = (cmd_rates if args.id == 1 else cmd_evolve)(args, preset)
    return keep, data[:, [cols.index(c) for c in keep]]


def cmd_sweep(args, cfg):
    if not 0.0 < args.lo <= args.hi < np.inf or args.steps < 1:
        raise ConfigError("sweep needs 0 < --from <= --to < inf and --steps >= 1")
    sys_params = cfg.system()
    ts = cfg.grid(_ROW_BYTES["sweep"])
    # rate_ratio is lam**2 / (4 Omega**2 + lam**2) only with the peak on the lower channel
    detuning = cfg.spectrum().detuning
    if not np.isclose(detuning, -cfg.Omega, rtol=1e-9, atol=1e-12):
        raise ConfigError("sweep assumes the spectrum peaks on the lower dressed channel "
                          f"(omega1 - omega0 = -Omega), got {detuning}; leave reservoir.omega1 "
                          "unset to put the peak on the lower channel exactly")
    period = np.pi / sys_params.Omega
    rows = []
    for lam in np.linspace(args.lo, args.hi, args.steps):
        s = replace(cfg.spectrum(), lam=float(lam))
        # one array, so that a 0/0 is a NaN for the table's finite check
        lower, upper = stationary_rate(s, sys_params.channels)
        traj = evolve_analytic(sys_params, s, ts)
        # P_atom_e less its Rabi term, the coherence; detect_plateau reads
        # a NaN series as "no plateau", so check first
        envelope = 0.5 * (traj.P_minus + traj.P_plus)
        _require_finite(envelope, f"trajectory at lambda={lam:.12g}")
        report = detect_plateau(ts, envelope, osc_period=period)
        rows.append([lam, upper / lower, report.trapped_value,
                     report.plateau_start, report.plateau_end])
    rows = np.asarray(rows)
    # plateau_start and plateau_end are NaN by design where no plateau qualifies
    _require_finite(rows[:, :3], "sweep table")
    return ["lambda", "rate_ratio", "trapped_value",
            "plateau_start", "plateau_end"], rows


_COMMANDS = {
    "rates": (cmd_rates, "tabulate the two dressed-channel decay rates on a time grid"),
    "evolve": (cmd_evolve, "propagate the master equation and tabulate populations"),
    "figures": (cmd_figures, "emit one of the reference tables (--id 1|2|3 --case a|b)"),
    "sweep": (cmd_sweep, "scan the spectral width and report trapping per point"),
}


class _ArgumentParser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors raise, for main to report in one line."""

    def error(self, message):
        raise argparse.ArgumentError(None, message)


def _build_parser():
    parser = _ArgumentParser(prog="leakycavity")
    subparsers = parser.add_subparsers(dest="cmd", required=True, metavar="<subcommand>")
    for cmd, (_, help_line) in _COMMANDS.items():
        sub = subparsers.add_parser(cmd, help=help_line)
        sub.add_argument("--config", required=cmd != "figures",
                         help="path to a 'section.key = value' config file")
        sub.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                         help="override one config entry")
    figures, sweep = subparsers.choices["figures"], subparsers.choices["sweep"]
    figures.add_argument("--id", type=int, choices=_FIGURES, required=True)
    figures.add_argument("--case", choices=_CASES, required=True)
    figures.add_argument("--t-max", type=float, default=None, dest="t_max")
    figures.add_argument("--n-points", type=int, default=None, dest="n_points")
    sweep.add_argument("--param", choices=("lambda",), required=True)
    sweep.add_argument("--from", type=float, required=True, dest="lo")
    sweep.add_argument("--to", type=float, required=True, dest="hi")
    sweep.add_argument("--steps", type=int, required=True)
    return parser


def main(argv=None):
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and not argv[0].startswith("-") and argv[0] not in _COMMANDS:
        sys.stderr.write(f"error: usage: unknown subcommand {argv[0]!r}, "
                         f"expected one of {', '.join(_COMMANDS)}\n")
        return 64
    try:
        args = _build_parser().parse_args(argv)
    except argparse.ArgumentError as exc:
        sys.stderr.write(f"error: usage: {exc}\n")
        return 2
    except SystemExit as exc:  # -h prints the help and exits 0
        return int(exc.code or 0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            cfg = load_config(args.config, args.set)
            # overflow and 0/0 surface through _require_finite as one error
            # line, not as RuntimeWarnings on stderr
            with np.errstate(all="ignore"):
                columns, values = _COMMANDS[args.cmd][0](args, cfg)
            write_csv(columns, values, cfg.output_path, cfg.precision)
            return 0
        except (ArithmeticError,  # the package's numerical errors, FloatingPointError, x/0
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
    # interpreter teardown would otherwise run full GC passes over the heap
    # that numpy's import and the run leave: about 27-31 ms against 7 ms for
    # a figures or an oracle run (2-vCPU Xeon VM, median of 30)
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    console_main()
