"""Property test of the CLI contract stated in the cli module docstring.

``cli.main`` runs in-process on configurations drawn across the decades
and out to the edges of the float range.  Whatever the input, the exit
code is 0, 2 or 3; stderr is 'error:' and 'warning:' lines only, with one
'error:' line exactly when the exit is nonzero, and never a bare Python
arithmetic message or errno tuple; a table written on exit 0 is finite
(bar the plateau columns of sweep, NaN by design where nothing qualifies).
The argv is drawn malformed as well: a flag dropped, repeated, unknown or
left without its value, a negative number given as a separate argument,
a flag ahead of the subcommand, or no argument at all.
The tcl-ode solver runs on a handful of examples at t_max <= 10, since a
hopeless horizon costs a second or two before the ODE's pace check stops it.
"""

import contextlib
import io
import os
import re
from dataclasses import fields

import numpy as np
from hypothesis import given, settings, strategies as st

from leakycavity import cli

# every float key but solver.kappa, which only the single-rate model takes
_FLOAT_KEYS = [f.metadata["key"] for f in fields(cli.RunConfig)
               if f.type is float and f.name != "kappa"]

# an ordinary value, or one across the decades from subnormal to overflow
# (to inf, past 1e308)
_positive = st.one_of(
    st.floats(1e-3, 1e3),
    st.builds(lambda m, e: m * 10.0**e, st.floats(1.0, 10.0), st.integers(-323, 308)))


def _float_keys(draw, **fixed):
    """--set pairs for the float keys and output.precision; None leaves a key unset.

    At most one float key takes any float at all, NaN, inf and negatives
    included, so that most runs get past the config checks.
    """
    values = {key: draw(st.one_of(st.none(), _positive)) for key in _FLOAT_KEYS}
    wild = draw(st.one_of(st.none(), st.sampled_from(_FLOAT_KEYS)))
    if wild is not None:
        values[wild] = draw(st.floats())
    values["output.precision"] = draw(st.one_of(st.none(), st.integers(0, 40)))
    values.update(fixed)
    return [arg for key, value in values.items() if value is not None
            for arg in ("--set", f"{key}={value!r}")]


@st.composite
def closed_form_runs(draw):
    """(argv, rows, finite columns) of a run on the closed forms alone."""
    cmd = draw(st.sampled_from(["rates", "evolve", "phenomenological", "sweep", "figures"]))
    if cmd == "figures":
        argv = ["figures", f"--id={draw(st.integers(1, 3))}",
                f"--case={draw(st.sampled_from('ab'))}"]
        t_max = draw(st.one_of(st.none(), _positive, st.floats()))
        n_points = draw(st.one_of(st.none(), st.integers(-2, 40)))
        if t_max is not None:
            argv.append(f"--t-max={t_max!r}")
        if n_points is not None:
            argv.append(f"--n-points={n_points}")
        return argv, n_points, slice(None)
    n_output = draw(st.integers(2, 40))
    argv = ["evolve" if cmd == "phenomenological" else cmd, "--config", os.devnull,
            *_float_keys(draw, **{"evolve.n_output": n_output})]
    if cmd == "phenomenological":
        argv += ["--set", "solver.mode=phenomenological",
                 "--set", f"solver.kappa={draw(st.one_of(_positive, st.floats()))!r}"]
    if cmd != "sweep":
        return argv, n_output, slice(None)
    steps = draw(st.integers(1, 5))
    lo = draw(_positive)
    hi = lo * draw(st.floats(1.0, 100.0))
    argv += ["--param", "lambda", f"--from={lo!r}", f"--to={hi!r}", f"--steps={steps}"]
    # plateau_start and plateau_end are NaN where no plateau qualifies
    return argv, steps, slice(0, 3)


@st.composite
def quadrature_runs(draw):
    """(argv, rows, finite columns) of a quadrature-oracle rates run, t_max <= 50."""
    n_output = draw(st.integers(2, 5))
    t_max = draw(st.one_of(st.floats(1e-3, 50.0), st.floats(max_value=50.0),
                           st.builds(lambda m, e: m * 10.0**e, st.floats(1.0, 5.0),
                                     st.integers(-323, 1))))
    argv = ["rates", "--config", os.devnull, "--set", "rates.mode=quadrature",
            *_float_keys(draw, **{"evolve.n_output": n_output, "evolve.t_max": t_max})]
    return argv, n_output, slice(None)


def _groups(args):
    """The options of an argv tail, each flag with the values that follow it."""
    groups = []
    for arg in args:
        if arg.startswith("--"):
            groups.append([arg])
        else:
            groups[-1].append(arg)
    return groups


# every flag of every subcommand, a typo and a prefix argparse expands
_FLAGS = ["--config", "--set", "--id", "--case", "--t-max", "--n-points",
          "--param", "--from", "--to", "--steps", "--t_max", "--bogus", "--st"]


@st.composite
def malformed_runs(draw):
    """(argv, rows, finite columns) of a closed-form run whose flags are mangled."""
    argv, _, finite = draw(closed_form_runs())
    groups = _groups(argv[1:])
    i = draw(st.integers(0, len(groups) - 1))
    at = draw(st.integers(0, len(groups)))
    kind = draw(st.sampled_from(["drop", "repeat", "unknown", "no value", "negative",
                                 "empty", "first"]))
    if kind == "empty":
        return [], None, finite
    lead = []
    if kind == "drop":
        del groups[i]
    elif kind == "repeat":
        groups.insert(at, groups[i])
    elif kind == "unknown":
        groups.insert(at, [draw(st.sampled_from(["--bogus", "--t_max=1", "-x", "--"]))])
    elif kind == "no value":
        groups.insert(at, [groups.pop(i)[0].split("=")[0]])
    elif kind == "first":  # one flag group ahead of the subcommand
        lead = groups.pop(i)
    else:
        number = draw(st.one_of(st.floats(max_value=-0.0), st.integers(max_value=-1)))
        groups.insert(at, [draw(st.sampled_from(_FLAGS)), repr(number)])
    # a changed grid changes the row count
    return [*lead, argv[0], *(arg for group in groups for arg in group)], None, finite


@st.composite
def tcl_ode_runs(draw):
    """(argv, rows, finite columns) of a tcl-ode evolve run, t_max <= 10."""
    n_output = draw(st.integers(2, 5))
    t_max = draw(st.one_of(st.floats(1e-3, 10.0), st.floats(max_value=10.0),
                           st.builds(lambda m, e: m * 10.0**e, st.floats(1.0, 10.0),
                                     st.integers(-323, 0))))
    argv = ["evolve", "--config", os.devnull, "--set", "solver.mode=tcl-ode",
            *_float_keys(draw, **{"evolve.n_output": n_output, "evolve.t_max": t_max})]
    return argv, n_output, slice(None)


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _check_contract(argv, rows, finite):
    code, out, err = _run(argv)
    assert code in (0, 2, 3), (argv, code, err)
    lines = err.splitlines()
    assert all(line.startswith(("error: ", "warning: ")) for line in lines), (argv, err)
    errors = [line for line in lines if line.startswith("error: ")]
    assert len(errors) == (code != 0), (argv, code, err)
    assert "float division by zero" not in err, (argv, err)
    assert not re.search(r"\(\d+, '", err), (argv, err)  # an errno tuple
    if code == 0:
        header, *body = out.splitlines()
        table = np.array([[float(x) for x in line.split(",")] for line in body])
        assert table.shape[1:] == (len(header.split(",")),), (argv, out)
        assert rows is None or table.shape[0] == rows, (argv, out)
        assert np.all(np.isfinite(table[:, finite])), (argv, out)


@settings(derandomize=True, database=None, max_examples=250, deadline=None)
@given(run=closed_form_runs())
def test_cli_contract_on_the_closed_forms(run):
    _check_contract(*run)


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(run=quadrature_runs())
def test_cli_contract_on_the_quadrature_oracle(run):
    _check_contract(*run)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(run=malformed_runs())
def test_cli_contract_on_malformed_flags(run):
    _check_contract(*run)


@settings(derandomize=True, database=None, max_examples=6, deadline=None)
@given(run=tcl_ode_runs())
def test_cli_contract_on_the_tcl_ode(run):
    _check_contract(*run)
