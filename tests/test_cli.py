"""Config parsing, subcommand output, and exit-code contract of the CLI."""

import contextlib
import dataclasses
import io
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from leakycavity import cli
from leakycavity.analysis import detect_plateau
from leakycavity.cli import ConfigError, RunConfig, load_config
from leakycavity.dynamics import evolve_analytic
from leakycavity.numerics import OdeSolveError
from reference import reference_case


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    return header, rows


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


CASE_B = """\
# canonical narrow-reservoir configuration, units 2*Omega = 1
system.omega0 = 100.0
system.Omega = 0.5
reservoir.alpha = 0.1
reservoir.lambda = 0.10050378152592121   # 2*Omega/sqrt(99)
evolve.t_max = 300.0
evolve.n_output = 601
solver.mode = analytic
"""


# ---------------------------------------------------------------- config


def test_defaults_and_omega1_fallback():
    cfg = load_config(None, [])
    assert cfg.omega0 == 100.0 and cfg.Omega == 0.5
    assert cfg.omega1 is None
    assert cfg.spectrum().omega1 == pytest.approx(99.5, abs=0.0)
    assert cfg.output_path == "-" and cfg.precision == 12


def test_config_file_with_comments(tmp_path):
    path = write_config(tmp_path, CASE_B)
    cfg = load_config(path, [])
    assert cfg.lam == pytest.approx(0.10050378152592121, rel=1e-15)
    assert cfg.t_max == 300.0 and cfg.n_output == 601
    assert cfg.solver_mode == "analytic"


def test_set_overrides_config_file(tmp_path):
    path = write_config(tmp_path, CASE_B)
    cfg = load_config(path, ["evolve.t_max=10", "reservoir.alpha=0.2"])
    assert cfg.t_max == 10.0 and cfg.alpha == 0.2
    assert cfg.n_output == 601  # untouched keys survive


def test_config_rejections(tmp_path):
    with pytest.raises(ConfigError, match="unknown config key"):
        load_config(None, ["reservoir.width=1.0"])
    with pytest.raises(ConfigError, match="bad value"):
        load_config(None, ["reservoir.alpha=wide"])
    with pytest.raises(ConfigError, match="key=value"):
        load_config(None, ["reservoir.alpha"])
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(str(tmp_path / "missing.cfg"), [])
    path = write_config(tmp_path, "system.omega0\n")
    with pytest.raises(ConfigError, match="expected 'section.key = value'"):
        load_config(path, [])


def test_duplicate_config_key_rejected(tmp_path, capsys):
    path = write_config(tmp_path, CASE_B + "reservoir.alpha = 0.2\n")
    with pytest.raises(ConfigError, match=r"run.cfg:9: duplicate key "
                                          r"'reservoir.alpha', first set on line 4"):
        load_config(path, [])
    code, _, err = run_cli(["evolve", "--config", path], capsys)
    assert code == 2
    assert err.startswith("error: config:") and err.count("\n") == 1
    # --set may still override a key the file sets
    assert load_config(write_config(tmp_path, CASE_B, "ok.cfg"),
                       ["reservoir.alpha=0.2"]).alpha == 0.2


def test_keymap_and_runconfig_fields_map_one_to_one():
    keys = [f.metadata.get("key") for f in dataclasses.fields(RunConfig)]
    assert None not in keys and len(set(keys)) == len(keys)
    assert sorted(cli._KEYMAP) == sorted(keys)


@pytest.mark.parametrize("source", ["--set", "config file"])
@pytest.mark.parametrize("key, value", [
    ("solver.rel_tol", "1e-6"), ("solver.abs_tol", "1e-8"),
    ("rates.window_halfwidths", "200"),
])
def test_removed_config_keys_are_unknown(tmp_path, capsys, source, key, value):
    if source == "--set":
        argv = ["rates", "--config", os.devnull, "--set", f"{key}={value}"]
    else:
        argv = ["rates", "--config", write_config(tmp_path, f"{key} = {value}\n")]
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and out == ""
    assert err == f"error: config: unknown config key '{key}'\n"


def test_kappa_tied_to_phenomenological_mode():
    cfg = load_config(None, ["solver.mode=phenomenological", "solver.kappa=0.1"])
    assert cfg.kappa == 0.1
    with pytest.raises(ConfigError, match="kappa is required"):
        load_config(None, ["solver.mode=phenomenological"])
    with pytest.raises(ConfigError, match="only meaningful"):
        load_config(None, ["solver.kappa=0.1"])


def test_invariant_rejections():
    with pytest.raises(ConfigError, match="positive"):
        RunConfig(omega0=-1.0)
    with pytest.raises(ConfigError, match="n_output"):
        RunConfig(n_output=1)
    with pytest.raises(ConfigError, match="solver.mode"):
        RunConfig(solver_mode="magic")
    with pytest.raises(ConfigError, match="rates.mode"):
        RunConfig(rates_mode="exact")


# ---------------------------------------------------------------- evolve


def test_evolve_case_b_final_ground_population(tmp_path, capsys):
    path = write_config(tmp_path, CASE_B)
    code, out, err = run_cli(["evolve", "--config", path], capsys)
    assert code == 0 and err == ""
    header, rows = parse_csv(out)
    assert header == ["t", "P_E0", "P_minus", "P_plus", "re_coh", "im_coh",
                      "P_0g", "P_1g", "P_0e", "P_atom_g", "P_atom_e"]
    assert rows.shape == (601, 11)
    final = dict(zip(header, rows[-1]))
    assert final["t"] == 300.0
    assert 0.45 <= final["P_0g"] <= 0.58
    # trace is 1 in both bases and the bare columns match their aliases
    dressed = rows[:, 1] + rows[:, 2] + rows[:, 3]
    bare = rows[:, 6] + rows[:, 7] + rows[:, 8]
    assert np.max(np.abs(dressed - 1.0)) < 1e-9
    assert np.max(np.abs(bare - 1.0)) < 1e-9
    assert np.array_equal(rows[:, 8], rows[:, 10])  # P_0e is P_atom_e


def test_evolve_phenomenological_channels_decay_at_kappa(capsys):
    kappa = 0.1
    code, out, err = run_cli(
        ["evolve", "--config", os.devnull, "--set", "solver.mode=phenomenological",
         "--set", f"solver.kappa={kappa}", "--set", "evolve.t_max=50",
         "--set", "evolve.n_output=501"], capsys)
    assert code == 0 and err == ""
    header, rows = parse_csv(out)
    want = 0.5 * np.exp(-0.5 * kappa * rows[:, 0])
    for name in ("P_minus", "P_plus"):
        assert np.max(np.abs(rows[:, header.index(name)] - want)) < 1e-8


def test_evolve_tcl_ode_with_oracle_rates_matches_analytic(capsys):
    common = ["evolve", "--config", os.devnull,
              "--set", "evolve.t_max=2", "--set", "evolve.n_output=11"]
    code, ref, err = run_cli(common, capsys)
    assert code == 0 and err == ""
    code, out, err = run_cli(common + ["--set", "solver.mode=tcl-ode",
                                       "--set", "rates.mode=quadrature"], capsys)
    assert code == 0 and err == ""
    ref_header, ref_rows = parse_csv(ref)
    header, rows = parse_csv(out)
    assert header == ref_header and rows.shape == (11, 11)
    assert np.max(np.abs(rows - ref_rows)) < 1e-8


@pytest.mark.parametrize("lam", ["1e9", "1e200"])
def test_tcl_ode_with_nan_initial_rate_is_one_numerical_error_line(lam):
    # alpha*lam overflows to inf, so the rate at t = 0 reads inf * 0 and the
    # derivative there is NaN, which would leave DOP853 rejecting steps
    # forever; the timeout turns such a hang into a failure
    proc = subprocess.run(
        [sys.executable, "-m", "leakycavity.cli", "evolve", "--config", os.devnull,
         "--set", "solver.mode=tcl-ode", "--set", "reservoir.alpha=1e300",
         "--set", f"reservoir.lambda={lam}", "--set", "evolve.n_output=3"],
        env=_child_env(), capture_output=True, text=True, timeout=60)
    assert proc.returncode == 3 and proc.stdout == ""
    assert proc.stderr == "error: numerical: non-finite derivative at t=0\n"


@pytest.mark.parametrize("settings, message", [
    (["solver.mode=tcl-ode", "evolve.t_max=1e300"], "under 1% of the span"),
    (["solver.mode=tcl-ode", "reservoir.alpha=1e300"], "under 1% of the span"),
], ids=["tcl-ode-horizon", "tcl-ode-stiff"])
def test_hopeless_ode_horizon_is_one_numerical_error_line(settings, message):
    # 1% of the RHS-call budget covers under 1% of the first span, whether
    # the span is huge or rates of order 1e300 hold DOP853's step near
    # 1e-300, so the ODE stops in about a second or two; the timeout turns
    # spending the budget into a failure
    proc = subprocess.run(
        [sys.executable, "-m", "leakycavity.cli", "evolve", "--config", os.devnull,
         "--set", "evolve.n_output=3", *(a for kv in settings for a in ("--set", kv))],
        env=_child_env(), capture_output=True, text=True, timeout=60)
    assert proc.returncode == 3 and proc.stdout == ""
    assert proc.stderr.startswith("error: numerical: ")
    assert message in proc.stderr and proc.stderr.count("\n") == 1


def test_tcl_ode_matches_analytic_at_huge_omega0(capsys):
    # 2 Omega is far below an ulp of omega0 = 1e20; the coherence still rotates
    argv = ["evolve", "--config", os.devnull, "--set", "system.omega0=1e20",
            "--set", "evolve.t_max=3", "--set", "evolve.n_output=4",
            "--set", "output.precision=17"]
    tables = []
    for mode in ("analytic", "tcl-ode"):
        code, out, err = run_cli(argv + ["--set", f"solver.mode={mode}"], capsys)
        assert code == 0 and err == ""
        tables.append(parse_csv(out)[1])
    assert np.max(np.abs(tables[0] - tables[1])) < 1e-10


def test_phenomenological_at_huge_kappa_puts_the_atom_in_g(capsys):
    # the closed form has no step to underflow: every state after t = 0 is |E0>
    code, out, err = run_cli(
        ["evolve", "--config", os.devnull, "--set", "solver.mode=phenomenological",
         "--set", "solver.kappa=1e300", "--set", "evolve.n_output=3"], capsys)
    assert code == 0 and err == ""
    header, rows = parse_csv(out)
    assert rows.shape == (3, 11) and np.all(np.isfinite(rows))
    assert rows[0, header.index("P_E0")] == 0.0
    assert np.all(rows[1:, header.index("P_E0")] == 1.0)


# ---------------------------------------------------------------- rates


def test_rates_quadrature_emits_oracle_columns(tmp_path, capsys):
    path = write_config(tmp_path, CASE_B)
    code, out, err = run_cli(
        ["rates", "--config", path, "--set", "rates.mode=quadrature",
         "--set", "evolve.t_max=2.0", "--set", "evolve.n_output=5"], capsys)
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["t", "gamma_minus", "gamma_plus",
                      "gamma_minus_oracle", "gamma_plus_oracle"]
    assert rows.shape == (5, 5)
    assert np.all(rows[0] == 0.0)  # every rate is exactly zero at t = 0
    alpha = 0.1
    assert np.max(np.abs(rows[1:, 3] - rows[1:, 1])) < 1e-6 * alpha
    assert np.max(np.abs(rows[1:, 4] - rows[1:, 2])) < 1e-6 * alpha


def test_rates_oracle_with_underflowing_width_is_the_finite_check_line(capsys):
    # lam*lam underflows to 0, so J reads 0/0 at its peak: the oracle gives
    # NaN there like the closed form, not a bare Python ZeroDivisionError
    code, out, err = run_cli(
        ["rates", "--config", os.devnull, "--set", "rates.mode=quadrature",
         "--set", "reservoir.lambda=1e-300", "--set", "evolve.n_output=3",
         "--set", "evolve.t_max=1"], capsys)
    assert code == 3 and out == ""
    assert err == "error: numerical: non-finite values in the rates table\n"


def test_rates_closed_form_only_columns(tmp_path, capsys):
    path = write_config(tmp_path, CASE_B)
    code, out, _ = run_cli(
        ["rates", "--config", path, "--set", "evolve.t_max=5.0",
         "--set", "evolve.n_output=11"], capsys)
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["t", "gamma_minus", "gamma_plus"]
    assert rows.shape == (11, 3)


# ---------------------------------------------------------------- figures


def test_figures_rates_start_at_zero(capsys):
    code, out, err = run_cli(["figures", "--id", "1", "--case", "a"], capsys)
    assert code == 0 and err == ""
    header, rows = parse_csv(out)
    assert header == ["t", "gamma_minus", "gamma_plus"]
    assert rows[0, 0] == 0.0 and rows[0, 1] == 0.0 and rows[0, 2] == 0.0


def test_figures_size_overrides(capsys):
    code, out, _ = run_cli(
        ["figures", "--id", "1", "--case", "a",
         "--t-max", "2.0", "--n-points", "5"], capsys)
    assert code == 0
    _, rows = parse_csv(out)
    assert rows.shape == (5, 3)
    assert rows[-1, 0] == 2.0


def test_figures_deterministic_output_files(tmp_path, capsys):
    paths = [str(tmp_path / name) for name in ("one.csv", "two.csv")]
    for out_path in paths:
        code, _, _ = run_cli(
            ["figures", "--id", "2", "--case", "b",
             "--set", f"output.path={out_path}"], capsys)
        assert code == 0
    first, second = (Path(p).read_bytes() for p in paths)
    assert first == second
    assert first.startswith(b"t,P_0g\n")
    # stdout carries the same bytes, also when it is a text-only stream
    assert run_cli(["figures", "--id", "2", "--case", "b"], capsys)[1] == first.decode()
    text_only = io.StringIO()
    with contextlib.redirect_stdout(text_only):
        assert cli.main(["figures", "--id", "2", "--case", "b"]) == 0
    assert text_only.getvalue() == first.decode()


def run_figure(argv, capsys):
    """Header and rows of a figures run at full precision, which must succeed."""
    code, out, err = run_cli(["figures", *argv, "--set", "output.precision=17"], capsys)
    assert code == 0 and err == ""
    return parse_csv(out)


def test_figure_rates_table(capsys):
    columns, values = run_figure(["--id", "1", "--case", "a"], capsys)
    assert columns == ["t", "gamma_minus", "gamma_plus"]
    assert values[0, 0] == 0.0
    # both rates start at zero
    assert values[0, 1] == 0.0 and values[0, 2] == 0.0
    # lower-channel rate relaxes to alpha = 0.1 (units of 2 Omega)
    _, long = run_figure(["--id", "1", "--case", "a", "--t-max", "60", "--n-points", "1201"],
                         capsys)
    assert abs(long[-1, 1] - 0.1) < 1e-9
    # narrow case: upper-channel rate attains a negative minimum
    _, tb = run_figure(["--id", "1", "--case", "b"], capsys)
    assert tb[:, 2].min() < 0.0


def test_figure_ground_state_population_table(capsys):
    columns, values = run_figure(["--id", "2", "--case", "b"], capsys)
    t = values[:, 0]
    P_0g = values[:, 1]
    assert columns == ["t", "P_0g"]
    assert P_0g[0] == 0.0
    # rises to about one half and stays near it over the plotted window
    assert np.any(P_0g[t < 80.0] > 0.45)
    assert np.all(np.abs(P_0g[t >= 80.0] - 0.5) < 0.08)


def test_figure_atomic_ground_table_and_overrides(capsys):
    columns, values = run_figure(["--id", "3", "--case", "a", "--t-max", "10",
                                  "--n-points", "11"], capsys)
    assert columns == ["t", "P_atom_g"]
    assert values.shape == (11, 2)
    assert values[-1, 0] == 10.0


def test_figure_tables_are_deterministic(capsys):
    _, a = run_figure(["--id", "2", "--case", "b"], capsys)
    _, b = run_figure(["--id", "2", "--case", "b"], capsys)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("argv, err", [
    (["--id", "4", "--case", "a"], "error: usage: argument --id: invalid choice: 4"),
    (["--id", "1", "--case", "z"], "error: usage: argument --case: invalid choice: "),
    # --t-max and --n-points stand in for evolve.t_max and evolve.n_output
    (["--id", "1", "--case", "a", "--n-points", "1"],
     "error: config: evolve.n_output must be >= 2, got 1\n"),
    (["--id", "2", "--case", "a", "--t-max", "inf"],
     "error: config: evolve.t_max must be finite, got inf\n"),
    (["--id", "3", "--case", "b", "--t-max=-1"],
     "error: config: evolve.t_max must be positive, got -1.0\n"),
], ids=["id-4", "case-z", "n-points-1", "t-max-inf", "t-max-negative"])
def test_figure_rejections(capsys, argv, err):
    code, out, got = run_cli(["figures", *argv], capsys)
    assert code == 2 and out == ""
    assert got.startswith(err) and got.count("\n") == 1


def _columns(csv_text, names):
    """The named columns of a CSV text, as a list of lines."""
    rows = [line.split(",") for line in csv_text.splitlines()]
    keep = [rows[0].index(name) for name in names]
    return [",".join(row[i] for i in keep) for row in rows]


# the paper's figures: the subcommand each one presets, its grid and its columns
_PAPER_FIGURES = {1: ("rates", 20.0, 801, ["t", "gamma_minus", "gamma_plus"]),
                  2: ("evolve", 100.0, 2001, ["t", "P_0g"]),
                  3: ("evolve", 300.0, 6001, ["t", "P_atom_g"])}


@pytest.mark.parametrize("case", ["a", "b"])
@pytest.mark.parametrize("fig", [1, 2, 3])
def test_figures_are_rates_or_evolve_on_the_reference_case(capsys, fig, case):
    cmd, t_max, n_output, names = _PAPER_FIGURES[fig]
    precision = ["--set", "output.precision=17"]
    code, figure, err = run_cli(["figures", f"--id={fig}", f"--case={case}", *precision],
                                capsys)
    assert code == 0 and err == ""
    lam = float(reference_case(case)[1].lam)
    code, full, err = run_cli(
        [cmd, "--config", os.devnull, "--set", f"reservoir.lambda={lam!r}",
         "--set", f"evolve.t_max={t_max!r}", "--set", f"evolve.n_output={n_output}",
         *precision], capsys)
    assert code == 0 and err == ""
    # lists, not two ~200 kB strings, so that pytest's diff of a failure stays cheap
    assert figure.endswith("\n") and figure.splitlines() == _columns(full, names)


@pytest.mark.parametrize("case", ["a", "b"])
def test_figure_cases_are_the_paper_cases(case):
    # each case is its reservoir.lambda over RunConfig's defaults
    cfg = RunConfig(lam=cli._CASES[case])
    assert (cfg.system(), cfg.spectrum()) == reference_case(case)


def _write_csv_per_value(columns, values, precision):
    """Reference writer: every value formatted on its own."""
    fmt = f"%.{precision}g"
    lines = [",".join(columns)]
    for row in np.atleast_2d(np.asarray(values, dtype=float)):
        lines.append(",".join(fmt % v for v in row))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("precision", [1, 12, 17])
def test_write_csv_matches_per_value_formatting(tmp_path, precision):
    values = np.array([
        [0.0, -0.0, 5e-324, 2.2250738585072009e-308, 1e-300],
        [1.7976931348623157e308, -1.7976931348623157e308, 1e300, -3.5, 1.0 / 3.0],
        [-2.0 / 3.0, 123456789.123456789, -1e-5, 0.5, 7.0],
    ])
    columns = ["a", "b", "c", "d", "e"]
    out_path = tmp_path / "table.csv"
    cli.write_csv(columns, values, str(out_path), precision)
    assert out_path.read_text() == _write_csv_per_value(columns, values, precision)
    cli.write_csv(columns, values[0], str(out_path), precision)  # one 1-D row
    assert out_path.read_text() == _write_csv_per_value(columns, values[0], precision)


def _write_csv_one_shot(columns, values, precision):
    """Reference writer: the whole table formatted at once and joined."""
    values = np.atleast_2d(np.asarray(values, dtype=float))
    row_fmt = ",".join([f"%.{precision}g"] * values.shape[1])
    lines = [",".join(columns)] + [row_fmt % tuple(row) for row in values.tolist()]
    return "\n".join(lines) + "\n"


# writes each table of an .npz file, keyed "<rows>_<precision>", to a binary stdout
BLOCK_EDGE_SCRIPT = """\
import sys
import numpy as np
from leakycavity.cli import write_csv
data = np.load(sys.argv[1])
for key in data.files:
    write_csv([f"c{i}" for i in range(11)], data[key], "-", int(key.split("_")[1]))
"""


def test_write_csv_in_blocks_is_the_one_shot_text(tmp_path):
    B = cli._BLOCK_ROWS
    rng = np.random.default_rng(20)
    columns = [f"c{i}" for i in range(11)]
    cases = {}
    for n in (1, B - 1, B, B + 1, 2 * B + 1):
        values = rng.standard_normal((n, 11)) * 10.0 ** rng.integers(-300, 300, (n, 11))
        for precision in (12, 17):
            cases[f"{n}_{precision}"] = values, precision
    out_path = tmp_path / "table.csv"
    for values, precision in cases.values():
        want = _write_csv_one_shot(columns, values, precision)
        cli.write_csv(columns, values, str(out_path), precision)
        assert out_path.read_bytes() == want.encode()
        text_only = io.StringIO()
        with contextlib.redirect_stdout(text_only):
            cli.write_csv(columns, values, "-", precision)
        assert text_only.getvalue() == want
    np.savez(tmp_path / "tables.npz", **{key: values for key, (values, _) in cases.items()})
    proc = subprocess.run([sys.executable, "-c", BLOCK_EDGE_SCRIPT, str(tmp_path / "tables.npz")],
                          env=_child_env(), capture_output=True, timeout=120)
    assert proc.returncode == 0 and proc.stderr == b""
    assert proc.stdout == "".join(_write_csv_one_shot(columns, values, precision)
                                  for values, precision in cases.values()).encode()


def test_write_csv_memory_does_not_grow_with_the_table(tmp_path):
    # formatting the whole table at once holds a float object per value,
    # every line and the joined text: 14.4 MB here, against 0.7 MB in blocks
    values = np.random.default_rng(0).standard_normal((20001, 11))
    tracemalloc.start()
    try:
        cli.write_csv([f"c{i}" for i in range(11)], values, str(tmp_path / "big.csv"), 17)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


# ---------------------------------------------------------------- sweep


def test_sweep_lambda_table(tmp_path, capsys):
    path = write_config(tmp_path, CASE_B)
    code, out, err = run_cli(
        ["sweep", "--config", path, "--param", "lambda",
         "--from", "0.2", "--to", "1.0", "--steps", "3",
         "--set", "evolve.t_max=100.0", "--set", "evolve.n_output=1001"],
        capsys)
    assert code == 0 and err == ""
    header, rows = parse_csv(out)
    assert header == ["lambda", "rate_ratio", "trapped_value",
                      "plateau_start", "plateau_end"]
    assert rows.shape == (3, 5)
    lams = rows[:, 0]
    assert np.all(np.diff(lams) > 0) and lams[0] == 0.2 and lams[-1] == 1.0
    # stationary ratio lam^2 / (4 Omega^2 + lam^2) with 2 Omega = 1
    expected = lams**2 / (1.0 + lams**2)
    assert np.max(np.abs(rows[:, 1] - expected)) < 1e-12


@pytest.mark.parametrize("case, t_max, n_output, lo, hi", [("a", 150.0, 3001, 0.14, 0.21),
                                                         ("b", 300.0, 6001, 0.21, 0.25)])
def test_sweep_detects_the_plateau_on_the_exact_envelope(tmp_path, capsys, case, t_max,
                                                         n_output, lo, hi):
    # criterion 07's horizons and windows, the row read back at full precision
    sys_params, s = reference_case(case)
    lam = float(s.lam)
    path = write_config(tmp_path, CASE_B)
    code, out, err = run_cli(
        ["sweep", "--config", path, "--param", "lambda",
         "--from", repr(lam), "--to", repr(lam), "--steps", "1",
         "--set", f"evolve.t_max={t_max}", "--set", f"evolve.n_output={n_output}",
         "--set", "output.precision=17"], capsys)
    assert code == 0 and err == ""
    _, rows = parse_csv(out)
    ts = np.linspace(0.0, t_max, n_output)
    traj = evolve_analytic(sys_params, s, ts)
    period = np.pi / sys_params.Omega
    report = detect_plateau(ts, 0.5 * (traj.P_minus + traj.P_plus), osc_period=period)
    assert rows.shape == (1, 5) and rows[0, 0] == lam
    assert rows[0, 2:].tolist() == [report.trapped_value, report.plateau_start,
                                    report.plateau_end]
    assert lo <= report.trapped_value <= hi
    assert report.plateau_end - report.plateau_start > 10.0 * period


def test_sweep_reports_no_plateau_shorter_than_ten_periods(tmp_path, capsys):
    # at t_max = 80 every lambda here has a slow interval of 23.85 to 44.1
    # time units, short of the 10 Rabi periods (62.8) a plateau needs
    path = write_config(tmp_path, "reservoir.alpha = 0.1\nevolve.t_max = 80.0\n"
                                  "evolve.n_output = 1601\n")
    code, out, err = run_cli(
        ["sweep", "--config", path, "--param", "lambda",
         "--from", "0.0124", "--to", "0.3", "--steps", "4"], capsys)
    assert code == 0 and err == ""
    _, rows = parse_csv(out)
    assert rows.shape == (4, 5)
    assert np.all(rows[:, 2] == 0.0)
    assert np.all(np.isnan(rows[:, 3:]))


@pytest.mark.parametrize("n_output", [4, 5])
def test_sweep_on_a_four_or_five_point_grid_reports_no_plateau(capsys, n_output):
    # the longest slow interval on these grids lasts 0 and 25 time units,
    # short of the 10 Rabi periods (62.8) a plateau needs
    code, out, err = run_cli(
        ["sweep", "--config", os.devnull, "--set", f"evolve.n_output={n_output}",
         "--param", "lambda", "--from", "0.3", "--to", "0.3", "--steps", "1"], capsys)
    assert code == 0 and err == ""
    _, rows = parse_csv(out)
    assert rows.shape == (1, 5) and rows[0, 2] == 0.0
    assert np.all(np.isnan(rows[0, 3:]))


def test_sweep_bad_range_is_config_error(tmp_path, capsys):
    path = write_config(tmp_path, CASE_B)
    code, _, err = run_cli(
        ["sweep", "--config", path, "--param", "lambda",
         "--from", "0.5", "--to", "0.1", "--steps", "3"], capsys)
    assert code == 2
    assert err.startswith("error: config:") and err.count("\n") == 1


def test_sweep_rejects_an_omega1_it_would_ignore(tmp_path, capsys):
    path = write_config(tmp_path, CASE_B)
    argv = ["sweep", "--config", path, "--param", "lambda", "--from", "0.2",
            "--to", "1.0", "--steps", "3", "--set", "evolve.t_max=100.0",
            "--set", "evolve.n_output=1001"]
    code, out, err = run_cli(argv + ["--set", "reservoir.omega1=80"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: config:") and "omega1" in err
    assert err.count("\n") == 1
    # the lower-channel peak the sweep uses, set explicitly, changes nothing
    default = run_cli(argv, capsys)
    assert default[0] == 0
    assert run_cli(argv + ["--set", "reservoir.omega1=99.5"], capsys) == default


# ---------------------------------------------------------------- exit codes


def test_no_arguments_prints_usage(capsys):
    code, out, err = run_cli([], capsys)
    assert code == 2 and out == ""
    assert err == "error: usage: the following arguments are required: <subcommand>\n"


def test_help_exits_zero(capsys):
    code, out, err = run_cli(["-h"], capsys)
    assert code == 0 and err == ""
    assert out.startswith("usage: leakycavity")
    # argparse lists every subcommand with its one-line help
    lines = [line.split(None, 1) for line in out.splitlines()]
    for cmd, (_, help_line) in cli._COMMANDS.items():
        assert [cmd, help_line] in lines


def test_unknown_subcommand_exit_64(capsys):
    code, _, err = run_cli(["render", "--config", "x.cfg"], capsys)
    assert code == 64
    assert err == ("error: usage: unknown subcommand 'render', "
                   f"expected one of {', '.join(cli._COMMANDS)}\n")


def test_missing_config_flag_exit_2(capsys):
    code, _, err = run_cli(["evolve"], capsys)
    assert code == 2
    assert "usage" in err


@pytest.mark.parametrize("argv, message", [
    (["figures", "--id", "9", "--case", "a"],
     "argument --id: invalid choice: 9 (choose from 1, 2, 3)"),
    # argparse reads a negative number in exponent form as a flag; the
    # --t-max=-1e+300 spelling reaches the range check instead
    (["figures", "--id", "1", "--case", "a", "--t-max", "-1e+300"],
     "argument --t-max: expected one argument"),
    (["figures", "--id", "1", "--case", "a", "--bogus"], "unrecognized arguments: --bogus"),
    (["sweep", "--config", os.devnull, "--param", "lambda", "--from", "0.1", "--to", "1"],
     "the following arguments are required: --steps"),
    # an option ahead of the subcommand is a usage error, not an unknown subcommand
    (["--bogus"], "the following arguments are required: <subcommand>"),
    (["--version"], "the following arguments are required: <subcommand>"),
    (["--config", "run.cfg", "evolve"], "argument <subcommand>: invalid choice: 'run.cfg' "
     "(choose from 'rates', 'evolve', 'figures', 'sweep')"),
])
def test_usage_error_is_one_error_line(capsys, argv, message):
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and out == ""
    assert err == f"error: usage: {message}\n"


def test_subcommand_help_exits_zero(capsys):
    code, out, err = run_cli(["figures", "-h"], capsys)
    assert code == 0 and err == ""
    assert out.startswith("usage: leakycavity figures")


def test_malformed_config_exit_2(tmp_path, capsys):
    path = write_config(tmp_path, "reservoir.alpha = -3\n")
    code, _, err = run_cli(["evolve", "--config", path], capsys)
    assert code == 2
    assert err.startswith("error: config:") and err.count("\n") == 1


def test_numerical_failure_exit_3(tmp_path, capsys, monkeypatch):
    def explode(*args, **kwargs):
        raise OdeSolveError("step size underflow", last_t=0.5)

    monkeypatch.setattr(cli, "evolve_tcl_ode", explode)
    path = write_config(tmp_path, CASE_B)
    code, _, err = run_cli(
        ["evolve", "--config", path, "--set", "solver.mode=tcl-ode"], capsys)
    assert code == 3
    assert err.startswith("error: numerical:") and err.count("\n") == 1


def test_linalg_failure_is_numerical_not_config(tmp_path, capsys, monkeypatch):
    def explode(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(cli, "evolve_analytic", explode)
    code, _, err = run_cli(["evolve", "--config", write_config(tmp_path, CASE_B)],
                           capsys)
    assert code == 3
    assert err == "error: numerical: Eigenvalues did not converge\n"


def test_rotating_wave_warning_is_one_stderr_line(tmp_path, capsys):
    out_path = tmp_path / "out.csv"
    code, out, err = run_cli(
        ["evolve", "--config", os.devnull, "--set", "system.omega0=2",
         "--set", f"output.path={out_path}"], capsys)
    assert code == 0 and out == ""
    assert err == ("warning: Omega/omega0 = 0.25 > 0.1; the rotating-wave "
                   "treatment behind the dressed-state channels is questionable here\n")
    assert out_path.read_text().startswith("t,P_E0,")


@pytest.mark.parametrize("override, code, prefix", [
    ("evolve.t_max=inf", 2, "error: config: evolve.t_max must be finite"),
    ("reservoir.alpha=inf", 2, "error: config: reservoir.alpha must be finite"),
    # finite, but at alpha = 1e300 so wide that alpha*lam overflows and the
    # accumulated rates read inf * 0 at t = 0
    ("reservoir.lambda=1e9", 3, "error: numerical: non-finite values"),
    ("reservoir.lambda=1e200", 3, "error: numerical: non-finite values in the evolve table"),
])
def test_nonfinite_input_or_output_is_one_error_line(tmp_path, capsys, override,
                                                     code, prefix):
    path = write_config(tmp_path, CASE_B)
    out_path = tmp_path / "out.csv"
    got, out, err = run_cli(
        ["evolve", "--config", path, "--set", "reservoir.alpha=1e300",
         "--set", override, "--set", f"output.path={out_path}"], capsys)
    assert got == code
    assert err.startswith(prefix) and err.count("\n") == 1
    assert out == "" and not out_path.exists()


@pytest.mark.parametrize("settings, message", [
    (["reservoir.omega1=0"], "reservoir.omega1 must be positive, got 0.0"),
    (["output.precision=0"], "output.precision must be >= 1, got 0"),
    (["solver.mode=phenomenological", "solver.kappa=-0.1"],
     "solver.kappa must be nonnegative, got -0.1"),
])
def test_out_of_range_value_is_one_config_error_line(capsys, settings, message):
    argv = ["evolve", "--config", os.devnull]
    for item in settings:
        argv += ["--set", item]
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and out == ""
    assert err == f"error: config: {message}\n"


# a step t_max/(n_output - 1) that underflows makes linspace's times
# reverse (7e-323 over 10 points) or repeat (5e-324 over 7)
@pytest.mark.parametrize("t_max, n_output", [("7e-323", 10), ("5e-324", 7)])
@pytest.mark.parametrize("argv", [
    ["rates", "--config", os.devnull],
    ["evolve", "--config", os.devnull],
    ["sweep", "--config", os.devnull, "--param", "lambda", "--from", "0.3", "--to", "0.3",
     "--steps", "1"],
    ["figures", "--id", "1", "--case", "a"],
    ["figures", "--id", "2", "--case", "b"],
    ["figures", "--id", "3", "--case", "a"],
], ids=["rates", "evolve", "sweep", "figures-1", "figures-2", "figures-3"])
def test_underflowing_grid_is_one_config_error_line(capsys, argv, t_max, n_output):
    if argv[0] == "figures":
        argv = argv + ["--t-max", t_max, "--n-points", str(n_output)]
    else:
        argv = argv + ["--set", f"evolve.t_max={t_max}", "--set", f"evolve.n_output={n_output}"]
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and out == ""
    assert err == (f"error: config: evolve.t_max = {float(t_max)!r} is too small for "
                   f"evolve.n_output = {n_output} distinct times\n")


@pytest.mark.parametrize("target", [
    "directory", "missing directory",
    pytest.param("full device", marks=pytest.mark.skipif(
        not os.path.exists("/dev/full"), reason="needs /dev/full")),
])
def test_unwritable_output_path_is_config_error(tmp_path, capsys, target):
    path = {"directory": tmp_path,
            "missing directory": tmp_path / "missing" / "out.csv",
            "full device": "/dev/full"}[target]
    code, out, err = run_cli(["figures", "--id", "1", "--case", "a",
                              "--set", f"output.path={path}"], capsys)
    assert code == 2 and out == ""
    assert err.startswith(f"error: config: cannot write output file '{path}'")
    assert err.count("\n") == 1


# 10**15 float64 samples are 7 PiB: numpy refuses before allocating anything
@pytest.mark.parametrize("argv", [
    ["evolve", "--config", os.devnull, "--set", "evolve.n_output=1000000000000000"],
    ["figures", "--id", "1", "--case", "a", "--n-points", "1000000000000000"],
    ["sweep", "--config", os.devnull, "--param", "lambda", "--from", "0.1",
     "--to", "1", "--steps", "1000000000000000"],
])
def test_oversized_grid_is_one_memory_error_line(capsys, argv):
    code, out, err = run_cli(argv, capsys)
    assert code == 3 and out == ""
    assert err.startswith("error: memory: ") and err.count("\n") == 1


def test_oracle_past_panel_budget_is_one_numerical_error_line(capsys):
    code, out, err = run_cli(["rates", "--config", os.devnull,
                              "--set", "rates.mode=quadrature",
                              "--set", "evolve.n_output=3",
                              "--set", "evolve.t_max=1e300"], capsys)
    assert code == 3 and out == ""
    assert err.startswith("error: numerical: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv, what", [
    (["sweep", "--param", "lambda", "--from", "1e200", "--to", "1e200", "--steps", "1",
      "--set", "reservoir.alpha=1e300"], "trajectory at lambda=1e+200"),
    (["sweep", "--param", "lambda", "--from", "0.05", "--to", "0.05", "--steps", "1",
      "--set", "reservoir.alpha=5e-324"], "sweep table"),
    (["rates", "--set", "reservoir.lambda=1e200", "--set", "reservoir.alpha=1e300"],
     "rates table"),
], ids=["sweep-overflow", "sweep-zero-division", "rates-overflow"])
def test_float_arithmetic_error_is_one_numerical_error_line(capsys, argv, what):
    # alpha*lam overflows, so a rate at t = 0 reads inf * 0, or the rate
    # ratio divides 0 by 0: the NaN reaches the finite check of the table,
    # which names it
    code, out, err = run_cli([argv[0], "--config", os.devnull, *argv[1:]], capsys)
    assert code == 3 and out == ""
    assert err == f"error: numerical: non-finite values in the {what}\n"


@pytest.mark.parametrize("lam", ["1e-300", "1e200"])
def test_extreme_width_gives_finite_exact_tables(capsys, lam):
    # lam*lam would underflow or overflow; the closed forms never form it.
    # At lam = 1e200 the spectrum is flat over both channels, so each rate is
    # alpha for t > 0 and P_-+ = exp(-alpha t/2)/2; at lam = 1e-300 the peak
    # holds weight alpha lam/2, so the rates are alpha lam t and alpha lam sin t
    # to first order, and P_-+ stays 1/2
    alpha, t_max, n = 0.1, 10.0, 11
    common = ["--config", os.devnull, "--set", f"reservoir.lambda={lam}",
              "--set", f"evolve.t_max={t_max}", "--set", f"evolve.n_output={n}"]
    code, out, err = run_cli(["rates", *common], capsys)
    assert code == 0 and err == ""
    _, rates = parse_csv(out)
    t, lam = rates[:, 0], float(lam)
    if lam > 1.0:
        gammas = (alpha * -np.expm1(-lam * t), np.where(t > 0.0, alpha, 0.0))
        P = 0.5 * np.exp(-0.5 * alpha * t)
    else:
        gammas = (alpha * lam * t, alpha * lam * np.sin(t))
        P = np.full(n, 0.5)
    np.testing.assert_allclose(rates[:, 1:], np.column_stack(gammas), rtol=1e-11, atol=0.0)
    tables = {}
    for mode in ("analytic", "tcl-ode"):
        code, out, err = run_cli(["evolve", *common, "--set", f"solver.mode={mode}"], capsys)
        assert code == 0 and err == ""
        header, tables[mode] = parse_csv(out)
        assert tables[mode].shape == (n, 11) and np.all(np.isfinite(tables[mode]))
    analytic = tables["analytic"]
    for name in ("P_minus", "P_plus"):
        np.testing.assert_allclose(analytic[:, header.index(name)], P, rtol=1e-11, atol=0.0)
    assert np.max(np.abs(tables["tcl-ode"] - analytic)) < 1e-8


def test_quadpack_warning_is_one_numerical_error_line(capsys):
    # QAWF reports bad integrand behaviour for the oracle at t ~ 1e-6 (case b),
    # and runs out of cycles at t = 5e-310 (case a); it wraps each message over
    # three lines and ends it with advice on its full_output that no CLI user
    # can take
    for overrides, message in (
            (["reservoir.lambda=0.10050378152592121", "evolve.t_max=1e-5",
              "evolve.n_output=11"],
             "Bad integrand behavior occurs within one or more of the cycles "
             "(Fourier tail at frequency 1e-06)"),
            (["evolve.t_max=1e-309", "evolve.n_output=3"],
             "The maximum number of cycles allowed has been achieved "
             "(Fourier tail at frequency 5e-310)")):
        argv = ["rates", "--config", os.devnull, "--set", "rates.mode=quadrature"]
        for item in overrides:
            argv += ["--set", item]
        code, out, err = run_cli(argv, capsys)
        assert code == 3 and out == ""
        assert err == f"error: numerical: {message}\n"


def test_rates_oracle_with_overflowing_detuning_is_the_finite_check_line(capsys):
    # lam = 1e-160 puts the lower channel's window end R far below QAWF's first
    # cycle, whose end node rounds onto x = 0 where the tail divides by x; the
    # upper channel's detuning overflows to inf.  Both are NaN, as in the
    # closed-form columns, not a bare ZeroDivisionError or a panel-budget error
    code, out, err = run_cli(
        ["rates", "--config", os.devnull, "--set", "rates.mode=quadrature",
         "--set", "evolve.n_output=2", "--set", "system.Omega=1.7e+308",
         "--set", "reservoir.alpha=1e+300", "--set", "system.omega0=3.0",
         "--set", "reservoir.lambda=1e-160"], capsys)
    assert code == 3 and out == ""
    lines = err.splitlines()
    assert lines[0] == "error: numerical: non-finite values in the rates table"
    assert len(lines) == 2 and lines[1].startswith("warning: Omega/omega0")


def test_oracle_at_subnormal_alpha_runs(capsys):
    # 1e-12 * alpha underflows to 0, an absolute tolerance QUADPACK refuses
    # for a Fourier tail; the oracle floors it instead
    code, out, err = run_cli(["rates", "--config", os.devnull,
                              "--set", "reservoir.alpha=5e-324",
                              "--set", "evolve.n_output=3",
                              "--set", "rates.mode=quadrature"], capsys)
    assert code == 0 and err == ""
    header, rows = parse_csv(out)
    assert header[3:] == ["gamma_minus_oracle", "gamma_plus_oracle"]
    assert np.all(rows[:, 1:] == 0.0)


SCIPY_FREE_SCRIPT = """\
import sys
from leakycavity.cli import main

out, cfg = sys.argv[1], sys.argv[2]
assert main(["figures", "--id", "3", "--case", "b",
             "--set", f"output.path={out}/fig.csv"]) == 0
assert main(["sweep", "--config", cfg, "--param", "lambda", "--from", "0.2",
             "--to", "1.0", "--steps", "3", "--set", f"output.path={out}/sweep.csv"]) == 0
assert main(["evolve", "--config", cfg, "--set", "solver.mode=phenomenological",
             "--set", "solver.kappa=0.1", "--set", f"output.path={out}/single.csv"]) == 0
assert "scipy" not in sys.modules, "the analytic commands loaded scipy"
assert main(["evolve", "--config", cfg, "--set", "solver.mode=tcl-ode",
             "--set", "evolve.t_max=5", "--set", "evolve.n_output=51",
             "--set", f"output.path={out}/ode.csv"]) == 0
assert "scipy" not in sys.modules, "the closed-form tcl-ode run loaded scipy"
assert main(["rates", "--config", cfg, "--set", "rates.mode=quadrature",
             "--set", "evolve.t_max=2", "--set", "evolve.n_output=3",
             "--set", f"output.path={out}/oracle.csv"]) == 0
assert "scipy" in sys.modules
"""


def _child_env():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p)
    return env


def test_analytic_commands_never_import_scipy(tmp_path):
    cfg = write_config(tmp_path, CASE_B)
    proc = subprocess.run(
        [sys.executable, "-c", SCIPY_FREE_SCRIPT, str(tmp_path), cfg],
        env=_child_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    for name in ("fig.csv", "sweep.csv", "single.csv", "ode.csv", "oracle.csv"):
        assert (tmp_path / name).stat().st_size > 0


# The reader either takes 10 bytes of the ~126 kB figure-3 table, more than a
# pipe buffer holds, and leaves, or is gone before a 50-row table is written,
# which a buffered stdout would otherwise still hold at interpreter exit.
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv, read_first", [
    (["figures", "--id", "3", "--case", "b"], True),
    (["figures", "--id", "3", "--case", "b", "--n-points", "50"], False),
], ids=["reader-leaves", "reader-gone"])
def test_closed_stdout_is_one_config_error_line(argv, read_first, unbuffered):
    env = _child_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    r, w = os.pipe()
    if not read_first:
        os.close(r)
    proc = subprocess.Popen(
        [sys.executable, "-c", "from leakycavity.cli import console_main; console_main()",
         *argv], stdout=w, stderr=subprocess.PIPE, env=env)
    os.close(w)
    if read_first:
        with open(r, "rb", buffering=0) as reader:
            assert reader.read(10)
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 2
    assert err.decode() == ("error: config: cannot write output to stdout: "
                            "[Errno 32] Broken pipe\n")


# The hook is registered before console_main, so it runs after its sys.exit,
# at interpreter teardown, and sees the heap console_main froze.
EXIT_HOOK_SCRIPT = """\
import atexit, gc, sys
from leakycavity.cli import console_main
atexit.register(lambda: sys.stderr.write(f"atexit: {gc.get_freeze_count()} frozen\\n"))
console_main()
"""


@pytest.mark.parametrize("argv, expected", [
    (["rates", "--config", os.devnull, "--set", "rates.mode=quadrature",
      "--set", "evolve.n_output=3", "--set", "evolve.t_max=2",
      "--set", "output.precision=17"], 0),
    (["rates", "--config", os.devnull, "--set", "nope.key=1"], 2),
    (["nope"], 64),
], ids=["quadrature-rates", "unknown-key", "unknown-subcommand"])
def test_console_exit_runs_atexit_hooks_and_keeps_the_output(argv, expected, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == expected
    proc = subprocess.run([sys.executable, "-c", EXIT_HOOK_SCRIPT, *argv],
                          env=_child_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == expected
    assert proc.stdout == out
    body, _, hook = proc.stderr.rpartition("atexit: ")
    assert body == err
    assert int(hook.split()[0]) > 0 and hook.endswith(" frozen\n")
