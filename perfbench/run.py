"""Benchmark of the leakycavity CLI: two workloads, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0

Run from anywhere; the package is taken from ``src/`` next to this
directory and nothing is installed.  ``--trace 0`` runs the workload's
invocations as sequential CLI subprocesses, one client in a closed loop,
pass after pass for about S seconds, and reports the end-to-end metrics,
with times scaled to a reference host speed (see ScaledClock).
``--trace 1`` reports the per-layer metrics instead: import times from a
fresh ``python -X importtime`` process per invocation, then passes run in
this process with the layers spanned (see tracing.py).  NAME is a
workload of BENCHMARK.json or one part of it (see workloads.py).
Every output is checked; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--workload all`` runs every workload in turn and ends with one JSON
object keyed by workload instead.
"""

import os

# Pin the BLAS thread pools before numpy loads, here and in every child.
# One thread (at most nproc): with a pool of nproc, OpenBLAS spin-waits
# doubled cpu_s on the oracle workload, slowed import by ~0.15 s, and
# gained no wall time on these 3x3 and vector-sized operations.
NPROC = len(os.sched_getaffinity(0))
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse
import hashlib
import io
import json
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

# what the installed ``leakycavity`` console script runs
CLI_ENTRY = "from leakycavity.cli import console_main; console_main()"
SETUP_ARGV = (sys.executable, "-c", "import leakycavity.cli")
SETUP_SAMPLES = 7
# calibration loop size, and the time it takes at the reference host speed
CALIBRATION_LOOPS = 750_000
CALIBRATION_REF_S = 0.15
MIN_PASSES = 2  # byte identity across passes needs two


def environment():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass

    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None
    return {"cpu_model": cpu, "nproc": NPROC, "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy"),
            "blas_threads": {var: os.environ[var] for var in BLAS_VARS}}


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


@dataclass(frozen=True)
class Child:
    wall: float
    cpu: float
    rss_mb: float
    code: int
    stderr: str


def spawn(argv, env):
    """Run one child to completion; wall, user+sys CPU and max RSS from wait4."""
    with open(WORK / "child.stderr", "w+b") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                stderr=err, env=env, cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        text = err.read().decode("utf-8", "replace")
    return Child(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                 proc.returncode, text)


class Judge:
    """Counts invocations and failures; a failure is a nonzero exit, any
    stderr, an output check that fails, or an output that differs from the
    one the same invocation wrote in an earlier pass."""

    def __init__(self):
        self.attempted = 0
        self.failures = []
        self.digests = {}
        self.references = {}

    def prepare(self, invs, env):
        """Run the analytic reference each check compares against, untimed."""
        for inv in invs:
            if inv.reference_argv is None:
                continue
            child = spawn([sys.executable, "-c", CLI_ENTRY, *inv.reference_argv], env)
            try:
                ref = workloads.read_csv(inv.reference_output)
            except (OSError, ValueError):
                ref = None
            self.references[inv.key] = ref if child.code == 0 and not child.stderr else None

    def errors(self, inv, code, stderr):
        if code != 0:
            return [f"exit code {code}"]
        if stderr:
            return [f"stderr: {stderr[-200:]!r}"]
        try:
            data = inv.output.read_bytes()
            columns, values = workloads.read_csv(inv.output)
        except (OSError, ValueError) as exc:
            return [f"unreadable output: {exc}"]
        if inv.reference_argv is not None and self.references.get(inv.key) is None:
            return ["the analytic reference run failed"]
        errors = inv.check(columns, values, self.references.get(inv.key))
        digest = hashlib.sha256(data).hexdigest()
        if self.digests.setdefault(inv.key, digest) != digest:
            errors.append("output differs from an earlier pass")
        return errors

    def record(self, inv, code, stderr):
        self.attempted += 1
        errors = self.errors(inv, code, stderr)
        if errors:
            self.failures.append((inv.key, errors))
            print(f"FAIL {inv.key}: {'; '.join(errors)}", file=sys.stderr)


def clear_outputs(invs):
    for inv in invs:
        inv.output.unlink(missing_ok=True)


def check_import(child):
    if child.code != 0 or child.stderr:
        raise RuntimeError(f"importing leakycavity.cli failed: {child.stderr.strip()}")


def calibrate():
    """Seconds this process takes for a fixed pure-Python loop.

    The loop touches nothing of the package, so no change to it can move
    the result; only the speed the host gives us can.
    """
    t0 = time.perf_counter()
    total, table = 0, {}
    for i in range(CALIBRATION_LOOPS):
        total += i * i
        table[i & 1023] = total
    return time.perf_counter() - t0


class ScaledClock:
    """Runs children between calibrations and scales their times to the
    reference host speed.

    The shared host this benchmark runs on changes speed by up to 50% in
    phases lasting seconds to minutes, slowing the children and the
    calibration loop alike.  Each child's wall and CPU time is multiplied
    by CALIBRATION_REF_S over the mean of the calibrations just before and
    just after it, so a phase change cancels while any change to the
    package's own speed passes through in full.  The unscaled times and
    the calibrations are kept too, for the report.
    """

    def __init__(self, env):
        self.env = env
        self.last = calibrate()
        self.calibrations = [self.last]

    def run(self, argv):
        child = spawn(argv, self.env)
        after = calibrate()
        self.calibrations.append(after)
        scale = CALIBRATION_REF_S / (0.5 * (self.last + after))
        self.last = after
        return child, scale


def run_untraced(invs, seconds, env, judge):
    """Subprocess passes for about ``seconds``; per-pass samples.

    One set-up sample precedes each pass, topped up to SETUP_SAMPLES, so
    that set-up is sampled across the run as the passes are.  Times are
    scaled to the reference host speed (see ScaledClock); ``raw_wall_s``
    and ``calibration_s`` are reported besides the metrics.
    """
    samples = {"setup_s": [], "wall_s": [], "cpu_s": [], "peak_rss_mb": [],
               "raw_wall_s": []}
    clock = ScaledClock(env)

    def setup_sample():
        child, scale = clock.run(SETUP_ARGV)
        check_import(child)
        samples["setup_s"].append(child.wall * scale)

    # stop at the pass boundary nearest to ``seconds``
    t0 = time.perf_counter()
    while (len(samples["wall_s"]) < MIN_PASSES or time.perf_counter() - t0
           + 0.5 * (time.perf_counter() - t0) / len(samples["wall_s"]) < seconds):
        setup_sample()
        clear_outputs(invs)
        runs = [clock.run([sys.executable, "-c", CLI_ENTRY, *inv.argv]) for inv in invs]
        samples["wall_s"].append(sum(c.wall * scale for c, scale in runs))
        samples["cpu_s"].append(sum(c.cpu * scale for c, scale in runs))
        samples["raw_wall_s"].append(sum(c.wall for c, _ in runs))
        samples["peak_rss_mb"].append(max(c.rss_mb for c, _ in runs))
        for inv, (child, _) in zip(invs, runs):
            judge.record(inv, child.code, child.stderr)
    while len(samples["setup_s"]) < SETUP_SAMPLES:
        setup_sample()
    samples["calibration_s"] = clock.calibrations
    return samples


def call_in_process(main, argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(list(argv))
        except Exception:  # a crash is a failed invocation, not a crashed benchmark
            traceback.print_exc()
            code = 1
    return code, err.getvalue()


def in_process_pass(invs, main, judge):
    clear_outputs(invs)
    t0 = time.perf_counter()
    results = [call_in_process(main, inv.argv) for inv in invs]
    wall = time.perf_counter() - t0
    for inv, (code, stderr) in zip(invs, results):
        judge.record(inv, code, stderr)
    return wall


def run_traced(invs, seconds, env, judge):
    """Import probes, then in-process passes alternating untraced and traced."""
    samples = {}
    for inv in invs:
        clear_outputs([inv])
        child = spawn([sys.executable, "-X", "importtime", "-c", tracing.PROBE, *inv.argv], env)
        metrics, other = tracing.parse_probe(child.stderr)
        judge.record(inv, child.code, "\n".join(other))
        for name, value in metrics.items():
            samples.setdefault(name, []).append(value)
    samples["import.scipy_loaded"] = [max(samples["import.scipy_loaded"])]

    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from leakycavity import cli

    tracer = tracing.Tracer()
    untraced_main = cli.main
    traced_main = tracer.span(tracing.ROOT_SPAN, lambda argv: cli.main(argv))
    in_process_pass(invs, untraced_main, judge)  # warm-up: lazy imports and caches
    plain, traced, layers = [], [], []
    while sum(plain) + sum(traced) < seconds or not traced:
        plain.append(in_process_pass(invs, untraced_main, judge))
        tracer.install()
        try:
            traced.append(in_process_pass(invs, traced_main, judge))
        finally:
            tracer.uninstall()
        layers.append(tracer.take())
    for name in {key for layer in layers for key in layer}:
        samples[name] = [layer.get(name, 0) for layer in layers]
    samples["trace.overhead_s"] = [statistics.median(traced) - statistics.median(plain)]
    return samples


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def run_workload(name, seed, seconds, trace, tiny=False):
    """Build, run and check one workload; returns the result object."""
    shutil.rmtree(WORK / name, ignore_errors=True)
    work = WORK / name
    work.mkdir(parents=True)
    invs = workloads.build(name, seed, work, tiny=tiny)
    env = child_env()
    judge = Judge()
    judge.prepare(invs, env)
    run = run_traced if trace else run_untraced
    samples = run(invs, seconds, env, judge)
    spec = SPEC["per_layer" if trace else "end_to_end"]
    metrics = {}
    print(f"workload {name} seed {seed} tiny {int(tiny)} trace {int(trace)}")
    for metric in spec:
        values = samples.get(metric["name"], [0])
        q1, median, q3 = quartiles(values)
        metrics[metric["name"]] = {"value": median, "unit": metric["unit"]}
        print(f"  {metric['name']:<38} median {median:<12.6g} q1 {q1:<12.6g} "
              f"q3 {q3:<12.6g} n {len(values):<4} {metric['unit']}")
    for name in ("raw_wall_s", "calibration_s"):  # not metrics: what the scaling saw
        if name in samples:
            q1, median, q3 = quartiles(samples[name])
            print(f"  ({name}){'':<{36 - len(name)}} median {median:<12.6g} q1 {q1:<12.6g} "
                  f"q3 {q3:<12.6g} n {len(samples[name]):<4} s")
    failed = len(judge.failures)
    print(f"  {'fail_ratio':<38} {failed}/{judge.attempted} = "
          f"{failed / max(judge.attempted, 1):.6g}")
    return {"correct": failed == 0, "attempted": judge.attempted, "failed": failed,
            "metrics": metrics}


def preflight():
    """Refuse to run without the package sources next to the benchmark."""
    if not (SRC / "leakycavity" / "cli.py").is_file():
        sys.exit(f"error: {SRC / 'leakycavity' / 'cli.py'} not found; "
                 "run from a leakycavity checkout")
    WORK.mkdir(exist_ok=True)
    try:
        check_import(spawn(SETUP_ARGV, child_env()))  # warm-up: byte-compiles the package
    except RuntimeError as exc:
        sys.exit(f"error: {exc}")


def _terminate(signum, _frame):
    # unwinds through spawn(), which kills and reaps the running child
    raise SystemExit(128 + signum)


def main(argv=None):
    signal.signal(signal.SIGTERM, _terminate)
    names = [w["name"] for w in SPEC["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True,
                        choices=names + list(workloads.PARTS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    preflight()
    print("env " + json.dumps(environment(), sort_keys=True))
    if args.workload != "all":
        print(json.dumps(run_workload(args.workload, args.seed, args.seconds, args.trace)))
        return
    results = {name: run_workload(name, args.seed, args.seconds, args.trace) for name in names}
    print(json.dumps(results))


if __name__ == "__main__":
    main()
