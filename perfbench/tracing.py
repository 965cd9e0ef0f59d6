"""Outside-in tracing of the leakycavity layers, and the import-time probe.

The tracer replaces the module-level names each leakycavity module calls
in the next one with wrappers that record a span (name, start, end,
parent).  Nothing inside the package is edited: a call such as
``dynamics.evolve_analytic -> rho_analytic`` looks the name up in the
``leakycavity.dynamics`` globals at call time and so finds the wrapper.
Span names are ``<defining module>.<function>``; their first part is the
layer.  A target a later version of the package no longer has is skipped,
so its metrics read 0.
"""

import functools
import importlib
import os
import time
from array import array

import numpy as np

# (module, name) pairs whose calls are spanned: each is a name one module
# calls in another, or a per-sample helper inside dynamics.
TARGETS = (
    ("cli", "load_config"), ("cli", "write_csv"), ("cli", "figure_data"),
    ("cli", "detect_plateau"), ("cli", "asymptotic_rate_ratio"),
    ("cli", "evolve_analytic"), ("cli", "evolve_tcl_ode"),
    ("cli", "evolve_phenomenological"), ("cli", "rate_closed_form"),
    ("cli", "rate_quadrature_oracle"),
    ("analysis", "evolve_analytic"), ("analysis", "cumulative_integral"),
    ("analysis", "rate_closed_form"), ("analysis", "stationary_rate"),
    ("dynamics", "rho_analytic"), ("dynamics", "populations"),
    ("dynamics", "accumulated_rate"), ("dynamics", "rate_closed_form"),
    ("dynamics", "rate_quadrature_oracle"), ("dynamics", "ode_solve"),
    ("spectral", "panel_gauss"), ("spectral", "adaptive_quadrature"),
)

ROOT_SPAN = "cli.main"


class Tracer:
    """Spans of one pass, kept in flat arrays and summarised per pass.

    Single-threaded: the parent of a span is whatever span is open when it
    starts.
    """

    def __init__(self):
        self._ids = {}
        self._names = array("H")
        self._parents = array("i")
        self._starts = array("d")
        self._ends = array("d")
        self._stack = [-1]
        self._counters = {}
        self._saved = []

    def install(self):
        for modname, attr in TARGETS:
            try:
                module = importlib.import_module(f"leakycavity.{modname}")
            except ModuleNotFoundError:
                continue
            fn = getattr(module, attr, None)
            if callable(fn):
                self._saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(fn))

    def uninstall(self):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def count(self, name, amount):
        self._counters[name] = self._counters.get(name, 0) + amount

    def span(self, name, fn):
        """``fn`` wrapped so that every call records one span called ``name``."""
        nid = self._ids.setdefault(name, len(self._ids))
        names, parents, starts, ends = self._names, self._parents, self._starts, self._ends
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
        return spanned

    def _wrap(self, fn):
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        call = fn
        if name == "numerics.ode_solve":
            # the right-hand side is a closure inside dynamics; span it as it
            # is handed to the solver
            def call(deriv, *args, **kwargs):
                return fn(self.span("dynamics.rhs", deriv), *args, **kwargs)
        elif name == "numerics.panel_gauss":
            def call(f, *args, **kwargs):
                def counted(x):
                    self.count("numerics.panel_gauss.nodes", np.size(x))
                    return f(x)
                return fn(counted, *args, **kwargs)
        elif name == "cli.write_csv":
            def call(columns, values, path, *args, **kwargs):
                result = fn(columns, values, path, *args, **kwargs)
                if path != "-":
                    self.count("cli.write_csv.bytes", os.path.getsize(path))
                return result
        return self.span(name, call)

    def take(self):
        """Per-pass metrics from the spans and counters recorded so far; then reset.

        ``<span>.calls``, ``<span>.s`` (inclusive) and ``<span>.self_s`` per
        span name, ``<layer>.self_s`` per layer, plus the counters.  Self
        time is a span's duration minus that of its direct children.
        """
        names = np.array(self._names, dtype=np.intp)
        parents = np.array(self._parents, dtype=np.intp)
        dur = np.array(self._ends) - np.array(self._starts)
        has_parent = parents >= 0
        child = np.bincount(parents[has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        own = dur - child
        k = len(self._ids)
        calls = np.bincount(names, minlength=k)
        total = np.bincount(names, weights=dur, minlength=k)
        own_total = np.bincount(names, weights=own, minlength=k)
        out = dict(self._counters)
        for name, nid in self._ids.items():
            out[f"{name}.calls"] = int(calls[nid])
            out[f"{name}.s"] = float(total[nid])
            out[f"{name}.self_s"] = float(own_total[nid])
            layer = f"{name.split('.', 1)[0]}.self_s"
            out[layer] = out.get(layer, 0.0) + float(own_total[nid])
        for arr in (self._names, self._parents, self._starts, self._ends):
            del arr[:]
        self._counters.clear()
        return out


# ---------------------------------------------------------------- import probe

START_MARK = "@@perfbench-start"
END_MARK = "@@perfbench-end"

# Run under ``python -X importtime -c PROBE <cli args>``: import the CLI and
# run one command in a fresh interpreter, report whether scipy is loaded,
# and exit with the command's exit code.
PROBE = f"""\
import sys
sys.stderr.write("{START_MARK}\\n")
from leakycavity.cli import main
code = main(sys.argv[1:])
sys.stderr.write("{END_MARK} %d\\n" % ("scipy" in sys.modules))
raise SystemExit(code)
"""


def parse_probe(stderr):
    """Import metrics and leftover stderr lines from one probe's stderr.

    ``import.total_s`` sums the self time of every import after the start
    mark, lazy ones made by the command included.  ``import.scipy_s`` sums
    the cumulative time of each scipy import that no other scipy import
    encloses.  Returns (metrics, the other lines the command wrote to
    stderr).
    """
    body, _, tail = stderr.partition(START_MARK + "\n")[2].partition(END_MARK)
    rows, other = [], []
    for line in body.splitlines():
        parts = line.split("|")
        if line.startswith("import time:") and len(parts) == 3:
            try:
                own = int(parts[0].split(":", 1)[1])
                cumulative = int(parts[1])
            except ValueError:
                continue  # the header line
            label = parts[2][1:]
            depth = (len(label) - len(label.lstrip(" "))) // 2
            rows.append((depth, label.strip(), own, cumulative))
        else:
            other.append(line)
    total_us = sum(r[2] for r in rows)
    # post-order output reversed is pre-order: walk it with a stack of
    # (depth, inside-scipy) to find the outermost scipy imports
    scipy_us, stack = 0, []
    for depth, name, _, cumulative in reversed(rows):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        inside = bool(stack) and stack[-1][1]
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not inside:
            scipy_us += cumulative
        stack.append((depth, inside or is_scipy))
    flag = tail.split("\n", 1)[0].strip()
    metrics = {"import.total_s": total_us / 1e6, "import.scipy_s": scipy_us / 1e6,
               "import.scipy_loaded": int(flag) if flag.isdigit() else 0}
    return metrics, other
