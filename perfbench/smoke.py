"""Smoke check of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload once at a tiny size, untraced and traced, and requires
no failed invocation and every metric BENCHMARK.json names.  Then it
corrupts each CSV those runs wrote and requires the output checks to
count every one as a failure, both against a fresh judge (the content
checks alone) and against the judge that saw the good file (byte identity
too).  Takes about a minute; exits nonzero on the first problem.
"""

import sys

import run
import workloads

SEED = 0


def corrupt(path):
    """Replace the second field of the first data row with 0.5."""
    lines = path.read_text(encoding="utf-8").split("\n")
    fields = lines[1].split(",")
    fields[1] = "0.5"
    lines[1] = ",".join(fields)
    path.write_text("\n".join(lines), encoding="utf-8")


def main():
    run.preflight()
    problems = []
    env = run.child_env()
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            result = run.run_workload(name, SEED, seconds=0, trace=trace, tiny=True)
            want = {m["name"] for m in run.SPEC["per_layer" if trace else "end_to_end"]}
            if result["failed"] or not result["attempted"]:
                problems.append(f"{name} trace={trace}: {result['failed']} of "
                                f"{result['attempted']} invocations failed")
            if set(result["metrics"]) != want:
                problems.append(f"{name} trace={trace}: metrics {sorted(result['metrics'])}")

        print(f"smoke: corrupting each {name} output; the FAIL lines that follow are expected")
        invs = workloads.build(name, SEED, run.WORK / name, tiny=True)
        seen = run.Judge()
        seen.prepare(invs, env)
        for inv in invs:
            seen.record(inv, 0, "")
            if seen.failures:
                problems.append(f"{inv.key}: the good output fails: {seen.failures}")
                break
            corrupt(inv.output)
            fresh = run.Judge()
            fresh.references = seen.references
            for judge in (fresh, seen):
                judge.record(inv, 0, "")
                if len(judge.failures) != 1:
                    problems.append(f"{inv.key}: corrupted CSV not counted as a failure")
                judge.failures.clear()

    for problem in problems:
        print(f"smoke: {problem}", file=sys.stderr)
    print("smoke: " + ("FAILED" if problems else "ok"))
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
