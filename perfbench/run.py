#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload <train|superres|serve|dist_train>
                             --seed N --seconds S --trace <0|1>

Builds the benchmark binary (perfbench/CMakeLists.txt: the library from
src/ plus perfbench/src/) into $CARGO_TARGET_DIR, default .bench_build,
then runs one workload. Build output goes to stderr; stdout carries the
binary's host fingerprint line and, last, the result JSON.

The result holds exactly the metrics BENCHMARK.json lists for the mode:
every end-to-end metric with --trace 0 (each workload must measure all of
them, or the run fails), every per-layer metric with --trace 1. A layer
the workload does not run reads 0 there: it spent no time and counted
nothing. Exits non-zero without a result if the build or the workload
fails, or a metric is missing or in another unit.
"""
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    return 1


def arg(name):
    argv = sys.argv[1:]
    return argv[argv.index(name) + 1] if name in argv[:-1] else None


def main():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
    except (OSError, ValueError) as e:
        return fail(f"cannot read BENCHMARK.json: {e}")
    build = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = os.path.join(build, "mfn_perfbench")
    jobs = str(os.cpu_count() or 1)
    steps = [["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", build,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", build, "-j", jobs]]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return fail("build failed")
    work = os.path.join(build, "work")
    p = subprocess.run([binary, *sys.argv[1:], "--work-dir", work],
                       stdout=subprocess.PIPE, text=True)
    lines = p.stdout.rstrip("\n").splitlines()
    if p.returncode != 0 or not lines:
        return fail(f"workload exited with code {p.returncode}")
    result = json.loads(lines[-1])

    layered = arg("--trace") == "1"
    wanted = bench["per_layer" if layered else "end_to_end"]
    got = result["metrics"]
    metrics = {}
    for m in wanted:
        name, unit = m["name"], m["unit"]
        if name not in got:
            if not layered:
                return fail(f"workload did not report {name}")
            metrics[name] = {"value": 0, "unit": unit}
            continue
        if got[name]["unit"] != unit:
            return fail(f"{name} in {got[name]['unit']}, expected {unit}")
        metrics[name] = got[name]
    extra = sorted(set(got) - set(metrics))
    if extra:
        print(f"perfbench: not in BENCHMARK.json, dropped: {', '.join(extra)}",
              file=sys.stderr)
    result["metrics"] = metrics
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
