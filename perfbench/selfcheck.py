#!/usr/bin/env python3
"""Self-checks for the repository benchmark.

    python3 perfbench/selfcheck.py spread --workload W [--seeds 1-10]
    python3 perfbench/selfcheck.py inject [--workload W] [--seeds 1-3]

`spread` runs one workload once per seed and prints, for every end-to-end
metric, the distance between the first and third quartile of the values as
a share of their median, against the metric's bound in BENCHMARK.json.
Exits 1 if a spread other than setup_s exceeds its bound.

`inject` runs each workload with and without a slowdown injected through
an existing knob and checks that the workload's main metric moves past its
bound. Exits 1 if one does not. Either mode flags results whose host
fingerprints differ as not comparable.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)
BOUNDS = {m["name"]: m for m in BENCH["end_to_end"]}

# workload -> (environment that slows it, metric that must move)
INJECT = {
    # Forced scalar alone costs train ~20%: its small convolutions are
    # dispatch-bound, not SIMD-bound.
    "train": ({"MFN_FORCE_SCALAR": "1", "MFN_NUM_THREADS": "1"}, "latency_ms"),
    "superres": ({"MFN_FORCE_SCALAR": "1"}, "throughput_per_s"),
    "serve": ({"MFN_FAILPOINTS": "serve.slow_decode=arg:0.5"}, "latency_ms"),
    "dist_train": ({"MFN_FAILPOINTS": "dist.slow_worker=arg:1"}, "latency_ms"),
}
# Fingerprint fields that must match for two results to be comparable.
COMPARED = ("cpu", "nproc", "simd", "mfn_num_threads", "build")


def seed_list(spec):
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def run(workload, seed, env=None):
    """One untraced run; returns (fingerprint, result)."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(BENCH["run_seconds"]),
           "--trace", "0"]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                       env={**os.environ, **(env or {})})
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} failed:\n{p.stderr[-2000:]}")
    fingerprint = next((json.loads(l)["fingerprint"] for l in lines
                        if l.startswith('{"fingerprint"')), {})
    return fingerprint, json.loads(lines[-1])


def fingerprint_diff(a, b):
    return {k: (a.get(k), b.get(k)) for k in COMPARED if a.get(k) != b.get(k)}


def spread(args):
    values, prints, worst = {}, [], True
    for seed in seed_list(args.seeds):
        fp, r = run(args.workload, seed)
        prints.append(fp)
        print(f"seed {seed}: correct={r['correct']} attempted={r['attempted']} "
              f"failed={r['failed']} " + " ".join(
                  f"{k}={v['value']:.6g}" for k, v in r["metrics"].items()),
              flush=True)
        worst = worst and r["correct"]
        for k, v in r["metrics"].items():
            values.setdefault(k, []).append(v["value"])
    for fp in prints[1:]:
        if fingerprint_diff(prints[0], fp):
            print("NOT COMPARABLE:", fingerprint_diff(prints[0], fp))
    ok = worst
    for name, v in values.items():
        q = statistics.quantiles(v, n=4)
        med = statistics.median(v)
        share = (q[2] - q[0]) / med if med else float("inf")
        bound = BOUNDS[name]["bound"]
        flag = "" if name == "setup_s" or share <= bound else "  OVER BOUND"
        ok = ok and not flag
        print(f"{name}: median {med:.6g} spread {share:.3f} "
              f"(bound {bound}, a third {bound / 3:.3f}){flag}")
    return 0 if ok else 1


def inject(args):
    ok = True
    for workload in [args.workload] if args.workload else INJECT:
        env, metric = INJECT[workload]
        base, slow = [], []
        for seed in seed_list(args.seeds):
            fb, rb = run(workload, seed)
            fs, rs = run(workload, seed, env)
            base.append(rb["metrics"][metric]["value"])
            slow.append(rs["metrics"][metric]["value"])
            diff = fingerprint_diff(fb, fs)
            if diff:
                print(f"{workload} seed {seed}: NOT COMPARABLE {diff}")
        b, s = statistics.median(base), statistics.median(slow)
        lower = BOUNDS[metric]["better"] == "lower"
        worse = (s / b - 1.0) if lower else (1.0 - s / b)
        bound = BOUNDS[metric]["bound"]
        flagged = worse > bound
        ok = ok and flagged
        print(f"{workload}: {env} moves {metric} {b:.6g} -> {s:.6g} "
              f"({worse:+.1%} worse, bound {bound:.0%}): "
              f"{'flagged' if flagged else 'NOT FLAGGED'}", flush=True)
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="mode", required=True)
    sp = sub.add_parser("spread")
    sp.add_argument("--workload", required=True)
    sp.add_argument("--seeds", default="1-10")
    ip = sub.add_parser("inject")
    ip.add_argument("--workload")
    ip.add_argument("--seeds", default="1-3")
    args = ap.parse_args()
    return spread(args) if args.mode == "spread" else inject(args)


if __name__ == "__main__":
    sys.exit(main())
