#!/usr/bin/env python3
"""COLD benchmark: builds the workload runner from source and runs it.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
        One run. The last line of standard output is the result:
        {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}
        with the end-to-end metrics (--trace 0) or the per-layer ones
        (--trace 1), as named in BENCHMARK.json.
    python3 perfbench/run.py --workload W --steady RUNS [--seed N]
        RUNS runs on consecutive seeds from N; prints each end-to-end
        metric's median and quartiles against its bound.
    python3 perfbench/run.py --self-test
        Every workload at tiny scale, untraced and traced; fails if a run
        is incorrect or a named metric is missing.

See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build")
OUT_DIR = os.path.join(ROOT, ".bench_out")
RUNNER = os.path.join(BUILD_DIR, "default", "perfbench", "cold_bench.exe")
DEFAULT_SEED = 1  # the seed whose outputs perfbench/pins.ml pins
SETUP_RUNS = 41
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def manifest():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    dune = shutil.which("dune")
    if dune is None:
        raise BenchError("dune is not on PATH")
    cmd = [dune, "build", "--root", ROOT, "--build-dir", BUILD_DIR,
           "--cache=disabled", "--display=quiet", "./perfbench/cold_bench.exe"]
    # The compiler's temporary files stay in the checkout too.
    tmp = os.path.join(BUILD_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=880, env=dict(os.environ, TMPDIR=tmp))
    if proc.returncode != 0 or not os.path.exists(RUNNER):
        sys.stderr.write(proc.stdout + proc.stderr)
        raise BenchError("build failed")


def setup_seconds(workload, extra):
    """Median time from launching the runner to its first operation."""
    times = []
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        proc = subprocess.Popen([RUNNER, workload, "--setup-only"] + extra,
                                cwd=ROOT, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            proc.communicate(timeout=60)
            code = proc.returncode
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line.strip() != "ready" or code != 0:
            raise BenchError(f"{workload} set-up failed")
        times.append(ready - start)
    return statistics.median(times)


def run_workload(spec, workload, seed, seconds, trace, tiny=False):
    kind = "per_layer" if trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in spec[kind]}
    extra = ["--tiny"] if tiny else []
    metrics = {}
    if not trace:
        metrics["setup_s"] = setup_seconds(workload, extra)
    args = [RUNNER, workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)] + extra
    if trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        args += ["--trace-file",
                 os.path.join(OUT_DIR, f"{workload}-seed{seed}-spans.json")]
    proc = subprocess.run(args, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        raise BenchError(f"{workload} exited with code {proc.returncode}")
    for line in lines[:-1]:
        print(f"# {workload}: {line}")
    result = json.loads(lines[-1])
    metrics.update(result["metrics"])
    missing = sorted(set(declared) - set(metrics))
    unexpected = sorted(set(metrics) - set(declared))
    if missing or unexpected:
        raise BenchError(f"{workload}: metrics missing {missing}, "
                         f"not declared {unexpected}")
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in declared.items()},
    }


def steady(spec, workload, runs, first_seed, seconds):
    values = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in range(first_seed, first_seed + runs):
        res = run_workload(spec, workload, seed, seconds, 0)
        for name, m in res["metrics"].items():
            values[name].append(m["value"])
        print(f"seed {seed}: correct={res['correct']} failed={res['failed']} "
              + " ".join(f"{k}={m['value']:.6g}"
                         for k, m in res["metrics"].items()), flush=True)
    summary = {}
    for m in spec["end_to_end"]:
        vals = values[m["name"]]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        verdict = ("steady" if spread < m["bound"] / 3
                   else "within bound" if spread <= m["bound"] else "UNSTEADY")
        summary[m["name"]] = {"median": med, "q1": q1, "q3": q3,
                              "spread": spread, "bound": m["bound"]}
        print(f"{workload} {m['name']:>16}: median {med:.6g} {m['unit']} "
              f"[q1 {q1:.6g}, q3 {q3:.6g}] spread {spread:.3f} "
              f"bound {m['bound']} -> {verdict}")
    print(json.dumps({"workload": workload, "runs": runs, "metrics": summary}))


def self_test(spec):
    for w in spec["workloads"]:
        for trace in (0, 1):
            res = run_workload(spec, w["name"], 7, 1, trace, tiny=True)
            if not res["correct"] or res["failed"]:
                raise BenchError(f"self-test: {w['name']} trace={trace} "
                                 f"incorrect ({res['failed']} failed)")
            print(f"self-test: {w['name']} trace={trace} ok, "
                  f"{len(res['metrics'])} metrics")
    print("self-test passed")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steady", type=int, metavar="RUNS")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    try:
        spec = manifest()
        build()
        if args.self_test:
            self_test(spec)
            return
        names = [w["name"] for w in spec["workloads"]]
        if args.workload not in names:
            raise BenchError(f"--workload must be one of {names}")
        seconds = args.seconds or spec["run_seconds"]
        if args.steady:
            steady(spec, args.workload, args.steady, args.seed, seconds)
        else:
            res = run_workload(spec, args.workload, args.seed, seconds,
                               args.trace)
            print(json.dumps(res))
    except (BenchError, OSError, ValueError, KeyError,
            subprocess.TimeoutExpired) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
