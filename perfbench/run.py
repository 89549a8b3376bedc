#!/usr/bin/env python3
"""Builds and runs the sitam performance benchmark.

One run (what BENCHMARK.json names):
    python3 perfbench/run.py --workload serve_mix --seed 1 --seconds 30 --trace 0
prints the benchmark binary's output; its last line is one JSON object with
correct, attempted, failed and the metrics (end-to-end with --trace 0,
per-layer with --trace 1).

Helpers for people working on the program:
    --smoke             every workload at a tiny size, traced and untraced,
                        through every output check (seconds)
    --steady N          N runs of every workload, seeds 1..N, alternating
                        the workload order; prints median and quartiles
    --layers            traced run of every workload, twice with one seed:
                        the per-layer table and whether the counts repeat
    --profile           the N_r = 100 000 p93791 reference profile

The build goes to $CARGO_TARGET_DIR if set, else .bench_build/, under the
repository root; the serve workload's scratch store goes to .bench_scratch/.
"""
import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKLOADS = ["paper_table_30k", "restart_sweep_10k", "serve_mix"]


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build():
    """Configures and builds the benchmark binary; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("perfbench: no src/ next to perfbench/; run from a full "
                 "checkout of the repository")
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (["cmake", "-S", str(ROOT / "perfbench"), "-B", str(out),
                 "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", str(out), "--target", "sitam_perfbench",
                 "-j", jobs]):
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            sys.exit("perfbench: build failed")
    return out / "sitam_perfbench"


def run_binary(binary, args, seconds):
    """Runs the benchmark binary; returns (stdout lines, parsed last line).
    The timeout leaves room for set-up and checks around the timed phase."""
    done = subprocess.run([str(binary)] + args, cwd=ROOT,
                          stdout=subprocess.PIPE, text=True,
                          timeout=max(170, 4 * seconds + 60))
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit("perfbench: %s exited with %d" % (binary.name,
                                                   done.returncode))
    return lines, json.loads(lines[-1])


def one_run(binary, workload, seed, seconds, trace, smoke=False):
    args = ["--workload", workload, "--seed", str(seed), "--seconds",
            str(seconds), "--trace", str(trace)]
    return run_binary(binary, args + (["--smoke"] if smoke else []), seconds)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def smoke(binary):
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            _, result = one_run(binary, workload, 1, 1, trace, smoke=True)
            good = result["correct"] and result["failed"] == 0
            ok = ok and good
            print("%-18s trace=%d attempted=%-4d failed=%d %s" % (
                workload, trace, result["attempted"], result["failed"],
                "ok" if good else "FAILED"))
    return 0 if ok else 1


def steady(binary, runs, seconds, workloads):
    samples = {w: [] for w in workloads}
    for i in range(runs):
        order = workloads if i % 2 == 0 else list(reversed(workloads))
        for workload in order:
            start = time.monotonic()
            _, result = one_run(binary, workload, i + 1, seconds, 0)
            samples[workload].append(result)
            print("run %d %s attempted=%d failed=%d took %.1f s" % (
                i + 1, workload, result["attempted"], result["failed"],
                time.monotonic() - start), file=sys.stderr)
    print("| workload | metric | unit | q1 | median | q3 | (q3-q1)/median |")
    print("|---|---|---|---|---|---|---|")
    for workload in workloads:
        results = samples[workload]
        for name, metric in results[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, q2, q3 = quartiles(values)
            print("| %s | %s | %s | %.6g | %.6g | %.6g | %.2f%% |" % (
                workload, name, metric["unit"], q1, q2, q3,
                100.0 * (q3 - q1) / q2 if q2 else 0.0))
        failed = sorted({r["failed"] / r["attempted"] for r in results})
        print("| %s | failed share | - | %s | | | |" % (workload, failed))
    return 0


def layers(binary, seconds, seed):
    print("| workload | metric | unit | run 1 | run 2 | share of op wall |")
    print("|---|---|---|---|---|---|")
    for workload in WORKLOADS:
        _, untraced = one_run(binary, workload, seed, seconds, 0)
        traced = [one_run(binary, workload, seed, seconds, 1) for _ in (1, 2)]
        op_wall = float(traced[0][0][-2].split()[-1])
        for name, metric in traced[0][1]["metrics"].items():
            a = metric["value"]
            b = traced[1][1]["metrics"][name]["value"]
            share = ("%.1f%%" % (100.0 * a / op_wall)
                     if metric["unit"] == "s/op" else "")
            print("| %s | %s | %s | %.6g | %.6g | %s |" % (
                workload, name, metric["unit"], a, b, share))
        base = untraced["metrics"]["op_s_p50"]["value"]
        print("| %s | traced op wall vs untraced op_s_p50 | s | %.6g | %.6g "
              "| overhead %.1f%% |" % (workload, op_wall, base,
                                       100.0 * (op_wall / base - 1.0)))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--steady", type=int, metavar="N")
    parser.add_argument("--layers", action="store_true")
    parser.add_argument("--profile", action="store_true")
    args = parser.parse_args()

    binary = build()
    if args.smoke:
        return smoke(binary)
    if args.steady:
        return steady(binary, args.steady, args.seconds, WORKLOADS)
    if args.layers:
        return layers(binary, args.seconds, args.seed)
    if args.profile:
        done = subprocess.run([str(binary), "--profile"], cwd=ROOT)
        return done.returncode
    if args.workload is None:
        parser.error("--workload is required")
    lines, _ = one_run(binary, args.workload, args.seed, args.seconds,
                       args.trace)
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
