#!/usr/bin/env python3
"""Smoke self-check of hostbench at tiny length (one cycle per workload).

    python3 hostbench/smoke.py

Run from the repository root. For every workload in BENCHMARK.json it runs
one untraced and one traced cycle and asserts that:
  - the run exits 0 and its result line says correct with no failed runs;
  - the result carries exactly the metrics BENCHMARK.json names for that
    mode, each also printed as a "metric <name> <value> <unit>" line;
  - every replayed cell's traced replay reproduced train()'s
    parameters_crc32 (hostbench fails the run otherwise; the smoke also
    checks that replay lines were printed);
  - the per-layer shares plus step.other_share sum to one.
Finally it runs the benchmark from a directory holding only BENCHMARK.json
and hostbench/, where it must exit non-zero without printing a result.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

SHARES = [
    "models.fwd_bwd_share",
    "core.submit_share",
    "core.decompress_share",
    "comm.blocked_share",
    "optim.apply_share",
    "sim.scatter_share",
    "step.other_share",
]


def run(cwd, workload, trace):
    cmd = ["python3", "hostbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "0.001", "--trace", str(trace)]
    p = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                       stderr=subprocess.DEVNULL, text=True, timeout=900)
    return p.returncode, p.stdout.splitlines()


def check(cond, msg, failures):
    if not cond:
        failures.append(msg)
        print("FAIL " + msg)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = {0: [m["name"] for m in spec["end_to_end"]],
              1: [m["name"] for m in spec["per_layer"]]}
    failures = []
    for wl in spec["workloads"]:
        name = wl["name"]
        for trace in (0, 1):
            code, lines = run(ROOT, name, trace)
            tag = "%s --trace %d" % (name, trace)
            check(code == 0, tag + ": exit code %d" % code, failures)
            if not lines:
                check(False, tag + ": no output", failures)
                continue
            try:
                result = json.loads(lines[-1])
            except ValueError:
                check(False, tag + ": last line is not JSON", failures)
                continue
            check(result.get("correct") is True and result.get("failed") == 0
                  and result.get("attempted", 0) >= 1,
                  tag + ": result not correct", failures)
            metrics = result.get("metrics", {})
            check(sorted(metrics) == sorted(wanted[trace]),
                  tag + ": metrics differ from BENCHMARK.json: %s" %
                  sorted(set(metrics) ^ set(wanted[trace])), failures)
            printed = {l.split()[1] for l in lines if l.startswith("metric ")}
            check(set(wanted[trace]) <= printed,
                  tag + ": metric lines missing", failures)
            if trace == 1:
                replays = [l for l in lines if l.startswith("replay ")]
                check(len(replays) >= 1, tag + ": no replay lines", failures)
                total = sum(metrics[s]["value"] for s in SHARES if s in metrics)
                check(abs(total - 1.0) < 1e-6,
                      tag + ": shares sum to %.9f, not 1" % total, failures)
            print("ok   " + tag)

    bare = os.path.join(ROOT, ".bench_build", "smoke_bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "hostbench"))
    env = dict(os.environ)
    env.pop("CARGO_TARGET_DIR", None)
    p = subprocess.run(spec["command"] + ["--workload", spec["workloads"][0]["name"],
                                          "--seed", "1", "--seconds", "1",
                                          "--trace", "0"],
                       cwd=bare, env=env, stdout=subprocess.PIPE,
                       stderr=subprocess.DEVNULL, text=True, timeout=180)
    check(p.returncode != 0 and "{" not in p.stdout,
          "bare directory: expected a non-zero exit and no result", failures)
    shutil.rmtree(bare, ignore_errors=True)
    print("smoke: %s" % ("FAILED" if failures else "ok"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
