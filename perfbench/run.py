#!/usr/bin/env python3
"""Serving benchmark entry point: builds the server and the benchmark's load generator
from source, then runs one workload and prints its result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke      # all workloads, tiny, + self-tests

Run from the repository root. The build goes to $CARGO_TARGET_DIR when set,
else .bench_build/. The last line of stdout is the result object; a failed
run exits non-zero without one (the failing seed and a replay command are
on stderr).
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("repeat_hot", "fresh_mix", "schema_churn")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(2)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    # Relative to the repository root keeps unix socket paths short.
    return os.path.relpath(os.path.abspath(path), ROOT)


def build():
    """Configures once, then lets the build tool decide what is stale."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("the repository sources (CMakeLists.txt, src/) are missing; "
             "run from a full checkout")
    out = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "perfbench", "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "perfbench",
                  "xpathsat_server_bin", "-j", str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            fail("build step failed: " + " ".join(cmd))
    return out


def commit():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
        if proc.returncode == 0:
            return proc.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def bench_config():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def perfbench_cmd(out, workload, seed, seconds, trace, extra=()):
    if workload not in WORKLOADS:
        fail("unknown workload %r (have: %s)" % (workload, ", ".join(WORKLOADS)))
    return [os.path.join(out, "perfbench"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--server", os.path.join(out, "xpathsat", "tools", "xpathsat_server"),
            "--work-dir", os.path.join(out, "runs", "%s-%s" % (workload, seed)),
            "--commit", commit()] + list(extra)


def run_perfbench(cmd, capture):
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S,
                              stdout=subprocess.PIPE if capture else None,
                              stderr=subprocess.PIPE if capture else None,
                              text=True)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s: %s" % (RUN_TIMEOUT_S, " ".join(cmd)))


def result_of(proc):
    lines = (proc.stdout or "").strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


def stamp_of(proc):
    for line in (proc.stdout or "").splitlines():
        if line.startswith("stamp "):
            return json.loads(line[len("stamp "):])
    return {}


def smoke(out, bench):
    """Every workload at tiny size, both modes, every metric named in
    BENCHMARK.json printed with its unit, each `why` stating the open-loop
    rate the run used; then the two self-tests."""
    problems = []
    expect = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
              1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    for w in bench["workloads"]:
        for trace in (0, 1):
            proc = run_perfbench(perfbench_cmd(out, w["name"], 1, 1, trace,
                                               ["--smoke"]), capture=True)
            res = result_of(proc)
            if res is None:
                problems.append("%s trace %d: no result (exit %d)\n%s"
                                % (w["name"], trace, proc.returncode, proc.stderr))
                continue
            rate = "Open loop %d op/s" % stamp_of(proc).get("open_rate", 0)
            if trace == 0 and not w["why"].endswith(rate):
                problems.append("%s: BENCHMARK.json why does not end with %r"
                                % (w["name"], rate))
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != expect[trace]:
                problems.append("%s trace %d: metrics differ from BENCHMARK.json: "
                                "missing %s, extra %s, units %s" % (
                                    w["name"], trace,
                                    sorted(set(expect[trace]) - set(got)),
                                    sorted(set(got) - set(expect[trace])),
                                    sorted(k for k in got if k in expect[trace]
                                           and got[k] != expect[trace][k])))
            if res["failed"] != 0 or not res["correct"]:
                problems.append("%s trace %d: %d failed" % (w["name"], trace, res["failed"]))
            print("smoke %-12s trace %d: %d metrics ok" % (w["name"], trace, len(got)),
                  file=sys.stderr)
    # Self-test 1: a wrong expected verdict must abort the run.
    proc = run_perfbench(perfbench_cmd(out, "fresh_mix", 1, 1, 0,
                                       ["--smoke", "--inject-wrong-verdict"]), capture=True)
    if proc.returncode == 0 or "wrong verdict" not in proc.stderr or result_of(proc):
        problems.append("the correctness gate did not abort on a wrong verdict")
    # Self-test 2: an injected `err` reply must show in failed_ratio.
    for w in ("repeat_hot", "schema_churn"):
        proc = run_perfbench(perfbench_cmd(out, w, 1, 1, 0,
                                           ["--smoke", "--inject-err"]), capture=True)
        res = result_of(proc)
        if res is None or res["failed"] < 1 or res["metrics"]["answered_ratio"]["value"] >= 1:
            problems.append("%s: an injected err reply was not counted" % w)
    for p in problems:
        print("SMOKE FAILURE: " + p, file=sys.stderr)
    print("smoke: %s" % ("FAILED" if problems else "all checks passed"),
          file=sys.stderr)
    return 1 if problems else 0


def main():
    bench = bench_config()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="run every workload at tiny size plus the self-tests")
    args = ap.parse_args()
    if not args.smoke and not args.workload:
        fail("--workload is required (or --smoke)")
    out = build()
    if args.smoke:
        sys.exit(smoke(out, bench))
    proc = run_perfbench(perfbench_cmd(out, args.workload, args.seed,
                                       args.seconds, args.trace), capture=False)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
