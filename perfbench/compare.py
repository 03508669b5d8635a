#!/usr/bin/env python3
"""Result sets for the serving benchmark: collect them, check their spread,
and compare two of them.

    # N runs per workload, one seed each, appended to a JSON-lines file
    python3 perfbench/compare.py collect --out A.jsonl --seeds 1-10 \
        [--workload NAME ...] [--seconds S]
    # per workload x end-to-end metric: median, quartiles, spread vs bound
    python3 perfbench/compare.py spread A.jsonl
    # parent A vs change B: better / worse / within-bound / unresolved
    python3 perfbench/compare.py diff A.jsonl B.jsonl

Each line of a result set is {"workload", "seed", "stamp", "result"}.
`diff` pairs the runs of the two sides by seed (both sides must hold the
same seeds per workload) and applies the rule of
the choosing-metrics guide: a side is better only when it wins at least
nine tenths of the pairs and the medians differ by more than the parent's
quartile spread; the change is worse when its median is worse than the
parent's by more than the metric's bound from BENCHMARK.json; it is within
bound when neither holds and both sides' spreads fit the bound; otherwise
the metric is unresolved. Exits 1 when any metric is worse.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def by_metric(rows, workload, metric):
    return [r["result"]["metrics"][metric]["value"] for r in rows
            if r["workload"] == workload and metric in r["result"]["metrics"]]


def by_seed(rows, workload, metric):
    out = {}
    for r in rows:
        if r["workload"] == workload and metric in r["result"]["metrics"]:
            if r["seed"] in out:
                sys.exit("seed %d appears twice for %s" % (r["seed"], workload))
            out[r["seed"]] = r["result"]["metrics"][metric]["value"]
    return out


def collect(args):
    b = bench()
    workloads = args.workload or [w["name"] for w in b["workloads"]]
    seconds = args.seconds or b["run_seconds"]
    with open(args.out, "a") as out:
        for w in workloads:
            for seed in seeds(args.seeds):
                cmd = [sys.executable, os.path.join(HERE, "run.py"),
                       "--workload", w, "--seed", str(seed),
                       "--seconds", str(seconds), "--trace", str(args.trace)]
                proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
                lines = proc.stdout.strip().splitlines()
                if proc.returncode != 0 or not lines:
                    sys.stderr.write(proc.stderr)
                    sys.exit("run failed: %s" % " ".join(cmd))
                stamp = next((json.loads(l[6:]) for l in lines
                              if l.startswith("stamp ")), {})
                if stamp.get("loaded_at_start"):
                    print("warning: %s seed %d started on a loaded box" % (w, seed),
                          file=sys.stderr)
                row = {"workload": w, "seed": seed, "stamp": stamp,
                       "result": json.loads(lines[-1])}
                out.write(json.dumps(row) + "\n")
                out.flush()
                print("%s seed %d: %s" % (w, seed, " ".join(
                    "%s=%.6g" % (k, v["value"])
                    for k, v in sorted(row["result"]["metrics"].items()))),
                      file=sys.stderr)


def spread(args):
    rows = load(args.file)
    b = bench()
    worst = 0.0
    for w in sorted({r["workload"] for r in rows}):
        print(w)
        for m in b["end_to_end"]:
            vals = by_metric(rows, w, m["name"])
            if not vals:
                continue
            q1, med, q3 = quartiles(vals)
            s = (q3 - q1) / med if med else 0.0
            flag = "ok" if s <= m["bound"] / 3 else (
                "within bound" if s <= m["bound"] else "TOO WIDE")
            if m["name"] != "setup_s":
                worst = max(worst, s / m["bound"])
            print("  %-22s n=%-3d median %-12.6g q1 %-12.6g q3 %-12.6g "
                  "spread %.4f (bound %.2f) %s" % (m["name"], len(vals), med, q1,
                                                   q3, s, m["bound"], flag))
    print("worst spread / bound (setup_s excluded): %.3f" % worst)


def diff(args):
    parent, change = load(args.parent), load(args.change)
    b = bench()
    worse_any = False
    print("%-13s %-22s %-14s %-14s %-8s %s" % ("workload", "metric", "parent med",
                                             "change med", "wins", "verdict"))
    for w in [x["name"] for x in b["workloads"]]:
        for m in b["end_to_end"]:
            pa = by_seed(parent, w, m["name"])
            pc = by_seed(change, w, m["name"])
            if not pa or not pc:
                continue
            if set(pa) != set(pc):
                sys.exit("%s %s: the two sets hold different seeds (%s vs %s); "
                         "collect both with the same --seeds" % (
                             w, m["name"], sorted(pa), sorted(pc)))
            a = [pa[k] for k in sorted(pa)]
            c = [pc[k] for k in sorted(pa)]
            qa1, ma, qa3 = quartiles(a)
            qc1, mc, qc3 = quartiles(c)
            sign = 1 if m["better"] == "higher" else -1
            pairs = list(zip(a, c))
            wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
            gap = sign * (mc - ma)
            iqr = qa3 - qa1
            if wins >= 0.9 * len(pairs) and gap > iqr:
                verdict = "better"
            elif -gap > m["bound"] * abs(ma):
                verdict = "worse"
            elif (ma and (qa3 - qa1) / abs(ma) <= m["bound"]
                  and mc and (qc3 - qc1) / abs(mc) <= m["bound"]):
                verdict = "within-bound"
            else:
                verdict = "unresolved"
            worse_any |= verdict == "worse"
            print("%-13s %-22s %-14.6g %-14.6g %2d/%-5d %s  (parent q %.6g..%.6g, "
                  "change q %.6g..%.6g, bound %.2f)" % (
                      w, m["name"], ma, mc, wins, len(pairs), verdict, qa1, qa3,
                      qc1, qc3, m["bound"]))
    sys.exit(1 if worse_any else 0)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect")
    c.add_argument("--out", required=True)
    c.add_argument("--seeds", default="1-10")
    c.add_argument("--workload", action="append")
    c.add_argument("--seconds", type=float)
    c.add_argument("--trace", type=int, default=0)
    c.set_defaults(fn=collect)
    s = sub.add_parser("spread")
    s.add_argument("file")
    s.set_defaults(fn=spread)
    d = sub.add_parser("diff")
    d.add_argument("parent")
    d.add_argument("change")
    d.set_defaults(fn=diff)
    args = ap.parse_args()
    args.fn(args)


if __name__ == "__main__":
    main()
