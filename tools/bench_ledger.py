#!/usr/bin/env python3
"""Measure a change against a parent commit and append the result to the
committed benchmark ledger, BENCH_perfbench.json at the repository root.

Run from anywhere inside the repository:

  tools/bench_ledger.py --parent REV --workload W --pairs N [--seed S]
  tools/bench_ledger.py --check BENCH_perfbench.json

The first form exports the committed files of REV into a temporary directory
(git archive, so the repository gets no worktree entry) and runs
perfbench/run.py, unchanged, N times in each tree: the parent checkout and the
working tree, alternating which side runs first in each pair. Run length is
BENCHMARK.json's run_seconds on both sides. Every run must report
`correct: true`. It then appends two records, one per side, each holding its
provenance (commit, parent, host, nproc, build type), the workload, seed and
pair count, and for each end-to-end metric of BENCHMARK.json the per-run
values in pair order, their median and interquartile range, and the number
of pairs that side won (ties count for neither). It prints both sides and
whether the change meets the gain rule: at least nine tenths of the pairs won
and a median difference larger than the parent's IQR.

The second form checks that a ledger is well-formed without running anything.
"""
import argparse
import datetime
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LEDGER = os.path.join(ROOT, "BENCH_perfbench.json")
SIDES = ("parent", "change")
RECORD_KEYS = {
    "side": str, "commit": str, "dirty": bool, "parent": str, "host": str,
    "cpu": str, "nproc": int, "build_type": str, "workload": str,
    "seed": int, "seconds": int, "pairs": int, "date": str, "metrics": dict,
}
METRIC_KEYS = {"unit": str, "better": str, "values": list, "median": float,
               "iqr": float, "wins": int}


def git(*args, cwd=ROOT):
    return subprocess.run(["git"] + list(args), cwd=cwd, check=True,
                          stdout=subprocess.PIPE, text=True).stdout.strip()


def quantile(values, q):
    """Linear interpolation between closest ranks (numpy's default)."""
    s = sorted(values)
    pos = (len(s) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def summary(values):
    return quantile(values, 0.5), quantile(values, 0.75) - quantile(values, 0.25)


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def build_type(tree):
    cache = os.path.join(tree, ".bench_build", "perfbench", "CMakeCache.txt")
    with open(cache) as f:
        for line in f:
            if line.startswith("CMAKE_BUILD_TYPE:"):
                return line.split("=", 1)[1].strip()
    return "unknown"


def perfbench(tree, args):
    """Run perfbench/run.py in `tree`; returns its standard output."""
    proc = subprocess.run([sys.executable, "perfbench/run.py"] + args,
                          cwd=tree, stdout=subprocess.PIPE, text=True)
    if proc.returncode:
        sys.exit("bench_ledger: perfbench %s failed in %s (exit %d)" %
                 (" ".join(args), tree, proc.returncode))
    return proc.stdout


def measure(args):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    metrics = bench["end_to_end"]
    seconds = int(bench["run_seconds"])
    parent = git("rev-parse", "--verify", args.parent + "^{commit}")
    head = git("rev-parse", "HEAD")
    dirty = bool(git("status", "--porcelain", "--", ".",
                     ":!" + os.path.basename(LEDGER)))

    tmp = tempfile.mkdtemp(prefix="bench_ledger-")
    try:
        archive = subprocess.Popen(["git", "archive", parent], cwd=ROOT,
                                   stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", tmp], stdin=archive.stdout,
                       check=True)
        archive.stdout.close()
        if archive.wait():
            sys.exit("bench_ledger: git archive %s failed" % parent)
        trees = {"parent": tmp, "change": ROOT}
        # Build both sides (and run perfbench's own self-test) before timing.
        for side in SIDES:
            perfbench(trees[side], ["--selftest"])
        runs = {side: [] for side in SIDES}
        run_args = ["--workload", args.workload, "--seed", str(args.seed),
                    "--seconds", str(seconds), "--trace", "0"]
        for i in range(args.pairs):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for side in order:
                out = perfbench(trees[side], run_args).strip().splitlines()
                result = json.loads(out[-1])
                if not result["correct"]:
                    sys.exit("bench_ledger: %s run %d is not correct" %
                             (side, i))
                runs[side].append(result)
                print("pair %d %-6s %s" % (i, side, " ".join(
                    "%s=%.4g" % (m["name"], result["metrics"][m["name"]]["value"])
                    for m in metrics)), flush=True)
        build = {side: build_type(trees[side]) for side in SIDES}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    date = datetime.datetime.now(datetime.timezone.utc).isoformat(
        timespec="seconds")
    records = []
    for side in SIDES:
        other = SIDES[1 - SIDES.index(side)]
        record = {
            "side": side,
            "commit": parent if side == "parent" else head,
            "dirty": False if side == "parent" else dirty,
            "parent": parent, "host": platform.node(), "cpu": cpu_model(),
            "nproc": os.cpu_count() or 1, "build_type": build[side],
            "workload": args.workload, "seed": args.seed, "seconds": seconds,
            "pairs": args.pairs, "date": date, "metrics": {},
        }
        for m in metrics:
            name, lower = m["name"], m["better"] == "lower"
            mine = [r["metrics"][name]["value"] for r in runs[side]]
            theirs = [r["metrics"][name]["value"] for r in runs[other]]
            median, iqr = summary(mine)
            record["metrics"][name] = {
                "unit": m["unit"], "better": m["better"], "values": mine,
                "median": median, "iqr": iqr,
                "wins": sum((a < b) if lower else (a > b)
                            for a, b in zip(mine, theirs)),
            }
        records.append(record)

    ledger = []
    if os.path.exists(LEDGER):
        with open(LEDGER) as f:
            ledger = json.load(f)
    ledger.extend(records)
    with open(LEDGER, "w") as f:  # one record per line
        f.write("[\n" + ",\n".join(json.dumps(r) for r in ledger) + "\n]\n")

    print("%s seed %d, %d pairs (parent %s):" % (args.workload, args.seed,
                                                 args.pairs, parent[:12]))
    base, new = (r["metrics"] for r in records)
    for name in base:
        b, n = base[name], new[name]
        gain = (n["wins"] * 10 >= args.pairs * 9 and
                abs(n["median"] - b["median"]) > b["iqr"])
        print("  %-12s parent %10.4g [IQR %.3g]  change %10.4g [IQR %.3g]"
              "  change wins %d/%d%s" % (
                  name, b["median"], b["iqr"], n["median"], n["iqr"],
                  n["wins"], args.pairs, "  (gain)" if gain else ""))
    return 0


def check(path):
    """Schema check: returns a list of problems (empty when well-formed)."""
    try:
        with open(path) as f:
            ledger = json.load(f)
    except (OSError, ValueError) as e:
        return ["cannot read %s: %s" % (path, e)]
    if not isinstance(ledger, list):
        return ["the ledger is not a JSON list"]
    problems = []
    for i, rec in enumerate(ledger):
        where = "record %d" % i
        if not isinstance(rec, dict):
            problems.append(where + ": not an object")
            continue
        missing = ["%s: %s missing or not %s" % (where, key, kind.__name__)
                   for key, kind in RECORD_KEYS.items()
                   if not isinstance(rec.get(key), kind)]
        if missing:
            problems.extend(missing)
            continue
        if rec["side"] not in SIDES:
            problems.append(where + ": side is not parent or change")
        # Records come in (parent, change) pairs measured together.
        partner = ledger[i - 1] if rec["side"] == "change" and i > 0 else None
        if rec["side"] == "change" and not (
                isinstance(partner, dict) and partner.get("side") == "parent"
                and all(partner.get(k) == rec[k] for k in
                        ("parent", "workload", "seed", "pairs", "date"))):
            problems.append(where + ": change record without its parent")
        if rec["pairs"] < 1 or not rec["metrics"]:
            problems.append(where + ": no pairs or no metrics")
        for name, m in rec["metrics"].items():
            at = "%s metric %s" % (where, name)
            if not isinstance(m, dict):
                problems.append(at + ": not an object")
                continue
            bad = [k for k, kind in METRIC_KEYS.items()
                   if not isinstance(m.get(k), kind) and
                   not (kind is float and isinstance(m.get(k), int))]
            if bad:
                problems.append("%s: bad %s" % (at, ", ".join(bad)))
                continue
            values = m["values"]
            if (len(values) != rec["pairs"] or
                    not all(isinstance(v, (int, float)) for v in values)):
                problems.append(at + ": values do not match pairs")
                continue
            median, iqr = summary(values)
            if abs(median - m["median"]) > 1e-9 * max(1.0, abs(median)) or \
                    abs(iqr - m["iqr"]) > 1e-9 * max(1.0, abs(iqr)):
                problems.append(at + ": median/iqr disagree with values")
            if not 0 <= m["wins"] <= rec["pairs"]:
                problems.append(at + ": wins out of range")
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--check", metavar="LEDGER")
    ap.add_argument("--parent", metavar="REV")
    ap.add_argument("--workload")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    if args.check:
        problems = check(args.check)
        for p in problems:
            print("bench_ledger: " + p, file=sys.stderr)
        return 1 if problems else 0
    if not (args.parent and args.workload) or args.pairs < 1:
        ap.error("--parent and --workload (and --pairs >= 1) are needed")
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
