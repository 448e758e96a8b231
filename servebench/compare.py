#!/usr/bin/env python3
"""Compare two sets of servebench runs against the bounds in BENCHMARK.json.

    python3 servebench/compare.py base.log new.log

Each log holds the captured stdout of one or more `run.py --trace 0` runs
(any workloads, any seeds).  Every run prints a `fingerprint {...}` line
before its result line.  For each workload and end-to-end metric the
script compares the medians and flags the metric when the new median is
worse than the base median by more than the metric's bound.

Runs of a workload are compared only when their fingerprints match in
everything but the seed.  Mismatched fingerprints are reported as NOT
COMPARABLE, never as a pass.  Exit code: 0 = every metric within bound,
1 = a regression or an incorrect run, 2 = not comparable.
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_runs(path):
    """[(fingerprint dict, result dict)] in file order."""
    runs, fp = [], None
    with open(path) as f:
        for line in f:
            if line.startswith("fingerprint "):
                fp = json.loads(line[len("fingerprint "):])
            elif line.startswith('{"correct"'):
                if fp is None:
                    sys.exit(f"{path}: result line without a fingerprint")
                runs.append((fp, json.loads(line)))
                fp = None
    return runs


def host(fp):
    return json.dumps({k: v for k, v in fp.items() if k != "seed"},
                      sort_keys=True)


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    base, new = load_runs(sys.argv[1]), load_runs(sys.argv[2])
    if not base or not new:
        sys.exit("no runs found")

    status = 0
    for fp, r in base + new:
        if not r["correct"]:
            print(f"INCORRECT run: {fp['workload']} seed {fp['seed']}")
            status = 1
    workloads = sorted({fp["workload"] for fp, _ in base} &
                       {fp["workload"] for fp, _ in new})
    for wl in workloads:
        hosts = {host(fp) for fp, _ in base + new if fp["workload"] == wl}
        if len(hosts) > 1:
            print(f"{wl}: NOT COMPARABLE, runs come from different "
                  "fingerprints:")
            for h in sorted(hosts):
                print("  " + h)
            status = 2
            continue
        print(f"{wl}:")
        for m in spec["end_to_end"]:
            name = m["name"]
            a = [r["metrics"][name]["value"] for fp, r in base
                 if fp["workload"] == wl]
            b = [r["metrics"][name]["value"] for fp, r in new
                 if fp["workload"] == wl]
            ma, mb = statistics.median(a), statistics.median(b)
            worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            verdict = "REGRESSION" if worse > m["bound"] else "ok"
            if verdict != "ok" and status == 0:
                status = 1
            print(f"  {name:16s} {ma:14.6g} -> {mb:14.6g} {m['unit']:4s} "
                  f"worse by {100 * worse:+7.2f}% (bound "
                  f"{100 * m['bound']:.0f}%, n={len(a)}/{len(b)}) {verdict}")
    sys.exit(status)


if __name__ == "__main__":
    main()
