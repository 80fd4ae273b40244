#!/usr/bin/env python3
"""Compare the benchmark of a parent checkout against a change.

    python3 .github/perf_compare.py PARENT_DIR CHANGE_DIR

Runs every workload that CHANGE_DIR/BENCHMARK.json lists, with its
command, its run_seconds and --trace 0, once per seed on each side,
alternating which side runs first. It fails when a workload's share of
failed jobs is larger on the change, or when an end-to-end metric's
parent and change runs separate by more than the metric's bound: every
change run is worse than every parent run, and the nearest two differ
by more than the bound, relative to the parent's. Runs that overlap,
however noisy, never fail.
"""

import json
import subprocess
import sys

SEEDS = [11, 12, 13]


def run(root, bench, workload, seed):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    out = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit(f"{root}: {workload} seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def separation(better, parent, change):
    """How far the change's best run lies beyond the parent's worst, as a
    fraction of the latter; zero or less when the two sides overlap."""
    if better == "lower":
        edge, best = max(parent), min(change)
        gap = best - edge
    else:
        edge, best = min(parent), max(change)
        gap = edge - best
    if edge == 0:
        return float("inf") if gap > 0 else 0.0
    return gap / abs(edge)


def failed_share(results):
    attempted = sum(r["attempted"] for r in results)
    return sum(r["failed"] for r in results) / attempted if attempted else 1.0


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    parent_dir, change_dir = sys.argv[1:]
    with open(f"{change_dir}/BENCHMARK.json") as f:
        bench = json.load(f)
    regressions = []
    for w in (w["name"] for w in bench["workloads"]):
        sides = {parent_dir: [], change_dir: []}
        for i, seed in enumerate(SEEDS):
            order = [parent_dir, change_dir] if i % 2 == 0 else [change_dir, parent_dir]
            for root in order:
                sides[root].append(run(root, bench, w, seed))
        parent, change = sides[parent_dir], sides[change_dir]
        p_fail, c_fail = failed_share(parent), failed_share(change)
        print(f"{w}: failed share {p_fail:.4f} -> {c_fail:.4f}")
        if c_fail > p_fail:
            regressions.append(f"{w}: failed share {p_fail:.4f} -> {c_fail:.4f}")
        for m in bench["end_to_end"]:
            p = [r["metrics"][m["name"]]["value"] for r in parent]
            c = [r["metrics"][m["name"]]["value"] for r in change]
            sep = separation(m["better"], p, c)
            verdict = "REGRESSED" if sep > m["bound"] else "ok"
            print(f"  {m['name']:<14} parent {min(p):.6g}..{max(p):.6g}  "
                  f"change {min(c):.6g}..{max(c):.6g}  "
                  f"separation {sep:+.3f} (bound {m['bound']})  {verdict}")
            if sep > m["bound"]:
                regressions.append(f"{w} {m['name']}: separation {sep:+.3f} > {m['bound']}")
    for r in regressions:
        print("FAIL:", r)
    print("perf compare:", "FAILED" if regressions else "ok")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
