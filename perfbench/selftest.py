#!/usr/bin/env python3
"""Small-size self-test of the Coign benchmark.

    python3 perfbench/selftest.py

Run from the root of a checkout. Runs every workload for one second with
--trace 0 and one traced run with --trace 1, and fails unless each run is
correct, prints every metric BENCHMARK.json names with the unit it gives,
and perfbench/spec.json describes exactly the metrics and workloads
BENCHMARK.json lists.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path):
    with open(os.path.join(ROOT, path)) as f:
        return json.load(f)


def run(workload, trace):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True)
    if out.returncode != 0:
        return None, [f"{workload} --trace {trace}: exit {out.returncode}: {out.stderr[-500:]}"]
    return json.loads(out.stdout.strip().splitlines()[-1]), []


def check_result(label, result, wanted):
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{label}: result keys {sorted(result)}")
    if not result.get("correct") or result.get("failed") != 0 or result.get("attempted", 0) < 1:
        errors.append(f"{label}: not correct ({result.get('failed')} of "
                      f"{result.get('attempted')} failed)")
    got = result.get("metrics", {})
    for m in wanted:
        entry = got.get(m["name"])
        if entry is None:
            errors.append(f"{label}: metric {m['name']} missing")
        elif entry.get("unit") != m["unit"]:
            errors.append(f"{label}: {m['name']} unit {entry.get('unit')}, want {m['unit']}")
        elif not isinstance(entry.get("value"), (int, float)):
            errors.append(f"{label}: {m['name']} value {entry.get('value')!r}")
    extra = set(got) - {m["name"] for m in wanted}
    if extra:
        errors.append(f"{label}: metrics not in BENCHMARK.json: {sorted(extra)}")
    return errors


def main():
    bench = load("BENCHMARK.json")
    spec = load("perfbench/spec.json")
    errors = []
    names = [w["name"] for w in bench["workloads"]]
    if sorted(names) != sorted(spec["workloads"]):
        errors.append(f"spec.json workloads {sorted(spec['workloads'])} != {sorted(names)}")
    for section in ("end_to_end", "per_layer"):
        for m in bench[section]:
            described = spec[section].get(m["name"])
            if described is None and section == "per_layer":
                described = next((v for k, v in spec["per_layer_patterns"].items()
                                  if m["name"].startswith(k)), None)
            if described is None:
                errors.append(f"spec.json does not describe {section} metric {m['name']}")
            elif described["unit"] != m["unit"]:
                errors.append(f"spec.json unit of {m['name']}: {described['unit']} != {m['unit']}")
    for w in names:
        result, errs = run(w, 0)
        errors += errs or check_result(f"{w} --trace 0", result, bench["end_to_end"])
    result, errs = run(names[0], 1)
    errors += errs or check_result("--trace 1", result, bench["per_layer"])
    for w in names:
        for suffix in (".trace.json", ".layers.txt"):
            if not os.path.exists(os.path.join(ROOT, ".bench_out", w + suffix)):
                errors.append(f"--trace 1 wrote no .bench_out/{w}{suffix}")
    for e in errors:
        print("FAIL:", e)
    print("selftest:", "FAILED" if errors else "ok")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
