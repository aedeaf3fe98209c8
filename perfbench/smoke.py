"""Smoke run of the benchmark at tiny sizes, in a few seconds.

From the repository root:

    python3 perfbench/smoke.py

Runs every workload of ``BENCHMARK.json`` untraced and traced, and checks
that each run is correct, that it emits exactly the end-to-end (untraced) or
per-layer (traced) metrics ``BENCHMARK.json`` names, each with its unit, and
that the probes leave every library function unpatched afterwards.  Exits 1
and lists the problems when a check fails.
"""

from __future__ import annotations

import json
import sys

import run

TINY = {
    "crowd": {"objects": 20, "frames": 60},
    "ablation": {"num_seeds": 1},
    "mot_files": {"objects": 10, "frames": 60},
}


def main() -> int:
    run.prepare()
    import bench
    import spans

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expected = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    originals = [(owner, attr, vars(owner)[attr]) for _, owner, attr, _ in spans.probes()]
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (False, True):
            label = f"{workload} trace={int(trace)}"
            result, _ = bench.run(
                workload, 1, 0.0, trace, str(run.OUT_DIR / "smoke" / workload), TINY[workload]
            )
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{label}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{label}: {result['failed']} of {result['attempted']} checks failed")
            emitted = {name: m["unit"] for name, m in result["metrics"].items()}
            if emitted != expected[trace]:
                missing = sorted(set(expected[trace]) - set(emitted))
                extra = sorted(set(emitted) - set(expected[trace]))
                wrong = sorted(
                    n for n in set(emitted) & set(expected[trace]) if emitted[n] != expected[trace][n]
                )
                problems.append(f"{label}: missing {missing}, extra {extra}, wrong unit {wrong}")
            patched = [
                f"{getattr(owner, '__name__', owner)}.{attr}"
                for owner, attr, fn in originals
                if vars(owner)[attr] is not fn
            ]
            if patched:
                problems.append(f"{label}: still patched: {patched}")
            print(f"{label}: {result['attempted']} checks, {len(emitted)} metrics")
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    print("smoke run passed" if not problems else f"smoke run failed: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
