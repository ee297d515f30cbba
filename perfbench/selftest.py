"""Smoke self-test of the benchmark at a tiny sample count.

Run from the root of a checkout: ``python3 perfbench/selftest.py``.
It runs every workload once, traced, at n = 400, and checks that the runs
fail no operation and report every end-to-end and per-layer metric of
BENCHMARK.json with its unit, and that the layer map in
``perfbench/README.md`` names every per-layer metric. Exit status 0 means
all checks passed.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

from run import HERE, load_spec, run_workload, summarize
from workloads import WORKLOADS, scaled

SMOKE_N = 400


def main() -> int:
    root = Path.cwd()
    spec = load_spec(root)
    work_root = HERE / "work"
    work_root.mkdir(exist_ok=True)
    problems = []
    layer_map = (HERE / "README.md").read_text()
    for m in spec["per_layer"]:
        if f"`{m['name']}`" not in layer_map:
            problems.append(f"layer map in README.md lacks {m['name']}")
    for w in WORKLOADS.values():
        small = scaled(w, SMOKE_N)
        result = run_workload(small, 1, 0.0, True, root, work_root, time.monotonic() + 170)
        for trace, wanted in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
            summary = summarize(result, spec, trace)
            for m in wanted:
                got = summary["metrics"].get(m["name"])
                if got is None or got["unit"] != m["unit"]:
                    problems.append(f"{small.name}: {m['name']} missing or without unit {m['unit']}")
        if result["failed"]:
            problems.append(f"{small.name}: {result['failed']} of {result['attempted']} operations failed: "
                            + "; ".join(result["failures"]))
        print(f"{small.name}: {result['attempted']} operations, {result['failed']} failed")
    for problem in problems:
        print("FAIL " + problem)
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
