"""Steadiness check of the benchmark: many seeds per workload, and two sets compared.

Run from the root of a checkout:

    python3 perfbench/steadiness.py run --seeds 101-110 --out perfbench/steadiness/set1.json
    python3 perfbench/steadiness.py run --seeds 201-210 --out perfbench/steadiness/set2.json
    python3 perfbench/steadiness.py compare perfbench/steadiness/set1.json perfbench/steadiness/set2.json

``run`` runs the benchmark command of BENCHMARK.json once per workload and
seed with ``--trace 0`` and ``run_seconds``, and records every end-to-end
value. For each metric it stores the median over seeds and the spread: the
distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) over the median. ``compare`` prints
a Markdown table with both sets' spreads and medians, and the change of the
second median against the first in the metric's worse direction, each next to
the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path


def _seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def _stats(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": median, "spread": (q3 - q1) / median if median else 0.0}


def run_set(seeds: list[int], out: Path) -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    record = {"seeds": seeds, "run_seconds": spec["run_seconds"], "workloads": {}}
    for name in (w["name"] for w in spec["workloads"]):
        values: dict[str, list[float]] = {}
        failed = 0
        for seed in seeds:
            began = time.monotonic()
            proc = subprocess.run(spec["command"] + ["--workload", name, "--seed", str(seed), "--seconds",
                                                     str(spec["run_seconds"]), "--trace", "0"],
                                  capture_output=True, text=True, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            failed += result["failed"] + (not result["correct"])
            for metric, m in result["metrics"].items():
                values.setdefault(metric, []).append(m["value"])
            print(f"{name} seed {seed} ({time.monotonic() - began:.0f} s): "
                  + " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()), flush=True)
        record["workloads"][name] = {"failed": failed, "metrics": {k: _stats(v) for k, v in values.items()}}
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


def compare(first: Path, second: Path) -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    a, b = (json.loads(p.read_text()) for p in (first, second))
    print(f"First set: seeds {a['seeds'][0]}-{a['seeds'][-1]}; second set: seeds {b['seeds'][0]}-{b['seeds'][-1]}; "
          f"{a['run_seconds']} s per run.\n")
    print("| workload | metric | bound | spread 1 | spread 2 | median 1 | median 2 | worse by |")
    print("|---|---|---|---|---|---|---|---|")
    ok = True
    for name, wa in a["workloads"].items():
        wb = b["workloads"][name]
        for m in spec["end_to_end"]:
            sa, sb = wa["metrics"][m["name"]], wb["metrics"][m["name"]]
            change = (sb["median"] - sa["median"]) / sa["median"]
            worse = change if m["better"] == "lower" else -change
            ok &= worse <= m["bound"] and (m["name"] == "setup_s" or max(sa["spread"], sb["spread"]) <= m["bound"])
            print(f"| {name} | {m['name']} | {m['bound']} | {sa['spread']:.4f} | {sb['spread']:.4f} | "
                  f"{sa['median']:.5g} | {sb['median']:.5g} | {worse:+.4f} |")
    failed = sum(w["failed"] for s in (a, b) for w in s["workloads"].values())
    print(f"\nFailed operations or checks over both sets: {failed}. "
          f"Within bounds: {'yes' if ok and not failed else 'no'}.")
    return 0 if ok and not failed else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="action", required=True)
    run = sub.add_parser("run", help="run one set of seeds")
    run.add_argument("--seeds", required=True, help="first-last, e.g. 101-110")
    run.add_argument("--out", required=True, type=Path)
    cmp_ = sub.add_parser("compare", help="compare two sets")
    cmp_.add_argument("first", type=Path)
    cmp_.add_argument("second", type=Path)
    args = parser.parse_args(argv)
    if args.action == "run":
        return run_set(_seeds(args.seeds), args.out)
    return compare(args.first, args.second)


if __name__ == "__main__":
    sys.exit(main())
