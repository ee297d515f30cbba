"""RISE benchmark: time to labels, set-up time, memory and clustering quality.

Run from the root of a checkout:

    python3 perfbench/run.py --workload random-anchors-10k --seed 1 --seconds 60 --trace 0
    python3 perfbench/run.py --workload all --trace 0 --out perfbench/BENCH_<tag>.json

Each repetition is a fresh child process (``perfbench/child.py``) that
imports ``rise`` from ``src``, makes its inputs from the seed, runs the
public API and checks the outputs. Repetitions run back to back (a closed
loop with one client) until ``--seconds`` is used up; the run reports
medians over them. With ``--trace 0`` the last stdout line carries the
end-to-end metrics of BENCHMARK.json; with ``--trace 1`` every repetition
is a pair of an untraced and a traced child on the same inputs, and the
last line carries the per-layer metrics plus the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import asdict
from pathlib import Path

from workloads import CHILD_THREAD_ENV, WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"
CHILD_TIMEOUT_S = 170.0  # a run must end within 180 s


def _child_env(w: Workload, root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    env.update(CHILD_THREAD_ENV)
    env.update(w.env)
    return env


def run_child(w: Workload, seed: int, trace: bool, root: Path, work_root: Path, deadline: float,
              trace_out: Path | None = None) -> dict:
    """One repetition; returns the child's report plus ``setup_s``."""
    work_dir = Path(tempfile.mkdtemp(prefix="rep-", dir=work_root))
    spec = {"workload": asdict(w), "seed": seed, "trace": trace, "work_dir": str(work_dir),
            "trace_out": str(trace_out) if trace_out else None}
    attempted = w.operations
    spawned = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(CHILD), json.dumps(spec)], cwd=root,
                              env=_child_env(w, root), capture_output=True, text=True,
                              timeout=max(1.0, deadline - spawned))
        lines = proc.stdout.strip().splitlines()
        report = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
        error = proc.stderr.strip()[-2000:]
    except subprocess.TimeoutExpired:
        report, error = None, "child timed out"
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if report is None:
        return {"attempted": attempted, "failed": attempted, "failures": [error or "child failed"]}
    report["data_seed"] = seed
    if "ready_mono" in report:
        report["setup_s"] = report["ready_mono"] - spawned
    return report


def _median(values):
    return statistics.median(values) if values else None


def run_workload(w: Workload, seed: int, seconds: float, trace: bool, root: Path, work_root: Path,
                 hard_deadline: float) -> dict:
    """Repeat the workload until ``seconds`` are used; aggregate the reports."""
    start = time.monotonic()
    plain, traced = [], []
    trace_out = work_root / f"trace-{w.name}.json"
    rep = 0
    while True:
        # fresh inputs for every repetition except the second, which repeats
        # the first so that the outputs of two processes can be compared
        data_seed = seed * 1000 + max(0, rep - 1)
        plain.append(run_child(w, data_seed, False, root, work_root, hard_deadline))
        if trace:
            traced.append(run_child(w, data_seed, True, root, work_root, hard_deadline, trace_out))
        rep += 1
        elapsed = time.monotonic() - start
        if elapsed + elapsed / rep > seconds:
            break

    reports = plain + traced
    first_digest: dict[int, str] = {}
    for r in reports:
        if "digest" not in r:
            continue
        expected = first_digest.setdefault(r["data_seed"], r["digest"])
        if r["digest"] != expected:
            r["failed"] = r["attempted"]
            r.setdefault("failures", []).append(f"outputs for data seed {r['data_seed']} differ between runs")
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    ok_plain = sum(r["attempted"] - r["failed"] for r in plain)

    samples = {key: [r[key] for r in plain if key in r]
               for key in ("wall_s", "setup_s", "peak_rss_mb", "acc", "nmi")}
    samples["ok_ratio"] = [ok_plain / sum(r["attempted"] for r in plain)]
    layers: dict[str, list[float]] = {}
    for r in traced:
        for key, value in r.get("layers", {}).items():
            layers.setdefault(key, []).append(value)
    overhead = [t["wall_s"] - p["wall_s"] for p, t in zip(plain, traced) if "wall_s" in p and "wall_s" in t]
    if trace:
        layers["trace.overhead_s"] = overhead
    env = next((r["env"] for r in reports if "env" in r), {})
    env.update({
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "child_env": {**CHILD_THREAD_ENV, **w.env},
        "seed": seed,
        "repetitions": rep,
    })
    return {
        "workload": w.name,
        "attempted": attempted,
        "failed": failed,
        "failures": [f for r in reports for f in r.get("failures", [])][:10],
        "samples": samples,
        "layers": layers,
        "env": env,
    }


def load_spec(root: Path) -> dict:
    with (root / "BENCHMARK.json").open() as fh:
        return json.load(fh)


def _selected(result: dict, spec: dict, trace: bool) -> tuple[list[dict], dict]:
    """The metric list of BENCHMARK.json a run reports, and its samples."""
    if trace:
        return spec["per_layer"], result["layers"]
    return spec["end_to_end"], result["samples"]


def summarize(result: dict, spec: dict, trace: bool) -> dict:
    """The final JSON result: medians of the requested metric set."""
    wanted, source = _selected(result, spec, trace)
    metrics = {}
    for m in wanted:
        value = _median(source.get(m["name"], []))
        if value is not None:
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return {"correct": result["failed"] == 0 and len(metrics) == len(wanted),
            "attempted": result["attempted"], "failed": result["failed"], "metrics": metrics}


def print_block(result: dict, spec: dict, trace: bool) -> None:
    wanted, source = _selected(result, spec, trace)
    print(f"workload {result['workload']}: {result['attempted']} operations, {result['failed']} failed")
    for m in wanted:
        values = source.get(m["name"], [])
        if values:
            print(f"  {m['name']:<34} {_median(values):>14.6g} {m['unit']:<6}"
                  f" (median of {len(values)}, min {min(values):.6g}, max {max(values):.6g})")
        else:
            print(f"  {m['name']:<34} {'missing':>14} {m['unit']}")
    for failure in result["failures"]:
        print("  failure: " + failure.strip().replace("\n", "\n    "))
    print("env " + json.dumps(result["env"], sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None,
                        help="also write the results, with every sample and the run environment, to this JSON file")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "rise" / "__init__.py").is_file() or not (root / "BENCHMARK.json").is_file():
        print("run from the root of a checkout that holds src/rise and BENCHMARK.json", file=sys.stderr)
        return 2
    spec = load_spec(root)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(name not in WORKLOADS for name in names):
        print(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2

    work_root = HERE / "work"
    work_root.mkdir(exist_ok=True)
    trace = bool(args.trace)
    summaries, records = {}, {}
    for name in names:
        result = run_workload(WORKLOADS[name], args.seed, seconds, trace, root, work_root,
                              time.monotonic() + CHILD_TIMEOUT_S)
        print_block(result, spec, trace)
        summaries[name] = summarize(result, spec, trace)
        records[name] = {**summaries[name], "samples": _selected(result, spec, trace)[1],
                         "env": result["env"], "failures": result["failures"]}
    if args.out:
        Path(args.out).write_text(json.dumps({"benchmark": spec, "trace": args.trace, "results": records},
                                             indent=1) + "\n")
    print(json.dumps(summaries[args.workload] if len(names) == 1 else summaries))
    return 0


if __name__ == "__main__":
    sys.exit(main())
