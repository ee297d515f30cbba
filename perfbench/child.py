"""One benchmark repetition in a fresh process.

Usage: ``python3 perfbench/child.py '<json spec>'`` with ``src`` on
PYTHONPATH. The spec names the workload parameters, the data seed, whether
to trace, and a scratch directory. The child sets up its inputs, times the
path from ready inputs to scored labels, checks the outputs and prints one
JSON report as its last stdout line.
"""

from __future__ import annotations

import csv
import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

from workloads import (ACC_FLOOR, BETA, CLUSTERS, EMBED_DIM, KNN, LATENT_DIM, MISSING_RATE, SWEEP_REPEATS, VIEW_DIMS,
                       Workload)

ORTHO_TOL = 1e-8      # max |Y^T Y - I| entry of the consensus
MONOTONE_TOL = 1e-9   # largest allowed objective increase, as in the acceptance suite


def _environment(np) -> dict:
    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError):  # older numpy has no dict mode; the record stays empty
        pass
    return {"python": sys.version.split()[0], "numpy": np.__version__, "blas": blas}


def _setup(rise, w: Workload, seed: int, work_dir: Path):
    dataset, labels = rise.generate_blobs(rise.BlobConfig(
        n=w.n, clusters=CLUSTERS, views=len(VIEW_DIMS), latent_dim=LATENT_DIM, view_dims=VIEW_DIMS,
        center_scale=w.center_scale, noise_sigma=w.noise_sigma, seed=seed,
    ))
    if not w.is_sweep:
        mask = rise.generate_mask(w.n, len(VIEW_DIMS), MISSING_RATE, seed)
        return rise.apply_mask(dataset, mask), labels
    work_dir.mkdir(parents=True, exist_ok=True)
    for i, view in enumerate(dataset.views):
        rise.write_matrix(view, work_dir / f"view_{i}.rmat")
    rise.write_labels(labels, work_dir / "labels.txt")
    return None, labels


def _run_pipeline(rise, w: Workload, seed: int, dataset, labels):
    anchors = [rise.select_anchors(view, w.anchor_strategy, w.anchors, seed + i)
               for i, view in enumerate(dataset.views)]
    graphs = [rise.normalize(rise.build_bipartite(view, a, KNN)) for view, a in zip(dataset.views, anchors)]
    cfg = rise.RiseConfig(embed_dim=EMBED_DIM, beta=BETA, seed=seed, row_normalize=True)
    result = rise.run_rise(dataset, graphs, cfg, CLUSTERS)
    return result, rise.clustering_accuracy(result.labels, labels), rise.nmi(result.labels, labels)


def _check_pipeline(np, w: Workload, outcome, report: dict) -> None:
    result, acc, nmi = outcome
    report.update(acc=acc, nmi=nmi)
    failures = []
    pred = np.asarray(result.labels)
    if pred.shape != (w.n,) or pred.min() < 0 or pred.max() >= CLUSTERS:
        failures.append(f"labels: shape {pred.shape}, range [{pred.min()}, {pred.max()}]")
    y = result.consensus
    ortho = float(np.abs(y.T @ y - np.eye(y.shape[1])).max())
    if ortho > ORTHO_TOL:
        failures.append(f"consensus: max |Y^T Y - I| = {ortho:.3e}")
    rises = np.diff(np.asarray(result.objective_trace))
    if rises.size and rises.max() > MONOTONE_TOL:
        failures.append(f"objective trace increases by {rises.max():.3e}")
    if not acc >= ACC_FLOOR:
        failures.append(f"acc {acc:.4f} below floor {ACC_FLOOR}")
    digest = hashlib.sha256(pred.astype("<i8").tobytes())
    digest.update(np.ascontiguousarray(y, dtype="<f8").tobytes())
    report.update(failures=failures, failed=1 if failures else 0, digest=digest.hexdigest())


def _run_sweep(rise, w: Workload, seed: int, work_dir: Path) -> None:
    args = ["sweep"]
    for i in range(len(VIEW_DIMS)):
        args += ["--view", str(work_dir / f"view_{i}.rmat")]
    args += [
        "--labels", str(work_dir / "labels.txt"), "--missing-rate", str(MISSING_RATE),
        "--anchors", str(w.anchors), "--anchor-strategy", w.anchor_strategy,
        "--embed-dim", str(EMBED_DIM), "--graph-knn", str(KNN), "--clusters", str(CLUSTERS),
        "--row-normalize", "--seed", str(seed), "--out", str(work_dir / "out"),
        "--axis", "beta", "--values", ",".join(repr(b) for b in w.sweep_betas),
        "--repeats", str(SWEEP_REPEATS),
    ]
    rise.cli.main(args=args, standalone_mode=False)


def _check_sweep(w: Workload, work_dir: Path, report: dict) -> None:
    expected = report["attempted"]
    with (work_dir / "out" / "sweep.csv").open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != expected:
        report.update(failures=[f"sweep.csv has {len(rows)} rows, expected {expected}"], failed=expected)
        return
    failures = []
    ok = [r for r in rows if r["status"] == "ok"]
    failed_cells = len(rows) - len(ok)
    for r in rows:
        if r["status"] != "ok":
            failures.append(f"cell beta={r['value']} repeat={r['repeat']}: {r['status']}")
        elif not float(r["acc"]) >= ACC_FLOOR:
            failed_cells += 1
            failures.append(f"cell beta={r['value']} repeat={r['repeat']}: acc {r['acc']} below floor")
    if ok:
        report["acc"] = sum(float(r["acc"]) for r in ok) / len(ok)
        report["nmi"] = sum(float(r["nmi"]) for r in ok) / len(ok)
    # every column except the cell's own timing must repeat exactly across processes
    stable = [[r[c] for c in ("value", "repeat", "acc", "nmi", "purity", "iterations", "status")] for r in rows]
    report["digest"] = hashlib.sha256(json.dumps(stable).encode()).hexdigest()
    report.update(failures=failures, failed=failed_cells)


def main() -> int:
    spec = json.loads(sys.argv[1])
    w = Workload(**{**spec["workload"], "sweep_betas": tuple(spec["workload"]["sweep_betas"])})
    seed = int(spec["seed"])
    work_dir = Path(spec["work_dir"])
    report: dict = {"attempted": w.operations}

    import numpy as np

    import rise

    if w.is_sweep:
        import rise.cli
    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        dataset, labels = _setup(rise, w, seed, work_dir)
        report["ready_mono"] = time.monotonic()
        cpu0, t0 = time.process_time(), time.perf_counter()
        if w.is_sweep:
            _run_sweep(rise, w, seed, work_dir)
        else:
            outcome = _run_pipeline(rise, w, seed, dataset, labels)
        report["wall_s"] = time.perf_counter() - t0
        cpu = time.process_time() - cpu0
        if tracer is not None:
            tracer.uninstall()
        if w.is_sweep:
            _check_sweep(w, work_dir, report)
        else:
            _check_pipeline(np, w, outcome, report)
    except Exception:
        report["failed"] = report["attempted"]
        report["failures"] = [traceback.format_exc(limit=4)]
    if tracer is not None and "wall_s" in report:
        layers = tracer.metrics()
        layers["cli.cpu_per_wall"] = cpu / report["wall_s"]
        report["layers"] = layers
        if spec.get("trace_out"):
            tracer.dump(spec["trace_out"])
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report["env"] = _environment(np)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
