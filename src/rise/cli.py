"""Command-line surface: data synthesis, masking, runs, sweeps, ablations.

Every run is reproducible from its flags plus ``--seed``; only timing
fields differ between repeated runs. Sweeps and ablations share one grid
runner: it loads the inputs once, may execute cells concurrently, and turns
a failing cell into an ``error:`` row of the CSV instead of aborting the
grid. The ``RISE_THREADS`` environment variable caps the worker count (0 or
unset picks an automatic value).
"""

from __future__ import annotations

import csv
import json
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import click
import numpy as np

from . import metrics as metrics_mod
from .datagen import BlobConfig, generate_blobs
from .dataset_io import MultiViewDataset, read_labels, read_matrix, write_labels, write_matrix
from .graph import build_bipartite, normalize
from .kmeans import select_anchors
from .masking import Mask, apply_mask, generate_mask, mask_to_index_vectors, read_mask, write_mask
from .optimizer import RiseConfig, RiseResult, run_rise

SCHEMA_VERSION = 1
SWEEP_AXES = ("beta", "anchors", "embed_dim", "missing_rate")


@dataclass(frozen=True)
class RunManifest:
    """Everything a pipeline run needs; reproducible together with the seed."""

    view_paths: tuple[str, ...]
    labels_path: str | None
    mask_path: str | None
    missing_rate: float | None
    anchors: int
    embed_dim: int
    graph_knn: int
    clusters: int
    beta: float
    completion: str
    anchor_strategy: str
    max_iters: int
    rel_tol: float
    seed: int
    row_normalize: bool
    out_dir: str


@dataclass
class LoadedInputs:
    views: list[np.ndarray]
    labels: np.ndarray | None
    mask: Mask | None


def _stage(name: str, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except click.ClickException:
        raise
    except Exception as exc:
        raise click.ClickException(f"{name}: {exc}") from exc


def load_inputs(manifest: RunManifest) -> LoadedInputs:
    def _load():
        views = [read_matrix(p) for p in manifest.view_paths]
        labels = read_labels(manifest.labels_path) if manifest.labels_path else None
        mask = read_mask(manifest.mask_path) if manifest.mask_path else None
        return LoadedInputs(views, labels, mask)

    return _stage("load", _load)


def _assemble_dataset(manifest: RunManifest, inputs: LoadedInputs) -> MultiViewDataset:
    views, labels, mask = inputs.views, inputs.labels, inputs.mask
    if mask is not None and not all(v.shape[0] == mask.n for v in views):
        # already-incomplete view files: rows follow the mask's index order
        index_vectors = mask_to_index_vectors(mask)
        if all(v.shape[0] == h.shape[0] for v, h in zip(views, index_vectors)):
            return MultiViewDataset(views, index_vectors, mask.n, labels=labels)
        raise ValueError("view row counts match neither the mask height nor its column sums")

    heights = {v.shape[0] for v in views}
    if len(heights) != 1:
        raise ValueError("views have differing row counts and no mask was given")
    n = heights.pop()
    complete = MultiViewDataset(
        views, [np.arange(n, dtype=np.int64) for _ in views], n, labels=labels
    )
    if mask is None and manifest.missing_rate is not None and manifest.missing_rate > 0:
        mask = generate_mask(n, len(views), manifest.missing_rate, manifest.seed)
    # complete view files: the given or generated mask drops the missing rows
    return complete if mask is None else apply_mask(complete, mask)


def _score(pred: np.ndarray, truth: np.ndarray) -> dict:
    return {
        "acc": metrics_mod.clustering_accuracy(pred, truth),
        "nmi": metrics_mod.nmi(pred, truth),
        "purity": metrics_mod.purity(pred, truth),
    }


def run_loaded(manifest: RunManifest, inputs: LoadedInputs) -> tuple[RiseResult, dict | None]:
    """Stages after loading: mask, anchors, graphs, optimize, metrics."""
    dataset = _stage("mask", _assemble_dataset, manifest, inputs)

    def _anchors():
        return [
            select_anchors(view, manifest.anchor_strategy, manifest.anchors, manifest.seed + i)
            for i, view in enumerate(dataset.views)
        ]

    anchors = _stage("anchors", _anchors)

    def _graphs():
        return [
            normalize(build_bipartite(view, a, manifest.graph_knn))
            for view, a in zip(dataset.views, anchors)
        ]

    graphs = _stage("graph", _graphs)

    def _optimize():
        cfg = RiseConfig(
            embed_dim=manifest.embed_dim,
            beta=manifest.beta,
            max_iters=manifest.max_iters,
            rel_tol=manifest.rel_tol,
            seed=manifest.seed,
            completion=manifest.completion,
            row_normalize=manifest.row_normalize,
        )
        return run_rise(dataset, graphs, cfg, manifest.clusters)

    result = _stage("optimize", _optimize)
    scores = None
    if dataset.labels is not None:
        scores = _stage("metrics", _score, result.labels, dataset.labels)
    return result, scores


def run_pipeline(manifest: RunManifest) -> tuple[RiseResult, dict | None]:
    return run_loaded(manifest, load_inputs(manifest))


def _result_payload(manifest: RunManifest, result: RiseResult, scores: dict | None) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "config": asdict(manifest),
        "iterations": result.iterations,
        "objective_trace": result.objective_trace,
        "metrics": scores,
        "labels_found": int(np.unique(result.labels).size),
        "timings": result.timings,
    }


def _write_run_artifacts(manifest: RunManifest, result: RiseResult, scores: dict | None) -> Path:
    out = Path(manifest.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    payload = _result_payload(manifest, result, scores)
    (out / "result.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    with (out / "trace.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "objective", "elapsed_ms"])
        for i, (obj, ms) in enumerate(zip(result.objective_trace, result.iteration_ms), start=1):
            writer.writerow([i, repr(obj), f"{ms:.3f}"])
    write_matrix(result.consensus, out / "consensus.rmat")
    write_labels(result.labels, out / "labels.txt")
    return out


def _worker_count() -> int:
    raw = os.environ.get("RISE_THREADS", "").strip() or "0"
    if not raw.isdecimal():
        raise click.ClickException(
            f"RISE_THREADS must be a non-negative integer (0 for automatic), got {raw!r}"
        )
    return int(raw) or min(8, os.cpu_count() or 1)


def _common_run_options(fn):
    options = [
        click.option("--view", "view_paths", multiple=True, required=True, type=click.Path(), help="View matrix file (repeat per view)."),
        click.option("--labels", "labels_path", type=click.Path(), default=None, help="Ground-truth labels file."),
        click.option("--mask", "mask_path", type=click.Path(), default=None, help="Availability mask CSV."),
        click.option("--missing-rate", type=float, default=None, help="Generate a mask with this missing rate (needs complete views)."),
        click.option("--anchors", type=int, required=True, help="Anchors per view."),
        click.option("--embed-dim", type=int, required=True, help="Embedding dimension."),
        click.option("--graph-knn", type=int, default=5, show_default=True, help="Nearest anchors per sample."),
        click.option("--clusters", type=int, required=True, help="Number of clusters."),
        click.option("--beta", type=float, default=1.0, show_default=True, help="Graph-term weight."),
        click.option("--completion", type=click.Choice(["second_order", "first_order"]), default="second_order", show_default=True),
        click.option("--anchor-strategy", type=click.Choice(["kmeans", "random"]), default="kmeans", show_default=True),
        click.option("--max-iters", type=int, default=50, show_default=True),
        click.option("--tol", "rel_tol", type=float, default=1e-6, show_default=True, help="Relative objective-change stopping tolerance."),
        click.option("--seed", type=int, default=0, show_default=True),
        click.option("--row-normalize", is_flag=True, default=False, help="Row-normalize the consensus before the final k-means."),
        click.option("--out", "out_dir", type=click.Path(), required=True, help="Output directory."),
    ]
    for opt in reversed(options):
        fn = opt(fn)
    return fn


def _manifest_from_params(**params) -> RunManifest:
    if params["mask_path"] is not None and params["missing_rate"] is not None:
        raise click.ClickException("mask: give either --mask or --missing-rate, not both")
    return RunManifest(**params)


@click.group()
def main():
    """Scalable incomplete multi-view clustering via rotation-invariant
    spectral embedding fusion."""


@main.command()
@click.option("--n", type=int, required=True, help="Number of samples.")
@click.option("--clusters", type=int, required=True)
@click.option("--views", type=int, required=True)
@click.option("--latent-dim", type=int, default=8, show_default=True)
@click.option("--view-dims", type=str, default=None, help="Comma-separated feature dims, one per view (default: latent-dim each).")
@click.option("--cluster-spread", type=float, default=1.0, show_default=True)
@click.option("--center-scale", type=float, default=8.0, show_default=True)
@click.option("--noise-sigma", type=float, default=0.1, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", "out_dir", type=click.Path(), required=True, help="Output directory.")
def synth(n, clusters, views, latent_dim, view_dims, cluster_spread, center_scale, noise_sigma, seed, out_dir):
    """Generate a synthetic multi-view dataset (RMAT views + labels)."""
    if view_dims is None:
        dims = tuple(latent_dim for _ in range(views))
    else:
        dims = tuple(int(tok) for tok in view_dims.split(","))
    cfg = _stage(
        "synth",
        BlobConfig,
        n=n, clusters=clusters, views=views, latent_dim=latent_dim, view_dims=dims,
        cluster_spread=cluster_spread, center_scale=center_scale,
        noise_sigma=noise_sigma, seed=seed,
    )
    dataset, labels = generate_blobs(cfg)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for i, view in enumerate(dataset.views):
        write_matrix(view, out / f"view_{i}.rmat")
    write_labels(labels, out / "labels.txt")
    click.echo(f"wrote {views} views and labels to {out}")


@main.command("mask")
@click.option("--n", type=int, required=True)
@click.option("--views", type=int, required=True)
@click.option("--missing-rate", type=float, required=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", "out_path", type=click.Path(), required=True, help="Mask CSV path.")
def mask_cmd(n, views, missing_rate, seed, out_path):
    """Generate an availability mask CSV."""
    mask = _stage("mask", generate_mask, n, views, missing_rate, seed)
    write_mask(mask, out_path)
    kept = int(mask.table.all(axis=1).sum())
    click.echo(f"wrote {n}x{views} mask ({kept} complete rows) to {out_path}")


@main.command()
@_common_run_options
def run(**params):
    """Run the full pipeline and write result.json, trace.csv, consensus.rmat."""
    manifest = _manifest_from_params(**params)
    result, scores = run_pipeline(manifest)
    out = _stage("write", _write_run_artifacts, manifest, result, scores)
    summary = f"iterations={result.iterations}"
    if scores is not None:
        summary += " " + " ".join(f"{k}={v:.4f}" for k, v in scores.items())
    click.echo(f"done: {summary} -> {out / 'result.json'}")


def _run_grid(manifest: RunManifest, cells: list, columns: list[str], filename: str) -> None:
    """Run every ``(key, cell_manifest)`` cell on inputs loaded once; write one
    CSV row per cell, in cell order. A failing cell becomes an ``error:`` row
    and the other cells still run."""
    if not manifest.labels_path:
        raise click.ClickException("metrics: sweeps and ablations require --labels")
    inputs = load_inputs(manifest)

    def run_cell(cell):
        key, cell_manifest = cell
        start = time.perf_counter()
        try:
            result, scores = run_loaded(cell_manifest, inputs)
        except Exception as exc:
            return [*key, "", "", "", "", "", f"error: {exc}"]
        seconds = time.perf_counter() - start
        return [*key, f"{scores['acc']:.6f}", f"{scores['nmi']:.6f}", f"{scores['purity']:.6f}",
                result.iterations, f"{seconds:.3f}", "ok"]

    with ThreadPoolExecutor(max_workers=_worker_count()) as pool:
        rows = list(pool.map(run_cell, cells))

    out = Path(manifest.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / filename
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([*columns, "acc", "nmi", "purity", "iterations", "seconds", "status"])
        writer.writerows(rows)
    n_ok = sum(row[-1] == "ok" for row in rows)
    click.echo(f"wrote {len(rows)} rows ({n_ok} ok) to {path}")


@main.command()
@_common_run_options
@click.option("--axis", type=click.Choice(SWEEP_AXES), required=True, help="Swept hyperparameter.")
@click.option("--values", type=str, required=True, help="Comma-separated axis values (e.g. 0.01,0.1,1,10,20,50,100,500,1000 for beta).")
@click.option("--repeats", type=click.IntRange(min=1), default=10, show_default=True, help="Seeded repeats per value.")
def sweep(axis, values, repeats, **params):
    """Sweep one hyperparameter; one CSV row per (value, repeat)."""
    manifest = _manifest_from_params(**params)
    if axis == "missing_rate" and manifest.mask_path:
        raise click.ClickException("mask: a fixed --mask conflicts with sweeping missing_rate")
    raw = [tok.strip() for tok in values.split(",") if tok.strip()]
    if not raw:
        raise click.ClickException("sweep: no axis values given")

    def parse(tok):
        try:
            return float(tok) if axis in ("beta", "missing_rate") else int(tok)
        except ValueError:
            raise click.ClickException(f"sweep: {tok!r} is not a valid {axis} value") from None

    cells = [
        ((axis, value, repeat), replace(manifest, seed=manifest.seed + repeat, **{axis: value}))
        for value in map(parse, raw)
        for repeat in range(repeats)
    ]
    _run_grid(manifest, cells, ["axis", "value", "repeat"], "sweep.csv")


@main.command()
@_common_run_options
def ablate(**params):
    """Compare completion strategies and anchor strategies under shared seeds."""
    manifest = _manifest_from_params(**params)
    cells = [
        ((completion, strategy), replace(manifest, completion=completion, anchor_strategy=strategy))
        for completion in ("second_order", "first_order")
        for strategy in ("kmeans", "random")
    ]
    _run_grid(manifest, cells, ["completion", "anchor_strategy"], "ablation.csv")


@main.command("eval")
@click.option("--pred", "pred_path", type=click.Path(), required=True, help="Predicted labels file.")
@click.option("--truth", "truth_path", type=click.Path(), required=True, help="Ground-truth labels file.")
@click.option("--out", "out_path", type=click.Path(), default=None, help="Optional JSON output path.")
def eval_cmd(pred_path, truth_path, out_path):
    """Score one label file against another (ACC, NMI, Purity)."""
    pred = _stage("load", read_labels, pred_path)
    truth = _stage("load", read_labels, truth_path)
    scores = _stage("metrics", _score, pred, truth)
    text = json.dumps(scores, indent=2, sort_keys=True)
    if out_path:
        Path(out_path).write_text(text + "\n")
    click.echo(text)


if __name__ == "__main__":
    main()
