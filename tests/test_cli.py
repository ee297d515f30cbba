import csv
import json

import numpy as np
import pytest
from click.testing import CliRunner

from rise.cli import main
from rise.dataset_io import read_labels, read_matrix
from rise.masking import read_mask


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    """Small separable 2-view dataset shared by the CLI tests."""
    out = tmp_path_factory.mktemp("data")
    result = CliRunner().invoke(
        main,
        [
            "synth", "--n", "150", "--clusters", "3", "--views", "2",
            "--latent-dim", "4", "--view-dims", "6,5", "--center-scale", "10",
            "--noise-sigma", "0.1", "--seed", "1", "--out", str(out),
        ],
    )
    assert result.exit_code == 0, result.output
    return out


def _run_args(dataset_dir, out_dir, extra=()):
    return [
        "run",
        "--view", str(dataset_dir / "view_0.rmat"),
        "--view", str(dataset_dir / "view_1.rmat"),
        "--labels", str(dataset_dir / "labels.txt"),
        "--anchors", "9", "--embed-dim", "3", "--clusters", "3",
        "--beta", "10", "--row-normalize", "--out", str(out_dir),
        *extra,
    ]


def test_synth_writes_loadable_deterministic_files(dataset_dir, tmp_path):
    view = read_matrix(dataset_dir / "view_0.rmat")
    labels = read_labels(dataset_dir / "labels.txt")
    assert view.shape == (150, 6)
    assert labels.shape == (150,)
    result = CliRunner().invoke(
        main,
        [
            "synth", "--n", "150", "--clusters", "3", "--views", "2",
            "--latent-dim", "4", "--view-dims", "6,5", "--center-scale", "10",
            "--noise-sigma", "0.1", "--seed", "1", "--out", str(tmp_path),
        ],
    )
    assert result.exit_code == 0
    assert (tmp_path / "view_0.rmat").read_bytes() == (dataset_dir / "view_0.rmat").read_bytes()


def test_mask_subcommand(tmp_path):
    path = tmp_path / "mask.csv"
    result = CliRunner().invoke(
        main, ["mask", "--n", "40", "--views", "3", "--missing-rate", "0.5",
               "--seed", "7", "--out", str(path)],
    )
    assert result.exit_code == 0, result.output
    mask = read_mask(path)
    assert mask.table.shape == (40, 3)
    assert mask.table.all(axis=1).sum() == 20


def test_run_complete_data_perfect_metrics(dataset_dir, tmp_path):
    result = CliRunner().invoke(main, _run_args(dataset_dir, tmp_path))
    assert result.exit_code == 0, result.output
    payload = json.loads((tmp_path / "result.json").read_text())
    assert payload["schema_version"] == 1
    assert payload["metrics"]["acc"] == 1.0
    consensus = read_matrix(tmp_path / "consensus.rmat")
    assert consensus.shape == (150, 3)
    with (tmp_path / "trace.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == payload["iterations"]
    objectives = [float(r["objective"]) for r in rows]
    assert objectives == payload["objective_trace"]


def test_run_deterministic_modulo_timings(dataset_dir, tmp_path):
    out = tmp_path / "out"
    runner = CliRunner()
    assert runner.invoke(main, _run_args(dataset_dir, out, ("--missing-rate", "0.4"))).exit_code == 0
    first = json.loads((out / "result.json").read_text())
    assert runner.invoke(main, _run_args(dataset_dir, out, ("--missing-rate", "0.4"))).exit_code == 0
    second = json.loads((out / "result.json").read_text())
    first.pop("timings")
    second.pop("timings")
    assert first == second


def test_run_missing_file_reports_stage_and_path(tmp_path):
    result = CliRunner().invoke(
        main,
        ["run", "--view", "no_such_view.rmat", "--anchors", "4", "--embed-dim", "2",
         "--clusters", "2", "--out", str(tmp_path)],
    )
    assert result.exit_code != 0
    assert "load" in result.output
    assert "no_such_view.rmat" in result.output


@pytest.mark.parametrize(
    "flag, value, field",
    [("--beta", "-1", "beta"), ("--beta", "nan", "beta"), ("--embed-dim", "0", "embed_dim"),
     ("--tol", "nan", "rel_tol")],
)
def test_run_invalid_config_reports_optimize_stage(dataset_dir, tmp_path, flag, value, field):
    result = CliRunner().invoke(main, _run_args(dataset_dir, tmp_path, (flag, value)))
    assert result.exit_code != 0
    assert f"optimize: {field}" in result.output
    # a CLI error, not an uncaught exception with a traceback
    assert isinstance(result.exception, SystemExit)


def test_run_with_mask_file(dataset_dir, tmp_path):
    mask_path = tmp_path / "mask.csv"
    CliRunner().invoke(
        main, ["mask", "--n", "150", "--views", "2", "--missing-rate", "0.4",
               "--seed", "3", "--out", str(mask_path)],
    )
    out = tmp_path / "out"
    result = CliRunner().invoke(
        main, _run_args(dataset_dir, out, ("--mask", str(mask_path))),
    )
    assert result.exit_code == 0, result.output
    payload = json.loads((out / "result.json").read_text())
    assert payload["metrics"]["acc"] >= 0.95


def test_run_rejects_mask_and_missing_rate_together(dataset_dir, tmp_path):
    result = CliRunner().invoke(
        main,
        _run_args(dataset_dir, tmp_path, ("--mask", "m.csv", "--missing-rate", "0.2")),
    )
    assert result.exit_code != 0
    assert "mask" in result.output


def test_sweep_beta_row_count(dataset_dir, tmp_path):
    result = CliRunner().invoke(
        main,
        [
            "sweep",
            "--view", str(dataset_dir / "view_0.rmat"),
            "--view", str(dataset_dir / "view_1.rmat"),
            "--labels", str(dataset_dir / "labels.txt"),
            "--anchors", "9", "--embed-dim", "3", "--clusters", "3",
            "--row-normalize", "--out", str(tmp_path),
            "--axis", "beta", "--values", "0.01,1,100", "--repeats", "2",
        ],
    )
    assert result.exit_code == 0, result.output
    with (tmp_path / "sweep.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 6
    assert all(r["status"] == "ok" for r in rows)
    assert {r["value"] for r in rows} == {"0.01", "1.0", "100.0"}


def test_sweep_missing_rate_axis(dataset_dir, tmp_path):
    values = ",".join(str(v) for v in np.round(np.arange(0.1, 1.0, 0.1), 1))
    result = CliRunner().invoke(
        main,
        [
            "sweep",
            "--view", str(dataset_dir / "view_0.rmat"),
            "--view", str(dataset_dir / "view_1.rmat"),
            "--labels", str(dataset_dir / "labels.txt"),
            "--anchors", "9", "--embed-dim", "3", "--clusters", "3", "--beta", "10",
            "--row-normalize", "--out", str(tmp_path),
            "--axis", "missing_rate", "--values", values, "--repeats", "1",
        ],
    )
    assert result.exit_code == 0, result.output
    with (tmp_path / "sweep.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 9


def test_sweep_invalid_anchor_values_become_warning_rows(dataset_dir, tmp_path):
    result = CliRunner().invoke(
        main,
        [
            "sweep",
            "--view", str(dataset_dir / "view_0.rmat"),
            "--view", str(dataset_dir / "view_1.rmat"),
            "--labels", str(dataset_dir / "labels.txt"),
            "--anchors", "9", "--embed-dim", "3", "--clusters", "3",
            "--row-normalize", "--out", str(tmp_path),
            "--axis", "anchors", "--values", "2,9", "--repeats", "1",
        ],
    )
    assert result.exit_code == 0, result.output
    with (tmp_path / "sweep.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    by_value = {r["value"]: r for r in rows}
    # anchors=2 cannot host a 3-dimensional embedding: warning row, no crash
    assert by_value["2"]["status"].startswith("error")
    assert by_value["9"]["status"] == "ok"


def test_sweep_malformed_values_name_axis_and_token(dataset_dir, tmp_path):
    result = CliRunner().invoke(
        main,
        [
            "sweep",
            "--view", str(dataset_dir / "view_0.rmat"),
            "--labels", str(dataset_dir / "labels.txt"),
            "--anchors", "9", "--embed-dim", "3", "--clusters", "3",
            "--out", str(tmp_path), "--axis", "anchors", "--values", "9,1.5", "--repeats", "1",
        ],
    )
    assert result.exit_code != 0
    assert isinstance(result.exception, SystemExit)
    assert "anchors" in result.output
    assert "1.5" in result.output
    assert not (tmp_path / "sweep.csv").exists()


def test_sweep_requires_labels(dataset_dir, tmp_path):
    result = CliRunner().invoke(
        main,
        [
            "sweep",
            "--view", str(dataset_dir / "view_0.rmat"),
            "--anchors", "9", "--embed-dim", "3", "--clusters", "3",
            "--out", str(tmp_path), "--axis", "beta", "--values", "1",
        ],
    )
    assert result.exit_code != 0
    assert "labels" in result.output


def test_ablate_covers_all_four_combinations(dataset_dir, tmp_path, monkeypatch):
    monkeypatch.setenv("RISE_THREADS", "1")
    result = CliRunner().invoke(
        main,
        [
            "ablate",
            "--view", str(dataset_dir / "view_0.rmat"),
            "--view", str(dataset_dir / "view_1.rmat"),
            "--labels", str(dataset_dir / "labels.txt"),
            "--missing-rate", "0.5",
            "--anchors", "9", "--embed-dim", "3", "--clusters", "3", "--beta", "10",
            "--row-normalize", "--out", str(tmp_path),
        ],
    )
    assert result.exit_code == 0, result.output
    with (tmp_path / "ablation.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    combos = {(r["completion"], r["anchor_strategy"]) for r in rows}
    assert combos == {
        ("second_order", "kmeans"), ("second_order", "random"),
        ("first_order", "kmeans"), ("first_order", "random"),
    }
    # identical seeds: every row was scored on the same mask and data
    for row in rows:
        assert float(row["acc"]) > 0.0


def test_ablate_failing_cells_become_error_rows(dataset_dir, tmp_path):
    result = CliRunner().invoke(
        main,
        [
            "ablate",
            "--view", str(dataset_dir / "view_0.rmat"),
            "--view", str(dataset_dir / "view_1.rmat"),
            "--labels", str(dataset_dir / "labels.txt"),
            "--anchors", "500", "--embed-dim", "3", "--clusters", "3",
            "--out", str(tmp_path),
        ],
    )
    assert result.exit_code == 0, result.output
    with (tmp_path / "ablation.csv").open() as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    assert reader.fieldnames[-1] == "status"
    assert len(rows) == 4
    assert all(r["status"].startswith("error: anchors:") for r in rows)


def test_run_accepts_already_incomplete_views(dataset_dir, tmp_path):
    from rise.dataset_io import write_matrix
    from rise.masking import generate_mask, mask_to_index_vectors, write_mask

    mask = generate_mask(150, 2, 0.4, seed=5)
    write_mask(mask, tmp_path / "mask.csv")
    for i, h in enumerate(mask_to_index_vectors(mask)):
        full = read_matrix(dataset_dir / f"view_{i}.rmat")
        write_matrix(full[h], tmp_path / f"view_{i}.rmat")
    out = tmp_path / "out"
    result = CliRunner().invoke(
        main,
        [
            "run",
            "--view", str(tmp_path / "view_0.rmat"),
            "--view", str(tmp_path / "view_1.rmat"),
            "--labels", str(dataset_dir / "labels.txt"),
            "--mask", str(tmp_path / "mask.csv"),
            "--anchors", "9", "--embed-dim", "3", "--clusters", "3",
            "--beta", "10", "--row-normalize", "--out", str(out),
        ],
    )
    assert result.exit_code == 0, result.output
    payload = json.loads((out / "result.json").read_text())
    assert payload["metrics"]["acc"] >= 0.95


def test_ablate_reproducible_modulo_seconds(dataset_dir, tmp_path, monkeypatch):
    monkeypatch.setenv("RISE_THREADS", "2")
    args = [
        "ablate",
        "--view", str(dataset_dir / "view_0.rmat"),
        "--view", str(dataset_dir / "view_1.rmat"),
        "--labels", str(dataset_dir / "labels.txt"),
        "--missing-rate", "0.4",
        "--anchors", "9", "--embed-dim", "3", "--clusters", "3", "--beta", "10",
        "--row-normalize", "--out", str(tmp_path),
    ]
    runner = CliRunner()
    assert runner.invoke(main, args).exit_code == 0
    with (tmp_path / "ablation.csv").open() as fh:
        first = [{k: v for k, v in r.items() if k != "seconds"} for r in csv.DictReader(fh)]
    assert runner.invoke(main, args).exit_code == 0
    with (tmp_path / "ablation.csv").open() as fh:
        second = [{k: v for k, v in r.items() if k != "seconds"} for r in csv.DictReader(fh)]
    assert first == second


@pytest.mark.parametrize("repeats", ["0", "-3"])
def test_sweep_rejects_non_positive_repeats(dataset_dir, tmp_path, repeats):
    result = CliRunner().invoke(
        main,
        [
            "sweep",
            "--view", str(dataset_dir / "view_0.rmat"),
            "--labels", str(dataset_dir / "labels.txt"),
            "--anchors", "9", "--embed-dim", "3", "--clusters", "3",
            "--out", str(tmp_path), "--axis", "beta", "--values", "1", "--repeats", repeats,
        ],
    )
    assert result.exit_code != 0
    assert "--repeats" in result.output
    assert not (tmp_path / "sweep.csv").exists()


@pytest.mark.parametrize("threads", ["abc", "-1"])
def test_malformed_rise_threads_is_rejected(dataset_dir, tmp_path, monkeypatch, threads):
    monkeypatch.setenv("RISE_THREADS", threads)
    result = CliRunner().invoke(
        main,
        [
            "sweep",
            "--view", str(dataset_dir / "view_0.rmat"),
            "--labels", str(dataset_dir / "labels.txt"),
            "--anchors", "9", "--embed-dim", "3", "--clusters", "3",
            "--out", str(tmp_path), "--axis", "beta", "--values", "1", "--repeats", "1",
        ],
    )
    assert result.exit_code != 0
    assert "RISE_THREADS" in result.output
    assert not (tmp_path / "sweep.csv").exists()


def test_eval_subcommand(tmp_path):
    pred = tmp_path / "pred.txt"
    truth = tmp_path / "truth.txt"
    pred.write_text("1\n1\n0\n0\n")
    truth.write_text("0\n0\n1\n1\n")
    result = CliRunner().invoke(main, ["eval", "--pred", str(pred), "--truth", str(truth)])
    assert result.exit_code == 0, result.output
    scores = json.loads(result.output)
    assert scores["acc"] == 1.0
    assert scores["nmi"] == 1.0
    assert scores["purity"] == 1.0
