"""Reading and writing feature matrices, labels, and dataset containers.

File formats:

* RMAT (canonical binary): magic bytes ``RMAT``, one version byte (= 1),
  row count and column count as unsigned 64-bit little-endian integers,
  then rows*cols IEEE-754 float64 values, little-endian, row-major.
* CSV: comma-delimited floats, ``.`` decimal separator, no header row.
  Accepted on read for interoperability; writes always emit RMAT.
* Labels: plain text, one integer per line. Ids are remapped to a
  contiguous 0-based range in order of first occurrence.

All matrices are sample-major: row ``r`` holds the features of sample ``r``.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

RMAT_MAGIC = b"RMAT"
RMAT_VERSION = 1
_HEADER_TAIL = struct.Struct("<BQQ")  # version, rows, cols (after the magic)


class MatrixFormatError(ValueError):
    """Unrecognized or malformed matrix file structure."""


class MatrixLengthError(ValueError):
    """RMAT payload size disagrees with the header."""


class MatrixDataError(ValueError):
    """Matrix contains NaN or infinite entries."""


class LabelParseError(ValueError):
    """Label file contains a non-integer token."""


@dataclass
class MultiViewDataset:
    """Per-view feature matrices plus the sample indices each view covers.

    ``views[i]`` holds one row per sample available in view ``i``;
    ``index_vectors[i]`` maps those rows (in order) to positions in the
    full sample range ``[0, n_total)``. Every sample must be covered by
    at least one view.
    """

    views: list[np.ndarray]
    index_vectors: list[np.ndarray]
    n_total: int
    labels: np.ndarray | None = None

    def __post_init__(self) -> None:
        if len(self.views) == 0:
            raise ValueError("dataset needs at least one view")
        if len(self.views) != len(self.index_vectors):
            raise ValueError("views and index_vectors lengths differ")
        covered = np.zeros(self.n_total, dtype=bool)
        for i, (view, idx) in enumerate(zip(self.views, self.index_vectors)):
            if view.ndim != 2:
                raise ValueError(f"view {i} is not a 2-D matrix")
            if view.shape[0] != idx.shape[0]:
                raise ValueError(f"view {i} has {view.shape[0]} rows but {idx.shape[0]} indices")
            if idx.size:
                if idx.min() < 0 or idx.max() >= self.n_total:
                    raise ValueError(f"view {i} index out of range")
                if np.any(np.diff(idx) <= 0):
                    raise ValueError(f"view {i} indices not strictly increasing")
                covered[idx] = True
        if not covered.all():
            raise ValueError("some samples are available in no view")
        if self.labels is not None and len(self.labels) != self.n_total:
            raise ValueError("labels length does not match n_total")

    @property
    def n_views(self) -> int:
        return len(self.views)


def read_matrix(path: str | Path) -> np.ndarray:
    """Load a matrix from an RMAT or CSV file (detected by magic bytes)."""
    path = Path(path)
    with path.open("rb") as fh:
        magic = fh.read(4)
        if magic == RMAT_MAGIC:
            return _read_rmat_body(fh, path)
    return _read_csv(path)


def _read_rmat_body(fh, path: Path) -> np.ndarray:
    head = fh.read(_HEADER_TAIL.size)
    if len(head) < _HEADER_TAIL.size:
        raise MatrixFormatError(f"{path}: truncated RMAT header")
    version, rows, cols = _HEADER_TAIL.unpack(head)
    if version != RMAT_VERSION:
        raise MatrixFormatError(f"{path}: unsupported RMAT version {version}")
    expected = rows * cols * 8
    found = os.fstat(fh.fileno()).st_size - fh.tell()
    if found != expected:
        raise MatrixLengthError(
            f"{path}: expected {expected} payload bytes for {rows}x{cols}, found {found}"
        )
    data = np.fromfile(fh, dtype="<f8", count=rows * cols).reshape(rows, cols)
    if data.size and not np.all(np.isfinite(data)):
        raise MatrixDataError(f"{path}: non-finite value in payload")
    return data


def _read_csv(path: Path) -> np.ndarray:
    try:
        data = np.loadtxt(path, delimiter=",", dtype=np.float64, ndmin=2)
    except ValueError as exc:
        raise MatrixFormatError(f"{path}: {exc}") from exc
    if data.size == 0:
        raise MatrixFormatError(f"{path}: empty or unrecognized matrix file")
    if not np.all(np.isfinite(data)):
        raise MatrixDataError(f"{path}: non-finite value in CSV")
    return data


def write_matrix(matrix: np.ndarray, path: str | Path) -> None:
    """Write a matrix as RMAT. ``read_matrix`` recovers it bit-exactly."""
    arr = np.ascontiguousarray(matrix, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {arr.shape}")
    if arr.size and not np.all(np.isfinite(arr)):
        raise MatrixDataError("refusing to write non-finite values")
    path = Path(path)
    with path.open("wb") as fh:
        fh.write(RMAT_MAGIC)
        fh.write(_HEADER_TAIL.pack(RMAT_VERSION, arr.shape[0], arr.shape[1]))
        fh.write(arr.astype("<f8").tobytes(order="C"))


def canonicalize_labels(labels: np.ndarray) -> np.ndarray:
    """Remap arbitrary integer ids to 0-based ids by first occurrence."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size == 0:
        return labels.copy()
    uniq, first_idx, inverse = np.unique(labels, return_index=True, return_inverse=True)
    order = np.argsort(first_idx, kind="stable")
    rank = np.empty(len(uniq), dtype=np.int64)
    rank[order] = np.arange(len(uniq))
    return rank[inverse]


def read_labels(path: str | Path) -> np.ndarray:
    """Load newline-delimited integer labels, canonicalized to 0-based ids."""
    path = Path(path)
    raw: list[int] = []
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        token = line.strip()
        if not token:
            continue
        try:
            raw.append(int(token))
        except ValueError as exc:
            raise LabelParseError(f"{path}: line {lineno}: not an integer: {token!r}") from exc
    return canonicalize_labels(np.asarray(raw, dtype=np.int64))


def write_labels(labels: np.ndarray, path: str | Path) -> None:
    labels = np.asarray(labels, dtype=np.int64)
    text = "\n".join(str(int(v)) for v in labels)
    Path(path).write_text(text + "\n" if text else "")
