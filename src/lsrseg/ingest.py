"""Dataset ingestion and preprocessing.

The single interchange format is CSV with one row per ambient dimension and
one column per sample, optionally followed by a ``#labels`` row carrying
integer ground-truth labels. Values are written with 17 significant digits
so write/read round trips are bit-exact.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path

import numpy as np

from .datagen import DataMatrix

LABEL_MARKER = "#labels"


class ParseError(ValueError):
    """Malformed dataset file."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.line = line
        self.col = col
        where = ""
        if line is not None:
            where = f" at line {line}" + (f", column {col}" if col is not None else "")
        super().__init__(message + where)


class RaggedRows(ParseError):
    """Rows of the CSV grid have differing lengths."""


class NonFiniteEntry(ParseError):
    """A parsed value is NaN or infinite."""


class DimensionError(ValueError):
    """Requested projection dimension is out of range."""


def atomic_write_text(path, text: str) -> None:
    """Write via a same-directory temp file and rename."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent or ".", prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_csv(path) -> DataMatrix:
    """Read a d x n sample matrix (and optional labels) from CSV."""
    path = Path(path)
    text = path.read_text()
    rows: list[list[float]] = []
    labels: np.ndarray | None = None
    width: int | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        cells = [c.strip() for c in line.split(",")]
        if cells[0].startswith(LABEL_MARKER):
            if labels is not None:
                raise ParseError("duplicate label row", line=lineno)
            try:
                values = np.asarray(cells[1:], dtype=float)
            except ValueError:
                values = np.array([np.nan])
            # a label is a finite integral value that fits in int64
            if not np.all((np.abs(values) < 2.0**63) & (values == np.trunc(values))):
                raise ParseError("label row contains a non-integer", line=lineno)
            labels = values.astype(np.int64)
            continue
        if labels is not None:
            raise ParseError("label row must be the final row", line=lineno)
        if width is None:
            width = len(cells)
        elif len(cells) != width:
            raise RaggedRows(
                f"row has {len(cells)} cells, expected {width}", line=lineno
            )
        parsed = []
        for colno, cell in enumerate(cells, start=1):
            try:
                value = float(cell)
            except ValueError:
                raise ParseError(f"cannot parse {cell!r}", line=lineno, col=colno)
            if not np.isfinite(value):
                raise NonFiniteEntry(f"non-finite value {cell!r}", line=lineno, col=colno)
            parsed.append(value)
        rows.append(parsed)

    if not rows:
        raise ParseError(f"no numeric rows in {path}")
    x = np.asarray(rows, dtype=np.float64)
    n = x.shape[1]
    if labels is not None and labels.shape[0] != n:
        raise ParseError(f"label row has {labels.shape[0]} entries for {n} columns")
    return DataMatrix(x, labels=labels)


def write_csv(data, path, labels=None) -> None:
    """Write a matrix (or DataMatrix) to CSV with 17 significant digits."""
    if isinstance(data, DataMatrix):
        mat = data.x
        if labels is None:
            labels = data.labels
    else:
        mat = np.asarray(data, dtype=np.float64)
    lines = [",".join(format(v, ".17g") for v in row) for row in mat]
    if labels is not None:
        lines.append(LABEL_MARKER + "," + ",".join(str(int(v)) for v in labels))
    atomic_write_text(path, "\n".join(lines) + "\n")


def unit_columns(data: DataMatrix) -> DataMatrix:
    """Rescale each column to unit l2 norm (zero columns are left alone)."""
    norms = np.linalg.norm(data.x, axis=0)
    x = data.x / np.where(norms > 0, norms, 1.0)
    return DataMatrix(x, labels=data.labels)


def pca_project(data, target_dim: int) -> DataMatrix:
    """Project samples onto the top `target_dim` left singular vectors.

    No mean-centering: the subspace model is linear (through the origin),
    so centering would bend it.
    """
    is_dm = isinstance(data, DataMatrix)
    mat = data.x if is_dm else np.asarray(data, dtype=np.float64)
    d, n = mat.shape
    if not 1 <= target_dim <= min(d, n):
        raise DimensionError(
            f"target_dim must lie in [1, {min(d, n)}], got {target_dim}"
        )
    u, _, _ = np.linalg.svd(mat, full_matrices=False)
    projected = u[:, :target_dim].T @ mat
    return DataMatrix(projected, labels=data.labels if is_dm else None)
