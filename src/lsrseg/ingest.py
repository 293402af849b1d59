"""Dataset ingestion and preprocessing.

The single interchange format is CSV with one row per ambient dimension and
one column per sample, optionally followed by a ``#labels`` row carrying
integer ground-truth labels. Values are written with 17 significant digits
so write/read round trips are bit-exact. A file is parsed in one
``np.loadtxt`` call, and only when that fails, or finds a non-finite value
or a bad label row, cell by cell with ``float()``, which decides the result
and names the line and column of any error.

``pca_project`` takes the top left singular vectors from ``eigh`` of the
smaller Gram matrix, or from a thin SVD when the kept spectrum is too
ill-conditioned for the Gram route.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path

import numpy as np

from .datagen import DataMatrix

LABEL_MARKER = "#labels"

# pca_project's Gram route perturbs each eigenvalue by about eps * lambda_1,
# a relative error of about eps / (lambda_t / lambda_1) on the smallest one
# kept (~3e-11 measured at this ratio, against ~1e-14 for the SVD); below
# it the kept spectrum is left to the SVD.
GRAM_MIN_RATIO = 1e-6


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
    lines = path.read_text().splitlines()
    data = _parse_grid(lines)
    return data if data is not None else _parse_cells(lines, path)


def _parse_grid(lines: list[str]) -> DataMatrix | None:
    """The numeric rows in one ``np.loadtxt`` call, or None when the file is
    anything but a well-formed finite grid with an optional valid final label
    row: the cell loop then decides, so every error keeps its position."""
    rows = [line for line in lines if line.strip()]
    label_row = None
    if rows and rows[-1].strip().startswith(LABEL_MARKER):
        label_row = rows.pop()
    if not rows:  # loadtxt warns on empty input
        return None
    try:
        # comments=None: a '#' cell must fail here, not drop the rest of its line
        x = np.loadtxt(rows, delimiter=",", comments=None, dtype=np.float64, ndmin=2)
    except ValueError:
        return None
    if not np.isfinite(x).all():
        return None
    labels = None
    if label_row is not None:
        labels = _label_values([c.strip() for c in label_row.strip().split(",")[1:]])
        if labels is None or labels.shape[0] != x.shape[1]:
            return None
    return DataMatrix(x, labels=labels)


def _label_values(cells: list[str]) -> np.ndarray | None:
    """The labels after the marker, or None unless every one is a finite
    integral value that fits in int64."""
    try:
        values = np.asarray(cells, dtype=float)
    except ValueError:
        return None
    if not np.all((np.abs(values) < 2.0**63) & (values == np.trunc(values))):
        return None
    return values.astype(np.int64)


def _parse_cells(lines: list[str], path: Path) -> DataMatrix:
    """Parse cell by cell with float(), raising at the first bad line and cell."""
    rows: list[list[float]] = []
    labels: np.ndarray | None = None
    width: int | None = None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        cells = [c.strip() for c in line.split(",")]
        if cells[0].startswith(LABEL_MARKER):
            if labels is not None:
                raise ParseError("duplicate label row", line=lineno)
            labels = _label_values(cells[1:])
            if labels is None:
                raise ParseError("label row contains a non-integer", line=lineno)
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
    row_format = ",".join(["%.17g"] * mat.shape[1])
    lines = [row_format % tuple(row) for row in mat.tolist()]
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

    The projection comes from ``eigh`` of the smaller Gram matrix, X^T X
    when d > n (rows sqrt(Lambda_t) V_t^T) and X X^T otherwise (rows
    U_t^T X), of X scaled exactly by a power of two so the Gram matrix
    neither overflows nor underflows. That route squares the condition
    number, so when the kept spectrum spans more than GRAM_MIN_RATIO
    (lambda_t / lambda_1 below it) a thin SVD of X is used instead. Rows
    are fixed up to sign, which leaves the projected X^T X unchanged.

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
    _, exponent = np.frexp(np.max(np.abs(mat)))
    scaled = np.ldexp(mat, -exponent)
    values, vectors = np.linalg.eigh(scaled.T @ scaled if d > n else scaled @ scaled.T)
    top = values[::-1][:target_dim]
    if top[-1] >= GRAM_MIN_RATIO * top[0]:
        basis = vectors[:, ::-1][:, :target_dim]
        if d > n:
            projected = np.ldexp(np.sqrt(top), exponent)[:, None] * basis.T
        else:
            projected = basis.T @ mat
    else:
        u, _, _ = np.linalg.svd(mat, full_matrices=False)
        projected = u[:, :target_dim].T @ mat
    return DataMatrix(projected, labels=data.labels if is_dm else None)
