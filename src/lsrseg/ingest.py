"""Dataset ingestion and preprocessing.

The single interchange format is CSV with one row per ambient dimension and
one column per sample, optionally followed by a ``#labels`` row carrying
integer ground-truth labels. Values are written with 17 significant digits
so write/read round trips are bit-exact. Both ways stream: ``write_csv``
formats and writes one row at a time, and ``load_csv`` feeds the file's
lines into one ``np.loadtxt`` call, so neither holds the file's text. Only
when that fails, or ``DataMatrix`` refuses its grid or label row, is the
file read whole and parsed cell by cell with ``float()``, which decides the
result and names the line and column of any error. Both paths hold labels
to ``datagen.label_array``.

``pca_project`` takes the top left singular vectors from ``eigh`` of the
smaller Gram matrix, or from a thin SVD when the kept spectrum is too
ill-conditioned for the Gram route. The Gram route's products
(``linalg.matmul``) and ``eigh`` (``linalg.sym_eigen``) run on scipy's BLAS
and LAPACK, as the rest of an ``lsr1``/``lsr2`` ``segment`` run does (see
``linalg``); the rare SVD fallback runs on numpy's.
"""

from __future__ import annotations

import itertools
import os
import tempfile
from collections.abc import Iterable, Iterator
from pathlib import Path

import numpy as np

from . import linalg
from .datagen import DataMatrix, label_array

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


class DimensionError(linalg.NumericError):
    """Requested projection dimension is out of range."""


def atomic_write_text(path, text: str | Iterable[str]) -> None:
    """Write `text`, one str or an iterable of str chunks, via a
    same-directory temp file and rename."""
    if isinstance(text, str):
        text = (text,)
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent or ".", prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.writelines(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_csv(path) -> DataMatrix:
    """Read a d x n sample matrix (and optional labels) from CSV.

    The file is streamed line by line into ``_parse_grid``; only when that
    declines is it read whole for the cell loop, which decides the result.
    Bytes that do not decode raise a ``ParseError`` at their line.
    """
    path = Path(path)
    with path.open() as handle:
        data = _parse_grid(handle)
    if data is not None:
        return data
    try:
        return _parse_cells(path.read_text().splitlines(), path)
    except UnicodeDecodeError as exc:  # the bad byte's line, as splitlines counts
        before = exc.object[: exc.start].decode(exc.encoding, errors="replace")
        byte, line = exc.object[exc.start], len((before + "?").splitlines())
        raise ParseError(f"cannot decode byte 0x{byte:02x} as {exc.encoding}", line=line) from None


def _split_lines(lines: Iterable[str]) -> Iterator[str]:
    """`lines` broken again wherever ``str.splitlines`` breaks them.

    Iterating a file breaks lines only at newlines, while the cell loop's
    ``splitlines`` also breaks at \\v, \\f, \\x1c-\\x1e, \\x85, U+2028 and
    U+2029, which ``np.loadtxt`` takes for whitespace inside a row. Most
    lines hold none of them and pass through uncopied.
    """
    for line in lines:
        if line.isascii() and not any(brk in line for brk in "\x0b\x0c\x1c\x1d\x1e"):
            yield line
        else:
            yield from line.splitlines()


def _parse_grid(lines: Iterable[str]) -> DataMatrix | None:
    """The numeric rows of `lines` (a list, or an open file read as it
    streams) in one ``np.loadtxt`` call, as a ``DataMatrix`` with the label
    row's cells, or None when loadtxt or ``DataMatrix`` refuses them: the
    cell loop then decides, so every error keeps its position.

    Whitespace-only lines are dropped, since loadtxt rejects them. The first
    ``#labels`` row ends the numeric rows; any non-blank line after it
    returns None.
    """
    tail: list[str] = []  # the label row, then the first non-blank line after it

    def numeric_rows():
        for line in _split_lines(lines):
            if not line or line.isspace():
                continue
            if tail or line.lstrip().startswith(LABEL_MARKER):
                tail.append(line)
                if len(tail) > 1:
                    return
            else:
                yield line

    rows = numeric_rows()
    try:
        first = next(rows, None)
        if first is None:  # loadtxt warns on empty input
            return None
        # comments=None: a '#' cell must fail here, not drop the rest of its line
        x = np.loadtxt(
            itertools.chain((first,), rows),
            delimiter=",", comments=None, dtype=np.float64, ndmin=2,
        )
        if len(tail) > 1:
            return None
        labels = None
        if tail:
            labels = np.asarray([c.strip() for c in tail[0].split(",")[1:]], dtype=float)
        return DataMatrix(x, labels=labels)
    except ValueError:  # UnicodeDecodeError too: load_csv reports its line
        return None


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
            try:
                labels = label_array(np.asarray(cells[1:], dtype=float))
            except ValueError:
                raise ParseError("label row contains a non-integer", line=lineno) from None
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


def write_csv(data, path) -> None:
    """Write a matrix (or DataMatrix, with its labels) to CSV with 17
    significant digits, one row at a time."""
    if isinstance(data, DataMatrix):
        mat, labels = data.x, data.labels
    else:
        mat, labels = np.asarray(data, dtype=np.float64), None
    row_format = ",".join(["%.17g"] * mat.shape[1]) + "\n"
    chunks = (row_format % tuple(row.tolist()) for row in mat)
    if labels is not None:
        label_row = LABEL_MARKER + "," + ",".join(str(int(v)) for v in labels) + "\n"
        chunks = itertools.chain(chunks, (label_row,))
    atomic_write_text(path, chunks)


def unit_columns(data: DataMatrix) -> DataMatrix:
    """Rescale each column to unit l2 norm (zero columns are left alone).

    The norms are ``linalg.column_norms``, so a column of huge or tiny
    entries is scaled to unit length too, not zeroed or left as it was."""
    norms = linalg.column_norms(data.x)
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
    so centering would bend it. A raw array is validated by
    ``linalg.as_matrix``, as ``solvers.data_array`` does.
    """
    is_dm = isinstance(data, DataMatrix)
    mat = data.x if is_dm else linalg.as_matrix(data, name="data matrix")
    d, n = mat.shape
    if not 1 <= target_dim <= min(d, n):
        raise DimensionError(
            f"target_dim must lie in [1, {min(d, n)}], got {target_dim}"
        )
    _, exponent = np.frexp(np.max(np.abs(mat)))
    scaled = np.ldexp(mat, -exponent)
    gram = linalg.matmul(scaled.T, scaled) if d > n else linalg.matmul(scaled, scaled.T)
    values, vectors = linalg.sym_eigen(gram)
    top = values[::-1][:target_dim]
    if top[-1] >= GRAM_MIN_RATIO * top[0]:
        basis = vectors[:, ::-1][:, :target_dim]
        if d > n:
            projected = np.ldexp(np.sqrt(top), exponent)[:, None] * basis.T
        else:
            projected = linalg.matmul(basis.T, mat)
    else:
        u, _, _ = np.linalg.svd(mat, full_matrices=False)
        projected = u[:, :target_dim].T @ mat
    return DataMatrix(projected, labels=data.labels if is_dm else None)
