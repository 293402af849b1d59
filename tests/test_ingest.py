import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lsrseg import cli, datagen, ingest, linalg
from lsrseg.datagen import DataMatrix


class TestLoadCsv:
    def test_two_lines_matrix(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("1,2,0,0\n0,0,1,2\n")
        data = ingest.load_csv(path)
        assert np.array_equal(data.x, [[1.0, 2.0, 0.0, 0.0], [0.0, 0.0, 1.0, 2.0]])
        assert data.labels is None

    def test_labels_row(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("1,2,3\n4,5,6\n#labels,0,0,1\n")
        data = ingest.load_csv(path)
        assert np.array_equal(data.labels, [0, 0, 1])

    def test_integral_float_labels_load(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("1,2,3\n#labels,0,2.0,-1\n")
        assert np.array_equal(ingest.load_csv(path).labels, [0, 2, -1])

    @pytest.mark.parametrize("cell", ["1.5", "inf", "nan", "1e300"])
    def test_non_integer_label_is_parse_error(self, cell, tmp_path):
        # 1.5 used to load as 1, and inf/1e300 escaped as OverflowError.
        path = tmp_path / "x.csv"
        path.write_text(f"1,2,3\n4,5,6\n#labels,0,{cell},2\n")
        with pytest.raises(ingest.ParseError) as err:
            ingest.load_csv(path)
        assert err.value.line == 3

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ingest.ParseError):
            ingest.load_csv(path)

    def test_ragged_rows(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("1,2,3\n4,5\n")
        with pytest.raises(ingest.RaggedRows) as err:
            ingest.load_csv(path)
        assert err.value.line == 2

    def test_unparseable_cell_position(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2\n3,oops\n")
        with pytest.raises(ingest.ParseError) as err:
            ingest.load_csv(path)
        assert (err.value.line, err.value.col) == (2, 2)

    def test_non_finite_entry(self, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text("1,nan\n2,3\n")
        with pytest.raises(ingest.NonFiniteEntry):
            ingest.load_csv(path)

    def test_label_row_must_be_last(self, tmp_path):
        path = tmp_path / "mid.csv"
        path.write_text("1,2\n#labels,0,1\n3,4\n")
        with pytest.raises(ingest.ParseError):
            ingest.load_csv(path)

    def test_label_count_mismatch(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("1,2,3\n#labels,0,1\n")
        with pytest.raises(ingest.ParseError):
            ingest.load_csv(path)

    @pytest.mark.parametrize("raw, line", [
        (b"1,2\n3,\xff\n", 2),
        (b"\xfe,2\n3,4\n", 1),
        (b"1,2\r\n\r\n3,4\r\n\xff\n", 4),
        (b"1,2\x0c3,4\n5,\xe2\x82\n", 3),  # \x0c ends a line for splitlines
    ], ids=["second_line", "first_byte", "crlf_blank_line", "form_feed_truncated"])
    def test_undecodable_bytes_name_their_line(self, raw, line, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(raw)
        with path.open() as handle:
            assert ingest._parse_grid(handle) is None
        with pytest.raises(ingest.ParseError) as err:
            ingest.load_csv(path)
        assert err.value.line == line and "cannot decode byte" in str(err.value)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            ingest.load_csv(tmp_path / "nope.csv")


def parse_outcome(parse):
    """A parse's DataMatrix, or its exception class and position."""
    try:
        data = parse()
    except ingest.ParseError as err:
        return type(err), err.line, err.col
    return data


def same_outcome(a, b):
    if isinstance(a, tuple) or isinstance(b, tuple):
        return a == b
    labels_equal = (a.labels is None and b.labels is None) or (
        a.labels is not None and b.labels is not None and np.array_equal(a.labels, b.labels)
    )
    return a.x.shape == b.x.shape and np.array_equal(a.x, b.x) and labels_equal


# Inputs where np.loadtxt and float() may disagree, and every shape the
# label rules care about. The grid ones must take the one-call path.
PARITY_INPUTS = {
    "underscore": "1,1_0\n2,3\n",
    "padded": " 1.5 ,2\n3, 4 \n",
    "tab": "1\t,2\n3,\t4\n",
    "nan": "1,2\n3,nan\n",
    "inf": "1,inf\n3,4\n",
    "overflow": "1,2\n1e400,4\n",
    "hex": "1,0x1p3\n3,4\n",
    "arabic_indic_digit": "\u0661,2\n3,4\n",
    "trailing_comma": "1,2,\n3,4,\n",
    "comment_line": "1,2\n# note\n3,4\n",
    "trailing_comment": "1,2 # x\n3,4\n",
    "whitespace_lines": "1,2\n   \n\t\n3,4\n  \n",
    "crlf": "1,2\r\n3,4\r\n#labels,0,1\r\n",
    "labels_not_last": "1,2\n#labels,0,1\n3,4\n",
    "duplicate_labels": "1,2\n#labels,0,1\n#labels,0,1\n",
    "label_count_mismatch": "1,2,3\n#labels,0,1\n",
    "one_row": "1,2,3\n#labels,0,1,1\n",
    "one_column": "1\n2\n3\n",
    "bad_label": "1\n2\n3\n#labels,4,\n",
    "one_cell_labelled": "7\n#labels,4\n",
    "empty": "",
    "lone_cr_labels": "1,2\r3,4\r#labels,0,1\r",
    "labels_then_form_feed": "1,2\n#labels,0,1\n\x0c\n",
}
# Breaks of str.splitlines that iterating a file does not break at, and that
# np.loadtxt reads as whitespace: the streamed parse must split at them too.
SPLITLINES_BREAKS = {"vt": "\x0b", "ff": "\x0c", "fs": "\x1c", "nel": "\x85",
                     "line_sep": "\u2028"}
for _key, _brk in SPLITLINES_BREAKS.items():
    PARITY_INPUTS[f"{_key}_before_comma"] = f"1{_brk},2\n3,4\n"
    PARITY_INPUTS[f"{_key}_as_line_end"] = f"1,2{_brk}3,4\n"
    PARITY_INPUTS[f"{_key}_at_line_end"] = f"1,2{_brk}\n3,4\n"
    PARITY_INPUTS[f"{_key}_in_label_row"] = f"1,2\n#labels,0{_brk},1\n"
GRID_INPUTS = {"padded", "tab", "whitespace_lines", "crlf", "one_row", "one_column",
               "one_cell_labelled", "lone_cr_labels", "labels_then_form_feed"}
GRID_INPUTS |= {f"{key}_{where}" for key in SPLITLINES_BREAKS
                for where in ("as_line_end", "at_line_end")}


@pytest.mark.parametrize("name", sorted(PARITY_INPUTS))
def test_fast_path_matches_cell_loop(name, tmp_path):
    path = tmp_path / "x.csv"
    path.write_bytes(PARITY_INPUTS[name].encode())
    lines = path.read_text().splitlines()
    expected = parse_outcome(lambda: ingest._parse_cells(lines, path))
    assert same_outcome(parse_outcome(lambda: ingest.load_csv(path)), expected)
    fast = ingest._parse_grid(lines)
    assert (fast is not None) == (name in GRID_INPUTS)
    if fast is not None:
        assert same_outcome(fast, expected)
    with path.open() as handle:
        streamed = ingest._parse_grid(handle)
    assert (streamed is not None) == (fast is not None)
    if streamed is not None:
        assert same_outcome(streamed, expected)


class TestWriteCsv:
    def test_round_trip_generated_dataset(self, tmp_path):
        spec = datagen.SubspaceSpec(
            ambient_dim=7,
            subspace_dims=(2, 3),
            samples_per_subspace=(5, 6),
            noise_sigma=0.1,
            seed=13,
        )
        data, _ = datagen.generate(spec)
        path = tmp_path / "out.csv"
        ingest.write_csv(data, path)
        loaded = ingest.load_csv(path)
        assert np.array_equal(loaded.x, data.x)
        assert np.array_equal(loaded.labels, data.labels)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_round_trip_bit_exact(self, seed, tmp_path_factory):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((4, 6)) * 10.0 ** rng.integers(-8, 8)
        path = tmp_path_factory.mktemp("rt") / "x.csv"
        ingest.write_csv(x, path)
        assert np.array_equal(ingest.load_csv(path).x, x)

    def test_plain_array_with_labels(self, tmp_path):
        path = tmp_path / "x.csv"
        ingest.write_csv(DataMatrix(np.eye(2), labels=[1, 0]), path)
        loaded = ingest.load_csv(path)
        assert np.array_equal(loaded.labels, [1, 0])

    def test_bytes_match_per_cell_format(self, tmp_path):
        x = np.array([
            [-0.0, 5e-324, 1e300, -1e300],
            [1e-300, -1e-300, 3.0, -12.0],
            [0.1, 1 / 3, 2 / 3, 1234567.8901234567],
        ])
        path = tmp_path / "x.csv"
        ingest.write_csv(DataMatrix(x, labels=[0, 1, 1, 2]), path)
        expected = [",".join(format(v, ".17g") for v in row) for row in x] + ["#labels,0,1,1,2"]
        assert path.read_bytes() == ("\n".join(expected) + "\n").encode()

    @staticmethod
    def joined_bytes(data):
        """The file write_csv wrote when it joined every row in memory."""
        if isinstance(data, DataMatrix):
            mat, labels = data.x, data.labels
        else:
            mat, labels = np.asarray(data, dtype=np.float64), None
        row_format = ",".join(["%.17g"] * mat.shape[1])
        lines = [row_format % tuple(row) for row in mat.tolist()]
        if labels is not None:
            lines.append(ingest.LABEL_MARKER + "," + ",".join(str(int(v)) for v in labels))
        return ("\n".join(lines) + "\n").encode()

    EXTREMES = np.array([[-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308]])
    GRID = np.arange(24.0).reshape(4, 6) / 7.0 - 1.5

    @pytest.mark.parametrize("case", [
        "extremes", "extremes_labelled", "one_row", "one_row_labelled", "one_column",
        "one_column_labelled", "fortran", "strided", "strided_labelled",
    ])
    def test_bytes_match_joined_format(self, case, tmp_path):
        data = {
            "extremes": self.EXTREMES,
            "extremes_labelled": DataMatrix(self.EXTREMES, labels=[0, -1, 2, 3]),
            "one_row": self.GRID[:1],
            "one_row_labelled": DataMatrix(self.GRID[:1], labels=[5, 4, 3, 2, 1, 0]),
            "one_column": self.GRID[:, :1],
            "one_column_labelled": DataMatrix(self.GRID[:, :1], labels=[7]),
            "fortran": np.asfortranarray(self.GRID),
            "strided": self.GRID[::2, ::3],
            "strided_labelled": DataMatrix(self.GRID[::-1, 1::2], labels=[0, 1, 0]),
        }[case]
        path = tmp_path / "x.csv"
        ingest.write_csv(data, path)
        assert path.read_bytes() == self.joined_bytes(data)


class TestPeakMemory:
    """Bytes held at once by a CSV write or read, traced by tracemalloc.

    write_csv formats and writes one row at a time, so its peak is a few
    rows' text and float objects (5.0 rows here; 900 when it joined the
    whole file in memory). load_csv streams the file's lines into one
    np.loadtxt, so it holds the parsed array and loadtxt's growth slack
    (1.15 here; 5.1 with the whole text and its line list).
    """

    ROWS, COLS = 300, 400

    @staticmethod
    def traced_peak(func, *args):
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            func(*args)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak - start

    @pytest.fixture(scope="class")
    def labelled(self):
        x = np.random.default_rng(0).standard_normal((self.ROWS, self.COLS))
        return DataMatrix(x, labels=np.arange(self.COLS) % 5)

    def test_write_holds_a_few_rows(self, labelled, tmp_path):
        path = tmp_path / "x.csv"
        peak = self.traced_peak(ingest.write_csv, labelled, path)
        row_text = len(path.read_text().splitlines()[0])
        assert peak <= 10 * row_text

    def test_load_holds_about_the_array(self, labelled, tmp_path):
        path = tmp_path / "x.csv"
        ingest.write_csv(labelled, path)
        assert self.traced_peak(ingest.load_csv, path) <= 1.5 * labelled.x.nbytes


def write_json(path, payload):
    path.write_text(json.dumps(payload, indent=2))
    return str(path)


class TestConfigInput:
    """A bare --config file names the CSV and how to preprocess it; the
    JSON dataset manifest it replaced is no input format any more."""

    def test_pca_dim_beyond_data_is_numeric_error(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("1,2\n3,4\n")
        config = write_json(tmp_path / "run.json", {"input": str(path), "pca_dim": 5, "k": 1})
        assert cli.main(["segment", "--config", config]) == cli.EXIT_NUMERIC

    def test_unlabelled_input_takes_k_from_config(self, tmp_path):
        path = tmp_path / "x.csv"
        ingest.write_csv(np.random.default_rng(0).standard_normal((3, 8)), path)
        config = write_json(tmp_path / "run.json", {"input": str(path)})
        assert cli.main(["segment", "--config", config]) == cli.EXIT_CONFIG
        config = write_json(tmp_path / "run.json", {"input": str(path), "k": 2})
        assert cli.main(["segment", "--config", config]) == cli.EXIT_OK

    def test_manifest_as_input_is_parse_error(self, tmp_path):
        manifest = write_json(tmp_path / "m.json", {"path": "data.csv", "expected_k": 3})
        assert cli.main(["segment", "--input", manifest]) == cli.EXIT_IO

    def test_manifest_as_config_is_config_error(self, tmp_path, capsys):
        # its keys are no options: the run has no input
        manifest = write_json(tmp_path / "m.json", {
            "path": "data.csv", "format": "csv_with_labels", "expected_k": 3, "pca_dim": 12,
        })
        assert cli.main(["segment", "--config", manifest]) == cli.EXIT_CONFIG
        assert "--input is required" in capsys.readouterr().err


class TestPcaProject:
    def test_full_dimension_preserves_gram(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((6, 10))
        projected = ingest.pca_project(x, 6)
        assert np.max(np.abs(projected.x.T @ projected.x - x.T @ x)) <= 1e-8

    def test_low_rank_data_lossless(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((8, 2)) @ rng.standard_normal((2, 12))
        projected = ingest.pca_project(x, 2)
        assert projected.x.shape == (2, 12)
        assert np.max(np.abs(projected.x.T @ projected.x - x.T @ x)) <= 1e-8

    def test_captured_energy_matches_svd(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((50, 100))
        projected = ingest.pca_project(x, 12)
        s = np.linalg.svd(x, compute_uv=False)
        expected = np.sum(s[:12] ** 2) / np.sum(s**2)
        observed = np.linalg.norm(projected.x) ** 2 / np.linalg.norm(x) ** 2
        assert observed == pytest.approx(expected, abs=1e-8)

    def test_idempotent_up_to_rotation(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((9, 15))
        once = ingest.pca_project(x, 4)
        twice = ingest.pca_project(once, 4)
        assert np.max(np.abs(twice.x.T @ twice.x - once.x.T @ once.x)) <= 1e-8

    def test_labels_preserved(self):
        data = DataMatrix(np.random.default_rng(4).standard_normal((5, 8)),
                          labels=[0, 0, 0, 0, 1, 1, 1, 1])
        projected = ingest.pca_project(data, 3)
        assert np.array_equal(projected.labels, data.labels)

    def test_dimension_error(self):
        with pytest.raises(ingest.DimensionError):
            ingest.pca_project(np.eye(4), 5)

    @pytest.mark.parametrize("data, error", [
        (np.ones(6), linalg.DimensionMismatch),
        (np.array([[1.0, np.nan], [0.0, 1.0]]), linalg.NonFiniteMatrix),
    ], ids=["one_d", "nan"])
    def test_raw_array_is_validated_at_entry(self, monkeypatch, data, error):
        # the eigensolver checks nothing: a bad array must stop before it
        def refuse(*args, **kwargs):
            raise AssertionError("an unchecked array reached sym_eigen")

        monkeypatch.setattr(linalg, "sym_eigen", refuse)
        with pytest.raises(error):
            ingest.pca_project(data, 1)

    @pytest.mark.parametrize("shape", [(40, 15), (15, 40)])
    def test_gram_route_matches_svd(self, shape):
        x = np.random.default_rng(5).standard_normal(shape)
        u, _, _ = np.linalg.svd(x, full_matrices=False)
        reference = u[:, :6].T @ x
        projected = ingest.pca_project(x, 6).x
        gram = reference.T @ reference
        assert np.max(np.abs(projected.T @ projected - gram)) <= 1e-12 * np.max(np.abs(gram))

    @pytest.mark.parametrize("ratio, svd_calls", [(1e-8, 1), (1e-4, 0)])
    @pytest.mark.parametrize("shape", [(40, 15), (15, 40)])
    def test_ill_conditioned_spectrum_takes_svd(self, shape, ratio, svd_calls, monkeypatch):
        # kept spectrum lambda_1 .. lambda_5 spans `ratio`; the rest is smaller
        rng = np.random.default_rng(6)
        m = min(shape)
        sigma = np.concatenate([np.geomspace(1.0, np.sqrt(ratio), 5),
                                np.geomspace(0.5, 1e-3, m - 5) * np.sqrt(ratio)])
        u, _ = np.linalg.qr(rng.standard_normal((shape[0], m)))
        v, _ = np.linalg.qr(rng.standard_normal((shape[1], m)))
        x = (u * sigma) @ v.T
        svd = np.linalg.svd
        calls = []

        def counted_svd(*args, **kwargs):
            calls.append(args)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted_svd)
        assert (ratio < ingest.GRAM_MIN_RATIO) == bool(svd_calls)
        projected = ingest.pca_project(x, 5).x
        assert len(calls) == svd_calls
        if svd_calls:
            left, _, _ = svd(x, full_matrices=False)
            assert np.array_equal(projected, left[:, :5].T @ x)

    @pytest.mark.parametrize("scale", [1e-200, 1e200])
    @pytest.mark.parametrize("shape", [(40, 15), (15, 40)])
    def test_extreme_scales(self, shape, scale):
        # the Gram matrix of X itself would underflow or overflow
        x = np.random.default_rng(7).standard_normal(shape)
        unit = ingest.pca_project(x, 6).x
        projected = ingest.pca_project(scale * x, 6).x / scale
        gram = unit.T @ unit
        assert np.max(np.abs(projected.T @ projected - gram)) <= 1e-12 * np.max(np.abs(gram))


class TestUnitColumns:
    def test_normalizes(self):
        data = DataMatrix(np.array([[3.0, 0.0], [4.0, 2.0]]))
        out = ingest.unit_columns(data)
        assert np.allclose(np.linalg.norm(out.x, axis=0), 1.0)

    def test_zero_column_untouched(self):
        data = DataMatrix(np.array([[3.0, 0.0], [4.0, 0.0]]))
        out = ingest.unit_columns(data)
        assert np.array_equal(out.x[:, 1], [0.0, 0.0])

    @pytest.mark.parametrize("x, expected", [
        # sum x^2 overflows: the 1e300 column was zeroed
        ([[1e300, 3.0], [1.0, 4.0]], [[1.0, 0.6], [1e-300, 0.8]]),
        # sum x^2 underflows: the column came back unchanged
        ([[1e-170, 3.0], [1e-170, 4.0]], [[0.5**0.5, 0.6], [0.5**0.5, 0.8]]),
    ], ids=["huge", "tiny"])
    def test_huge_and_tiny_columns_reach_unit_length(self, x, expected):
        out = ingest.unit_columns(DataMatrix(np.array(x)))
        assert np.allclose(out.x, expected, rtol=1e-15, atol=0.0)
