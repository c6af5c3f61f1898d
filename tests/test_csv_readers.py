"""The one reader for numeric CSV tables: prediction dumps and labeled CSVs.

ingest_predictions and load_labeled_csv both go through shift._NumericCsv,
which reads a file's body with one np.loadtxt pass and falls back to one
line parser for anything that pass does not take. The reader owns the
empty-file, field-count and no-data-rows errors; each kind keeps its header,
row and blank-line rules (dumps skip blank lines, labeled CSVs refuse them).
These tests pin that both passes give byte-identical arrays, that every
fallback case gives the line parser's result or its ParseError (same message,
same line number) without raising a warning, and every message the line
parser names for each kind. The writers are pinned to the bytes of the
csv.writer loops they replaced, which are kept here as the reference.
"""

import csv
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from labelshift.bench import ingest_predictions, write_predictions
from labelshift.cli import main
from labelshift.core import LabeledSet, LabelShiftError, ParseError, PredictionMatrix
from labelshift.shift import _LABELED_CSV, _PREDICTION_DUMP, load_labeled_csv, save_labeled_csv

# The one reader's fast pass and line parser, for each kind.
_ingest_fast, _ingest_lines = _PREDICTION_DUMP.fast, _PREDICTION_DUMP.lines
_load_labeled_fast, _load_labeled_lines = _LABELED_CSV.fast, _LABELED_CSV.lines

FLOAT_FORMATS = {
    "repr": repr,
    "g17": "{:.17g}".format,
    "fixed4": "{:.4f}".format,
    "sci3": "{:.3e}".format,
    "padded": " {!r} ".format,
}
LABEL_FORMATS = {"plain": str, "plus": "+{}".format, "padded": " {} ".format}


def outcome(fn, *args):
    """What a reader returns as bytes, or the ParseError it raises, with any
    warning turned into an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            got = fn(*args)
        except ParseError as exc:
            return ("ParseError", str(exc))
    if isinstance(got, tuple):
        matrix, labels = got
        return (matrix.values.shape, matrix.values.tobytes(),
                None if labels is None else labels.tobytes())
    return (got.features.shape, got.features.tobytes(), got.labels.tobytes())


def fast_outcome(fn, *args):
    """The one-pass reader's result, or None where it defers to the line parser."""
    try:
        return outcome(fn, *args)
    except (ValueError, LabelShiftError):
        return None


def render(rows, eol, final_eol):
    return eol.join(rows) + (eol if final_eol else "")


def corrupt(rows, how, rng):
    """Break one data row so that the line parser rejects the file."""
    i = int(rng.integers(len(rows)))
    fields = rows[i].split(",")
    if how == "negative":
        fields[0] = "-0.25"
    elif how == "nan":
        fields[0] = "nan"
    elif how == "text":
        fields[-1] = "spam"
    elif how == "float_label":
        fields[-1] = "1.0"
    elif how == "negative_label":
        fields[-1] = "-1"
    elif how == "short":
        fields = fields[:-1]
    rows[i] = ",".join(fields)


# ---------------------------------------------------------------------------
# Property: the one-pass reader gives the line parser's arrays, or defers.


@given(
    k=st.sampled_from([2, 3, 50]),
    n=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
    labeled=st.booleans(),
    normalize=st.booleans(),
    fmt=st.sampled_from(sorted(FLOAT_FORMATS)),
    label_fmt=st.sampled_from(sorted(LABEL_FORMATS)),
    noise=st.sampled_from([0.0, 1e-5, 1e-2]),
    eol=st.sampled_from(["\n", "\r\n", "\r"]),
    final_eol=st.booleans(),
    blank_line=st.booleans(),
    damage=st.sampled_from([None, None, "negative", "nan", "text", "float_label",
                            "negative_label", "short"]),
)
@settings(max_examples=150, deadline=None)
def test_dump_reader_matches_line_parser(tmp_path_factory, k, n, seed, labeled, normalize,
                                         fmt, label_fmt, noise, eol, final_eol,
                                         blank_line, damage):
    rng = np.random.default_rng(seed)
    probs = rng.dirichlet(np.full(k, 0.5), size=n)
    probs *= 1.0 + noise * rng.uniform(-1.0, 1.0, size=(n, 1))
    if n > 1:
        probs[0, 1:] = 0.0
        probs[0, 0] = 1.0
    header = [f"p{j}" for j in range(k)] + (["y"] if labeled else [])
    rows = []
    for row in probs.tolist():
        fields = [FLOAT_FORMATS[fmt](v) for v in row]
        if labeled:
            fields.append(LABEL_FORMATS[label_fmt](int(rng.integers(k))))
        rows.append(",".join(fields))
    if damage is not None:
        corrupt(rows, damage, rng)
    if blank_line:
        rows.insert(int(rng.integers(len(rows) + 1)), "")
    path = tmp_path_factory.mktemp("dump") / "preds.csv"
    path.write_text(render([",".join(header)] + rows, eol, final_eol), newline="")

    reference = outcome(_ingest_lines, path, normalize)
    assert outcome(ingest_predictions, path, normalize) == reference
    fast = fast_outcome(_ingest_fast, path, normalize)
    if reference[0] == "ParseError":
        assert fast is None
    else:
        assert fast == reference


@given(
    d=st.integers(1, 20),
    n=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
    fmt=st.sampled_from(sorted(FLOAT_FORMATS)),
    label_fmt=st.sampled_from(sorted(LABEL_FORMATS)),
    scale=st.sampled_from([1.0, 1e-300, 1e300]),
    eol=st.sampled_from(["\n", "\r\n", "\r"]),
    final_eol=st.booleans(),
    blank_line=st.booleans(),
    damage=st.sampled_from([None, None, "nan", "text", "float_label", "negative_label",
                            "short"]),
)
@settings(max_examples=150, deadline=None)
def test_labeled_reader_matches_line_parser(tmp_path_factory, d, n, seed, fmt, label_fmt,
                                            scale, eol, final_eol, blank_line, damage):
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(n, d)) * scale
    rows = [
        ",".join([FLOAT_FORMATS[fmt](v) for v in row]
                 + [LABEL_FORMATS[label_fmt](int(rng.integers(5)))])
        for row in features.tolist()
    ]
    if damage is not None:
        corrupt(rows, damage, rng)
    if blank_line:
        rows.insert(int(rng.integers(len(rows) + 1)), "")
    header = ",".join([f"f{j}" for j in range(d)] + ["y"])
    path = tmp_path_factory.mktemp("pool") / "pool.csv"
    path.write_text(render([header] + rows, eol, final_eol), newline="")

    reference = outcome(_load_labeled_lines, path)
    assert outcome(load_labeled_csv, path) == reference
    fast = fast_outcome(_load_labeled_fast, path)
    if reference[0] == "ParseError":
        assert fast is None
    else:
        assert fast == reference


# ---------------------------------------------------------------------------
# The cases where numpy's parser and csv.reader/float()/int() part ways.


def same_as_lines(public, lines, path, *args):
    """Assert the public reader agrees with the line parser; return the result."""
    got = outcome(public, path, *args)
    assert got == outcome(lines, path, *args)
    return got


def write_file(path, text):
    """Write text as it is, or bytes, which may not be UTF-8."""
    if isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text, newline="")
    return path


def dump(tmp_path, text):
    return write_file(tmp_path / "preds.csv", text)


def pool(tmp_path, text):
    return write_file(tmp_path / "pool.csv", text)


class TestDumpTraps:
    def test_blank_lines_are_skipped(self, tmp_path):
        got = same_as_lines(ingest_predictions, _ingest_lines,
                            dump(tmp_path, "p0,p1\n\n0.25,0.75\n\n\n0.5,0.5\n\n"), False)
        plain = outcome(ingest_predictions, dump(tmp_path, "p0,p1\n0.25,0.75\n0.5,0.5\n"), False)
        assert got == plain

    @pytest.mark.parametrize("body", ["", "\n", "\n\n\r\n"])
    def test_empty_body_is_no_data_without_a_warning(self, tmp_path, body):
        path = dump(tmp_path, "p0,p1\n" + body)
        got = same_as_lines(ingest_predictions, _ingest_lines, path, False)
        assert got == ("ParseError", f"{path}: no data rows")

    def test_whitespace_line_is_a_field_count_error(self, tmp_path):
        path = dump(tmp_path, "p0,p1\n0.5,0.5\n  \n")
        got = same_as_lines(ingest_predictions, _ingest_lines, path, False)
        assert got == ("ParseError", f"{path}:3: expected 2 fields, got 1")

    def test_hash_is_not_a_comment(self, tmp_path):
        path = dump(tmp_path, "p0,p1\n0.5,0.5 # x\n")
        got = same_as_lines(ingest_predictions, _ingest_lines, path, False)
        assert got == ("ParseError", f"{path}:2: non-numeric probability")
        path = dump(tmp_path, "p0,p1,y\n0.5,0.5,1 # x\n")
        got = same_as_lines(ingest_predictions, _ingest_lines, path, False)
        assert got == ("ParseError", f"{path}:2: non-integer label")

    @pytest.mark.parametrize("text", [
        "p0,p1,y\n0.25,0.75,1\n",
        "p0,p1,y\n0.25,0.75,1",
        "p0,p1,y\r\n0.25,0.75,1\r\n",
        "p0,p1,y\r0.25,0.75,1\r",
        '"p0","p1","y"\n"0.25",0.75,"1"\n',
    ])
    def test_single_row_crlf_and_quoted_fields(self, tmp_path, text):
        got = same_as_lines(ingest_predictions, _ingest_lines, dump(tmp_path, text), False)
        expected = PredictionMatrix(np.array([[0.25, 0.75]]))
        assert got == ((1, 2), expected.values.tobytes(), np.array([1]).tobytes())

    def test_bare_carriage_returns_end_lines(self, tmp_path):
        path = dump(tmp_path, "p0,p1\r0.25,0.75\r0.5\r")
        got = same_as_lines(ingest_predictions, _ingest_lines, path, False)
        assert got == ("ParseError", f"{path}:3: expected 2 fields, got 1")

    def test_underscored_literal_reads_as_python_float(self, tmp_path):
        path = dump(tmp_path, "p0,p1\n1_0.5,0.5\n")
        got = same_as_lines(ingest_predictions, _ingest_lines, path, True)
        expected = PredictionMatrix(np.array([[10.5, 0.5]]) / 11.0)
        assert got == ((1, 2), expected.values.tobytes(), None)
        got = same_as_lines(ingest_predictions, _ingest_lines, path, False)
        assert got[1].startswith(f"{path}:2: probabilities sum to 11.0")

    def test_float_label_is_rejected(self, tmp_path):
        path = dump(tmp_path, "p0,p1,y\n0.5,0.5,1\n0.5,0.5,3.0\n")
        got = same_as_lines(ingest_predictions, _ingest_lines, path, False)
        assert got == ("ParseError", f"{path}:3: non-integer label")

    @pytest.mark.parametrize("label", ["9223372036854775808", "18446744073709551616"])
    def test_label_beyond_int64_is_rejected(self, tmp_path, label):
        path = dump(tmp_path, f"p0,p1,y\n0.5,0.5,1\n0.5,0.5,{label}\n")
        got = same_as_lines(ingest_predictions, _ingest_lines, path, False)
        assert got == ("ParseError", f"{path}:3: label out of range")

    def test_row_totals_sum_left_to_right(self, tmp_path):
        # Ten 0.1s sum to 0.9999999999999999 left to right but to 1.0 under
        # the compensated sum() of Python 3.12+.
        path = dump(tmp_path, ",".join(f"p{j}" for j in range(10)) + "\n"
                    + ",".join(["0.1"] * 10) + "\n")
        total = 0.0
        for _ in range(10):
            total += 0.1
        assert total != 1.0
        expected = PredictionMatrix(np.full((1, 10), 0.1) / total)
        got = same_as_lines(ingest_predictions, _ingest_lines, path, False)
        assert got == ((1, 10), expected.values.tobytes(), None)

    def test_valid_dump_takes_the_one_pass_reader(self, tmp_path, monkeypatch):
        def refuse(*args):
            raise AssertionError("line parser called")

        monkeypatch.setattr(_PREDICTION_DUMP, "lines", refuse)
        matrix, labels = ingest_predictions(dump(tmp_path, "p0,p1,y\n0.25,0.75,1\n"))
        assert matrix.values.tolist() == [[0.25, 0.75]] and labels.tolist() == [1]


class TestLabeledTraps:
    @pytest.mark.parametrize("text, line", [
        ("f0,y\n0.5,1\n\n0.25,0\n", 3),
        ("f0,y\n0.5,1\n\n", 3),
        ("f0,y\r\n0.5,1\r\n\r\n", 3),
        ("f0,y\r0.5,1\r\r0.25,0\r", 3),
        ("f0,y\n\n0.5,1\n", 2),
    ])
    def test_blank_line_is_rejected(self, tmp_path, text, line):
        path = pool(tmp_path, text)
        got = same_as_lines(load_labeled_csv, _load_labeled_lines, path)
        assert got == ("ParseError", f"{path}:{line}: expected 2 fields, got 0")

    def test_empty_body_is_no_data_without_a_warning(self, tmp_path):
        path = pool(tmp_path, "f0,y\n")
        got = same_as_lines(load_labeled_csv, _load_labeled_lines, path)
        assert got == ("ParseError", f"{path}: no data rows")

    def test_hash_is_not_a_comment(self, tmp_path):
        path = pool(tmp_path, "f0,y\n0.5,1 # x\n")
        got = same_as_lines(load_labeled_csv, _load_labeled_lines, path)
        assert got == ("ParseError",
                       f"{path}:2: invalid literal for int() with base 10: '1 # x'")

    @pytest.mark.parametrize("text", [
        "f0,f1,y\n0.5,-1.25,2\n",
        "f0,f1,y\n0.5,-1.25,2",
        "f0,f1,y\r\n0.5,-1.25,2\r\n",
        "f0,f1,y\r0.5,-1.25,2\r",
        'f0,"f1",y\n"0.5",-1.25,"2"\n',
    ])
    def test_single_row_crlf_and_quoted_fields(self, tmp_path, text):
        got = same_as_lines(load_labeled_csv, _load_labeled_lines, pool(tmp_path, text))
        assert got == ((1, 2), np.array([[0.5, -1.25]]).tobytes(), np.array([2]).tobytes())

    def test_underscored_literal_reads_as_python_float(self, tmp_path):
        got = same_as_lines(load_labeled_csv, _load_labeled_lines,
                            pool(tmp_path, "f0,y\n1_0.5,1\n"))
        assert got == ((1, 1), np.array([[10.5]]).tobytes(), np.array([1]).tobytes())

    def test_float_label_is_rejected(self, tmp_path):
        path = pool(tmp_path, "f0,y\n0.5,3.0\n")
        got = same_as_lines(load_labeled_csv, _load_labeled_lines, path)
        assert got == ("ParseError",
                       f"{path}:2: invalid literal for int() with base 10: '3.0'")

    @pytest.mark.parametrize("label", [
        "9223372036854775808", "18446744073709551616", "-9223372036854775809",
    ])
    def test_label_beyond_int64_is_rejected(self, tmp_path, label):
        # Without the check, 2**63 wrapped to -2**63 in the int64 cast.
        path = pool(tmp_path, f"f0,y\n0.5,1\n0.5,{label}\n")
        got = same_as_lines(load_labeled_csv, _load_labeled_lines, path)
        assert got == ("ParseError", f"{path}:3: label out of range")

    @pytest.mark.parametrize("row, message", [
        ("0.5,nan,1", "non-finite feature"),
        ("-inf,0.5,1", "non-finite feature"),
        ("1e999,0.5,1", "non-finite feature"),
        ("0.5,0.5,-1", "negative label"),
    ])
    def test_bad_value_names_its_line(self, tmp_path, row, message):
        path = pool(tmp_path, f"f0,f1,y\n0.5,1.5,1\n0.25,2.5,0\n{row}\n0.5,0.5,nan\n")
        got = same_as_lines(load_labeled_csv, _load_labeled_lines, path)
        assert got == ("ParseError", f"{path}:4: {message}")

    def test_valid_pool_takes_the_one_pass_reader(self, tmp_path, monkeypatch):
        def refuse(*args):
            raise AssertionError("line parser called")

        monkeypatch.setattr(_LABELED_CSV, "lines", refuse)
        data = load_labeled_csv(pool(tmp_path, "f0,f1,y\n0.5,-1.25,2\n"))
        assert data.features.tolist() == [[0.5, -1.25]] and data.labels.tolist() == [2]


# ---------------------------------------------------------------------------
# Every message a line parser names, through the public readers.

DUMP_FAULTS = {
    "empty-file": ("", None, "empty file"),
    "bad-header": ("q0,q1\n0.5,0.5\n", 1, "header must be p0,...,p{k-1} with optional "
                                            "trailing y"),
    "field-count": ("p0,p1\n0.5,0.5\n0.5,0.5,0.1\n", 3, "expected 2 fields, got 3"),
    "non-numeric": ("p0,p1\n0.5,0.5\n0.5,x\n", 3, "non-numeric probability"),
    "nan": ("p0,p1\n0.5,0.5\nnan,0.5\n", 3, "non-finite probability"),
    "inf": ("p0,p1\n0.5,0.5\n0.5,inf\n", 3, "non-finite probability"),
    "negative": ("p0,p1\n0.5,0.5\n1.5,-0.5\n", 3, "negative probability"),
    "zero-sum": ("p0,p1\n0.5,0.5\n0,0\n", 3, "probabilities sum to zero"),
    "sum-off": ("p0,p1\n0.5,0.5\n0.5,0.6\n", 3, "probabilities sum to 1.1; rerun with "
                                                 "normalization enabled to accept"),
    "float-label": ("p0,p1,y\n0.5,0.5,1\n0.5,0.5,1.0\n", 3, "non-integer label"),
    "negative-label": ("p0,p1,y\n0.5,0.5,1\n0.5,0.5,-1\n", 3, "negative label"),
    "label-beyond-int64": ("p0,p1,y\n0.5,0.5,1\n0.5,0.5,9223372036854775808\n", 3,
                           "label out of range"),
    "no-data-rows": ("p0,p1,y\n", None, "no data rows"),
    "overflow": ("p0,p1\n0.5,0.5\n1e308,1e308\n", 3, "probabilities sum to inf"),
    "field-limit": ("p0,p1\n0.5,0.5\n0.5," + "x" * 131073 + "\n", 3,
                    "field larger than field limit (131072)"),
    "not-utf8": (b"p0,p1\n0.5,0.5\n0.5,\xff\n", None,
                 "'utf-8' codec can't decode byte 0xff in position 18: invalid start byte"),
}
POOL_FAULTS = {
    "empty-file": ("", None, "empty file"),
    "no-y-column": ("f0,f1\n0.5,1\n", None, "header must be f0,...,f{d-1},y"),
    "misnamed-feature": ("f0,g1,y\n0.5,0.5,1\n", None,
                         "feature column 1 is named 'g1', expected f1"),
    "field-count": ("f0,y\n0.5,1\n0.5,1,2\n", 3, "expected 2 fields, got 3"),
    "blank-line": ("f0,y\n0.5,1\n\n0.5,1\n", 3, "expected 2 fields, got 0"),
    "bad-float": ("f0,y\n0.5,1\nx,1\n", 3, "could not convert string to float: 'x'"),
    "bad-int": ("f0,y\n0.5,1\n0.5,z\n", 3, "invalid literal for int() with base 10: 'z'"),
    "non-finite": ("f0,y\n0.5,1\ninf,1\n", 3, "non-finite feature"),
    "negative-label": ("f0,y\n0.5,1\n0.5,-1\n", 3, "negative label"),
    "label-out-of-range": ("f0,y\n0.5,1\n0.5,-9223372036854775809\n", 3,
                           "label out of range"),
    "no-data-rows": ("f0,y\n", None, "no data rows"),
    "field-limit": ("f0,y\n0.5,1\n" + "x" * 131073 + ",1\n", 3,
                    "field larger than field limit (131072)"),
    "not-utf8": (b"f0,y\n0.5,1\n\xff,1\n", None,
                 "'utf-8' codec can't decode byte 0xff in position 11: invalid start byte"),
    "zero-padded-feature": ("f0,f01,y\n0.5,0.5,1\n", None,
                            "feature column 1 is named 'f01', expected f1"),
    "newline-in-feature": ('f0,"f1\n",y\n0.5,0.5,1\n', None,
                           "feature column 1 is named 'f1\\n', expected f1"),
}


@pytest.mark.parametrize("kind, fault", [("dump", f) for f in DUMP_FAULTS]
                         + [("pool", f) for f in POOL_FAULTS])
def test_every_line_parser_message(tmp_path, kind, fault):
    text, line, message = (DUMP_FAULTS if kind == "dump" else POOL_FAULTS)[fault]
    path = (dump if kind == "dump" else pool)(tmp_path, text)
    read = ingest_predictions if kind == "dump" else load_labeled_csv
    place = str(path) if line is None else f"{path}:{line}"
    assert outcome(read, path) == ("ParseError", f"{place}: {message}")


def test_overflowing_sum_is_refused_with_normalize(tmp_path):
    path = dump(tmp_path, DUMP_FAULTS["overflow"][0])
    assert outcome(ingest_predictions, path, True) == (
        "ParseError", f"{path}:3: probabilities sum to inf")


@pytest.mark.parametrize("fault, flags", [pytest.param(f, [], id=f) for f in DUMP_FAULTS]
                         + [pytest.param("overflow", ["--normalize"], id="overflow-normalize")])
def test_estimate_names_every_dump_fault_in_one_line(tmp_path, capsys, fault, flags):
    source = tmp_path / "source.csv"
    write_predictions(source, PredictionMatrix(np.array([[0.75, 0.25], [0.25, 0.75]])),
                      labels=[0, 1])
    text, line, message = DUMP_FAULTS[fault]
    target = dump(tmp_path, text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["estimate", "--source", str(source), "--target", str(target), *flags])
    captured = capsys.readouterr()
    place = str(target) if line is None else f"{target}:{line}"
    assert (code, captured.out, captured.err) == (1, "", f"error: {place}: {message}\n")


def test_numpy_that_casts_float_labels_defers_labeled_bodies(tmp_path, monkeypatch):
    # numpy releases whose loadtxt casts "3.0" into an int column: a labeled
    # body must go to the line parser, which refuses such a label.
    monkeypatch.setattr("labelshift.shift._LOADTXT_STRICT_INTS", False)
    valid = dump(tmp_path, "p0,p1,y\n0.25,0.75,1\n0.5,0.5,0\n")
    assert fast_outcome(_ingest_fast, valid, False) is None
    got = same_as_lines(ingest_predictions, _ingest_lines, valid, False)
    assert got[2] == np.array([1, 0]).tobytes()
    path = dump(tmp_path, "p0,p1,y\n0.5,0.5,1\n0.5,0.5,3.0\n")
    got = same_as_lines(ingest_predictions, _ingest_lines, path, False)
    assert got == ("ParseError", f"{path}:3: non-integer label")
    # An unlabeled dump has no integer column, so it still takes one pass.
    plain = dump(tmp_path, "p0,p1\n0.25,0.75\n")
    assert fast_outcome(_ingest_fast, plain, False) == outcome(_ingest_lines, plain, False)

    valid = pool(tmp_path, "f0,f1,y\n0.5,-1.25,2\n0.25,1.5,0\n")
    assert fast_outcome(_load_labeled_fast, valid) is None
    got = same_as_lines(load_labeled_csv, _load_labeled_lines, valid)
    assert got == ((2, 2), np.array([[0.5, -1.25], [0.25, 1.5]]).tobytes(),
                   np.array([2, 0]).tobytes())
    path = pool(tmp_path, "f0,y\n0.5,1\n0.5,3.0\n")
    got = same_as_lines(load_labeled_csv, _load_labeled_lines, path)
    assert got == ("ParseError", f"{path}:3: invalid literal for int() with base 10: '3.0'")


# ---------------------------------------------------------------------------
# The writers: _NumericCsv.write gives the bytes of the csv.writer loops it
# replaced, kept here as the reference implementation.


def reference_save_labeled_csv(path, data):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"f{j}" for j in range(data.d)] + ["y"])
        for row, y in zip(data.features, data.labels):
            writer.writerow([repr(float(v)) for v in row] + [int(y)])


def reference_write_predictions(path, preds, labels=None):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        header = [f"p{j}" for j in range(preds.k)]
        if labels is not None:
            header.append("y")
        writer.writerow(header)
        for i, row in enumerate(preds.values):
            fields = [repr(float(v)) for v in row]
            if labels is not None:
                fields.append(int(labels[i]))
            writer.writerow(fields)


TINY = [-0.0, 0.0, 5e-324, 1e-310, 2.2250738585072014e-308]
FEATURES = st.one_of(st.sampled_from(TINY + [1e308, -1e308, -5e-324]),
                     st.floats(allow_nan=False, allow_infinity=False))
LABELS = st.one_of(st.sampled_from([0, 1, 2**31, 2**53 + 1, 2**63 - 1]),
                   st.integers(0, 2**63 - 1))


@given(data=st.data(), n=st.integers(1, 6), d=st.sampled_from([1, 2, 7]))
@settings(max_examples=150, deadline=None)
def test_labeled_writer_bytes_and_round_trip(tmp_path_factory, data, n, d):
    features = np.array(data.draw(st.lists(st.lists(FEATURES, min_size=d, max_size=d),
                                           min_size=n, max_size=n)), dtype=np.float64)
    labels = np.array(data.draw(st.lists(LABELS, min_size=n, max_size=n)), dtype=np.int64)
    labeled = LabeledSet(features, labels)
    directory = tmp_path_factory.mktemp("writer")
    save_labeled_csv(directory / "got.csv", labeled)
    reference_save_labeled_csv(directory / "want.csv", labeled)
    assert (directory / "got.csv").read_bytes() == (directory / "want.csv").read_bytes()
    back = load_labeled_csv(directory / "got.csv")
    assert back.features.tobytes() == features.tobytes()
    assert back.labels.tobytes() == labels.tobytes()


@given(data=st.data(), n=st.integers(1, 6), k=st.sampled_from([2, 3, 50]),
       label_dtype=st.sampled_from([None, np.int64, np.float64]))
@settings(max_examples=150, deadline=None)
def test_dump_writer_bytes(tmp_path_factory, data, n, k, label_dtype):
    # Rows of positive mass that sum to 1, with -0.0 and subnormal entries
    # placed after the division so that they are written as they are.
    entry = st.one_of(st.sampled_from(TINY), st.floats(1e-3, 1.0))
    rows = []
    for row in data.draw(st.lists(st.lists(entry, min_size=k, max_size=k),
                                  min_size=n, max_size=n)):
        if not any(v >= 1e-3 for v in row):
            row[0] = 1.0
        mass = sum(v for v in row if v >= 1e-3)
        rows.append([v / mass if v >= 1e-3 else v for v in row])
    preds = PredictionMatrix(np.array(rows))
    labels = None
    if label_dtype is not None:
        labels = np.array(data.draw(st.lists(LABELS, min_size=n, max_size=n)),
                          dtype=label_dtype)
    directory = tmp_path_factory.mktemp("writer")
    write_predictions(directory / "got.csv", preds, labels)
    reference_write_predictions(directory / "want.csv", preds, labels)
    assert (directory / "got.csv").read_bytes() == (directory / "want.csv").read_bytes()
