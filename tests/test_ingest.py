import contextlib
import csv
import dataclasses
import io
import json
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from ivda import (
    MicroRecord,
    aggregate,
    fit_kde,
    latent_to_dict,
    load_interval_csv,
    read_microdata_csv,
    read_scaled_csv,
    read_summary_csv,
    write_interval_csv,
    write_scaled_csv,
)
from ivda._cmd_measures import _write_matrix_csv
from ivda._cmd_tools import _read_matrix_csv
from ivda.cli import main
from ivda.datasets import credit_card_intervals
from ivda.errors import DataValidationError, DomainError, IvdaError, NumericFailure
from ivda.ingest import ScaledSample
from ivda.interval import IntervalFrame


def records_for_cell(values, key=("g1",), variable="x"):
    return [MicroRecord(key=key, variable=variable, value=v) for v in values]


def test_record_validation():
    with pytest.raises(DomainError):
        MicroRecord(key=(), variable="x", value=1.0)
    with pytest.raises(DomainError):
        MicroRecord(key=("g",), variable="x", value=float("nan"))


@pytest.mark.parametrize("key", ["AA", ["AA"]], ids=["str", "list"])
def test_record_refuses_a_key_that_is_not_a_tuple(key):
    # a str key used to be split into its characters, ('A', 'A')
    with pytest.raises(DomainError, match="key must be a non-empty tuple of non-empty strings"):
        MicroRecord(key=key, variable="x", value=1.0)


def test_record_is_an_immutable_value():
    record = MicroRecord(key=("1", 2), variable="x", value=1.5)
    assert (record.key, record.variable, record.value) == (("1", "2"), "x", 1.5)
    assert record == MicroRecord(("1", "2"), "x", 1.5)
    assert hash(record) == hash(MicroRecord(("1", "2"), "x", 1.5))
    assert record != MicroRecord(("1", "2"), "x", 2.5)
    with pytest.raises(dataclasses.FrozenInstanceError):
        record.value = 2.0


def test_aggregate_trim_zero_is_min_max():
    result = aggregate(records_for_cell([1.0, 2.0, 3.0]))
    frame = result.frame
    assert (frame.lower[0, 0], frame.upper[0, 0]) == (1.0, 3.0)


def test_aggregate_trim_five_percent_drops_five_each_side():
    values = [float(v) for v in range(1, 101)]
    result = aggregate(records_for_cell(values), trim=0.05)
    assert (result.frame.lower[0, 0], result.frame.upper[0, 0]) == (6.0, 95.0)


def test_aggregate_degenerate_cell_dropped_and_reported():
    records = records_for_cell([5.0, 5.0, 5.0]) + \
        records_for_cell([1.0, 2.0], key=("g2",))
    result = aggregate(records)
    assert result.frame.n == 1
    assert result.frame.labels == ("g2",)
    assert len(result.report.dropped_rows) == 1
    assert "degenerate" in result.report.dropped_rows[0][1][0]


def test_aggregate_keep_degenerate_flag():
    records = records_for_cell([5.0, 5.0]) + records_for_cell([7.0], key=("g2",))
    result = aggregate(records, keep_degenerate=True)
    assert result.frame.n == 2
    assert np.all(result.frame.ranges == 0.0)
    # degenerate cells produce no scaled microdata
    assert result.scaled == {}


def test_aggregate_inconsistent_variables_reported():
    records = records_for_cell([1.0, 2.0]) + \
        records_for_cell([1.0, 2.0], key=("g2",)) + \
        records_for_cell([4.0, 5.0], key=("g2",), variable="y")
    result = aggregate(records)
    assert result.frame.n == 1            # g1 lacks variable y and is dropped
    assert "empty cell" in result.report.dropped_rows[0][1][0]


def test_aggregate_intervals_contain_retained_values(rng):
    records = []
    for g in range(6):
        for var in ("a", "b"):
            for v in rng.normal(size=40):
                records.append(MicroRecord(key=(f"g{g}",), variable=var, value=float(v)))
    result = aggregate(records, trim=0.05)
    for name, sample in result.scaled.items():
        assert np.all(sample.values >= -1.0)
        assert np.all(sample.values <= 1.0)


def test_aggregate_trim_monotonicity(rng):
    records = records_for_cell([float(v) for v in rng.normal(size=200)])
    widths = []
    for trim in (0.0, 0.05, 0.1, 0.2, 0.4):
        frame = aggregate(records, trim=trim).frame
        widths.append(frame.upper[0, 0] - frame.lower[0, 0])
    assert all(w1 >= w2 for w1, w2 in zip(widths, widths[1:]))


def test_aggregate_trim_domain():
    with pytest.raises(DomainError):
        aggregate(records_for_cell([1.0]), trim=0.5)


def test_aggregate_scaled_values_round_trip():
    result = aggregate(records_for_cell([0.0, 1.0, 2.0]))
    assert np.allclose(sorted(result.scaled["x"].values), [-1.0, 0.0, 1.0])


# --- CSV round trips ---------------------------------------------------------

def test_interval_csv_roundtrip_is_lossless(tmp_path, rng):
    lower = rng.uniform(-1e6, 1e6, size=(7, 3))
    upper = lower + rng.uniform(0, 1e-3, size=(7, 3))
    frame = IntervalFrame(lower, upper, ("alpha", "beta", "gamma"),
                          labels=tuple(f"row{i}" for i in range(7)))
    path = tmp_path / "frame.csv"
    write_interval_csv(frame, path)
    back = load_interval_csv(path)
    assert np.array_equal(back.lower, frame.lower)
    assert np.array_equal(back.upper, frame.upper)
    assert back.labels == frame.labels
    assert back.names == frame.names


def test_interval_csv_centre_range_encoding_equivalent(tmp_path):
    frame = credit_card_intervals()
    p1 = tmp_path / "bounds.csv"
    p2 = tmp_path / "cr.csv"
    write_interval_csv(frame, p1, mode="bounds")
    write_interval_csv(frame, p2, mode="centre_range")
    f1 = load_interval_csv(p1)
    f2 = load_interval_csv(p2)
    assert np.allclose(f1.lower, f2.lower, atol=1e-10)
    assert np.allclose(f1.upper, f2.upper, atol=1e-10)


def test_interval_csv_missing_pair_errors(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a.lo,a.hi,b.lo\n0,1,0\n", encoding="utf-8")
    with pytest.raises(DataValidationError, match="'b'"):
        load_interval_csv(path)


def test_interval_csv_unknown_column_errors(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("label,a.lo,a.hi,oops\n r,0,1,2\n", encoding="utf-8")
    with pytest.raises(DataValidationError, match="oops"):
        load_interval_csv(path)


def test_interval_csv_disordered_bounds_survive_to_validate(tmp_path):
    path = tmp_path / "frame.csv"
    path.write_text("a.lo,a.hi\n2.0,1.0\n0.0,1.0\n", encoding="utf-8")
    frame = load_interval_csv(path)
    rules = [v.rule for v in frame.validate()]
    assert "order" in rules


def test_matrix_csv_is_written_one_row_at_a_time(tmp_path):
    n = 400
    matrix = np.random.default_rng(7).uniform(0.0, 10.0, (n, n))
    names = [f"v{i}" for i in range(n)]
    tracemalloc.start()
    try:
        matrix.tolist()
        whole = tracemalloc.get_traced_memory()[1]      # about 5 MB of Python floats
        tracemalloc.reset_peak()
        _write_matrix_csv(matrix, names, tmp_path / "m.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < whole / 4
    back, header = _read_matrix_csv(tmp_path / "m.csv")
    assert list(header) == names and np.array_equal(back, matrix)


def test_microdata_csv_roundtrip(tmp_path):
    path = tmp_path / "micro.csv"
    path.write_text(
        "month,carrier,variable,value\n"
        "1,AA,dep,3.5\n1,AA,dep,4.5\n2,BB,dep,1.0\n2,BB,dep,2.0\n",
        encoding="utf-8")
    records = read_microdata_csv(path)
    assert len(records) == 4
    assert records[0].key == ("1", "AA")
    result = aggregate(records)
    assert result.frame.n == 2


@pytest.mark.parametrize("text, error", [
    ("g,variable,value\na,x,1\n,x,2\n",
     "3: record key must be a non-empty tuple of non-empty strings"),
    ("h,g,variable,value\na,,x,1\n", "2: record key must be a non-empty tuple of non-empty strings"),
    ("g,variable,value\na,x,1\na,x,inf\n", "3: non-finite value for ('a',)/x"),
], ids=["empty-key", "empty-second-key", "non-finite"])
def test_microdata_reader_names_the_line_of_a_bad_record(tmp_path, text, error):
    path = tmp_path / "micro.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(DataValidationError) as info:
        read_microdata_csv(path)
    assert str(info.value) == f"{path}:{error}"


def test_microdata_csv_header_errors(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1,2\n", encoding="utf-8")
    with pytest.raises(DataValidationError):
        read_microdata_csv(path)


# each reader's header code, since a matrix header may repeat its row labels
@pytest.mark.parametrize("reader, text, column", [
    (load_interval_csv, "label,a.lo,a.hi,a.lo,a.hi\nr1,1,2,3,4\n", "a.lo"),
    (read_microdata_csv, "g,variable,value,value\nx,v,1,5\n", "value"),
    (read_scaled_csv, "variable,row,value,row\nx,r1,0.5,r2\n", "row"),
    (read_summary_csv, "group,variable,mean,median,min,max,mean\n"
                       "t,x,0,0,-1,1,0.5\n", "mean"),
], ids=["interval", "microdata", "scaled", "summary"])
def test_reader_refuses_a_repeated_column(tmp_path, reader, text, column):
    path = tmp_path / "table.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(DataValidationError, match=f"names column '{column}' twice"):
        reader(path)


def test_scaled_csv_roundtrip(tmp_path):
    records = records_for_cell([0.0, 0.5, 2.0]) + \
        records_for_cell([1.0, 4.0], key=("g2",))
    scaled = aggregate(records).scaled
    path = tmp_path / "scaled.csv"
    write_scaled_csv(scaled, path)
    back = read_scaled_csv(path)
    assert set(back) == set(scaled)
    assert np.allclose(back["x"].values, scaled["x"].values)
    assert back["x"].rows == scaled["x"].rows


@pytest.mark.parametrize("bad", [float("nan"), float("-inf"), 1.0 + 2e-9, -1.0 - 2e-9])
def test_scaled_sample_refuses_a_value_outside_its_range_anywhere(bad):
    for at in (0, 2, 3):
        values = [0.5, -1.0 - 1e-9, 0.0, 1.0 + 1e-9]
        values[at] = bad
        with pytest.raises(DataValidationError, match=r"must lie in \[-1, 1\]"):
            ScaledSample("x", values)
    assert ScaledSample("x", []).values.size == 0
    assert ScaledSample("x", [[1.0 + 1e-9], [-1.0 - 1e-9]]).values.tolist() == [[1.0], [-1.0]]


def test_the_scaled_reader_keeps_one_copy_of_each_row_label(tmp_path):
    # the table repeats a cell's label once per value; what stays is a float
    # and a reference per value (16 bytes), not a string per value
    n = 40_000
    path = tmp_path / "scaled.csv"
    path.write_text("variable,row,value\n" + "".join(
        f"x,{k % 12 + 1}:carrier,{(k % 2001) / 1000 - 1!r}\n" for k in range(n)),
        encoding="utf-8")
    tracemalloc.start()
    try:
        samples = read_scaled_csv(path)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(set(map(id, samples["x"].rows))) == 12
    assert held < 24 * n and peak < 96 * n
    assert samples["x"].rows[13] == "2:carrier" and samples["x"].values[1000] == 0.0


def test_the_scaled_reader_gathers_each_value_as_a_double(tmp_path):
    # a Python float takes 32 bytes in a list, a double 8 in an array; the
    # peak is about 33 bytes per value with arrays and 59 with lists
    n = 40_000
    path = tmp_path / "scaled.csv"
    path.write_text("variable,row,value\n" + "".join(
        f"v{k % 4},{k % 12 + 1}:carrier,{(k % 2001) / 1000 - 1!r}\n" for k in range(n)),
        encoding="utf-8")
    tracemalloc.start()
    try:
        samples = read_scaled_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 44 * n
    assert [s.values.size for s in samples.values()] == [n // 4] * 4
    assert samples["v1"].values.dtype == np.float64 and samples["v1"].values.flags.writeable
    assert samples["v1"].values[:3].tolist() == [-0.999, -0.995, -0.991]


# --- the aggregate command against the library -----------------------------

def _aggregate_both_ways(d, trim=0.0, keep_degenerate=False):
    """Aggregate ``d/micro.csv`` with the CLI and with the library calls.

    Returns the CLI's exit code and stderr, and the library's error or None;
    on success each way has written iv, scaled and report files in ``d``
    (prefixed cli_ and lib_).
    """
    micro = d / "micro.csv"
    argv = ["aggregate", "--microdata", str(micro), "--trim", repr(trim),
            "--out", str(d / "cli_iv.csv"), "--scaled-out", str(d / "cli_scaled.csv"),
            "--report-out", str(d / "cli_report.json")]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv + (["--keep-degenerate"] if keep_degenerate else []))
    try:
        result = aggregate(read_microdata_csv(micro), trim=trim,
                           keep_degenerate=keep_degenerate)
    except DataValidationError as exc:
        return code, err.getvalue(), exc
    write_interval_csv(result.frame, d / "lib_iv.csv")
    write_scaled_csv(result.scaled, d / "lib_scaled.csv")
    report = {"rows_kept": result.frame.n,
              "dropped_rows": [{"row": label, "reasons": reasons}
                               for label, reasons in result.report.dropped_rows],
              "trim": trim}
    (d / "lib_report.json").write_text(json.dumps(report, sort_keys=True, indent=2),
                                       encoding="utf-8")
    return code, err.getvalue(), None


# ties and a few huge values give degenerate cells and overflowing ranges
_VALUES = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -2.5, 1.7e308, -1.7e308]),
                    st.floats(-1e6, 1e6, allow_nan=False))


@st.composite
def _microdata(draw):
    width = draw(st.integers(1, 2))
    keys = draw(st.lists(st.tuples(*[st.sampled_from(["a", "b", "c,d"])] * width),
                         min_size=1, max_size=3, unique=True))
    variables = draw(st.lists(st.sampled_from(["x", "y", "z"]), min_size=1, max_size=3,
                              unique=True))
    # one cell in five is empty, which drops its row
    rows = [(*key, name, value) for key in keys for name in variables
            for value in (draw(st.lists(_VALUES, min_size=1, max_size=6))
                          if draw(st.integers(0, 4)) else [])]
    # degenerate cells are kept only at trim zero
    trim = draw(st.one_of(st.just(0.0), st.floats(0.0, 0.5, exclude_max=True)))
    return [f"g{k}" for k in range(width)], rows, trim, draw(st.booleans())


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(_microdata())
def test_the_aggregate_command_writes_what_the_library_writes(case):
    groups, rows, trim, keep_degenerate = case
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        with (d / "micro.csv").open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow([*groups, "variable", "value"])
            writer.writerows([*row[:-1], repr(row[-1])] for row in rows)
        code, stderr, refused = _aggregate_both_ways(d, trim, keep_degenerate)
        if refused is not None:
            assert code == 2
            error = json.loads(stderr)["error"]
            assert error["message"] == str(refused)
            assert error.get("violations", []) == json.loads(json.dumps(refused.violations))
            assert not (d / "cli_iv.csv").exists()
            return
        assert code == 0
        for name in ("iv.csv", "scaled.csv", "report.json"):
            assert (d / f"cli_{name}").read_bytes() == (d / f"lib_{name}").read_bytes(), name


def test_aggregate_refuses_the_scaled_values_of_an_overflowed_range(tmp_path):
    # row a's range overflows to inf, so 2 (v - c) / r is inf / inf = NaN
    (tmp_path / "micro.csv").write_text(
        "g,variable,value\na,x,-1.7e308\na,x,1.7e308\na,x,0\nb,x,1\nb,x,2\n",
        encoding="utf-8")
    code, stderr, refused = _aggregate_both_ways(tmp_path)
    message = "scaled values for 'x' must lie in [-1, 1]"
    assert (code, json.loads(stderr)) == (2, {"error": {"type": "validation",
                                                       "message": message}})
    assert str(refused) == message
    assert not (tmp_path / "cli_iv.csv").exists()


def test_aggregate_scales_a_cell_whose_bounds_sum_overflows(tmp_path):
    # row a's range is finite but lower + upper is not; its centre must be too
    (tmp_path / "micro.csv").write_text(
        "g,variable,value\na,x,1e308\na,x,1.7e308\nb,x,1\nb,x,2\n", encoding="utf-8")
    code, _, refused = _aggregate_both_ways(tmp_path)
    assert (code, refused) == (0, None)
    scaled = (tmp_path / "cli_scaled.csv").read_text(encoding="utf-8")
    assert scaled == "variable,row,value\nx,a,-1.0\nx,a,1.0\nx,b,-1.0\nx,b,1.0\n"
    assert scaled == (tmp_path / "lib_scaled.csv").read_text(encoding="utf-8")


# --- the fit --method kde command against the library ----------------------

def _fit_both_ways(d, bandwidth):
    """Fit ``d/scaled.csv`` with ``ivda fit --method kde`` into ``d/cli``
    and with the library calls into ``d/lib``.

    Returns the CLI's exit code and stderr, and the library's error or None;
    on success the library way has written what the command promises: the
    JSON spec file and each variable's sample as np.savetxt writes it.
    """
    (d / "cli").mkdir()
    (d / "lib").mkdir()
    argv = ["fit", "--method", "kde", "--scaled", str(d / "scaled.csv"),
            "--out", str(d / "cli" / "fit.json")]
    if bandwidth is not None:
        argv += ["--bandwidth", repr(bandwidth)]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    try:
        samples = read_scaled_csv(d / "scaled.csv")
        fitted = {name: fit_kde(samples[name].values, bandwidth=bandwidth)
                  for name in sorted(samples)}
    except IvdaError as exc:
        return code, err.getvalue(), exc
    specs = {}
    for name, dist in fitted.items():
        sample_path = f"fit_{name}_sample.txt"
        np.savetxt(d / "lib" / sample_path, dist.sample)
        spec = latent_to_dict(dist, sample_path=sample_path)
        spec["n_used"] = samples[name].values.size
        spec["diagnostics"] = {"mean": dist.mean, "second_moment": dist.second_moment}
        specs[name] = spec
    (d / "lib" / "fit.json").write_text(json.dumps(specs, sort_keys=True, indent=2),
                                        encoding="utf-8")
    return code, err.getvalue(), None


# the ends of [-1, 1], the tolerance past them, and zeros and ties
_SCALED = st.one_of(st.sampled_from([-1.0, 1.0, 0.0, -0.0, 0.5, 5e-324, 1.0 + 1e-9,
                                     -1.0 - 1e-9]),
                    st.floats(-1.0, 1.0))
# one cell that the reader or the sample check refuses
_BAD_CELL = st.sampled_from(["nan", "inf", "-inf", "1.5", "-1.0000001", "abc", ""])


@st.composite
def _scaled_table(draw):
    names = draw(st.lists(st.sampled_from(["x", "y,z", 'q"t', "w v"]), min_size=1,
                          max_size=3, unique=True))
    rows = []
    for name in names:
        # a kde fit needs ten values; now and then a variable has fewer
        size = draw(st.integers(2, 9) if draw(st.integers(0, 9)) == 9 else st.integers(10, 300))
        values = draw(st.lists(_SCALED, min_size=size, max_size=size))
        if draw(st.integers(0, 9)) == 9:
            values = [values[0]] * len(values)          # a constant sample
        labels = st.sampled_from(["a", "b,c", "d\ne", ""])
        rows += [[name, draw(labels), repr(v)] for v in values]
    rows = draw(st.permutations(rows))
    if draw(st.integers(0, 9)) == 9:
        rows[draw(st.integers(0, len(rows) - 1))][2] = draw(_BAD_CELL)
    for _ in range(draw(st.integers(0, 3))):
        rows.insert(draw(st.integers(0, len(rows))), ["", "", ""])     # written as ,,
    bandwidth = draw(st.sampled_from([None, None, 0.01, 0.3, 2.0]))
    return rows, bandwidth


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_scaled_table())
def test_the_fit_kde_command_writes_what_the_library_writes(case):
    rows, bandwidth = case
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        with (d / "scaled.csv").open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["variable", "row", "value"])
            writer.writerows(rows)
        code, stderr, refused = _fit_both_ways(d, bandwidth)
        event(f"exit {code}")
        if refused is not None:
            # a constant sample has no bandwidth: a numeric failure
            assert code == (3 if isinstance(refused, NumericFailure) else 2)
            assert stderr.count("\n") == 1
            assert json.loads(stderr)["error"]["message"] == str(refused)
            assert not any((d / "cli").iterdir())
            return
        assert code == 0 and stderr == ""
        written = sorted(p.name for p in (d / "cli").iterdir())
        assert written == sorted(p.name for p in (d / "lib").iterdir())
        for name in written:
            assert (d / "cli" / name).read_bytes() == (d / "lib" / name).read_bytes(), name


def _table(directory, text):
    path = directory / "table.csv"
    path.write_text(text, encoding="utf-8")
    return path


# each guard of the scaled-sample and summary readers and of the interval
# writer, as a call on a scratch directory with the error and the message
# it must give
_REFUSALS = {
    "scaled-missing-columns": (
        lambda d: read_scaled_csv(_table(d, "variable,value\nx,0.5\n")),
        DataValidationError, r"header must contain columns \['row', 'value', 'variable'\]"),
    "summary-missing-columns": (
        lambda d: read_summary_csv(_table(d, "group,variable,mean,median,min\ng,x,0,0,-1\n")),
        DataValidationError, "header must contain columns"),
    "summary-bad-row": (
        lambda d: read_summary_csv(_table(d, "group,variable,mean,median,min,max\n"
                                             "g,x,0,0,1,-1\n")),
        DataValidationError, r"table\.csv:2: interval bounds out of order"),
    "summary-nan-median": (
        lambda d: read_summary_csv(_table(d, "group,variable,mean,median,min,max\n"
                                             "g,x,0,0,-1,1\nh,x,0,nan,-1,1\n")),
        DataValidationError, r"table\.csv:3: mean and median must be finite"),
    "summary-inf-mean": (
        lambda d: read_summary_csv(_table(d, "group,variable,mean,median,min,max\n"
                                             "g,x,-inf,0,-1,1\n")),
        DataValidationError, r"table\.csv:2: mean and median must be finite"),
    "sample-provenance-length": (
        lambda d: ScaledSample("x", [0.1, 0.2], rows=("r1",)),
        DomainError, "provenance length must match the number of values"),
    "write-unknown-mode": (
        lambda d: write_interval_csv(IntervalFrame([[0.0]], [[1.0]], ("a",)), d / "iv.csv",
                                     mode="midpoints"),
        DomainError, "unknown mode 'midpoints'"),
}


@pytest.mark.parametrize("case", sorted(_REFUSALS))
def test_each_reader_and_writer_guard_refuses_its_input(tmp_path, case):
    call, error, message = _REFUSALS[case]
    with pytest.raises(error, match=message):
        call(tmp_path)
    assert not (tmp_path / "iv.csv").exists()
