import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import ivda
from ivda import (
    Degenerate,
    InvertedTriangular,
    ShiftedBeta,
    Triangular,
    TruncatedNormal,
    Uniform,
    latent_from_dict,
)
from ivda import cli
from ivda._cmd_measures import _write_matrix_csv
from ivda._shorthand import _parse_latent_shorthand
from ivda.cli import main
from ivda.datasets import bundled_path
from ivda.errors import DomainError, IvdaError, NumericFailure


@pytest.fixture
def intervals_csv():
    return str(bundled_path("credit_card_intervals.csv"))


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_covariance_and_correlation(tmp_path, capsys, intervals_csv):
    out = tmp_path / "corr.csv"
    code, stdout, _ = run_cli(
        capsys, "correlation", "--intervals", intervals_csv,
        "--latents", "triangular:0", "--out", str(out))
    assert code == 0
    assert json.loads(stdout)["divisor"] == "n"
    text = out.read_text()
    assert text.startswith(",food,social,travel,gas,clothes")
    # determinism: byte-identical on a second run
    out2 = tmp_path / "corr2.csv"
    run_cli(capsys, "correlation", "--intervals", intervals_csv,
            "--latents", "triangular:0", "--out", str(out2))
    assert out.read_bytes().replace(b"corr.csv", b"") == \
        out2.read_bytes().replace(b"corr2.csv", b"")


def test_covariance_report_audit(tmp_path, capsys, intervals_csv):
    out = tmp_path / "cov.csv"
    report = tmp_path / "parts.json"
    code, _, _ = run_cli(
        capsys, "covariance", "--intervals", intervals_csv,
        "--latents", "triangular:0", "--out", str(out),
        "--report-out", str(report))
    assert code == 0
    audit = json.loads(report.read_text())
    assert set(audit) >= {"sigma_b", "sigma_cc", "sigma_rr", "sigma_cr",
                          "psi", "delta", "euu", "divisor"}
    sigma = np.array(audit["sigma_b"])
    parts = np.array(audit["sigma_cc"]) + np.array(audit["sigma_rr"]) / 24.0
    assert np.allclose(sigma, parts)


def test_barycentre_outputs(tmp_path, capsys, intervals_csv):
    out = tmp_path / "bary.csv"
    code, stdout, _ = run_cli(
        capsys, "barycentre", "--intervals", intervals_csv,
        "--latents", "triangular:0", "--out", str(out))
    assert code == 0
    payload = json.loads(stdout)
    assert payload["centres"] == pytest.approx([26.09, 13.80, 183.97, 24.84, 49.32],
                                               abs=1e-9)
    assert payload["frechet_variance"] > 0.0
    assert out.exists()


def test_distance_matrix_cli(tmp_path, capsys, intervals_csv):
    out = tmp_path / "dist.csv"
    code, _, _ = run_cli(
        capsys, "distance", "--intervals", intervals_csv,
        "--latents", "triangular:0", "--threads", "2", "--out", str(out))
    assert code == 0
    rows = out.read_text().strip().splitlines()
    assert len(rows) == 37                      # header + 36 observations


def test_ellipse_cli(tmp_path, capsys):
    out = tmp_path / "ellipse.csv"
    code, _, _ = run_cli(
        capsys, "ellipse", "--x0=-3,5", "--delta", "0.08333333333333333",
        "--radius", "1", "--n-points", "64", "--out", str(out))
    assert code == 0
    rows = out.read_text().strip().splitlines()
    assert rows[0] == "c,r"
    assert len(rows) == 65


def test_aggregate_fit_pipeline(tmp_path, capsys):
    micro = bundled_path("flights_like_microdata.csv")
    intervals = tmp_path / "intervals.csv"
    scaled = tmp_path / "scaled.csv"
    report = tmp_path / "report.json"
    code, stdout, _ = run_cli(
        capsys, "aggregate", "--microdata", str(micro), "--trim", "0.05",
        "--out", str(intervals), "--scaled-out", str(scaled),
        "--report-out", str(report))
    assert code == 0
    assert json.loads(stdout)["rows"] > 0

    fits = tmp_path / "fits.json"
    code, _, _ = run_cli(capsys, "fit", "--method", "beta",
                         "--scaled", str(scaled), "--out", str(fits))
    assert code == 0
    payload = json.loads(fits.read_text())
    assert set(payload) == {"dep_delay", "arr_delay", "air_time", "distance"}
    for spec in payload.values():
        assert spec["family"] == "shifted_beta"
        assert spec["alpha"] > 0.0

    # fitted latents drive a correlation matrix through the JSON mapping path
    corr_out = tmp_path / "corr.csv"
    code, _, _ = run_cli(capsys, "correlation", "--intervals", str(intervals),
                         "--latents", str(fits), "--out", str(corr_out))
    assert code == 0


def test_fit_kde_writes_sample_files(tmp_path, capsys):
    micro = bundled_path("flights_like_microdata.csv")
    intervals = tmp_path / "intervals.csv"
    scaled = tmp_path / "scaled.csv"
    run_cli(capsys, "aggregate", "--microdata", str(micro), "--trim", "0.05",
            "--out", str(intervals), "--scaled-out", str(scaled))
    fits = tmp_path / "fits.json"
    code, _, _ = run_cli(capsys, "fit", "--method", "kde",
                         "--scaled", str(scaled), "--out", str(fits))
    assert code == 0
    payload = json.loads(fits.read_text())
    for name, spec in payload.items():
        assert spec["family"] == "kde"
        assert (tmp_path / spec["sample_path"]).exists()


def test_fit_triangular_pearson_cli(tmp_path, capsys):
    summaries = bundled_path("rtt_summary.csv")
    fits = tmp_path / "fits.json"
    code, _, _ = run_cli(capsys, "fit", "--method", "triangular-pearson",
                         "--summaries", str(summaries), "--out", str(fits))
    assert code == 0
    payload = json.loads(fits.read_text())
    assert payload["x2"]["mode"] == 0.0
    assert payload["x4"]["mode"] == pytest.approx(-0.58, abs=1e-9)


def test_compare_cli(tmp_path, capsys, intervals_csv):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    run_cli(capsys, "correlation", "--intervals", intervals_csv,
            "--latents", "triangular:0", "--out", str(a))
    run_cli(capsys, "correlation", "--intervals", intervals_csv,
            "--latents", "triangular:0", "--estimator", "model7", "--out", str(b))
    code, stdout, _ = run_cli(capsys, "compare", "--a", str(a), "--b", str(b))
    assert code == 0
    assert json.loads(stdout)["frobenius"] > 0.0


def test_pairs_data_cli(tmp_path, capsys, intervals_csv):
    out = tmp_path / "pairs.csv"
    code, _, _ = run_cli(capsys, "pairs-data", "--intervals", intervals_csv,
                         "--latents", "triangular:0", "--out", str(out))
    assert code == 0
    lines = out.read_text().strip().splitlines()
    # 10 variable pairs x (36 observations + 1 barycentre) + header
    assert len(lines) == 1 + 10 * 37
    assert sum(1 for line in lines if ",barycentre," in line) == 10
    # every coordinate is a plain number, the barycentre's too (not a numpy repr)
    for row in list(csv.reader(lines))[1:]:
        assert all(math.isfinite(float(cell)) for cell in row[4:]), row


def test_validation_failure_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("a.lo,a.hi\n2.0,1.0\n", encoding="utf-8")
    out = tmp_path / "out.csv"
    code, _, stderr = run_cli(capsys, "covariance", "--intervals", str(bad),
                              "--latents", "uniform", "--out", str(out))
    assert code == 2
    payload = json.loads(stderr)
    assert payload["error"]["type"] == "validation"
    assert payload["error"]["violations"]


def test_repeated_header_column_exits_2(tmp_path, capsys):
    path = tmp_path / "iv.csv"
    path.write_text(" label,a.lo,a.hi,a.lo ,a.hi\nr1,1,2,3,4\nr2,0,5,1,6\n",
                    encoding="utf-8")
    code, _, stderr = run_cli(capsys, "distance", "--intervals", str(path),
                              "--latents", "uniform", "--out", str(tmp_path / "d.csv"))
    assert code == 2
    assert "names column 'a.lo' twice" in json.loads(stderr)["error"]["message"]
    assert not (tmp_path / "d.csv").exists()


@pytest.mark.parametrize("command", ["distance", "covariance"])
def test_degenerate_latent_on_positive_ranges_exits_2(tmp_path, capsys, intervals_csv, command):
    # the latents are attached before the frame is validated
    out = tmp_path / "out.csv"
    code, _, stderr = run_cli(capsys, command, "--intervals", intervals_csv,
                              "--latents", "degenerate", "--out", str(out))
    assert code == 2
    violations = json.loads(stderr)["error"]["violations"]
    assert [(v["rule"], v["column"]) for v in violations] == [
        ("degenerate-latent-mismatch", j) for j in range(5)]
    assert "food has positive ranges but a degenerate latent" in violations[0]["message"]
    assert not out.exists()


def test_numeric_failure_exits_3(tmp_path, capsys):
    scaled = tmp_path / "scaled.csv"
    # two-point +-1 sample violates the beta moment condition
    rows = ["variable,row,value"] + [f"x,r{i},{v}" for i, v in
                                     enumerate([-1.0, 1.0, -1.0, 1.0])]
    scaled.write_text("\n".join(rows) + "\n", encoding="utf-8")
    code, _, stderr = run_cli(capsys, "fit", "--method", "beta",
                              "--scaled", str(scaled), "--out", str(tmp_path / "f.json"))
    assert code == 3
    assert json.loads(stderr)["error"]["type"] == "numeric"


def test_overflowing_distance_exits_3(tmp_path, capsys):
    intervals = tmp_path / "huge.csv"
    intervals.write_text("label,x.lo,x.hi\na,-1e200,1e200\nb,-1e154,-9.9999999999999e153\n",
                         encoding="utf-8")
    for latents in ("triangular:-0.9", "uniform"):
        code, _, stderr = run_cli(capsys, "distance", "--intervals", str(intervals),
                                  "--latents", latents, "--out", str(tmp_path / "d.csv"))
        assert code == 3
        error = json.loads(stderr)["error"]
        assert error["type"] == "numeric" and "not finite" in error["message"]
    assert not (tmp_path / "d.csv").exists()


# two rows whose bounds' sum overflows, and a row whose range does
_HUGE = {"centre-sum-overflows": "label,x.lo,x.hi\na,1e308,1.7e308\nb,1e308,1.7e308\n",
         "range-overflows": "label,x.lo,x.hi\na,-1.7e308,1.7e308\nb,0,1\n"}


@pytest.mark.parametrize("rows", sorted(_HUGE))
@pytest.mark.parametrize("command", [
    ["covariance"], ["correlation"], ["covariance", "--estimator", "model7"], ["barycentre"],
], ids=["covariance", "correlation", "model7", "barycentre"])
def test_overflowing_covariance_exits_3(tmp_path, capsys, rows, command):
    intervals = tmp_path / "huge.csv"
    intervals.write_text(_HUGE[rows], encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")       # no numpy warning may reach stderr
        code, stdout, stderr = run_cli(capsys, *command, "--intervals", str(intervals),
                                       "--latents", "uniform", "--out", str(tmp_path / "o.csv"))
    assert (code, stdout, len(stderr.splitlines())) == (3, "", 1)
    error = json.loads(stderr)["error"]
    assert error["type"] == "numeric" and "not finite" in error["message"]
    assert not (tmp_path / "o.csv").exists()


def test_bounds_whose_sum_overflows_through_the_program(tmp_path):
    # their distance is 0; their covariance overflows; stderr holds one JSON line
    (tmp_path / "huge.csv").write_text(_HUGE["centre-sum-overflows"], encoding="utf-8")
    frame = ["--intervals", "huge.csv", "--latents", "uniform"]
    done = _fresh_python(["-m", "ivda.cli", "distance", *frame, "--out", "d.csv"], tmp_path)
    assert (done.returncode, done.stderr) == (0, "")
    assert (tmp_path / "d.csv").read_text(encoding="utf-8") == ",a,b\na,0.0,0.0\nb,0.0,0.0\n"
    done = _fresh_python(["-m", "ivda.cli", "covariance", *frame, "--out", "c.csv"], tmp_path)
    assert done.returncode == 3 and len(done.stderr.splitlines()) == 1
    assert json.loads(done.stderr)["error"] == {
        "type": "numeric", "message": "symbolic covariance is not finite: the data overflow"}
    assert not (tmp_path / "c.csv").exists()


def test_config_file_defaults_with_flag_override(tmp_path, capsys, intervals_csv):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "intervals": intervals_csv,
        "latents": "uniform",
        "out": str(tmp_path / "from_config.csv"),
    }), encoding="utf-8")
    code, _, _ = run_cli(capsys, "--config", str(config), "covariance")
    assert code == 0
    assert (tmp_path / "from_config.csv").exists()
    # a flag beats the config value
    code, _, _ = run_cli(capsys, "--config", str(config), "covariance",
                         "--out", str(tmp_path / "flag_wins.csv"))
    assert code == 0
    assert (tmp_path / "flag_wins.csv").exists()


@pytest.mark.parametrize("latents, message", [
    ({"family": "triangular", "mode": "abc"}, "abc"),
    ({"family": "triangular", "mode": None}, "None"),
    ({"family": "kde", "sample_path": "u.txt"}, "abc"),
    ("triangular:abc", "not a number"),
    ("missing.json", "No such file"),
], ids=["mode-not-a-number", "mode-null", "kde-sample-not-numeric",
        "shorthand-not-a-number", "missing-latent-file"])
def test_malformed_latent_spec_exits_2(tmp_path, capsys, intervals_csv, latents, message):
    if isinstance(latents, dict):
        (tmp_path / "u.txt").write_text("0.1\nabc\n0.2\n", encoding="utf-8")
        path = tmp_path / "latents.json"
        path.write_text(json.dumps({"food": latents}), encoding="utf-8")
        latents = str(path)
    code, _, stderr = run_cli(capsys, "covariance", "--intervals", intervals_csv,
                              "--latents", latents,
                              "--out", str(tmp_path / "cov.csv"))
    assert code == 2
    error = json.loads(stderr)["error"]
    assert error["type"] == "validation"
    assert message in error["message"]


@pytest.mark.parametrize("argv, matrix", [
    (["ellipse", "--x0", "1"], None),
    (["ellipse", "--x0=a,b"], None),
    (["compare"], ",a,b\nx,1,2\ny,3,oops\n"),
    (["compare"], ",a,b\nx,1,2\ny,3\n"),
], ids=["x0-one-value", "x0-not-numeric", "matrix-cell-not-numeric", "matrix-row-ragged"])
def test_malformed_numeric_input_exits_2(tmp_path, capsys, argv, matrix):
    if matrix is None:
        argv = argv + ["--delta", "0.1", "--out", str(tmp_path / "ellipse.csv")]
    else:
        path = tmp_path / "matrix.csv"
        path.write_text(matrix, encoding="utf-8")
        argv = argv + ["--a", str(path), "--b", str(path)]
    code, _, stderr = run_cli(capsys, *argv)
    assert code == 2
    assert json.loads(stderr)["error"]["type"] == "validation"


@pytest.mark.parametrize("command, key, value", [
    ("covariance", "estimator", "model8"),
    ("aggregate", "trim", "abc"),
    ("covariance", "ddof1", "no"),
    ("distance", "threads", 2.5),
])
def test_config_value_is_checked_like_its_flag(tmp_path, capsys, intervals_csv,
                                               command, key, value):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "microdata": str(bundled_path("flights_like_microdata.csv")),
        "intervals": intervals_csv, "latents": "uniform",
        "out": str(tmp_path / "out.csv"), key: value,
    }), encoding="utf-8")
    # argparse's own exit, not an exception escaping main
    with pytest.raises(SystemExit) as exc:
        main(["--config", str(config), command])
    assert exc.value.code == 2
    assert f"argument --{key}" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


def test_config_string_value_gives_the_flag_outputs(tmp_path, capsys):
    micro = str(bundled_path("flights_like_microdata.csv"))
    outputs = {}
    for source in ("flag", "config"):
        d = tmp_path / source
        d.mkdir()
        argv = ["aggregate", "--microdata", micro, "--out", str(d / "iv.csv"),
                "--scaled-out", str(d / "scaled.csv"), "--report-out", str(d / "report.json")]
        if source == "flag":
            argv += ["--trim", "0.1"]
        else:
            (d / "config.json").write_text('{"trim": "0.1"}', encoding="utf-8")
            argv = ["--config", str(d / "config.json")] + argv
        code, stdout, _ = run_cli(capsys, *argv)
        assert code == 0
        outputs[source] = [stdout] + [(d / f).read_bytes()
                                      for f in ("iv.csv", "scaled.csv", "report.json")]
    assert outputs["config"] == outputs["flag"]
    assert json.loads(outputs["config"][3])["trim"] == 0.1


def test_config_ignores_keys_the_subcommand_does_not_take(tmp_path, capsys):
    config = tmp_path / "config.json"
    # fit's 'scaled' names no prefix of aggregate's --scaled-out, and a bad
    # value under another subcommand's key is never parsed
    config.write_text(json.dumps({
        "microdata": str(bundled_path("flights_like_microdata.csv")),
        "out": str(tmp_path / "iv.csv"),
        "scaled": str(tmp_path / "scaled.csv"),
        "alpha": "abc", "estimator": "model8", "a": "x", "no_such_key": [1],
    }), encoding="utf-8")
    code, _, _ = run_cli(capsys, "--config", str(config), "aggregate")
    assert code == 0
    assert (tmp_path / "iv.csv").exists()
    assert not (tmp_path / "scaled.csv").exists()


def test_config_list_value_exits_2(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"x0": [-3, 5], "delta": 0.1,
                                  "out": str(tmp_path / "e.csv")}), encoding="utf-8")
    code, _, stderr = run_cli(capsys, "--config", str(config), "ellipse")
    assert code == 2
    assert "'x0'" in json.loads(stderr)["error"]["message"]


@pytest.mark.parametrize("command, shown", [
    ("aggregate", "(default 0.0)"), ("fit", "(default 0.05)"),
    ("distance", "(default 1)"), ("barycentre", None),
    ("covariance", "(default barycentre)"), ("correlation", "(default barycentre)"),
    ("compare", None), ("ellipse", "(default 256)"), ("pairs-data", None),
])
def test_help_exits_0_and_shows_defaults(capsys, command, shown):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    assert text.startswith(f"usage: ivda {command}")
    assert shown is None or shown in text


@pytest.mark.parametrize("shorthand, expected", [
    ("uniform", Uniform()), ("triangular", Triangular(0.0)),
    ("Triangular: -0.3", Triangular(-0.3)), ("invtriangular", InvertedTriangular()),
    ("inverted_triangular", InvertedTriangular()), ("truncnormal", TruncatedNormal()),
    ("truncnormal:0.2", TruncatedNormal(0.2)), ("truncated_normal:0.2", TruncatedNormal(0.2)),
    ("beta:0.44,2.15", ShiftedBeta(0.44, 2.15)), ("shifted_beta:2,3", ShiftedBeta(2.0, 3.0)),
    ("degenerate", Degenerate()),
])
def test_latent_shorthand_names_each_family(shorthand, expected):
    assert latent_from_dict(_parse_latent_shorthand(shorthand)) == expected


@pytest.mark.parametrize("shorthand, message", [
    ("kde", "unknown latent family shorthand 'kde'"),
    ("cauchy", "unknown latent family shorthand 'cauchy'"),
    ("triangular:0,1", "too many parameters"),
])
def test_latent_shorthand_rejects(shorthand, message):
    with pytest.raises(DomainError, match=message):
        _parse_latent_shorthand(shorthand)


def test_all_zero_range_column_gets_the_degenerate_latent(tmp_path, capsys):
    intervals = tmp_path / "iv.csv"
    intervals.write_text("label,x.lo,x.hi,y.lo,y.hi\na,1,2,3,3\nb,2,5,4,4\nc,0,1,5,5\n",
                         encoding="utf-8")
    report = tmp_path / "report.json"
    code, _, _ = run_cli(capsys, "covariance", "--intervals", str(intervals),
                         "--latents", "uniform", "--out", str(tmp_path / "cov.csv"),
                         "--report-out", str(report))
    assert code == 0
    audit = json.loads(report.read_text())
    # delta = E u^2 / 4 is 1/12 for the uniform latent and 0 for the degenerate one
    assert audit["delta"] == [pytest.approx(1.0 / 12.0), 0.0]
    assert audit["euu"][1] == [0.0, 0.0]


MICRODATA = ["aggregate", "--out", "out.csv", "--microdata"]
SCALED = ["fit", "--method", "kde", "--out", "out.json", "--scaled"]
SUMMARY = ["fit", "--method", "triangular-pearson", "--out", "out.json", "--summaries"]
INTERVALS = ["distance", "--latents", "uniform", "--out", "out.csv", "--intervals"]
MATRIX = ["compare", "--b", "table.csv", "--a"]


@pytest.mark.parametrize("argv, text, error", [
    (MICRODATA, "g,value,variable\nb,2.0\n", "2: row has 2 fields, the header 3"),
    (SCALED, "variable,row,value\nx,r1\n", "2: row has 2 fields, the header 3"),
    (SUMMARY, "group,variable,mean,median,min,max\ng,x,0.0,0.1\n",
     "2: row has 4 fields, the header 6"),
    (MICRODATA, "g,variable,value\na,x,1.0\nb,x,2.0,9\n", "3: row has 4 fields, the header 3"),
    (SCALED, "variable,row,value\nx,r1,0.5\n\nx,r2,0.1,9\n",
     "4: row has 4 fields, the header 3"),
    (SUMMARY, "group,variable,mean,median,min,max\ng,x,0.0,0.1,-1,1,9\n",
     "2: row has 7 fields, the header 6"),
    (INTERVALS, "label,a.lo,a.hi\nr1,1,2\nr2,1\n", "3: row has 2 fields, the header 3"),
    (INTERVALS, "label,a.lo,a.hi\nr1,1,2,9\nr2,0,3\n", "2: row has 4 fields, the header 3"),
    (MATRIX, ",a,b\na,0,1\nb,1\n", "3: row has 2 fields, the header 3"),
    (MATRIX, ",a,b\n, ,\na,0,1,2\nb,1,0\n", "3: row has 4 fields, the header 3"),
    # the quoted cell spans lines 2 and 3, so the bad row is on line 4
    (MICRODATA, 'g,variable,value\n"a\nb",x,1.0\nc,x,oops\n', "4: cannot parse value field"),
], ids=["microdata", "scaled", "summary", "microdata-long", "scaled-long", "summary-long",
        "intervals-short", "intervals-long", "matrix-short", "matrix-long",
        "after-multiline-cell"])
def test_short_csv_row_exits_2_naming_its_line(tmp_path, capsys, monkeypatch, argv, text, error):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "table.csv").write_text(text, encoding="utf-8")
    code, _, stderr = run_cli(capsys, *argv, "table.csv")
    assert code == 2
    assert json.loads(stderr)["error"]["message"] == f"table.csv:{error}"
    assert not (tmp_path / "out.csv").exists() and not (tmp_path / "out.json").exists()


# --- the program entry ---------------------------------------------------

_CHAIN = [
    ["aggregate", "--microdata", str(bundled_path("flights_like_microdata.csv")),
     "--trim", "0.05", "--out", "iv.csv", "--scaled-out", "scaled.csv"],
    ["fit", "--method", "kde", "--scaled", "scaled.csv", "--out", "fit.json"],
    ["distance", "--intervals", "iv.csv", "--latents", "fit.json", "--out", "dist.csv"],
    ["covariance", "--intervals", "iv.csv", "--latents", "fit.json", "--out", "cov.csv",
     "--report-out", "report.json"],
]
_RAGGED = ["distance", "--intervals", "ragged.csv", "--latents", "uniform", "--out", "bad.csv"]


def _fresh_env(**extra):
    # the environment of a fresh interpreter that imports ivda from the same
    # place as this one, its stdout block-buffered on a pipe as by default, so
    # that a lost flush loses output; an empty value unsets a variable
    env = {**os.environ, "PYTHONPATH": str(Path(ivda.__file__).resolve().parents[1]),
           "PYTHONUNBUFFERED": "", **extra}
    return {name: value for name, value in env.items() if value}


def _fresh_python(args, cwd):
    return subprocess.run([sys.executable, *args], cwd=cwd, env=_fresh_env(),
                          capture_output=True, text=True)


@pytest.mark.parametrize("bandwidth, message", [
    ("1e300", "too wide"), ("64", "too wide"), ("1e-310", "too small"), ("1e-300", None)])
def test_fit_bandwidth_keeps_the_error_contract(tmp_path, bandwidth, message):
    # through the program, so that a numpy warning would reach stderr
    (tmp_path / "scaled.csv").write_text(
        "variable,row,value\n" + "".join(f"a,r{k},{k / 10 - 0.95}\n" for k in range(20)),
        encoding="utf-8")
    done = _fresh_python(["-m", "ivda.cli", "fit", "--method", "kde", "--scaled", "scaled.csv",
                          "--bandwidth", bandwidth, "--out", "fit.json"], tmp_path)
    if message is None:
        assert (done.returncode, done.stderr) == (0, "")
        diagnostics = json.loads((tmp_path / "fit.json").read_text())["a"]["diagnostics"]
        assert all(map(math.isfinite, diagnostics.values()))
        return
    assert done.returncode == 2 and len(done.stderr.splitlines()) == 1
    error = json.loads(done.stderr)["error"]
    assert error["type"] == "validation" and message in error["message"]
    assert not (tmp_path / "fit.json").exists()


def test_failed_kde_fit_writes_no_file(tmp_path):
    # variable a fits, b has too few values: a failed command leaves nothing,
    # not even the sample file of the variable that fitted first
    (tmp_path / "scaled.csv").write_text(
        "variable,row,value\n" + "".join(f"a,r{k},{k / 10 - 0.95}\n" for k in range(20))
        + "".join(f"b,r{k},{k / 5 - 0.4}\n" for k in range(5)), encoding="utf-8")
    done = _fresh_python(["-m", "ivda.cli", "fit", "--method", "kde", "--scaled", "scaled.csv",
                          "--out", "fit.json"], tmp_path)
    assert (done.returncode, done.stdout, len(done.stderr.splitlines())) == (2, "", 1)
    assert json.loads(done.stderr)["error"] == {
        "type": "validation", "message": "kde fit needs at least 10 values, got 5"}
    assert sorted(path.name for path in tmp_path.iterdir()) == ["scaled.csv"]


@pytest.mark.parametrize("text", ["", "# no value\n", "0.1 0.2\n0.3 0.4\n-0.5 0.9\n"],
                         ids=["empty", "comment-only", "two-columns"])
def test_a_kde_sample_file_without_one_value_a_line_exits_2(tmp_path, text):
    # through the program, so that numpy's warning on an empty file would reach stderr
    (tmp_path / "iv.csv").write_text(_THREE_ROWS, encoding="utf-8")
    (tmp_path / "u.txt").write_text(text, encoding="utf-8")
    spec = {"family": "kde", "sample_path": "u.txt"}
    (tmp_path / "fit.json").write_text(json.dumps({"a": spec, "b": spec}), encoding="utf-8")
    done = _fresh_python(["-m", "ivda.cli", "distance", "--intervals", "iv.csv",
                          "--latents", "fit.json", "--out", "dist.csv"], tmp_path)
    assert (done.returncode, done.stdout, len(done.stderr.splitlines())) == (2, "", 1)
    assert json.loads(done.stderr)["error"] == {
        "type": "validation",
        "message": "kde sample file u.txt must hold one value on each line, and at least one "
                   "value"}
    assert not (tmp_path / "dist.csv").exists()


# three rows whose upper ends are (1, 3), (2, 1) and (4, 2.5), and centres
# (0.5, 2), (1.25, 0.5) and (2.5, 2.25)
_THREE_ROWS = "label,a.lo,a.hi,b.lo,b.hi\nr1,0,1,1,3\nr2,0.5,2,0,1\nr3,1,4,2,2.5\n"


@pytest.mark.parametrize("latents, distance", [
    ("beta:1e200,1", math.sqrt(5.0)),            # all mass at the upper ends
    ("beta:1e200,1e200", math.sqrt(2.8125)),     # all mass at the centres
    ("beta:1e308,1e308", None)])                 # shapes whose sum overflows
def test_huge_beta_shapes_keep_the_error_contract(tmp_path, latents, distance):
    # (a + b) ** 2 overflows past a + b of about 1.3e154. Each command exits 0
    # with nothing on stderr, or 2 or 3 with one JSON line and no output file
    (tmp_path / "iv.csv").write_text(_THREE_ROWS, encoding="utf-8")
    for command in ("distance", "barycentre", "covariance", "correlation"):
        out = tmp_path / f"{command}.csv"
        done = _fresh_python(["-m", "ivda.cli", command, "--intervals", "iv.csv",
                              "--latents", latents, "--out", out.name], tmp_path)
        if distance is None:
            assert done.returncode in (2, 3) and len(done.stderr.splitlines()) == 1
            assert "finite sum" in json.loads(done.stderr)["error"]["message"]
            assert not out.exists()
            continue
        assert (done.returncode, done.stderr) == (0, ""), command
        rows = [line.split(",")[1:] for line in out.read_text(encoding="utf-8").splitlines()[1:]]
        assert rows and all(math.isfinite(float(cell)) for row in rows for cell in row)
        if command == "distance":
            assert float(rows[0][1]) == pytest.approx(distance, rel=1e-12)


def test_vanishing_truncated_normal_writes_nothing_to_stderr(tmp_path):
    # k = 1e160: the density's square overflows, where the density is 0
    (tmp_path / "iv.csv").write_text(_THREE_ROWS, encoding="utf-8")
    done = _fresh_python(["-m", "ivda.cli", "covariance", "--intervals", "iv.csv",
                          "--latents", "truncnormal:1e-320", "--out", "cov.csv"], tmp_path)
    assert (done.returncode, done.stderr) == (0, "")
    # a point mass at each centre: the covariance of the centres
    centres = np.array([[0.5, 2.0], [1.25, 0.5], [2.5, 2.25]])
    cov = np.loadtxt(tmp_path / "cov.csv", delimiter=",", skiprows=1, usecols=(1, 2))
    assert np.allclose(cov, np.cov(centres.T, ddof=0), rtol=1e-12, atol=0.0)


def test_ellipse_refuses_a_non_finite_result(tmp_path):
    done = _fresh_python(["-m", "ivda.cli", "ellipse", "--x0=1e308,1.7e308", "--delta", "1e-300",
                          "--radius", "1e300", "--out", "e.csv"], tmp_path)
    assert (done.returncode, done.stdout, len(done.stderr.splitlines())) == (3, "", 1)
    assert json.loads(done.stderr)["error"] == {
        "type": "numeric", "message": "iso-distance set is not finite: the data overflow"}
    assert not (tmp_path / "e.csv").exists()


_THREADED = ["distance", "--intervals", "iv.csv", "--latents", "fit.json", "--threads", "2",
             "--out", "dist2.csv"]
_OVERFLOWS = ["covariance", "--intervals", "huge.csv", "--latents", "uniform", "--out", "c3.csv"]


def test_the_program_writes_what_main_writes(tmp_path, capsys, monkeypatch):
    # python -m ivda.cli runs run(), one fresh interpreter per command, as the
    # console script does, and ends at os._exit; main() runs here, in one
    # directory of its own
    program, library = tmp_path / "program", tmp_path / "library"
    for d in (program, library):
        d.mkdir()
        (d / "ragged.csv").write_text("label,a.lo,a.hi\nr1,1,2\nr2,1\n", encoding="utf-8")
        (d / "huge.csv").write_text(_HUGE["centre-sum-overflows"], encoding="utf-8")
    monkeypatch.chdir(library)
    runs = [*[(argv, 0) for argv in _CHAIN], (_THREADED, 0), (_OVERFLOWS, 3), (_RAGGED, 2)]
    for argv, code in runs:
        done = _fresh_python(["-m", "ivda.cli", *argv], program)
        assert done.returncode == code, done.stderr
        assert (done.returncode, done.stdout, done.stderr) == run_cli(capsys, *argv), argv
        assert len((done.stdout or done.stderr).splitlines()) == 1
    assert json.loads(done.stderr)["error"]["message"] == \
        "ragged.csv:3: row has 2 fields, the header 3"
    files = sorted(f.name for f in program.iterdir())
    assert files == sorted(f.name for f in library.iterdir())
    assert {"fit_air_time_sample.txt", "dist2.csv", "cov.csv", "report.json"} <= set(files)
    assert "c3.csv" not in files and "bad.csv" not in files
    for name in files:
        assert (program / name).read_bytes() == (library / name).read_bytes(), name
    assert (program / "dist2.csv").read_bytes() == (program / "dist.csv").read_bytes()


# a command that raises past main(): run() must let the interpreter print it
_RAISES = """
import sys
from ivda import _cmd_tools, cli

def ellipse(args):
    raise RuntimeError("not an ivda error")

_cmd_tools.ellipse = ellipse
sys.argv[0] = "ivda"
sys.exit(cli.run())
"""


def test_an_exception_out_of_main_still_gets_a_traceback(tmp_path):
    done = _fresh_python(["-c", _RAISES, "ellipse", "--x0", "0,0", "--delta", "1",
                          "--out", "e.csv"], tmp_path)
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr.startswith("Traceback (most recent call last):")
    assert done.stderr.endswith("RuntimeError: not an ivda error\n")
    assert not (tmp_path / "e.csv").exists()


def test_a_profiled_run_still_writes_its_profile(tmp_path):
    # the profiler prints its table at interpreter exit, which run() then keeps
    (tmp_path / "huge.csv").write_text(_HUGE["centre-sum-overflows"], encoding="utf-8")
    done = _fresh_python(["-m", "cProfile", "-s", "tottime", "-m", "ivda.cli", "distance",
                          "--intervals", "huge.csv", "--latents", "uniform", "--out", "d.csv"],
                         tmp_path)
    assert (done.returncode, done.stderr) == (0, "")
    summary, *table = done.stdout.splitlines()
    assert json.loads(summary) == {"out": "d.csv", "rows": 2}
    assert " function calls " in table[0] and "Ordered by: internal time" in done.stdout
    assert "(distance_matrix)" in done.stdout


_BY_MAIN = "import sys; from ivda.cli import main; sys.exit(main())"


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
def test_a_closed_stdout_pipe_exits_as_a_normal_exit_does(tmp_path, buffered):
    # stdout is a pipe whose reader has gone: the summary line cannot be
    # written. Block-buffered, the failure shows at the last flush, which
    # the interpreter's own exit reports with status 120; unbuffered,
    # print() raises in main(), which reports it with status 2
    argv = ["ellipse", "--x0", "0,0", "--delta", "1", "--out", "e.csv"]
    outcomes = []
    for args in (["-m", "ivda.cli", *argv], ["-c", _BY_MAIN, *argv]):
        read, write = os.pipe()
        os.close(read)
        try:
            done = subprocess.run([sys.executable, *args], cwd=tmp_path, stdout=write,
                                  stderr=subprocess.PIPE, text=True,
                                  env=_fresh_env(PYTHONUNBUFFERED="" if buffered else "1"))
        finally:
            os.close(write)
        outcomes.append((done.returncode, done.stderr))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] == (120 if buffered else 2), outcomes[0][1]
    assert "Broken pipe" in outcomes[0][1]


_KEEPS_GC = """
import gc, json, sys
before = [gc.isenabled(), gc.get_freeze_count()]
from ivda import cli
assert cli.main(sys.argv[1:]) == 0
print(json.dumps([before, [gc.isenabled(), gc.get_freeze_count()]]))
"""


def test_import_and_main_keep_the_callers_collector(tmp_path):
    done = _fresh_python(["-c", _KEEPS_GC, *_CHAIN[0]], tmp_path)
    assert done.returncode == 0, done.stderr
    before, after = json.loads(done.stdout.splitlines()[-1])
    assert before == after == [True, 0]


_SUBCOMMANDS = ["aggregate", "fit", "distance", "barycentre", "covariance", "correlation",
                "compare", "ellipse", "pairs-data"]


def test_a_parser_built_for_its_subcommand_parses_as_the_full_one(tmp_path, capsys,
                                                                   monkeypatch):
    # help, usage errors and --config give the same bytes and values whether
    # every subcommand has its arguments or only those that argv names
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.chdir(tmp_path)
    (tmp_path / "config.json").write_text(json.dumps({
        "out": "o.csv", "threads": 2, "trim": 0.1, "ddof1": True, "estimator": "model7",
        "latents": "uniform", "method": "kde", "n_points": 7, "x0": "-3,5",
        "keep-degenerate": True, "unknown": 1}), encoding="utf-8")
    (tmp_path / "list.json").write_text('{"out": ["a"]}', encoding="utf-8")
    argvs = [[], ["--help"], ["nope"], ["--bogus"], ["--config"],
             ["covariance", "distance", "--help"]]
    for name in _SUBCOMMANDS:
        argvs += [[name, "--help"], [name, "--nope"], [name, "extra"], [name, "--out"],
                  [name, "--threads", "x"], [name, "--estimator", "q"], [name, "--ou", "x"],
                  ["--config", "config.json", name], ["--config", "list.json", name],
                  ["--config", "config.json", name, "--out", "flag.csv"]]

    def outcomes():
        out = []
        for argv in argvs:
            try:
                result = vars(cli._parse_args(argv))
            except SystemExit as exc:
                result = exc.code
            except IvdaError as exc:
                result = repr(exc)
            captured = capsys.readouterr()
            out.append((argv, result, captured.out, captured.err))
        return out

    lazy = outcomes()
    subparsers = cli._build_parser(["distance"])[1]
    assert [a.dest for a in subparsers["fit"]._actions] == ["help"]
    assert [a.dest for a in subparsers["distance"]._actions] == \
        ["help", "intervals", "latents", "threads", "out"]
    full = cli._build_parser
    monkeypatch.setattr(cli, "_build_parser", lambda argv=None: full())
    assert outcomes() == lazy


# --- bad rows through the streamed readers -------------------------------------

_FIT_ROWS = [f"x,r{i},{(i - 5.5) / 7}\n" for i in range(12)]
_NOT_FINITE = [{"rule": "not-finite", "row": 0, "column": 0,
                "message": "non-finite bound at row 0, variable a"}]
_KEY_RULE = "record key must be a non-empty tuple of non-empty strings"


# each command's table, and the exit code, message and violations it gives;
# {path} stands for the table's path. A quoted cell that spans lines counts
# every line it takes
@pytest.mark.parametrize("command, text, code, message, violations", [
    ("aggregate", "g,variable,value\na,x,1\n,,\na,x,2\n\nb,x,3\n,,\nb,x,5\n", 0, None, None),
    ("aggregate", 'g,variable,value\n"a\nb",x,1\n"a\nb",x,2\nc,x,zz\n', 2,
     "{path}:6: cannot parse value field", None),
    ("aggregate", "g,variable,value\na,x,1\na,x\n", 2,
     "{path}:3: row has 2 fields, the header 3", None),
    ("aggregate", "g,variable,value\na,x,1\n,x,2\n", 2, "{path}:3: " + _KEY_RULE, None),
    ("aggregate", "g,variable,value\na,x,1\na,x,nan\n", 2,
     "{path}:3: non-finite value for ('a',)/x", None),
    ("aggregate", "g,variable,value\na,x,1\na,x,-inf\n", 2,
     "{path}:3: non-finite value for ('a',)/x", None),
    ("aggregate", "g,variable,value,g\na,x,1,b\n", 2,
     "{path}: the header names column 'g' twice", None),
    ("fit", "variable,row,value\n" + ",,\n".join(_FIT_ROWS[::4] + [""]) + "\n"
     + "".join(_FIT_ROWS[1::4] + _FIT_ROWS[2::4] + _FIT_ROWS[3::4]), 0, None, None),
    ("fit", 'variable,row,value\nx,"r\n1",0.5\nx,r2,zz\n', 2,
     "{path}:4: cannot parse value field", None),
    ("fit", "variable,row,value\nx,r1,0.5\nx,r2\n", 2,
     "{path}:3: row has 2 fields, the header 3", None),
    ("fit", "variable,row,value\n" + "".join(f"x,,{(i - 5.5) / 7}\n" for i in range(12)),
     0, None, None),
    ("fit", "variable,row,value\n" + "".join(_FIT_ROWS) + "x,r12,nan\n", 2,
     "scaled values for 'x' must lie in [-1, 1]", None),
    ("fit", "variable,row,value\n" + "".join(_FIT_ROWS) + "x,r12,inf\n", 2,
     "scaled values for 'x' must lie in [-1, 1]", None),
    ("fit", "variable,row,value,row\nx,r1,0.5,r2\n", 2,
     "{path}: the header names column 'row' twice", None),
    ("distance", "label,a.lo,a.hi\nr1,0,1\n,,\nr2,1,3\n", 0, None, None),
    ("distance", 'label,a.lo,a.hi\n"r\n1",0,1\nr2,zz,3\n', 2,
     "{path}:4: cannot parse variable 'a'", None),
    ("distance", "label,a.lo,a.hi\nr1,0,1\nr2,1\n", 2,
     "{path}:3: row has 2 fields, the header 3", None),
    ("distance", "label,a.lo,a.hi\n,0,1\nr2,1,3\n", 0, None, None),
    ("distance", "label,a.lo,a.hi\nr1,nan,1\nr2,1,3\n", 2,
     "{path}: 1 validation violation(s)", _NOT_FINITE),
    ("distance", "label,a.lo,a.hi\nr1,0,inf\nr2,1,3\n", 2,
     "{path}: 1 validation violation(s)", _NOT_FINITE),
    ("distance", "label,a.lo,a.hi,a.lo\nr1,0,1,2\n", 2,
     "{path}: the header names column 'a.lo' twice", None),
], ids=[f"{command}-{case}" for command in ("aggregate", "fit", "distance")
        for case in ("blank", "spanning", "ragged", "empty-key", "nan", "inf", "repeated")])
def test_streamed_readers_keep_each_bad_row_error(tmp_path, capsys, command, text, code,
                                                  message, violations):
    path = tmp_path / "table.csv"
    path.write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    argv = {"aggregate": ["aggregate", "--microdata", str(path), "--out", str(out)],
            "fit": ["fit", "--method", "kde", "--scaled", str(path), "--out", str(out)],
            "distance": ["distance", "--intervals", str(path), "--latents", "uniform",
                         "--out", str(out)]}[command]
    assert main(argv) == code
    err = capsys.readouterr().err
    if message is None:
        assert err == "" and out.exists()
        return
    error = {"type": "validation", "message": message.format(path=path)}
    if violations:
        error["violations"] = violations
    assert json.loads(err) == {"error": error} and err.count("\n") == 1
    assert not out.exists()


# --- distance and covariance against the library ----------------------------

def _measure_both_ways(d, command):
    """Run ``command`` on ``d/iv.csv`` and ``d/fit.json`` through ``main`` into
    ``d/cli.csv``, and through the library calls into ``d/lib.csv``.

    Returns the exit code and stderr, and what the library refused: its error,
    the frame's violations as the command reports them, or None.
    """
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([command, "--intervals", str(d / "iv.csv"), "--latents",
                     str(d / "fit.json"), "--out", str(d / "cli.csv")])
    try:
        frame = ivda.load_interval_csv(d / "iv.csv")
        specs = json.loads((d / "fit.json").read_text(encoding="utf-8"))
        latents = {name: latent_from_dict(spec, base_dir=d) for name, spec in specs.items()}
        # a variable whose ranges are all zero takes the degenerate latent
        latents.update((name, Degenerate()) for name, ranges in zip(frame.names, frame.ranges.T)
                       if not ranges.any())
        frame = frame.with_latents(latents)
        violations = frame.validate()
        if violations:
            return code, err.getvalue(), json.loads(json.dumps([v._asdict() for v in violations]))
        if command == "distance":
            matrix = ivda.distance_matrix(frame)
            names = [frame.row_label(i) for i in range(frame.n)]
        else:
            matrix, names = ivda.symbolic_covariance(frame).sigma_b, frame.names
    except IvdaError as exc:
        return code, err.getvalue(), exc
    _write_matrix_csv(matrix, names, d / "lib.csv")
    return code, err.getvalue(), None


# huge and tiny magnitudes, so that sums overflow and a width vanishes on a
# huge bound; each cell draws one of them in four
_BOUND = st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 1e15, -1e15, 1e300, -1e300, 1.7e308,
                          -1.7e308])
_WIDTH = st.sampled_from([0.0, 5e-324, 1e-300, 1e-9, 1e300])
_PARAMETERS = {
    "uniform": st.just({}),
    "inverted_triangular": st.just({}),
    "degenerate": st.just({}),
    "triangular": st.fixed_dictionaries({"mode": st.floats(-1.0, 1.0)}),
    "truncated_normal": st.fixed_dictionaries(
        {"sigma2": st.sampled_from([1e-300, 1e-6, 0.11, 4.0, 1e8])}),
    "shifted_beta": st.fixed_dictionaries(
        {"alpha": st.sampled_from([0.02, 0.5, 2.0, 50.0, 1e200]),
         "beta": st.sampled_from([0.02, 1.0, 3.0, 50.0, 1e200])}),
    "kde": st.fixed_dictionaries({}, optional={"bandwidth": st.sampled_from([0.01, 0.3, 2.0])}),
}
# every cross moment of these is closed; a Kde with another family takes the table rule
_CLOSED_WITH_KDE = ("kde", "uniform", "degenerate")


@st.composite
def _measure_case(draw):
    command = draw(st.sampled_from(["distance", "covariance"]))
    p, n = draw(st.integers(1, 3)), draw(st.integers(2, 5))
    families = draw(st.lists(st.sampled_from(sorted(_PARAMETERS)), min_size=p, max_size=p))
    if command == "covariance" and "kde" in families:
        families = [f if f in _CLOSED_WITH_KDE else "uniform" for f in families]
    specs, samples = {}, {}
    for j, family in enumerate(families):
        specs[f"v{j}"] = {"family": family, **draw(_PARAMETERS[family])}
        if family == "kde":
            specs[f"v{j}"]["sample_path"] = f"v{j}.txt"
            samples[f"v{j}.txt"] = draw(st.lists(
                st.one_of(st.sampled_from([-1.0, 0.0, 1.0]), st.floats(-1.0, 1.0)),
                min_size=2, max_size=30))
    # now and then a column with zero ranges throughout
    flat = [draw(st.integers(0, 4)) == 0 for _ in range(p)]
    rows = []
    for i in range(n):
        cells = []
        for j in range(p):
            lower = draw(_BOUND if draw(st.integers(0, 3)) == 0 else st.floats(-1e6, 1e6))
            width = draw(_WIDTH if draw(st.integers(0, 3)) == 0 else st.floats(1e-3, 1e3))
            cells += [lower, lower + (0.0 if flat[j] else width)]
        rows.append([f"r{i}", *map(repr, cells)])
    return command, rows, specs, samples


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_measure_case())
def test_distance_and_covariance_write_what_the_library_computes(case):
    command, rows, specs, samples = case
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        with (d / "iv.csv").open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["label", *(f"v{j}.{end}" for j in range(len(specs))
                                        for end in ("lo", "hi"))])
            writer.writerows(rows)
        (d / "fit.json").write_text(json.dumps(specs), encoding="utf-8")
        for name, values in samples.items():
            (d / name).write_text("".join("%.18e\n" % v for v in values), encoding="utf-8")
        code, stderr, refused = _measure_both_ways(d, command)
        event(f"{command} exit {code}")
        if refused is None:
            assert (code, stderr) == (0, "")
            assert (d / "cli.csv").read_bytes() == (d / "lib.csv").read_bytes()
            return
        assert stderr.count("\n") == 1 and not (d / "cli.csv").exists()
        error = json.loads(stderr)["error"]
        if isinstance(refused, list):
            assert (code, error["violations"]) == (2, refused)
        else:
            assert code == (3 if isinstance(refused, NumericFailure) else 2)
            assert error["message"] == str(refused)
