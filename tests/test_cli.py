import csv
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

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
from ivda._cmd_measures import _parse_latent_shorthand
from ivda.cli import main
from ivda.datasets import bundled_path
from ivda.errors import DomainError, IvdaError


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


def _fresh_python(args, cwd):
    # a fresh interpreter that imports ivda from the same place as this one
    env = {**os.environ, "PYTHONPATH": str(Path(ivda.__file__).resolve().parents[1])}
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True,
                          text=True)


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


def test_ellipse_refuses_a_non_finite_result(tmp_path):
    done = _fresh_python(["-m", "ivda.cli", "ellipse", "--x0=1e308,1.7e308", "--delta", "1e-300",
                          "--radius", "1e300", "--out", "e.csv"], tmp_path)
    assert (done.returncode, done.stdout, len(done.stderr.splitlines())) == (3, "", 1)
    assert json.loads(done.stderr)["error"] == {
        "type": "numeric", "message": "iso-distance set is not finite: the data overflow"}
    assert not (tmp_path / "e.csv").exists()


def test_the_program_writes_what_main_writes(tmp_path, capsys, monkeypatch):
    # python -m ivda.cli runs run(), one fresh interpreter per command, as the
    # console script does; main() runs here, in one directory of its own
    program, library = tmp_path / "program", tmp_path / "library"
    for d in (program, library):
        d.mkdir()
        (d / "ragged.csv").write_text("label,a.lo,a.hi\nr1,1,2\nr2,1\n", encoding="utf-8")
    monkeypatch.chdir(library)
    for argv, code in [*[(argv, 0) for argv in _CHAIN], (_RAGGED, 2)]:
        done = _fresh_python(["-m", "ivda.cli", *argv], program)
        assert done.returncode == code, done.stderr
        assert (done.returncode, done.stdout, done.stderr) == run_cli(capsys, *argv), argv
    assert json.loads(done.stderr)["error"]["message"] == \
        "ragged.csv:3: row has 2 fields, the header 3"
    files = sorted(f.name for f in program.iterdir())
    assert files == sorted(f.name for f in library.iterdir())
    assert {"fit_air_time_sample.txt", "cov.csv", "report.json"} <= set(files)
    for name in files:
        assert (program / name).read_bytes() == (library / name).read_bytes(), name


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
