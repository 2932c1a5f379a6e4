import json

import numpy as np
import pytest

from ivda.cli import main
from ivda.datasets import bundled_path


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
