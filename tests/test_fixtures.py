import importlib.util
from pathlib import Path

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "gen_fixtures.py"
_FIXTURES = ("credit_card_intervals.csv", "credit_card_microdata.csv",
             "rtt_summary.csv", "flights_like_microdata.csv")


def test_bundled_fixtures_match_their_generator(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("gen_fixtures", _SCRIPT)
    gen_fixtures = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen_fixtures)
    bundled = gen_fixtures.DATA      # src/ivda/data
    monkeypatch.setattr(gen_fixtures, "DATA", tmp_path)
    gen_fixtures.main()
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(_FIXTURES)
    for name in _FIXTURES:
        assert (tmp_path / name).read_bytes() == (bundled / name).read_bytes(), name


def test_a_file_in_the_data_directory_does_not_replace_a_fixture(tmp_path, monkeypatch):
    # IVDA_DATA_DIR names where the fetched external datasets live; a file
    # there that bears a fixture's name is not read in the fixture's place
    import ivda
    from ivda.datasets import bundled_path, credit_card_intervals, external_path

    name = "credit_card_intervals.csv"
    packaged = Path(ivda.__file__).parent / "data" / name
    decoy = tmp_path / name
    decoy.write_text("".join(packaged.read_text(encoding="utf-8").splitlines(True)[:2]),
                     encoding="utf-8")
    monkeypatch.setenv("IVDA_DATA_DIR", str(tmp_path))
    assert bundled_path(name).read_bytes() == packaged.read_bytes()
    frame = credit_card_intervals()
    assert (frame.n, frame.p) == (36, 5)
    assert external_path(name) == decoy
