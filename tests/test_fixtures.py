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
