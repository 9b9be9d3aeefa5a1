"""Every command reports a refused argument the same way: one
`validation error:` line on stderr and exit 2, from the one handler in
`cityguard.cli.main`."""

import json

import cityguard.oracle as oracle
from cityguard.cli import main
from cityguard.io import parse_city, save_city
from test_io_cli import city_a_doc


def test_oracle_reports_a_refused_scene(tmp_path, monkeypatch, capsys):
    scene = tmp_path / "s.json"
    save_city(parse_city(city_a_doc()), scene)

    def refuse(*args):
        raise ValueError("no scene for the oracle")

    monkeypatch.setattr(oracle, "optimal_guard_count", refuse)
    assert main(["oracle", "--scene", str(scene), "--max", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == ["validation error: no scene for the oracle"]
    assert captured.out == ""


def test_solve_reports_a_degenerate_city(tmp_path, capsys):
    """Two buildings on one axis line (y = 7) are outside the placements'
    domain: `solve` refuses the city like any other argument, where it
    once printed `error:`.  Found by tests/test_fuzz_documents.py."""
    scene = tmp_path / "s.json"
    scene.write_text(json.dumps({"bounds": [0, 0, 20, 20], "buildings": [
        {"base": [16, 3, 17, 7], "height": 8}, {"base": [5, 5, 8, 7], "height": 18}]}))
    for algo in ("walls-main", "city"):
        assert main(["solve", "--algo", algo, "--in", str(scene),
                     "--out", str(tmp_path / "g.json")]) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "validation error: [('DEGENERATE_POSITION', (0, 1))]"]
