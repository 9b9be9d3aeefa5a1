"""Every command reports a refused argument the same way: one
`validation error:` line on stderr and exit 2, from the one handler in
`cityguard.cli.main`."""

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
