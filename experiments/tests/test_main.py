"""``python -m experiments``: the evaluation's entry point."""

import pytest

from experiments.__main__ import build_parser, main


@pytest.mark.parametrize("which", ["table1", "table2", "fig19", "fig20"])
def test_experiments_print_tables(which, capsys):
    assert main([which]) == 0
    out = capsys.readouterr().out
    assert "paper" in out or "ideal" in out
    assert len(out.splitlines()) >= 6


def test_parser_rejects_unknown_experiment():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["table99"])
