"""tools/abtime.py refuses a round count below 1 before it loads anything."""

import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"


@pytest.mark.parametrize("rounds", ["0", "-3"])
def test_rounds_below_one_is_a_usage_error(rounds, monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(TOOLS))
    import abtime
    monkeypatch.setattr(abtime, "load_revision", lambda *a: pytest.fail("loaded a revision"))
    with pytest.raises(SystemExit) as stop:
        abtime.main(["--against", "HEAD", "--rounds", rounds])
    assert stop.value.code == 2
    assert f"argument --rounds: {rounds} is below 1" in capsys.readouterr().err
