"""The accuracy ledger's gate: each (kind, m) cell's p99 and max against
max(10 x its checked-in baseline, 8 eps), on synthetic error records."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "accuracy.py"


def _tool():
    spec = importlib.util.spec_from_file_location("accuracy", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


accuracy = _tool()
BASELINE = json.loads(accuracy.BASELINE.read_text())


def _records(value, count=None):
    """Every baseline cell's count (or ``count``) of records at value(cell)."""
    return [{"kind": c["kind"], "m": c["m"], "error": value(c)}
            for c in BASELINE["cells"] for _ in range(count or c["count"])]


def _cell(kind):
    return next(c for c in BASELINE["cells"] if c["kind"] == kind)


def test_baseline_covers_the_corpus():
    assert len(BASELINE["sha256"]) == 64
    assert {c["m"] for c in BASELINE["cells"]} == set(accuracy.R_MAX)
    assert len(BASELINE["cells"]) == 4 * len(accuracy.R_MAX)
    draws = 3 * accuracy.DRAWS * len(accuracy.R_MAX)    # three g per draw
    assert sum(c["count"] for c in BASELINE["cells"]) == draws


def test_cells_at_the_baseline_pass():
    passed, report = accuracy.check(_records(lambda c: c["p99"]), BASELINE)
    assert passed and "FAIL" not in report


@pytest.mark.parametrize("rise, passed", [(9.99, True), (10.01, False)])
def test_a_cell_fails_past_ten_times_its_baseline(rise, passed):
    # a positive recurrent cell sits above the floor: 10 x its p99 decides
    target = _cell("PositiveRecurrent")
    assert 10.0 * target["p99"] > accuracy.FLOOR
    records = _records(lambda c: c["p99"] * (rise if c is target else 1.0))
    assert accuracy.check(records, BASELINE)[0] is passed


@pytest.mark.parametrize("error, passed", [(7.9, True), (8.1, False)])
def test_a_cell_below_one_eps_is_held_to_the_floor(error, passed):
    # transient cells sit at a fraction of eps: 8 eps, not 10 x, decides
    target = _cell("Transient")
    assert 10.0 * target["max"] < 7.9
    records = _records(lambda c: error if c is target else c["p99"])
    assert accuracy.check(records, BASELINE)[0] is passed


def test_a_changed_corpus_fails():
    passed, report = accuracy.check(_records(lambda c: 0.0, count=1), BASELINE)
    assert not passed and "no longer matches" in report
    for cut in (1, 30):     # one draw short; the last cell gone
        assert not accuracy.check(_records(lambda c: c["p99"])[:-cut], BASELINE)[0]


def test_a_nan_cell_fails():
    target = _cell("NullRecurrent")
    records = _records(lambda c: float("nan") if c is target else c["p99"])
    assert not accuracy.check(records, BASELINE)[0]
