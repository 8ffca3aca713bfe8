"""The traced benchmark wraps library attributes by name; they must exist."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _targets():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("module, attr, span", _targets())
def test_span_target_is_bound(module, attr, span):
    assert callable(getattr(importlib.import_module(f"qbdpoisson.{module}"), attr))
