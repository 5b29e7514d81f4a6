"""The benchmark's tracer (`perfbench/tracing.py`) wraps momc functions by
module and attribute name; a renamed function would crash a traced run with
an AttributeError, so every name it lists must resolve to a callable."""

import sys
from pathlib import Path

import pytest

import momc

sys.path.append(str(Path(__file__).resolve().parent.parent / "perfbench"))
import tracing  # noqa: E402


@pytest.mark.parametrize(
    "mod,attr", [(mod, attr) for mod, attr, _ in tracing.SPANS + tracing.COUNTED])
def test_traced_name_is_callable(mod, attr):
    assert callable(getattr(getattr(momc, mod), attr))
