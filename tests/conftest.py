"""Shared pytest set-up."""

import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def pytest_configure(config):
    """pyproject's `pythonpath` puts `src/` on this process's import path; do
    the same for the child processes some tests start (`python -m momc`), so
    a plain `python -m pytest` works without PYTHONPATH set."""
    paths = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    if SRC not in paths:
        os.environ["PYTHONPATH"] = os.pathsep.join([SRC] + paths)
