from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import settings

REPO = Path(__file__).resolve().parent.parent

# every property test: the same examples on every run, no per-example deadline
settings.register_profile("tsl", max_examples=120, derandomize=True, deadline=None)
settings.load_profile("tsl")


@pytest.fixture(scope="session")
def specs_dir() -> Path:
    return REPO / "specs"
