import sys
from pathlib import Path

import pytest

from hopground import transport
from hopground.prompts import TemplateLibrary

sys.path.insert(0, str(Path(__file__).parent))  # oracles / helpers imports

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(autouse=True)
def fast_backoff(monkeypatch):
    """Retries in tests wait 10 ms, not the production backoff."""
    monkeypatch.setattr(transport, "BACKOFF_BASE", 0.01)


@pytest.fixture(scope="session")
def library() -> TemplateLibrary:
    return TemplateLibrary.load()


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES
