import hypothesis
import pytest

from qmod.verify import DEFAULT_CACHE

hypothesis.settings.register_profile(
    "qmod",
    max_examples=60,
    deadline=None,
)
hypothesis.settings.load_profile("qmod")


@pytest.fixture
def cold_cache(monkeypatch):
    """DEFAULT_CACHE, which every check reads, with an empty store for the
    test; the shared store comes back afterwards."""
    monkeypatch.setattr(DEFAULT_CACHE, "_data", {})
    return DEFAULT_CACHE
