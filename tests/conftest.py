import hypothesis
import pytest

from qmod import spans
from qmod.verify import DEFAULT_CACHE

hypothesis.settings.register_profile(
    "qmod",
    max_examples=60,
    deadline=None,
)
hypothesis.settings.load_profile("qmod")


@pytest.fixture
def cold_cache(monkeypatch):
    """DEFAULT_CACHE, which every check reads, with an empty store and an
    empty span normal-form memo for the test, as in a fresh process; the
    shared stores come back afterwards."""
    monkeypatch.setattr(DEFAULT_CACHE, "_data", {})
    monkeypatch.setattr(spans, "_NORMAL_FORMS", {})
    return DEFAULT_CACHE
