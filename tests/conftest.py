import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "ci",
    max_examples=60,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


@pytest.fixture(autouse=True)
def _no_seed_from_environment(monkeypatch):
    """verify reads its default seed from DEGDET_SEED, so a value set in the
    shell would change every pinned report of a run without --seed; the
    tests of the variable set it themselves."""
    monkeypatch.delenv("DEGDET_SEED", raising=False)
