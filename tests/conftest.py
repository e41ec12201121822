"""``reset`` runs after each test module, so what one module leaves in the
engine's caches cannot change the counts or verdicts of the next one, nor
those of ``perfbench/tests`` when it runs in the same session."""

import pytest

from hsuperplane import reset


@pytest.fixture(autouse=True, scope="module")
def cold_engine():
    yield
    reset()
