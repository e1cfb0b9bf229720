"""The loop guard (``tests/loop_guard.py``) runs around every test."""

import pytest

from tests.loop_guard import LoopGuard


@pytest.fixture(autouse=True)
def loop_guard(monkeypatch):
    guard = LoopGuard()
    guard.install(monkeypatch)
    yield guard
    if guard.records:
        pytest.fail(guard.report(), pytrace=False)
