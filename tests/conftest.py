import threading

import pytest

from stackstream.core import ALLOC


def _stage_threads():
    return {t for t in threading.enumerate() if t.name.startswith("stage-")}


@pytest.fixture(autouse=True)
def leak_guard():
    """Every test starts clean and must end with zero live slices and no
    stage thread of its own still running."""
    assert ALLOC.live_slices == 0, "leak from a previous test"
    assert ALLOC.internal_bytes == 0
    ALLOC.reset_peaks()
    before = _stage_threads()
    yield
    assert ALLOC.live_slices == 0, "slice leak"
    assert ALLOC.live_refs == 0, "reference count drift"
    assert ALLOC.internal_bytes == 0, "internal buffer leak"
    stray = sorted(t.name for t in _stage_threads() - before if t.is_alive())
    assert not stray, f"stage threads still alive: {stray}"
