import errno
import tracemalloc

import pytest

from rank1tdse import antialias


class _FullDisk:
    """File whose first write stores half its data, then fails as a full disk would."""

    def __init__(self, path, mode):
        self.fh = open(path, mode)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        raw = memoryview(data).cast("B")
        self.fh.write(raw[: len(raw) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")


@pytest.fixture
def full_disk(monkeypatch):
    """Call it to make the package's file writes (``antialias._write_atomic``) fail halfway."""
    return lambda: monkeypatch.setattr(antialias, "open", _FullDisk, raising=False)


def _tracemalloc_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def tracemalloc_peak():
    """``tracemalloc_peak(fn, *args)`` is the peak of traced bytes allocated during ``fn(*args)``."""
    return _tracemalloc_peak
