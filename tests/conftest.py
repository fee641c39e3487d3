import errno
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

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


def _run_python(code, *args, cpus=None, timeout=1800, **env):
    """Run ``python -c code *args`` with this checkout's package on its path and ``env`` added,
    on the CPUs ``cpus`` (all of this process's by default), set before ``code`` imports anything.
    Return the child's standard output; its own output is printed, and a failure fails the test."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, **env, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    if cpus is not None:
        code = f"import os; os.sched_setaffinity(0, {set(cpus)!r})\n{code}"
    proc = subprocess.run([sys.executable, "-c", code, *args],
                          env=env, capture_output=True, text=True, timeout=timeout)
    print(proc.stdout)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.fixture
def python_child():
    """``python_child(code, *args, cpus=None, **env)``: the standard output of a child Python process."""
    return _run_python
