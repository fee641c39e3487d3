import errno
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
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


def _peak_bytes(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def peak_bytes():
    """``peak_bytes(fn, *args)`` is the peak of traced bytes allocated during ``fn(*args)``."""
    return _peak_bytes


def _fourier_matrix(n):
    """Unitary DFT matrix with entries exp(-2 pi i a b / n) / sqrt(n)."""
    idx = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(idx, idx) / n) / np.sqrt(n)


def _conjugated_operator(pf):
    """F diag(v) F^-1, the potential's multiplication in coefficient space by dense conjugation."""
    F = _fourier_matrix(pf.values.shape[0])
    return (F * pf.values) @ F.conj().T


@pytest.fixture
def fourier_matrix():
    """``fourier_matrix(n)``: the unitary n x n DFT matrix of the conjugation oracle."""
    return _fourier_matrix


@pytest.fixture
def conjugated_operator():
    """``conjugated_operator(pf)``: the multiplication operator as ``F diag(v) F^-1``, an O(n^3)
    oracle independent of the library's circulant build."""
    return _conjugated_operator


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
