"""Anti-aliasing frequency sets with minimal-l2 representatives.

For a rank-1 lattice (z, n) the anti-aliasing set picks, for every residue
``xi = h . z mod n``, one integer frequency vector ``h_xi`` of that residue
with the smallest Euclidean norm, the lexicographically first among ties,
so the set is reproducible bit for bit.  :func:`build` computes it from that
definition with a min-plus recursion over the residues (its first level a
scatter-min from the residues the last coordinate reaches), in O(n d) memory:
the set itself plus two n-vectors of packed (norm, t) keys, int32 unless the
coordinate bound is large.  The set holds h and ||h||^2 each in the narrowest
integer type that holds them (``_narrow``): int8 and int16 at ``paper-d4``.
"""

from __future__ import annotations

import hashlib
import math
import os
import struct
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .lattice import _BLOCK, Rank1Lattice, _blockwise

__all__ = [
    "AntiAliasingSet",
    "BudgetExceededError",
    "build",
    "cache_path",
    "load_cache",
    "save_cache",
    "cached_build",
]

_MAGIC = b"AASET1"


class BudgetExceededError(RuntimeError):
    """Raised when the build would examine more (residue, t) pairs than its budget."""


@dataclass(frozen=True)
class AntiAliasingSet:
    """Frequency table ``freq[xi] = h_xi`` with ``h_xi . z == xi (mod n)``."""

    lattice: Rank1Lattice
    freq: np.ndarray    # (n, d), built and loaded in ``_narrow(max |h_j|)``
    norms2: np.ndarray  # (n,) squared l2 norms, built and loaded in ``_narrow(max ||h||^2)``

    def __post_init__(self) -> None:
        n, d = self.lattice.n, self.lattice.d
        if self.freq.shape != (n, d):
            raise ValueError(f"freq has shape {self.freq.shape}, expected {(n, d)}")
        seen = np.zeros(n, dtype=bool)  # by half blocks: residues() holds 16 B a row and cast buffers, inline
        _blockwise(n, lambda lo, hi: seen.__setitem__(self.lattice.residues(self.freq[lo:hi]), True),
                   block=_BLOCK // 2)
        if not seen.all():
            raise ValueError("representatives do not cover every residue exactly once")

    @property
    def n(self) -> int:
        return self.lattice.n

    def max_norm2(self) -> int:
        """Largest squared l2 norm among the representatives."""
        return int(self.norms2.max())

    def sha256(self) -> str:
        """Content hash of the serialized set (same bytes as the cache file)."""
        digest = hashlib.sha256()
        for part in _serialize(self):
            digest.update(part)
        return digest.hexdigest()


def _zhash(lattice: Rank1Lattice) -> int:
    raw = np.asarray(lattice.z, dtype="<i8").tobytes()
    return int.from_bytes(hashlib.sha256(raw).digest()[:8], "little")


def _narrow(*values: int) -> type:
    """The narrowest of int8, int16, int32 and int64 that holds +- each of ``values``."""
    bound = max(abs(int(v)) for v in values)
    return next(t for t in (np.int8, np.int16, np.int32, np.int64) if bound <= np.iinfo(t).max)


def _norms2(freq: np.ndarray) -> np.ndarray:
    """Squared l2 norms of the rows of ``freq`` in ``_narrow`` of the largest: squared in int64 column by
    column, by blocks of rows, into ``_narrow(d max|h_j|^2)``, and cast once more where that is wider."""
    norms2 = np.zeros(len(freq), _narrow(freq.shape[1] * max(-int(freq.min()), int(freq.max())) ** 2))

    def accumulate(lo: int, hi: int, square: np.ndarray) -> None:
        for col in freq[lo:hi].T:
            norms2[lo:hi] += np.square(col, out=square, dtype=np.int64)
    _blockwise(len(freq), accumulate, np.int64)
    return norms2.astype(_narrow(norms2.max()), copy=False)


def _initial_r2(d: int, n: int) -> int:
    # d-ball volume heuristic aiming at >= 2n candidates
    r = (2.0 * n * math.gamma(d / 2.0 + 1.0) / math.pi ** (d / 2.0)) ** (1.0 / d)
    return max(1, math.ceil(r * r))


def _key_dtype(d: int, radius: int) -> type:
    """int32 keys while the unreached key ``(2R + 1) (d R^2 + 1)``, one above the largest key, is
    below 2^30, else int64.  Every sum of a key and a shift's term ``t^2 (2R + 1) + t + R`` then
    stays below 2^31: for d >= 2 that term is at most ``R^2 (2R + 1) + 2R < 2^29``."""
    return np.int32 if (2 * radius + 1) * (d * radius * radius + 1) < 1 << 30 else np.int64


def _min_plus(lattice: Rank1Lattice, radius: int, freq: np.ndarray, norms2: np.ndarray) -> None:
    """One pass with every ``|h_k| <= radius``: ``g_1`` into ``norms2`` (``d R^2 + 1`` where the
    box reaches no vector) and level k's chosen ``t`` at residue ``r`` into ``freq[r, k]``.

    A level is minimized over packed keys ``norm (2R + 1) + t + R``: the least key is the
    least norm and, among equal norms, the smallest t.  Level d - 2's input, the last
    coordinate alone, reaches only ``min(2R + 1, n)`` residues, so that level scatters their
    2R + 1 shifted keys each by ``np.minimum.at``, whole rows of t per call.  Each further
    level runs every block of ``_BLOCK`` residues through all 2R + 1 shifts, so it stays in
    cache, on one of ``stage_workers(n)`` threads.  Then each key is split into t, kept in
    ``freq``, and ``norm (2R + 1)``, the next level's input.
    """
    n, d, z = lattice.n, lattice.d, lattice.z
    width = 2 * radius + 1
    top = width * (d * radius * radius + 1)  # unreached: a multiple of 2R + 1 above every key
    dtype = _key_dtype(d, radius)
    # last coordinate alone: in (t^2, t) order the first t per residue wins
    t = np.arange(-radius, radius + 1, dtype=np.int64)
    t = t[np.argsort(t * t, kind="stable")]
    res, first = np.unique(t * z[-1] % n, return_index=True)
    g = np.full(n, top, dtype=dtype)
    g[res] = t[first] ** 2 * width
    freq[res, -1] = t[first]
    if d > 1:
        # level d - 2 from the reached residues: an unreached one keeps the dense level's t = 0 key
        best, reached = np.full(n, top + radius, dtype=dtype), g[res]
        rows = max(1, min(n, _BLOCK // 4) // len(res))
        for lo in range(-radius, radius + 1, rows):  # raveled: numpy's fast ufunc.at path takes 1-D operands
            tk = np.arange(lo, min(lo + rows, radius + 1), dtype=np.int64)[:, None]
            keys = reached + (tk * tk * width + tk + radius).astype(dtype)
            np.minimum.at(best, ((tk * z[-2] + res) % n).ravel(), keys.ravel())
        np.remainder(best, width, out=g)  # t + R, into the spent input; best keeps the norm times 2R + 1
        best -= g
        g -= radius
        freq[:, -2] = g
        g, best = best, g
    for k in range(d - 3, -1, -1):
        # best[r] = min_t g[r - t z_k mod n] + t^2 (2R + 1) + t + R, one block of r at a time
        def level(lo: int, hi: int, tmp: np.ndarray) -> None:
            blk = best[lo:hi]
            blk.fill(np.iinfo(dtype).max)
            for tk in range(-radius, radius + 1):
                start = (lo - tk * z[k]) % n  # the window g[start:start + len(blk)], wrapped past n
                head = min(len(blk), n - start)
                key = tk * tk * width + tk + radius
                np.add(g[start:start + head], key, out=tmp[:head])
                if head < len(blk):
                    np.add(g[:len(blk) - head], key, out=tmp[head:])
                np.minimum(blk, tmp, out=blk)
            np.remainder(blk, width, out=tmp)  # t + R; blk keeps the norm times 2R + 1
            blk -= tmp
            tmp -= radius
            freq[lo:hi, k] = tmp
        _blockwise(n, level, dtype, block=_BLOCK)
        g, best = best, g
    np.floor_divide(g, width, out=norms2)


def build(lattice: Rank1Lattice, budget: int = 1 << 36) -> AntiAliasingSet:
    """Construct the minimal-l2 anti-aliasing set for ``lattice``.

    With every ``|h_k| <= R``, ``g_k(r) = min_{|t| <= R} t^2 + g_{k+1}(r - t z_k)``
    is the least ``h_k^2 + ... + h_d^2`` with ``h_k z_k + ... + h_d z_d == r``
    (mod n), taken over packed (norm, t) keys: for ``k = d - 1`` a scatter-min of
    the ``min(2R + 1, n)`` residues ``g_d`` reaches times the 2R + 1 values of t,
    below it one cyclic shift of an n-vector per ``t``, one add and one minimum
    block by block.  The smallest ``t`` wins ties, which picks the
    lexicographically first vector of least norm.  The result is exact once
    ``R >= isqrt(max g_1)``; until then, and while a residue is unreached, the
    build reruns with a larger ``R``.  Raises :class:`BudgetExceededError` before
    a pass if the (residue, t) pairs examined in total, ``2R + 1`` per pass for
    d = 1 and ``(2R + 1) (1 + min(2R + 1, n) + (d - 2) n)`` for d >= 2, would
    exceed ``budget``.
    """
    n, d = lattice.n, lattice.d
    radius, examined, freq = math.isqrt(_initial_r2(d, n)) + 2, 0, None
    while True:
        width = 2 * radius + 1
        pairs = width * (1 + (min(width, n) + (d - 2) * n if d > 1 else 0))
        if examined + pairs > budget:
            raise BudgetExceededError(f"a pass at R = {radius} needs {pairs} pairs, {budget - examined} left")
        examined += pairs
        if freq is None or (freq.dtype, norms2.dtype) != (_narrow(radius), _narrow(d * radius * radius + 1)):
            # the result first, anew where R outgrows its types: the passes' scratch then lies above it on the heap
            freq, norms2 = np.zeros((n, d), _narrow(radius)), np.empty(n, _narrow(d * radius * radius + 1))
        _min_plus(lattice, radius, freq, norms2)
        top = int(norms2.max())
        if top > d * radius * radius:  # a residue is unreached
            radius *= 2
        elif math.isqrt(top) > radius:
            radius = math.isqrt(top)
        else:
            break
    # read the vectors back: h_k is level k's choice at xi - (h_1 z_1 + ... + h_{k-1} z_{k-1})
    res = np.arange(n, dtype=np.int64)
    for k in range(1, d):
        chosen = freq[:, k].copy()  # level k's choices, which the blocks overwrite

        def read_back(lo: int, hi: int, term: np.ndarray) -> None:
            np.multiply(freq[lo:hi, k - 1], lattice.z[k - 1], out=term, dtype=np.int64)
            blk = res[lo:hi]
            blk -= term
            blk %= n
            freq[lo:hi, k] = chosen[blk]
        _blockwise(n, read_back, np.int64, block=_BLOCK)
    del res  # before the set's own residue check
    return AntiAliasingSet(lattice, *(a.astype(_narrow(a.min(), a.max()), copy=False) for a in (freq, norms2)))


def _serialize(aa: AntiAliasingSet) -> Iterator[bytes | np.ndarray]:
    """The cache file's bytes: header, then the little-endian int32 frequency table by ``_BLOCK`` rows."""
    lat = aa.lattice
    yield _MAGIC + struct.pack("<IQQ", lat.d, lat.n, _zhash(lat))
    for lo in range(0, lat.n, _BLOCK):
        yield np.ascontiguousarray(aa.freq[lo:lo + _BLOCK], dtype="<i4")


def _write_atomic(path, parts) -> None:
    """Write ``parts`` to a temporary file beside ``path``, then rename it onto ``path``.

    A failed write leaves ``path`` as it was and removes the temporary file.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            for part in parts:
                fh.write(part)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_cache(aa: AntiAliasingSet, path) -> None:
    _write_atomic(path, _serialize(aa))


def load_cache(path, lattice: Rank1Lattice) -> AntiAliasingSet:
    """Read a cached set, verifying the header and file size against ``lattice``."""
    with open(path, "rb") as fh:
        head = fh.read(26)
        if len(head) < 26 or head[:6] != _MAGIC:
            raise ValueError(f"{path}: not an anti-aliasing cache")
        d, n, zh = struct.unpack("<IQQ", head[6:])
        if (d, n, zh) != (lattice.d, lattice.n, _zhash(lattice)):
            raise ValueError(f"{path}: cache header does not match lattice")
        size, expected = os.fstat(fh.fileno()).st_size, 26 + 4 * n * d
        if size != expected:
            raise ValueError(f"{path}: truncated cache ({size} bytes, expected {expected})")
        # the int32 table twice by blocks of rows: for its largest |h_j|, then into _narrow of it
        blocks, read = range(0, n, _BLOCK), lambda lo: np.fromfile(fh, "<i4", min(_BLOCK, n - lo) * d).reshape(-1, d)
        freq = np.empty((n, d), _narrow(*(f(b) for b in map(read, blocks) for f in (np.min, np.max))))
        fh.seek(26)
        for lo in blocks:
            freq[lo:lo + _BLOCK] = read(lo)
    return AntiAliasingSet(lattice, freq, _norms2(freq))


def cache_path(lattice: Rank1Lattice, cache_dir) -> Path:
    name = f"aaset_d{lattice.d}_n{lattice.n}_{_zhash(lattice):016x}.bin"
    return Path(cache_dir).expanduser() / name


def cached_build(lattice: Rank1Lattice, cache_dir) -> AntiAliasingSet:
    """Build the set, reusing (or writing) its disk cache under ``cache_dir``."""
    path = cache_path(lattice, cache_dir)
    if path.exists():
        try:
            return load_cache(path, lattice)
        except ValueError:
            path.unlink()  # corrupt cache: rebuild
    aa = build(lattice)
    path.parent.mkdir(parents=True, exist_ok=True)
    save_cache(aa, path)
    return aa
