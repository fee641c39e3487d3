"""Anti-aliasing frequency sets with minimal-l2 representatives.

For a rank-1 lattice (z, n) the anti-aliasing set picks, for every residue
``xi = h . z mod n``, one integer frequency vector ``h_xi`` of that residue
with the smallest Euclidean norm.  The build enumerates integer vectors in
bands of ascending squared norm, sorts each band by (squared norm,
lexicographic order) and keeps the first vector seen per residue, so the
result is reproducible bit for bit.
"""

from __future__ import annotations

import hashlib
import math
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .lattice import Rank1Lattice

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

#: Candidates per band of the build's scan (estimated from the d-ball volume).
_BAND = 1 << 18


class BudgetExceededError(RuntimeError):
    """Raised when the build would scan more candidates than its budget."""


@dataclass(frozen=True)
class AntiAliasingSet:
    """Frequency table ``freq[xi] = h_xi`` with ``h_xi . z == xi (mod n)``."""

    lattice: Rank1Lattice
    freq: np.ndarray    # (n, d) int32
    norms2: np.ndarray  # (n,) int64, squared l2 norms

    def __post_init__(self) -> None:
        n, d = self.lattice.n, self.lattice.d
        if self.freq.shape != (n, d):
            raise ValueError(f"freq has shape {self.freq.shape}, expected {(n, d)}")
        seen = np.zeros(n, dtype=bool)
        seen[self.residues(self.freq)] = True
        if not seen.all():
            raise ValueError("representatives do not cover every residue exactly once")

    @property
    def n(self) -> int:
        return self.lattice.n

    def residues(self, h) -> np.ndarray:
        """``h . z mod n`` for a (..., d) array of frequency vectors."""
        return _residues(np.asarray(h), self.lattice)

    def residue_lookup(self, h) -> int:
        """The residue class index of a single frequency vector."""
        return int(self.residues(np.asarray(h, dtype=np.int64)))

    def max_norm2(self) -> int:
        """Largest squared l2 norm among the representatives."""
        return int(self.norms2.max())

    def sha256(self) -> str:
        """Content hash of the serialized set (same bytes as the cache file)."""
        digest = hashlib.sha256()
        for part in _serialize(self):
            digest.update(part)
        return digest.hexdigest()


def _residues(h: np.ndarray, lattice: Rank1Lattice) -> np.ndarray:
    """``h . z mod n``, accumulated column by column in int64."""
    res = np.zeros(h.shape[:-1], dtype=np.int64)
    for j, zj in enumerate(lattice.z):
        res += h[..., j].astype(np.int64) * zj
        res %= lattice.n
    return res


def _zhash(lattice: Rank1Lattice) -> int:
    raw = np.asarray(lattice.z, dtype="<i8").tobytes()
    return int.from_bytes(hashlib.sha256(raw).digest()[:8], "little")


def _isqrt(x: np.ndarray) -> np.ndarray:
    """Elementwise ``floor(sqrt(x))`` of a non-negative int64 array, exact."""
    s = np.sqrt(x).astype(np.int64)
    s -= s * s > x
    s += (s + 1) * (s + 1) <= x
    return s


def _extend(pre: np.ndarray, pre2: np.ndarray, lo: int, hi: int,
            room: float = math.inf) -> tuple[np.ndarray, np.ndarray]:
    """Append a last coordinate: every ``(p, t)`` with ``lo <= |p|^2 + t^2 <= hi``.

    Per prefix ``p`` the coordinate ``t`` runs over ``-top..-max(low, 1)`` and
    then ``low..top``, with ``low = ceil(sqrt(lo - |p|^2))`` (0 inside ``lo``)
    and ``top = floor(sqrt(hi - |p|^2))``, so lexicographically ordered
    prefixes give lexicographically ordered vectors.  Raises
    :class:`BudgetExceededError` before allocating more than ``room`` vectors.
    """
    top = _isqrt(hi - pre2)
    low = np.where(pre2 >= lo, 0, _isqrt(np.maximum(lo - pre2 - 1, 0)) + 1)
    keep = np.flatnonzero(low <= top)
    pre, pre2, top, low = pre[keep], pre2[keep], top[keep], low[keep]
    starts = np.column_stack([-top, low]).ravel()
    counts = np.column_stack([top - np.maximum(low, 1) + 1, top - low + 1]).ravel()
    total = int(counts.sum())
    if total > room:
        raise BudgetExceededError(f"band {lo}..{hi} of ||h||^2 needs {total} more candidates, "
                                  f"only {room} left in the budget")
    owner = np.repeat(np.arange(len(counts)) // 2, counts)
    t = np.arange(total, dtype=np.int64) + np.repeat(starts - (np.cumsum(counts) - counts), counts)
    return np.column_stack([pre[owner], t.astype(np.int32)]), pre2[owner] + t * t


def _band(d: int, lo: int, hi: int, room: float) -> tuple[np.ndarray, np.ndarray]:
    """Vectors with ``lo <= ||h||^2 <= hi``, sorted by (squared norm, lexicographic order).

    The last coordinate extends a (d-1)-dimensional prefix ball built
    coordinate by coordinate in lexicographic order, so a stable sort by
    squared norm finishes the band.
    """
    pre, pre2 = np.zeros((1, 0), dtype=np.int32), np.zeros(1, dtype=np.int64)
    for _ in range(d - 1):
        pre, pre2 = _extend(pre, pre2, 0, hi)
    pts, ssq = _extend(pre, pre2, lo, hi, room)
    order = np.argsort(ssq, kind="stable")
    return pts[order], ssq[order]


def _unit_volume(d: int) -> float:
    return math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)


def _initial_r2(d: int, n: int) -> int:
    # d-ball volume heuristic aiming at >= 2n candidates
    r = (2.0 * n / _unit_volume(d)) ** (1.0 / d)
    return max(1, math.ceil(r * r))


def _band_end(d: int, lo: int) -> int:
    """Largest hi >= lo whose band lo..hi holds about ``_BAND`` candidates (by d-ball volume)."""
    return max(lo, math.floor((lo ** (d / 2.0) + _BAND / _unit_volume(d)) ** (2.0 / d)))


def build(lattice: Rank1Lattice, budget: int = 1 << 28) -> AntiAliasingSet:
    """Construct the minimal-l2 anti-aliasing set for ``lattice``.

    Candidates are scanned in ascending squared-norm order with ties broken
    lexicographically on the signed coordinates; the first vector of each
    unseen residue wins.  The scan runs in bands of consecutive squared
    norms holding about ``_BAND`` candidates each, so memory stays bounded
    by the set plus one band; a band never crosses ``_initial_r2`` or a
    doubling of it.  The scan stops once all ``n`` residues are covered.

    Raises :class:`BudgetExceededError` before a band is allocated if the
    candidates scanned in total (all bands so far plus this one) would
    exceed ``budget``.
    """
    n, d = lattice.n, lattice.d
    freq = np.zeros((n, d), dtype=np.int32)
    norms2 = np.full(n, -1, dtype=np.int64)
    found = np.zeros(n, dtype=bool)
    left, scanned = n, 0
    lo, edge = 0, _initial_r2(d, n)
    while left:
        hi = min(edge, _band_end(d, lo))
        pts, ssq = _band(d, lo, hi, budget - scanned)
        scanned += len(ssq)
        res = _residues(pts, lattice)
        new = ~found[res]
        if new.any():
            res_new, pts_new, ssq_new = res[new], pts[new], ssq[new]
            uniq, first = np.unique(res_new, return_index=True)
            freq[uniq] = pts_new[first]
            norms2[uniq] = ssq_new[first]
            found[uniq] = True
            left -= len(uniq)
        lo = hi + 1
        if hi == edge:
            edge *= 2
    return AntiAliasingSet(lattice, freq, norms2)


def _serialize(aa: AntiAliasingSet) -> tuple[bytes, np.ndarray]:
    """Header and little-endian int32 frequency table, the cache file's two parts."""
    lat = aa.lattice
    header = _MAGIC + struct.pack("<IQQ", lat.d, lat.n, _zhash(lat))
    return header, np.ascontiguousarray(aa.freq, dtype="<i4")


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
    """Read a cached set, verifying the header against ``lattice``."""
    raw = Path(path).read_bytes()
    if len(raw) < 26 or raw[:6] != _MAGIC:
        raise ValueError(f"{path}: not an anti-aliasing cache")
    d, n, zh = struct.unpack("<IQQ", raw[6:26])
    if (d, n, zh) != (lattice.d, lattice.n, _zhash(lattice)):
        raise ValueError(f"{path}: cache header does not match lattice")
    expected = 26 + 4 * n * d
    if len(raw) != expected:
        raise ValueError(f"{path}: truncated cache ({len(raw)} bytes, expected {expected})")
    freq = np.frombuffer(raw[26:], dtype="<i4").reshape(n, d).astype(np.int32)
    norms2 = np.einsum("ij,ij->i", freq.astype(np.int64), freq.astype(np.int64))
    return AntiAliasingSet(lattice, freq, norms2)


def cache_path(lattice: Rank1Lattice, cache_dir) -> Path:
    name = f"aaset_d{lattice.d}_n{lattice.n}_{_zhash(lattice):016x}.bin"
    return Path(cache_dir).expanduser() / name


def cached_build(lattice: Rank1Lattice, cache_dir=None, budget: int = 1 << 28) -> AntiAliasingSet:
    """Build the set, reusing (or writing) a disk cache when a directory is given."""
    if cache_dir is None:
        return build(lattice, budget)
    path = cache_path(lattice, cache_dir)
    if path.exists():
        try:
            return load_cache(path, lattice)
        except ValueError:
            path.unlink()  # corrupt cache: rebuild
    aa = build(lattice, budget)
    path.parent.mkdir(parents=True, exist_ok=True)
    save_cache(aa, path)
    return aa
