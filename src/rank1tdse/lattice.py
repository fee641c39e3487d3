"""Rank-1 lattice point sets on the d-dimensional unit torus.

A rank-1 lattice is the point set ``{z*k/n mod 1 : k = 0..n-1}`` determined
by a modulus ``n`` and a generating vector ``z``.  Coordinates are kept as
exact integer numerators over ``n``; conversion to floating point happens
only when a function is evaluated at the points.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Rank1Lattice",
    "LatticePoint",
    "PRESETS",
    "load_lattice",
    "cbc_construct",
]

#: Built-in generating vectors (CBC-constructed for the unweighted Korobov
#: alpha=1 integration criterion), keyed by preset name.
PRESETS: dict[str, tuple[int, int, tuple[int, ...]]] = {
    "paper-d2": (2, 2**16, (1, 100135)),
    "paper-d4": (4, 2**20, (1, 443165, 95693, 34519)),
    "paper-d6": (6, 2**24, (1, 6422017, 7370323, 2765761, 8055041, 2959639)),
    "paper-d8": (
        8,
        2**24,
        (1, 6422017, 7370323, 2765761, 8055041, 2959639, 7161203, 4074015),
    ),
}


@dataclass(frozen=True)
class LatticePoint:
    """A single lattice point, stored as exact numerators over ``n``."""

    k: int
    numerators: tuple[int, ...]
    n: int

    @property
    def coords(self) -> np.ndarray:
        """Coordinates in [0, 1) as float64."""
        return np.asarray(self.numerators, dtype=np.float64) / self.n


@dataclass(frozen=True)
class Rank1Lattice:
    """Rank-1 lattice defined by dimension ``d``, modulus ``n`` and vector ``z``.

    Every component of ``z`` must lie in ``[0, n)`` and be relatively prime
    to ``n``, so all ``n`` points are distinct in each coordinate.
    """

    d: int
    n: int
    z: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.d < 1 or self.n < 1:
            raise ValueError("d and n must be positive")
        if len(self.z) != self.d:
            raise ValueError(f"generating vector has length {len(self.z)}, expected {self.d}")
        # published vectors are sometimes given unreduced; the points only
        # depend on z mod n, so normalize into [0, n) before validating
        object.__setattr__(self, "z", tuple(int(zj) % self.n for zj in self.z))
        for j, zj in enumerate(self.z):
            if math.gcd(zj, self.n) != 1:
                raise ValueError(f"z[{j}] = {zj} not coprime to n = {self.n}")

    def point(self, k: int) -> LatticePoint:
        """Return point ``k`` with numerators ``z_j * k mod n``."""
        if not 0 <= k < self.n:
            raise IndexError(f"point index {k} outside [0, {self.n})")
        return LatticePoint(k, tuple((zj * k) % self.n for zj in self.z), self.n)

    def all_points(self) -> list[LatticePoint]:
        """All ``n`` points in index order (intended for small lattices)."""
        return [self.point(k) for k in range(self.n)]

    def numerators(self) -> np.ndarray:
        """(n, d) int64 array of exact coordinate numerators."""
        k = np.arange(self.n, dtype=np.int64)
        return (k[:, None] * np.asarray(self.z, dtype=np.int64)) % self.n

    def node_coords(self) -> np.ndarray:
        """(n, d) float64 array of point coordinates in [0, 1)."""
        return self.numerators() / float(self.n)

    def residues(self, h) -> np.ndarray:
        """``h . z mod n`` for a (..., d) array of frequency vectors, accumulated in int64."""
        h = np.asarray(h)
        res = np.zeros(h.shape[:-1], dtype=np.int64)
        term = np.empty_like(res)
        for j, zj in enumerate(self.z):
            np.multiply(h[..., j], zj, out=term, dtype=np.int64)
            res += term
            res %= self.n
        return res

    def in_dual(self, h) -> bool:
        """True iff ``z . h == 0 (mod n)``, i.e. ``h`` is in the dual lattice."""
        h = np.asarray(h, dtype=np.int64)
        if h.shape != (self.d,):
            raise ValueError(f"frequency vector must have length {self.d}")
        return int(self.residues(h)) == 0

    def to_dict(self) -> dict:
        return {"d": self.d, "n": self.n, "z": list(self.z)}


def load_lattice(source) -> Rank1Lattice:
    """Load a lattice from a preset name, a dict ``{d, n, z}``, or a JSON file path."""
    if isinstance(source, Rank1Lattice):
        return source
    if isinstance(source, str):
        if source in PRESETS:
            d, n, z = PRESETS[source]
            return Rank1Lattice(d, n, z)
        with open(source) as fh:
            source = json.load(fh)
    if isinstance(source, dict):
        return Rank1Lattice(int(source["d"]), int(source["n"]), tuple(int(v) for v in source["z"]))
    raise TypeError(f"cannot load lattice from {source!r}")


def _korobov_kernel_table(n: int) -> np.ndarray:
    """omega(m/n) for m = 0..n-1, the alpha=1 Korobov worst-case error kernel."""
    x = np.arange(n, dtype=np.float64) / n
    return 2.0 * np.pi**2 * (x * x - x + 1.0 / 6.0)


def cbc_construct(d: int, n: int) -> Rank1Lattice:
    """Greedy component-by-component generating vector for the alpha=1 criterion.

    The first component is fixed to 1; each later component is chosen among
    the residues coprime to ``n`` (the odd residues when ``n`` is even) to
    minimize the squared worst-case integration error by direct O(n)
    summation.  Ties go to the smallest candidate.
    """
    if n < 2 or d < 1:
        raise ValueError("need n >= 2 and d >= 1")
    omega = _korobov_kernel_table(n)
    k = np.arange(n, dtype=np.int64)
    z = [1]
    # running product over already-fixed components of (1 + omega(k z_j / n))
    prods = 1.0 + omega[k % n]
    if n % 2 == 0:
        candidates = range(1, n, 2)
    else:
        candidates = (c for c in range(1, n) if math.gcd(c, n) == 1)
    candidates = list(candidates)
    for _ in range(1, d):
        best_c, best_err = None, np.inf
        for c in candidates:
            err = float(prods @ (1.0 + omega[(k * c) % n]))
            if err < best_err:  # strict: earlier (smaller) candidate wins ties
                best_c, best_err = c, err
        z.append(best_c)
        prods = prods * (1.0 + omega[(k * best_c) % n])
    return Rank1Lattice(d, n, tuple(z))
