"""Rank-1 lattice point sets on the d-dimensional unit torus.

A rank-1 lattice is the point set ``{z*k/n mod 1 : k = 0..n-1}`` determined
by a modulus ``n`` and a generating vector ``z``.  Coordinates are kept as
exact integer numerators over ``n``; conversion to floating point happens
only when a function is evaluated at the points.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import numbers
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.fft

__all__ = ["Rank1Lattice", "PRESETS", "load_lattice", "cbc_construct"]

#: Built-in generating vectors, keyed by preset name.  Given each preset's own
#: earlier components, ``paper-d4``, ``paper-d6`` and ``paper-d8`` are choices of
#: ``cbc_construct`` up to an orbit tie at component 2 (443165 is tied with its
#: 387275, 6422017 with its 6159871); ``paper-d2`` is not, its CBC z is (1, 19463).
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

#: Rows per block of a set-up pass: a multiple of every SIMD width, so a blocked ufunc rounds as a whole one.
_BLOCK = 1 << 16
_PARALLEL_MIN = 1 << 20  # threads from n = 2^20: two lost at 2^16, and in one session of three up to 2^19
_pool = functools.lru_cache(maxsize=1)(ThreadPoolExecutor)  # one pool of ``workers`` threads, made when first used
if hasattr(os, "register_at_fork"):  # a forked child has none of the pool's threads
    os.register_at_fork(after_in_child=_pool.cache_clear)


def stage_workers(n: int) -> int:
    """Threads the passes of length ``n`` run on: every CPU of the process from ``_PARALLEL_MIN``, else 1
    (and 1 where the platform reports no CPU affinity)."""
    return len(os.sched_getaffinity(0)) if n >= _PARALLEL_MIN and hasattr(os, "sched_getaffinity") else 1


def _blockwise(n: int, task: Callable[..., None], *scratch: type, block: int | None = None) -> None:
    """``task(lo, hi, *bufs)`` per block [lo, hi) of ``block`` (default ``_BLOCK``) rows of range(n),
    block i on thread i % ``stage_workers(n)`` (with one, this thread); ``bufs`` are the thread's own
    buffers of the ``scratch`` dtypes.  A last block of one row joins the block before it: numpy
    multiplies a one-element array in place through its scalar loop, which rounds differently."""
    block, workers = block or _BLOCK, stage_workers(n)
    bufs = [np.empty((workers, min(block + 1, n)), dtype) for dtype in scratch]  # here, not in the pool's arenas

    def run(i: int) -> None:
        for lo in range(i * block, n - (n > 1), workers * block):
            hi = lo + block if n - lo - block > 1 else n
            task(lo, hi, *(buf[i, :hi - lo] for buf in bufs))
    if workers == 1:
        return run(0)
    list(_pool(workers).map(run, range(workers)))  # raises a task's error


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

    def point(self, k: int) -> tuple[int, ...]:
        """Numerators ``z_j * k mod n`` of point ``k``."""
        if not 0 <= k < self.n:
            raise IndexError(f"point index {k} outside [0, {self.n})")
        return tuple((zj * k) % self.n for zj in self.z)

    def numerator_column(self, j: int, lo: int = 0, hi: int | None = None) -> np.ndarray:
        """Numerators ``k z_j mod n``, k = lo..hi-1 (default 0..n-1), int64; all n are a permutation of 0..n-1."""
        col = np.arange(lo, self.n if hi is None else hi, dtype=np.int64)  # in place: one vector alive, not two
        col *= self.z[j]
        col %= self.n
        return col

    def node_coords(self) -> np.ndarray:
        """(n, d) float64 array of point coordinates in [0, 1)."""
        return np.stack([self.numerator_column(j) for j in range(self.d)], axis=1) / float(self.n)

    def residues(self, h) -> np.ndarray:
        """``h . z mod n`` for a (..., d) array of frequency vectors, accumulated in int64 by blocks of rows
        and reduced after the last column: exact while every |h_j| < 2^63 / (d n)."""
        h = np.asarray(h)
        res = np.zeros(h.shape[:-1], dtype=np.int64)
        rows, out = h.reshape(-1, h.shape[-1]), res.reshape(-1)

        def accumulate(lo: int, hi: int, term: np.ndarray) -> None:
            block = out[lo:hi]
            for j, zj in enumerate(self.z):
                np.multiply(rows[lo:hi, j], zj, out=term, dtype=np.int64)
                block += term
            block %= self.n
        _blockwise(len(rows), accumulate, np.int64)
        return res

    def to_dict(self) -> dict:
        return {"d": self.d, "n": self.n, "z": list(self.z)}


def load_lattice(source) -> Rank1Lattice:
    """Load a lattice from a preset name, a dict ``{d, n, z}``, or a JSON file path; ``ValueError`` names
    what is missing or malformed."""
    if isinstance(source, Rank1Lattice):
        return source
    if isinstance(source, str):
        if source in PRESETS:
            d, n, z = PRESETS[source]
            return Rank1Lattice(d, n, z)
        try:
            with open(source) as fh:
                source = json.load(fh)
        except OSError as e:
            raise ValueError(f"{source}: {e.strerror}") from None
    if isinstance(source, dict):
        if missing := {"d", "n", "z"} - source.keys():
            raise ValueError(f"lattice has no field {min(missing)!r}")
        d, n, z = source["d"], source["n"], source["z"]
        if not isinstance(z, (list, tuple)):
            raise ValueError(f"z = {z!r} is not a list")
        for field, value in [("d", d), ("n", n), *((f"z[{j}]", v) for j, v in enumerate(z))]:
            if isinstance(value, bool) or not (isinstance(value, numbers.Integral)
                                               or isinstance(value, float) and value.is_integer()):
                raise ValueError(f"{field} = {value!r} is not an integer")
        return Rank1Lattice(int(d), int(n), tuple(int(v) for v in z))
    raise ValueError(f"cannot load lattice from {source!r}")


def _korobov_kernel_table(n: int) -> np.ndarray:
    """omega(m/n) for m = 0..n-1, the alpha=1 Korobov worst-case error kernel."""
    x = np.arange(n, dtype=np.float64) / n
    return 2.0 * np.pi**2 * (x * x - x + 1.0 / 6.0)


#: Tie tolerance of ``cbc_construct``, in units of ``||p||_2 ||omega||_2 / sqrt(n)``.
#: Against long-double direct sums over each component's 48 lowest-scoring units,
#: the FFT score errs by at most 4.3e-15 at n <= 2^16 (d <= 8), 1.4e-15 at 2^20 and
#: 2.6e-15 at 2^24; the next score above a tie set lies at least 8.9e-8 (n <= 2^16),
#: 2.7e-10 (2^20) and 4.9e-12 (2^24) above the least.
_TIE_TOL = 1e-13


def _prime_factors(n: int) -> dict[int, int]:
    """``{q: e}`` with ``n = prod q^e``, by trial division."""
    out: dict[int, int] = {}
    q = 2
    while q * q <= n:
        while n % q == 0:
            out[q] = out.get(q, 0) + 1
            n //= q
        q += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _cyclic_factors(q: int, e: int) -> list[tuple[int, int]]:
    """(generator, order) of each cyclic factor of the unit group mod ``q^e``."""
    if q == 2:  # -1 and 5 for e >= 3, -1 for e = 2, none for e = 1
        return [(2**e - 1, 2), (5, 2 ** (e - 2))] if e >= 3 else [(3, 2)] * (e - 1)
    g = next(g for g in range(2, q)
             if all(pow(g, (q - 1) // r, q) != 1 for r in _prime_factors(q - 1)))
    if e > 1 and pow(g, q - 1, q * q) == 1:
        g += q  # a primitive root mod q^2 is one mod every power of q
    return [(g, q ** (e - 1) * (q - 1))]


def _powers(g: int, order: int, n: int) -> np.ndarray:
    """``g^j mod n`` for ``j = 0..order-1``, by doubling the known prefix."""
    out = np.ones(order, dtype=np.int64)
    done = 1
    while done < order:
        step = min(done, order - done)
        out[done:done + step] = out[:step] * pow(g, done, n) % n
        done += step
    return out


def _unit_group(n: int) -> np.ndarray:
    """The units of Z_n laid out on the product of their cyclic factors (CRT).

    Entry ``e`` is ``prod_i g_i^e_i mod n``, so multiplying two units adds their
    indices cyclically along every axis.
    """
    table = np.ones(1, dtype=np.int64)
    for q, e in _prime_factors(n).items():
        m = q**e
        rest = n // m
        for g, order in _cyclic_factors(q, e):
            lift = (1 + rest * ((g - 1) * pow(rest, -1, m))) % n  # g mod m, 1 mod rest
            table = table[..., None] * _powers(lift, order, n) % n
    return table


def _divisors(n: int) -> list[int]:
    """The divisors of ``n``, ascending."""
    out = [1]
    for q, e in _prime_factors(n).items():
        out = [g * q**i for g in out for i in range(e + 1)]
    return sorted(out)


def _tie_sets(n: int, z: list[int]):
    """Yield, for i = 0, 1, ..., the ascending units c of Z_n tied for the least score
    ``sum_k p[k] omega(k c / n)``, ``p[k] = prod_{l <= i} (1 + omega(k z[l] / n))``;
    ``z[i]`` is read when set i is asked for, so the caller may extend ``z`` meanwhile.

    The terms with ``gcd(k, n) = g < n`` (k = 0 adds the same to every score and is left out) form a
    correlation over U(n/g), laid out as the leading block of ``_unit_group(n)`` reduced mod n/g: per
    axis, the exponents below the order of that axis's generator mod n/g.  Pulled back to U(n) the
    correlation tiles that block, so its spectrum sits on every (axis / block)-th frequency of U(n)'s
    half-spectrum, times the tile count: each level adds one real FFT there, and one inverse FFT per
    component scores every unit."""
    omega, units = _korobov_kernel_table(n), _unit_group(n)
    # per axis: its generator (the unit of exponent 1 there, 0 elsewhere) and the divisors of its length
    axes = [(units.item(*(int(a == i) % s for a, s in enumerate(units.shape))), _divisors(size))
            for i, size in enumerate(units.shape)]
    # per divisor g < n: where its spectrum sits, the indices g u of its block's units u, and the
    # tile count times the spectrum of omega(g u / n)
    levels = []
    for g in _divisors(n)[:-1]:
        block = [min(j for j in divs if pow(x, j, n // g) == 1) for x, divs in axes]
        idx = (g * (units[tuple(map(slice, block))] % (n // g))).astype(np.int32 if n < 2**31 else np.int64)
        at = tuple(slice(None, None, size // b) for size, b in zip(units.shape, block))
        levels.append((at, idx, units.size // idx.size * scipy.fft.rfftn(omega[idx])))
    prods = np.ones(n)
    for i in itertools.count():
        prods *= 1.0 + omega[np.arange(n) * z[i] % n]
        spectrum = np.zeros(units.shape[:-1] + (units.shape[-1] // 2 + 1,), complex)
        for at, idx, kernel in levels:
            spectrum[at] += np.conj(scipy.fft.rfftn(prods[idx])) * kernel
        score = scipy.fft.irfftn(spectrum, units.shape)
        tol = _TIE_TOL * np.sqrt(np.sum(prods * prods) * np.sum(omega * omega) / n)
        yield np.sort(units[score <= score.min() + tol])


def cbc_construct(d: int, n: int) -> Rank1Lattice:
    """Greedy component-by-component generating vector for the alpha=1 criterion.

    z_1 = 1; each later component is a unit c of Z_n minimizing the squared
    worst-case error ``sum_k p[k] (1 + omega(k c / n))``, ``p`` the product over
    the components already fixed.  A unit scores ``sum_k p[k] omega(k c / n)``,
    without the constant ``sum_k p[k]``, and all scores come at once from the
    fast CBC of Nuyens--Cools: the terms with ``gcd(k, n) = g`` form a correlation
    over the unit group of Z_{n/g}, one real FFT per divisor g, summed in the spectrum
    of U(n) and scored by one inverse FFT per component, so a component costs O(n log n).
    Exact ties are common (c ~ n - c, and c ~ c^-1 for component 2), so c is the
    smallest unit scoring within ``_TIE_TOL ||p||_2 ||omega||_2 / sqrt(n)`` of the
    least.  Measured in these units up to n = 2^24 (see ``_TIE_TOL``), the FFT errs by
    at most 4.3e-15 and every score outside the tie set lies 4.9e-12 or more above it.
    """
    if n < 2 or d < 1:
        raise ValueError("need n >= 2 and d >= 1")
    z = [1]
    for ties in itertools.islice(_tie_sets(n, z), d - 1):
        z.append(int(ties[0]))
    return Rank1Lattice(d, n, tuple(z))
