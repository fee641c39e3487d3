"""Split operators for the lattice-discretized Schrödinger equation.

The kinetic half is diagonal in coefficient space with phases proportional
to the squared norms of the anti-aliasing frequencies; the potential half is
diagonal in nodal space and is applied through an inverse/forward transform
pair.  Both are unitary, so the discrete L2 norm is preserved.

Both stages work in place: a kinetic stage multiplies one cache-sized block of
residues at a time by its gathered phases, and a potential stage runs the FFT
pair over the state itself (from n = 2^15 a four-step transform whose nodal order is
transposed), so a stage allocates no complex n-vector.  The potential phases are
built in their own result, in the stage's order, without a complex temporary.  All
three run their blocks through ``lattice._blockwise``: from n = 2^20 on a thread per CPU.

The named potentials and the Gaussian packet are sums or products of one 1-D
factor per coordinate.  Per block of points, the factor is evaluated on one
coordinate column (k z_j mod n)/n at a time and combined into the result, so
set-up holds the result and block buffers at any d (from n = 2^20 on a thread
per CPU).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.fft

from .antialias import AntiAliasingSet
from .lattice import Rank1Lattice, _blockwise, stage_workers
from .transform import SpectralState

__all__ = [
    "KineticTable",
    "PotentialField",
    "POTENTIAL_KINDS",
    "make_kinetic",
    "kinetic_apply",
    "kinetic_stage",
    "make_potential",
    "potential_apply",
    "make_gaussian",
    "smooth_potential_coefficients",
]


@dataclass(frozen=True)
class KineticTable:
    """Kinetic rates ``2 pi^2 eps ||h||^2``, one per norm (``make_kinetic``); residue k has ``rates[index[k]]``."""

    epsilon: float
    norms2: np.ndarray
    rates: np.ndarray
    index: np.ndarray

    @property
    def phases_base(self) -> np.ndarray:
        return self.rates[self.index]

    def phases(self, a: float, dt: float) -> np.ndarray:
        """``exp(-i a dt rate)`` per entry of ``rates``, to be gathered through ``index``."""
        return np.exp(-1j * a * dt * self.rates)

    def check_set(self, aa: AntiAliasingSet) -> None:
        """Raise ``ValueError`` unless this table was built from ``aa`` (same squared norms)."""
        if not (self.norms2 is aa.norms2 or np.array_equal(self.norms2, aa.norms2)):
            raise ValueError("kinetic table was built from another anti-aliasing set than the state's")


@dataclass(frozen=True)
class PotentialField:
    """Potential values at the points of ``lattice``; ``make_potential`` names them by one of POTENTIAL_KINDS."""

    values: np.ndarray
    kind: str
    lattice: Rank1Lattice

    def __post_init__(self) -> None:
        if self.values.shape != (self.lattice.n,):
            raise ValueError(f"potential values have shape {self.values.shape}, expected ({self.lattice.n},)")

    def phases(self, b: float, dt: float, epsilon: float) -> np.ndarray:
        """``exp(-i b dt v(p_k) / eps)`` at every lattice point, in ``potential_stage``'s nodal order.

        The bits equal ``np.exp(-1j * (b * dt / epsilon) * values)`` without its complex temporary.
        Each row block of the stage's order is built from a cache-blocked read of ``values``.
        """
        n, scale, split = self.values.size, -(b * dt / epsilon), four_step_split(self.values.size)
        (m1, m2), rows = (split, len(_twiddles(n)[0])) if split else ((1, n), _BLOCK)  # the pair's row blocks
        values, out = self.values.reshape(m1, m2), np.zeros((m2, m1), np.complex128)

        def build(lo: int, hi: int) -> None:
            r, s = lo // m1, hi // m1
            block, arg = out[r:s], np.multiply(values[:, r:s], scale)
            np.add(arg.T, 0.0, out=block.imag)  # -0.0 -> +0.0 where v = 0, as the complex product gives
            np.exp(block, out=block)
        _blockwise(n, build, block=rows * m1)
        return out.reshape(-1)

    def check_lattice(self, aa: AntiAliasingSet) -> None:
        """Raise ``ValueError`` unless this field was tabulated on ``aa``'s lattice."""
        if self.lattice != aa.lattice:
            raise ValueError("potential field was tabulated on another lattice than the state's")


def check_epsilon(epsilon: float) -> None:
    """Raise ``ValueError`` unless the semiclassical parameter epsilon is positive."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")


def make_kinetic(aa: AntiAliasingSet, epsilon: float = 1.0) -> KineticTable:
    """One rate per norm 0..max||h||^2 while at least half of them occur in the set (``index`` is then
    ``aa.norms2``), else one per norm that occurs, at most n: by one ``bincount`` below n, by a sort from
    n on (d = 1, non-minimal sets: up to n^2/4).  The index is intp: a narrower one is cast per block."""
    check_epsilon(epsilon)
    if (top := aa.max_norm2()) >= aa.n:
        norms, index = np.unique(aa.norms2, return_inverse=True)
    elif 2 * np.count_nonzero(present := np.bincount(aa.norms2) > 0) > top:
        norms, index = np.arange(top + 1), aa.norms2
    else:
        norms, index = np.flatnonzero(present), (np.cumsum(present) - 1)[aa.norms2]
    return KineticTable(epsilon, aa.norms2, 2.0 * np.pi**2 * epsilon * norms, index)


#: Residues per block of a kinetic stage: 2^14 complex values, 256 KiB.
_BLOCK = 1 << 14
_FOUR_STEP_MIN = 1 << 15  # the four-step pair from n = 2^15, timed on powers of two (at 2^13 no faster)


def kinetic_stage(coeffs: np.ndarray, table: np.ndarray, index: np.ndarray) -> np.ndarray:
    """``coeffs *= table[index]`` in place, one block of residues at a time (``lattice._blockwise``)."""
    def multiply(lo: int, hi: int) -> None:
        block = coeffs[lo:hi]
        block *= table[index[lo:hi]]
    _blockwise(coeffs.size, multiply, block=_BLOCK)
    return coeffs


def four_step_split(n: int) -> tuple[int, int] | None:
    """(m1, m2) = (2^(k//2), n/m1) of the four-step pair at n = 2^k >= 2^15; None where the 1-D pair runs."""
    m1 = 1 << (n.bit_length() - 1) // 2
    return (m1, n // m1) if n >= _FOUR_STEP_MIN and n & (n - 1) == 0 else None


@functools.lru_cache(maxsize=4)
def _twiddles(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The four-step pair's read-only twiddle tables: ``lo`` within a block of rows, ``hi`` per block."""
    (m1, m2), rows = (split := four_step_split(n)), max(_BLOCK // split[0], math.isqrt(split[1]))
    lo, hi = (np.exp((2j * np.pi / n) * (np.outer(j, range(m1)) % n)) for j in (range(rows), range(0, m2, rows)))
    lo.flags.writeable = hi.flags.writeable = False
    return lo, hi


def potential_stage(coeffs: np.ndarray, phases: np.ndarray) -> np.ndarray:
    """Inverse FFT, times ``PotentialField.phases``, forward FFT, in place; four-step on (m2, m1)
    from ``four_step_split``, a block of rows at a time (``lattice._blockwise``), row r + l's twiddle
    ``hi[r] lo[l]`` in the thread's own buffer, the batched passes on ``stage_workers(n)`` threads."""
    if (split := four_step_split(coeffs.size)) is None:
        x = scipy.fft.ifft(coeffs, overwrite_x=True)
        x *= phases
        return scipy.fft.fft(x, overwrite_x=True)
    (m1, m2), (lo, hi), workers = split, _twiddles(coeffs.size), stage_workers(coeffs.size)
    c, p = coeffs.reshape(m2, m1), phases.reshape(m2, m1)

    def middle(start: int, stop: int, buf: np.ndarray) -> None:
        r, s = start // m1, stop // m1
        twiddle = np.multiply(lo[:s - r], hi[r // len(lo)], out=buf.reshape(-1, m1))
        block = c[r:s]
        block *= twiddle
        scipy.fft.ifft(block, axis=1, overwrite_x=True)
        block *= p[r:s]
        scipy.fft.fft(block, axis=1, overwrite_x=True)
        block *= np.conjugate(twiddle, out=twiddle)
    scipy.fft.ifft(c, axis=0, overwrite_x=True, workers=workers)
    _blockwise(coeffs.size, middle, lo.dtype, block=lo.size)
    return scipy.fft.fft(c, axis=0, overwrite_x=True, workers=workers).reshape(-1)


def kinetic_apply(state: SpectralState, kt: KineticTable, a: float, dt: float) -> SpectralState:
    """Multiply each coefficient by ``exp(-i a dt * phase_xi)``."""
    kt.check_set(state.aa)
    if a == 0.0 or dt == 0.0:
        return state.copy()
    coeffs = kinetic_stage(state.coeffs.copy(), kt.phases(a, dt), kt.index)
    return SpectralState(coeffs, state.aa, state.time)


def potential_apply(state: SpectralState, pf: PotentialField, b: float, dt: float,
                    epsilon: float) -> SpectralState:
    """Apply ``exp(-i b dt v(p_k) / eps)`` pointwise in nodal space (see ``potential_stage``)."""
    pf.check_lattice(state.aa)
    if b == 0.0 or dt == 0.0:
        return state.copy()
    coeffs = potential_stage(state.coeffs.copy(), pf.phases(b, dt, epsilon))
    return SpectralState(coeffs, state.aa, state.time)


def _centered_square(x: np.ndarray) -> np.ndarray:
    """(2 pi x - pi)^2 in place, the per-coordinate term of ``harmonic_v2`` and of the Gaussian's exponent."""
    x *= 2.0 * np.pi
    x -= np.pi
    return np.square(x, out=x)


def _one_minus_cos(x: np.ndarray) -> np.ndarray:
    """1 - cos(2 pi x) in place, the per-coordinate factor of ``smooth_v1``."""
    x *= 2.0 * np.pi
    np.cos(x, out=x)
    return np.subtract(1.0, x, out=x)


def _half_centered_square(x: np.ndarray) -> np.ndarray:
    """(2 pi x - pi)^2 / 2 in place, the per-coordinate term of ``harmonic_v2``."""
    return np.multiply(_centered_square(x), 0.5, out=x)


#: Per kind, the 1-D factor, which overwrites its argument, and how the d
#: factors combine: ``smooth_v1`` = prod_j (1 - cos(2 pi x_j)), an analytic
#: trigonometric polynomial, and ``harmonic_v2`` = sum_j (2 pi x_j - pi)^2 / 2,
#: whose periodic extension has a kink.
POTENTIAL_KINDS: dict[str, tuple[Callable[[np.ndarray], np.ndarray], np.ufunc]] = {
    "smooth_v1": (_one_minus_cos, np.multiply),
    "harmonic_v2": (_half_centered_square, np.add),
}


def potential_kind(kind: str) -> tuple[Callable[[np.ndarray], np.ndarray], np.ufunc]:
    """``POTENTIAL_KINDS[kind]``; ``ValueError`` for a name that is not a key."""
    if kind not in POTENTIAL_KINDS:
        raise ValueError(f"unknown potential kind {kind!r}")
    return POTENTIAL_KINDS[kind]


def _tabulate(lattice: Rank1Lattice, factor: Callable[[np.ndarray], np.ndarray],
              combine: np.ufunc) -> np.ndarray:
    """``combine_j factor(x_j)`` at every lattice point, in the order j = 0..d-1, by blocks of points.

    The values equal numpy's row product over the (n, d) coordinates, and its
    row sum for d <= 7 (from eight terms on numpy sums in pairs: a few ulp off).
    """
    # the result first, below the temporaries; 1 * f and 0 + f are f (no factor is -0.0)
    n, acc = lattice.n, np.empty(lattice.n)

    def fill(lo: int, hi: int, x: np.ndarray) -> None:
        block = acc[lo:hi]
        block.fill(combine.identity)
        for j in range(lattice.d):
            combine(block, factor(np.divide(lattice.numerator_column(j, lo, hi), float(n), out=x)), out=block)
    _blockwise(n, fill, np.float64)
    return acc


def make_potential(kind: str, lattice: Rank1Lattice) -> PotentialField:
    """Tabulate a named potential (one of ``POTENTIAL_KINDS``) at all lattice points."""
    return PotentialField(_tabulate(lattice, *potential_kind(kind)), kind, lattice)


def smooth_potential_coefficients(d: int) -> dict[tuple[int, ...], float]:
    """Exact Fourier coefficients of the smooth product potential.

    Per dimension 1 - cos(2 pi x) has coefficients {0: 1, +-1: -1/2}; the
    product potential is their tensor product on {-1, 0, 1}^d.
    """
    one_d = {0: 1.0, 1: -0.5, -1: -0.5}
    out: dict[tuple[int, ...], float] = {}
    for h in itertools.product((-1, 0, 1), repeat=d):
        out[h] = math.prod(one_d[hj] for hj in h)
    return out


def make_gaussian(aa: AntiAliasingSet, epsilon: float = 1.0) -> SpectralState:
    """Gaussian wave packet centered at (1/2, ..., 1/2), as a unit-norm state.

    Samples ``(2/(pi eps))^(d/4) exp(-sum_j (2 pi x_j - pi)^2 / eps)`` on the
    lattice, transforms (as ``forward``, in place), and normalizes the
    coefficient vector to unit l2 norm (the discrete Parseval-consistent
    normalization).
    """
    check_epsilon(epsilon)
    lat = aa.lattice
    coeffs = np.empty(lat.n, dtype=np.complex128)  # the result first: the temporaries lie above it
    vals, scale = _tabulate(lat, _centered_square, np.add), (2.0 / (np.pi * epsilon)) ** (lat.d / 4.0)

    def sample(lo: int, hi: int) -> None:
        block = vals[lo:hi]
        block /= -epsilon
        np.exp(block, out=block)
        block *= scale
        coeffs[lo:hi] = block
    _blockwise(lat.n, sample)
    del vals  # before the FFT, which then reuses its memory
    coeffs = scipy.fft.fft(coeffs, overwrite_x=True)
    coeffs /= lat.n
    coeffs /= np.linalg.norm(coeffs)
    return SpectralState(coeffs, aa)
