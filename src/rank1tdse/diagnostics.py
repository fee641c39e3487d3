"""Matrix-free checks of the operator structure.

Two verifications: (a) the multiplication operator in coefficient space is
circulant, and its first column, one FFT of the potential, matches the
analytic aliasing sum for polynomial potentials (two n-vectors, any n);
(b) nested commutators of the kinetic diagonal with the multiplication
operator, scaled by ``(D + I)^-p``, stay bounded as n grows when the
frequency representatives are norm-minimal, and blow up when they are not.
At p = 0 the norm is read off the potential; otherwise the scaled operator
is never formed: a power step rebuilds it 64 rows at a time from a read-only
circulant view, so a check holds three 64 x n buffers and a power step costs
O(n^2) time, n up to the dense limit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
import scipy.fft

from .antialias import AntiAliasingSet, _norms2
from .operators import PotentialField, check_epsilon, smooth_potential_coefficients
from .transform import aliasing_oracle

__all__ = [
    "CommutatorReport",
    "dense_multiplication_operator",
    "check_dense_input",
    "circulant_check",
    "commutator_norm",
    "commutator_sweep",
    "shifted_representatives",
]

_DENSE_LIMIT = 1 << 12
_GROWTH_LIMIT = 2.0  # a sweep is bounded while its largest norm is below this multiple of its smallest


@dataclass
class CommutatorReport:
    """Spectral-norm estimates of the scaled p-th commutator over a sweep of n."""

    p: int
    n_values: list[int]
    norms: list[float]
    bounded: bool

    def to_json(self) -> str:
        doc = {
            "p": self.p,
            "entries": [{"n": n, "norm": nr} for n, nr in zip(self.n_values, self.norms)],
            "verdict": "bounded" if self.bounded else "growing",
        }
        return json.dumps(doc, indent=2)


def _circulant(w: np.ndarray) -> np.ndarray:
    """Read-only ``C[i, j] = w[(i - j) mod n]``: row i is the window from n - 1 - i of the reversed ``w`` twice over."""
    twice = np.tile(w[::-1], 2)[:-1]
    return np.lib.stride_tricks.sliding_window_view(twice, w.shape[0])[::-1]


def _first_column(pf: PotentialField) -> np.ndarray:
    """``w = FFT(v) / n``, the convention of ``transform.forward``: W's first column."""
    return scipy.fft.fft(pf.values) / pf.values.shape[0]


def check_dense_input(n: int, p: int = 0, epsilon: float = 1.0) -> None:
    """Raise ``ValueError`` for n above the dense limit, a commutator order p outside 0..4 or epsilon <= 0."""
    if n > _DENSE_LIMIT:
        raise ValueError(f"n = {n} too large for dense assembly (limit {_DENSE_LIMIT})")
    if not 0 <= p <= 4:
        raise ValueError("commutator order p must be in 0..4")
    check_epsilon(epsilon)


def dense_multiplication_operator(pf: PotentialField) -> np.ndarray:
    """W = F diag(v) F^-1, the potential's action in coefficient space: the circulant
    ``W[i, j] = w[(i - j) mod n]`` of ``w = FFT(v) / n`` (the convention of ``transform.forward``)."""
    check_dense_input(pf.values.shape[0])
    return _circulant(_first_column(pf)).copy()


def circulant_check(aa: AntiAliasingSet, pf: PotentialField) -> float:
    """Max elementwise deviation between the two multiplication-operator builds.

    Compares the circulant of the tabulated potential's FFT against the circulant of its
    analytic Fourier coefficients, whose first column is their aliasing sum
    ``w_j = sum of v_hat(h) over h . z == j``; every entry of a circulant is one of its first
    column's, so the two columns give the same maximum.  Only defined for the smooth
    product potential, whose coefficient support is finite.
    """
    if pf.kind != "smooth_v1":
        raise ValueError("analytic-column comparison needs a trigonometric-polynomial potential")
    pf.check_lattice(aa)
    w = _first_column(pf)
    w -= aliasing_oracle(smooth_potential_coefficients(aa.lattice.d), aa).coeffs
    return float(np.abs(w).max())


def _spectral_norm(normal, n: int, iters: int = 50, rtol: float = 1e-8) -> float:
    """Power iteration with a fixed seed on ``normal(y) = M^H M y`` for an n x n M; returns ||M||_2."""
    rng = np.random.default_rng(0)
    y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    y /= np.linalg.norm(y)
    prev = 0.0
    for _ in range(iters):
        y = normal(y)
        lam = np.linalg.norm(y)
        if lam == 0.0:
            return 0.0
        y /= lam
        if abs(lam - prev) <= rtol * lam:
            break
        prev = lam
    return float(np.sqrt(lam))


def commutator_norm(aa: AntiAliasingSet, pf: PotentialField, p: int, epsilon: float = 1.0) -> float:
    """``|| ad_D^p(W) (D+I)^-p ||_2``, exact at p = 0 and by power iteration from p = 1, never forming the operator.

    D is the kinetic diagonal ``2 pi^2 eps ||h_xi||^2`` and W the potential
    multiplication operator divided by eps.  D is diagonal, so the p-fold
    commutator M is W scaled entrywise by ``(d_i - d_j)^p``.  At p = 0, M = W/eps
    is unitarily similar to ``diag(v)/eps``, so its norm is ``max|v|/eps`` exactly.
    For p >= 1 each power step sums ``M_R^H (M_R y)`` over blocks R of 64 rows,
    each rebuilt from the circulant view of W's first column into three reused
    64 x n buffers (8 MiB at the dense limit).
    """
    check_dense_input(aa.n, p, epsilon)
    if p == 0:
        return float(np.abs(pf.values).max()) / epsilon
    n = aa.n
    d_diag = 2.0 * np.pi**2 * epsilon * aa.norms2.astype(np.float64)
    denominator = (d_diag + 1.0) ** p * epsilon
    W = _circulant(_first_column(pf))
    diff, scale = np.empty((min(n, 64), n)), np.empty((min(n, 64), n))
    block = np.empty((min(n, 64), n), dtype=np.complex128)

    def normal(y: np.ndarray) -> np.ndarray:
        acc = np.zeros(n, dtype=np.complex128)  # conj(M^H M y), summed block by block
        for lo in range(0, n, 64):
            t, s, b = (buf[:min(64, n - lo)] for buf in (diff, scale, block))
            np.subtract(d_diag[lo:lo + 64, None], d_diag, out=t)
            np.divide(t, denominator, out=s)
            for _ in range(p - 1):
                s *= t
            np.multiply(W[lo:lo + 64], s, out=b)
            acc += np.conj(b @ y) @ b
        return np.conj(acc, out=acc)

    return _spectral_norm(normal, n)


def shifted_representatives(aa: AntiAliasingSet) -> AntiAliasingSet:
    """A deliberately non-minimal variant: add n to the first coordinate.

    Residues are unchanged (the shift is a dual-lattice vector), so the set
    is still a valid anti-aliasing set, but every nonzero representative has
    a squared norm of order n^2.  Used as a contrast case in the commutator
    sweep.
    """
    freq = aa.freq.astype(np.int64)
    freq[1:, 0] += aa.lattice.n
    return AntiAliasingSet(aa.lattice, freq, _norms2(freq))


def commutator_sweep(lattices_and_sets, pf_for, p: int, epsilon: float = 1.0) -> CommutatorReport:
    """Run commutator_norm over several (lattice, set) pairs and judge the trend.

    ``pf_for(lattice)`` must tabulate the same potential on each lattice.
    The heuristic verdict is bounded when the overall growth factor across
    the sweep stays below ``_GROWTH_LIMIT``.
    """
    n_values, norms = [], []
    for lat, aa in lattices_and_sets:
        n_values.append(lat.n)
        norms.append(commutator_norm(aa, pf_for(lat), p, epsilon))
    growth = max(norms) / max(min(norms), 1e-300)
    return CommutatorReport(p, n_values, norms, bounded=growth < _GROWTH_LIMIT)
