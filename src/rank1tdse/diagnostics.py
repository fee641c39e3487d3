"""Desk-scale dense-matrix checks of the operator structure.

Two verifications, both limited to moduli small enough for dense n x n
assembly: (a) the multiplication operator in coefficient space is circulant
and matches the analytic first-column formula for polynomial potentials;
(b) nested commutators of the kinetic diagonal with the multiplication
operator, scaled by ``(D + I)^-p``, stay bounded as n grows when the
frequency representatives are norm-minimal, and blow up when they are not.
W is the circulant of one FFT of the potential and is scaled in place, so a
check holds one n x n complex array and a power step costs O(n^2).
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
    "check_circulant_size",
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
    """``C[i, j] = w[(i - j) mod n]``: row i is the window from n - 1 - i of the reversed ``w`` twice over."""
    twice = np.tile(w[::-1], 2)[:-1]
    return np.lib.stride_tricks.sliding_window_view(twice, w.shape[0])[::-1].copy()


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
    n = pf.values.shape[0]
    check_dense_input(n)
    return _circulant(scipy.fft.fft(pf.values) / n)


def check_circulant_size(n: int) -> None:
    """Raise ``ValueError`` for n > 2^10, where ``circulant_check``'s dense n x n matrices are not desk-scale."""
    if n > 1 << 10:
        raise ValueError(f"lattice has n = {n}; the circulant check is desk-scale (n <= 2^10)")


def circulant_check(aa: AntiAliasingSet, pf: PotentialField) -> float:
    """Max elementwise deviation between the two multiplication-operator builds.

    Compares ``dense_multiplication_operator``, the circulant of the tabulated
    potential's FFT, against the circulant of its analytic Fourier coefficients, whose
    first column is their aliasing sum ``w_j = sum of v_hat(h) over h . z == j``.
    Only defined for the smooth product potential, whose coefficient support
    is finite.
    """
    check_circulant_size(aa.n)
    if pf.kind != "smooth_v1":
        raise ValueError("analytic-column comparison needs a trigonometric-polynomial potential")
    pf.check_lattice(aa)
    dense = dense_multiplication_operator(pf)
    dense -= _circulant(aliasing_oracle(smooth_potential_coefficients(aa.lattice.d), aa).coeffs)
    return float(np.abs(dense).max())


def _spectral_norm(M: np.ndarray, iters: int = 50, rtol: float = 1e-8) -> float:
    """Power iteration on M* M with a fixed seed; returns ||M||_2."""
    rng = np.random.default_rng(0)
    y = rng.standard_normal(M.shape[0]) + 1j * rng.standard_normal(M.shape[0])
    y /= np.linalg.norm(y)
    prev = 0.0
    for _ in range(iters):
        y = np.conj(np.conj(M @ y) @ M)  # M^H (M y) without a conjugate copy of M
        lam = np.linalg.norm(y)
        if lam == 0.0:
            return 0.0
        y /= lam
        if abs(lam - prev) <= rtol * lam:
            break
        prev = lam
    return float(np.sqrt(lam))


def commutator_norm(aa: AntiAliasingSet, pf: PotentialField, p: int, epsilon: float = 1.0) -> float:
    """Estimate ``|| ad_D^p(W) (D+I)^-p ||_2`` densely.

    D is the kinetic diagonal ``2 pi^2 eps ||h_xi||^2`` and W the potential
    multiplication operator divided by eps.  D is diagonal, so the p-fold
    commutator is W scaled entrywise by ``(d_i - d_j)^p``, here in place by
    blocks of rows; the spectral norm is estimated by power iteration.
    """
    check_dense_input(aa.n, p, epsilon)
    d_diag = 2.0 * np.pi**2 * epsilon * aa.norms2.astype(np.float64)
    denominator = (d_diag + 1.0) ** p * epsilon
    M = dense_multiplication_operator(pf)
    for lo in range(0, aa.n, 64):  # a 64 x n float temporary, 2 MiB at the dense limit
        M[lo:lo + 64] *= (d_diag[lo:lo + 64, None] - d_diag) ** p / denominator
    return _spectral_norm(M)


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
