"""Desk-scale dense-matrix checks of the operator structure.

Two verifications, both limited to moduli small enough for dense n x n
assembly: (a) the multiplication operator in coefficient space is circulant
and matches the analytic first-column formula for polynomial potentials;
(b) nested commutators of the kinetic diagonal with the multiplication
operator, scaled by ``(D + I)^-p``, stay bounded as n grows when the
frequency representatives are norm-minimal, and blow up when they are not.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .antialias import AntiAliasingSet, _norms2
from .operators import PotentialField, smooth_potential_coefficients
from .transform import aliasing_oracle

__all__ = [
    "CommutatorReport",
    "fourier_matrix",
    "dense_multiplication_operator",
    "check_circulant_size",
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


def fourier_matrix(n: int) -> np.ndarray:
    """Unitary DFT matrix with entries exp(-2 pi i a b / n) / sqrt(n)."""
    idx = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(idx, idx) / n) / np.sqrt(n)


def dense_multiplication_operator(pf: PotentialField) -> np.ndarray:
    """W = F diag(v) F^-1, the potential's action in coefficient space."""
    n = pf.values.shape[0]
    if n > _DENSE_LIMIT:
        raise ValueError(f"n = {n} too large for dense assembly (limit {_DENSE_LIMIT})")
    F = fourier_matrix(n)
    return (F * pf.values) @ F.conj().T


def check_circulant_size(n: int) -> None:
    """Raise ``ValueError`` for n > 2^10, where ``circulant_check``'s dense n x n matrices are not desk-scale."""
    if n > 1 << 10:
        raise ValueError(f"lattice has n = {n}; the circulant check is desk-scale (n <= 2^10)")


def circulant_check(aa: AntiAliasingSet, pf: PotentialField) -> float:
    """Max elementwise deviation between the two multiplication-operator builds.

    Compares the dense conjugation ``F diag(v) F^-1`` against the circulant
    matrix assembled from the potential's analytic Fourier coefficients, whose
    first column is their aliasing sum ``w_j = sum of v_hat(h) over h . z == j``.
    Only defined for the smooth product potential, whose coefficient support
    is finite.
    """
    check_circulant_size(aa.n)
    if pf.kind != "smooth_v1":
        raise ValueError("analytic-column comparison needs a trigonometric-polynomial potential")
    pf.check_lattice(aa)
    dense = dense_multiplication_operator(pf)
    w = aliasing_oracle(smooth_potential_coefficients(aa.lattice.d), aa).coeffs
    xi = np.arange(aa.n)
    analytic = w[(xi[:, None] - xi[None, :]) % aa.n]
    return float(np.abs(dense - analytic).max())


def _spectral_norm(M: np.ndarray, iters: int = 50, rtol: float = 1e-8) -> float:
    """Power iteration on M* M with a fixed seed; returns ||M||_2."""
    rng = np.random.default_rng(0)
    y = rng.standard_normal(M.shape[0]) + 1j * rng.standard_normal(M.shape[0])
    y /= np.linalg.norm(y)
    MH = M.conj().T
    prev = 0.0
    for _ in range(iters):
        y = MH @ (M @ y)
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
    commutator is W scaled entrywise by ``(d_i - d_j)^p``; the spectral norm is
    estimated by power iteration.
    """
    if not 0 <= p <= 4:
        raise ValueError("commutator order p must be in 0..4")
    d_diag = 2.0 * np.pi**2 * epsilon * aa.norms2.astype(np.float64)
    M = dense_multiplication_operator(pf)
    M *= (d_diag[:, None] - d_diag[None, :]) ** p / ((d_diag[None, :] + 1.0) ** p * epsilon)
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
