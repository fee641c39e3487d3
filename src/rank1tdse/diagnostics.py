"""Matrix-free checks of the operator structure.

Two verifications: (a) the multiplication operator in coefficient space is
circulant, and its first column, one FFT of the potential, matches the
analytic aliasing sum for polynomial potentials (two n-vectors, any n);
(b) nested commutators of the kinetic diagonal with the multiplication
operator, scaled by ``(D + I)^-p``, stay bounded as n grows when the
frequency representatives are norm-minimal, and blow up when they are not.
At p = 0 the norm is read off the potential; for p >= 1 a power step sums W's |R| <= 3^d
nonzero diagonals, read off the smooth potential's analytic column, scaled: O(|R| n) time
and a few n-vectors, at any n.  The scaled operator is never formed.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.fft

from .antialias import AntiAliasingSet, _norms2
from .operators import PotentialField, check_epsilon, smooth_potential_coefficients
from .transform import aliasing_oracle

__all__ = [
    "CommutatorReport",
    "check_commutator_input",
    "circulant_check",
    "commutator_norm",
    "commutator_sweep",
    "shifted_representatives",
]

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


def _analytic_column(aa: AntiAliasingSet, pf: PotentialField) -> np.ndarray:
    """W's first column as the aliasing sum ``w_j = sum of v_hat(h) over h . z == j`` of the potential's
    analytic coefficients; ``ValueError`` unless ``pf`` is the smooth product potential on ``aa``'s lattice."""
    if pf.kind != "smooth_v1":
        raise ValueError("the analytic first column needs a trigonometric-polynomial potential")
    pf.check_lattice(aa)
    return aliasing_oracle(smooth_potential_coefficients(aa.lattice.d), aa).coeffs


def check_commutator_input(p: int, epsilon: float) -> None:
    """Raise ``ValueError`` for a commutator order p outside 0..4 or an epsilon that is not positive."""
    if not 0 <= p <= 4:
        raise ValueError("commutator order p must be in 0..4")
    check_epsilon(epsilon)


def circulant_check(aa: AntiAliasingSet, pf: PotentialField) -> float:
    """Max elementwise deviation between the two multiplication-operator builds.

    Compares the circulant of the tabulated potential's FFT against the circulant of its
    analytic Fourier coefficients; every entry of a circulant is one of its first
    column's, so the two columns give the same maximum.  Only defined for the smooth
    product potential, whose coefficient support is finite.
    """
    w = _analytic_column(aa, pf)
    w -= scipy.fft.fft(pf.values) / aa.n  # the convention of ``transform.forward``
    return float(np.abs(w).max())


def _spectral_norm(normal, n: int, iters: int = 50, rtol: float = 1e-8) -> float:
    """Power iteration with a fixed seed on ``normal(y) = M^H M y`` for an n x n M; returns ||M||_2,
    with a ``RuntimeWarning`` if ``iters`` steps end before the estimate changes by ``rtol`` or less."""
    rng = np.random.default_rng(0)
    y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    y /= np.linalg.norm(y)
    lam = 0.0
    for _ in range(iters):
        y = normal(y)
        prev, lam = lam, np.linalg.norm(y)
        if lam == 0.0:
            return 0.0
        y /= lam
        if abs(lam - prev) <= rtol * lam:
            return float(np.sqrt(lam))
    warnings.warn(f"power iteration stopped after {iters} steps at relative change "
                  f"{abs(lam - prev) / lam:.1e}", RuntimeWarning, stacklevel=2)
    return float(np.sqrt(lam))


def _shift(a: np.ndarray, r: int, out: np.ndarray) -> np.ndarray:
    """``out[i] = a[(i - r) mod n]``, the cyclic shift S^r of ``a``, written into ``out``."""
    out[r:], out[:r] = a[:a.shape[0] - r], a[a.shape[0] - r:]
    return out


def commutator_norm(aa: AntiAliasingSet, pf: PotentialField, p: int, epsilon: float = 1.0) -> float:
    """``|| ad_D^p(W) (D+I)^-p ||_2``, exact at p = 0 and by power iteration from p = 1, never forming the operator.

    D is the kinetic diagonal ``2 pi^2 eps ||h_xi||^2`` and W the potential
    multiplication operator divided by eps.  D is diagonal, so the p-fold
    commutator M is W scaled entrywise by ``(d_i - d_j)^p``.  At p = 0, M = W/eps
    is unitarily similar to ``diag(v)/eps``, so its norm is ``max|v|/eps`` exactly.
    For p >= 1 W is the circulant of the analytic column w, whose support R has at
    most 3^d residues, so ``M = sum over r in R of diag(w_r g_r) S^r`` with
    ``g_r[i] = (d_i - d_{i-r})^p / ((d_{i-r} + 1)^p eps)`` and a power step costs
    O(|R| n); r = 0 is skipped, its g_0 is zero.
    """
    check_commutator_input(p, epsilon)
    if p == 0:
        return float(np.abs(pf.values).max()) / epsilon
    n, w = aa.n, _analytic_column(aa, pf)
    terms = [(r, w[r]) for r in np.flatnonzero(w[1:]) + 1]  # g_0 = 0: W's diagonal drops out
    del w
    d_diag = 2.0 * np.pi**2 * epsilon * aa.norms2.astype(np.float64)
    denominator = (d_diag + 1.0) ** p * epsilon
    diff, scale = np.empty(n), np.empty(n)
    weights, term = np.empty(n, dtype=np.complex128), np.empty(n, dtype=np.complex128)

    def weight(r: int, wr: complex) -> np.ndarray:
        """``wr g_r`` into ``weights``; each g_r[i] is computed as the dense scaling's (i, i - r) entry was."""
        np.subtract(d_diag, _shift(d_diag, r, diff), out=diff)
        np.divide(diff, _shift(denominator, r, scale), out=scale)
        for _ in range(p - 1):
            np.multiply(scale, diff, out=scale)
        return np.multiply(scale, wr, out=weights)

    def normal(y: np.ndarray) -> np.ndarray:
        my = np.zeros(n, dtype=np.complex128)
        for r, wr in terms:
            my += np.multiply(weight(r, wr), _shift(y, r, term), out=term)
        out = np.zeros(n, dtype=np.complex128)  # M^H (M y): S^-r of conj(w_r g_r) (M y), summed over r
        for r, wr in terms:
            out += _shift(np.multiply(weight(r, np.conj(wr)), my, out=term), n - r, weights)
        return out

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
