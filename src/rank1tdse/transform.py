"""Mapping between lattice samples and Fourier coefficients via 1-D FFTs.

On a rank-1 lattice the multi-dimensional pseudo-spectral transform reduces
to a single one-dimensional DFT of length ``n``: the coefficient for the
residue class ``xi`` is ``(1/n) sum_k u(p_k) exp(-2 pi i xi k / n)``.  The
forward transform carries the ``1/n`` factor, the inverse none, so the
Euclidean norm of the coefficients equals the L2 norm of the represented
trigonometric polynomial.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np
import scipy.fft

from .antialias import AntiAliasingSet, _write_atomic
from .lattice import Rank1Lattice

__all__ = [
    "SpectralState",
    "NodalValues",
    "forward",
    "inverse",
    "evaluate_offlattice",
    "aliasing_oracle",
    "vector_norm",
    "save_snapshot",
    "load_snapshot",
]


@dataclass
class SpectralState:
    """Complex coefficients on the anti-aliasing set at a physical time."""

    coeffs: np.ndarray
    aa: AntiAliasingSet
    time: float = 0.0

    def __post_init__(self) -> None:
        self.coeffs = np.asarray(self.coeffs, dtype=np.complex128)
        if self.coeffs.shape != (self.aa.n,):
            raise ValueError(f"coefficient vector has shape {self.coeffs.shape}, expected ({self.aa.n},)")

    def copy(self) -> "SpectralState":
        return SpectralState(self.coeffs.copy(), self.aa, self.time)


@dataclass
class NodalValues:
    """Function values at the lattice points, in index order k = 0..n-1."""

    values: np.ndarray
    lattice: Rank1Lattice

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.complex128)
        if self.values.shape != (self.lattice.n,):
            raise ValueError(f"value vector has shape {self.values.shape}, expected ({self.lattice.n},)")


def forward(values: NodalValues, aa: AntiAliasingSet, time: float = 0.0) -> SpectralState:
    """Lattice samples -> coefficients, a size-n DFT with 1/n normalization."""
    if aa.lattice != values.lattice:
        raise ValueError("nodal values and anti-aliasing set built on different lattices")
    coeffs = scipy.fft.fft(values.values)
    coeffs /= values.lattice.n
    return SpectralState(coeffs, aa, time)


def inverse(state: SpectralState) -> NodalValues:
    """Coefficients -> lattice samples (exact interpolation inverse of forward)."""
    values = scipy.fft.ifft(state.coeffs) * state.aa.n
    return NodalValues(values, state.aa.lattice)


def evaluate_offlattice(state: SpectralState, x) -> complex:
    """Evaluate the truncated series ``sum_xi c_xi exp(2 pi i h_xi . x)`` at any x."""
    x = np.asarray(x, dtype=np.float64)
    phases = np.exp(2j * np.pi * (state.aa.freq @ x))
    return complex(state.coeffs @ phases)


def aliasing_oracle(true_coeffs: Mapping[Sequence[int], complex], aa: AntiAliasingSet,
                    time: float = 0.0) -> SpectralState:
    """Predict the lattice-rule coefficients of a sparse trigonometric polynomial.

    Each true coefficient at frequency ``h`` lands in the slot of its residue
    class ``h . z mod n``; coefficients sharing a class add up (aliasing).
    """
    coeffs = np.zeros(aa.n, dtype=np.complex128)
    for h, c in true_coeffs.items():
        coeffs[int(aa.lattice.residues(h))] += c
    return SpectralState(coeffs, aa, time)


def vector_norm(v: np.ndarray) -> float:
    """Euclidean norm of a contiguous complex vector, summed by numpy over its float64 view.

    No copy is made and no BLAS is called, so the bits do not depend on the
    BLAS thread count.
    """
    x = v.view(np.float64)
    return float(np.sqrt(np.einsum("i,i->", x, x)))


def save_snapshot(state: SpectralState, path) -> None:
    """Write ``{n, time, interleaved re/im doubles}`` little-endian, atomically."""
    head = struct.pack("<qd", state.aa.n, state.time)
    _write_atomic(path, (head, np.ascontiguousarray(state.coeffs, dtype="<c16")))


def load_snapshot(path, aa: AntiAliasingSet) -> SpectralState:
    """Read a snapshot written by ``save_snapshot``, checking its header and size against ``aa``."""
    with open(path, "rb") as fh:
        head = fh.read(16)
        if len(head) < 16:
            raise ValueError(f"{path}: truncated snapshot ({len(head)} bytes, header needs 16)")
        n, time = struct.unpack("<qd", head)
        if n != aa.n:
            raise ValueError(f"{path}: snapshot has n={n}, anti-aliasing set has n={aa.n}")
        if os.fstat(fh.fileno()).st_size != 16 + 16 * n:
            raise ValueError(f"{path}: truncated snapshot")
        coeffs = np.fromfile(fh, dtype="<c16", count=n)
    return SpectralState(coeffs, aa, time)
