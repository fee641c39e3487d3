"""Exponential splitting schemes and the time-stepping loop.

One step applies the stage product right-to-left: for j = s down to 1 the
kinetic phase with weight ``a_j`` and then the potential phase with weight
``b_j``.  All shipped coefficient tables are real and palindromic, each sums
to one, and stages with a zero weight are skipped (no transform executed).

Each ``evolve`` call builds one stage plan for all its steps, so pass m steps
rather than looping over single steps.  The plan holds one phase n-vector per
distinct nonzero ``b`` and one phase table over the kinetic table's rates (one
per squared norm, at most n) per distinct nonzero ``a``.  The stages run in
place on one evolving copy of the state, held in ``operators.stage_layout(n)``
(from n = 2^15, m2 rows of m1 + 1 with a pad per row, as are the phase vectors
and, once per call, the kinetic index): a kinetic stage gathers its phases
block by block over the flat padded buffer, and a potential stage runs its FFT
pair (with pocketfft's n-vector of scratch on the 1-D pair, a twiddle buffer per
thread made by each call on the four-step pair; see ``SplittingScheme.plan_vectors``).
Both, and the phase build, run on ``EvolutionRecord.workers`` =
``lattice.stage_workers(n)`` threads.  At the end the copy's rows are moved over
the pads in place, and its first n entries are the result.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass

import numpy as np

from .lattice import stage_workers
from .operators import (KineticTable, PotentialField, four_step_split, kinetic_stage, potential_stage, stage_compact,
                        stage_copy)
from .transform import SpectralState, vector_norm

__all__ = [
    "SplittingScheme",
    "EvolutionRecord",
    "SCHEME_NAMES",
    "scheme",
    "evolve",
    "empirical_order",
    "ORDER_FIT_FLOOR",
]

#: Errors at or below this are treated as roundoff noise when fitting slopes.
ORDER_FIT_FLOOR = 1e-11


@dataclass(frozen=True)
class SplittingScheme:
    """Named stage table ``(a_j, b_j)`` with nominal convergence order."""

    name: str
    order_p: int
    stages: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        sa = sum(a for a, _ in self.stages)
        sb = sum(b for _, b in self.stages)
        if abs(sa - 1.0) > 1e-12 or abs(sb - 1.0) > 1e-12:
            raise ValueError(
                f"scheme {self.name!r}: stage sums ({sa}, {sb}) must both equal 1"
            )

    def plan_vectors(self, n: int) -> int:
        """Complex n-vectors ``evolve`` holds at length n: one per distinct nonzero b, state,
        copy, and pocketfft's scratch where the potential stage runs the 1-D pair.  Where the four-step
        pair runs, the copy and each phase vector hold n + m2 entries (``operators.stage_layout``).

        Not counted: the set (``paper-d4``: 6 MiB, 0.375 n-vectors), the kinetic index (int16 on ``paper-d2``)
        and its padded copy made per call (n + m2 entries in the index's type: 128 KiB on ``paper-d2``,
        2 MiB on ``paper-d4``),
        one kinetic phase table per distinct nonzero a over the rates (at most n; ``paper-d2``'s 8 277 norms:
        1.1 n-vectors for ``s17odr8a``), and the four-step pair's twiddle tables and block buffer per thread,
        made by each stage call (n/2 at 2^16; n/8 at 2^20, n/16 at 2^24 on two)."""
        return len({b for _, b in self.stages} - {0.0}) + 2 + (four_step_split(n) is None)


@dataclass
class EvolutionRecord:
    steps_taken: int
    dt: float
    wall_time: float
    final_norm: float
    fft_pairs: int  # inverse/forward transform pairs run: m * (stages with b != 0)
    workers: int  # threads the stages ran on: lattice.stage_workers(n)


# Sixth-order "s9odr6a" table: entries j=1..5 shown, the rest by symmetry
# a_j = a_{10-j}, b_j = b_{11-j}, and a_10 = 0.
_A6 = (
    0.392161444007314,
    0.332599136789359,
    -0.706246172557639,
    0.0822135962935508,
    0.798543990934830,
)
_B6 = (
    0.196080722003657,
    0.362380290398337,
    -0.186823517884140,
    -0.312016288132044,
    0.440378793614190,
)

# Eighth-order "s17odr8a" table: entries j=1..9 shown, the rest by symmetry
# a_j = a_{18-j}, b_j = b_{19-j}, and a_18 = 0.
_A8 = (
    0.130202483088890,
    0.561162981775108,
    -0.389474962644847,
    0.158841906555156,
    -0.395903894133238,
    0.184539640978316,
    0.258374387686322,
    0.295011723609310,
    -0.605508533830035,
)
_B8 = (
    0.0651012415444450,
    0.345682732431999,
    0.0858440095651306,
    -0.115316528044846,
    -0.118530993789041,
    -0.105682126577461,
    0.221457014332319,
    0.276693055647816,
    -0.155248405110362,
)


def _palindromic(name: str, order: int, a_half, b_half) -> SplittingScheme:
    a = tuple(a_half) + tuple(a_half[-2::-1]) + (0.0,)
    b = tuple(b_half) + tuple(b_half[::-1])
    return SplittingScheme(name, order, tuple(zip(a, b)))


_REGISTRY: dict[str, SplittingScheme] = {
    "strang": SplittingScheme("strang", 2, ((1.0, 0.5), (0.0, 0.5))),
    "s9odr6a": _palindromic("s9odr6a", 6, _A6, _B6),
    "s17odr8a": _palindromic("s17odr8a", 8, _A8, _B8),
}

SCHEME_NAMES = tuple(_REGISTRY)


def scheme(name: str) -> SplittingScheme:
    """Look up a registered scheme by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(f"unknown scheme {name!r}; known: {', '.join(_REGISTRY)}") from None


def evolve(state: SpectralState, sch: SplittingScheme, kt: KineticTable, pf: PotentialField,
           m: int, dt: float, epsilon: float) -> tuple[SpectralState, EvolutionRecord]:
    """Run ``m`` successive steps of size ``dt``; deterministic for fixed inputs."""
    if m < 1:
        raise ValueError("step count m must be >= 1")
    if pf.values.shape != state.coeffs.shape:
        raise ValueError("state and potential field sizes disagree")
    if epsilon != kt.epsilon:
        raise ValueError(f"epsilon = {epsilon!r} differs from the kinetic table's {kt.epsilon!r}")
    pf.check_lattice(state.aa)
    kt.check_set(state.aa)
    # the evolving copy, in the stages' layout, is made before the plan, so that the plan's arrays lie
    # above it on the heap and go back to the system when the call returns; compacted in place, it is the result
    work = stage_copy(state.coeffs)
    flat, index = work.reshape(-1), (kt.index if work.ndim == 1 else stage_copy(kt.index).reshape(-1))
    kin = {a: kt.phases(a, dt) for a in {a for a, _ in sch.stages} - {0.0}}
    pot = {b: pf.phases(b, dt, epsilon) for b in {b for _, b in sch.stages} - {0.0}}
    t0 = _time.perf_counter()
    for k in range(m):
        for a, b in reversed(sch.stages):
            if a != 0.0:
                kinetic_stage(flat, kin[a], index)
            if b != 0.0:
                potential_stage(work, pot[b])
        if not np.all(np.isfinite(work)):
            raise FloatingPointError(f"non-finite coefficients after step {k + 1} of {m}")
    wall = _time.perf_counter() - t0
    coeffs = stage_compact(work)
    out = SpectralState(coeffs, state.aa, state.time + m * dt)
    pairs = m * sum(b != 0.0 for _, b in sch.stages)
    rec = EvolutionRecord(m, dt, wall, vector_norm(coeffs), pairs, stage_workers(coeffs.size))
    return out, rec


def empirical_order(errors) -> float:
    """Least-squares slope of log(err) against log(dt).

    Points with ``err < ORDER_FIT_FLOOR`` are discarded as roundoff noise; at
    least three usable points are required.
    """
    pts = [(dt, err) for dt, err in errors if err >= ORDER_FIT_FLOOR]
    if len(pts) < 3:
        raise ValueError(f"only {len(pts)} points above the floor {ORDER_FIT_FLOOR}; need >= 3")
    log_dt = np.log([dt for dt, _ in pts])
    log_err = np.log([err for _, err in pts])
    slope, _ = np.polyfit(log_dt, log_err, 1)
    return float(slope)
