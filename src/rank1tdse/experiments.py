"""Convergence-study runner with machine-readable reports.

A run builds the lattice, anti-aliasing set (disk-cached), Gaussian initial
state and potential once, evolves a fine-step reference solution, then
re-evolves from the same initial state for every entry of the step-count
sweep.  The reported error is the Euclidean norm of the coefficient
difference, which equals the L2 function-space error on the fixed
anti-aliasing set, so no quadrature is involved.
"""

from __future__ import annotations

import io
import json
import numbers
import os
from dataclasses import dataclass, field, fields, asdict
from pathlib import Path

import numpy as np

from . import antialias
from .lattice import Rank1Lattice, load_lattice
from .operators import make_gaussian, make_kinetic, make_potential
from .splitting import ORDER_FIT_FLOOR, empirical_order, evolve, scheme
from .transform import vector_norm

__all__ = [
    "ExperimentConfig",
    "ConvergenceRow",
    "ConvergenceReport",
    "default_cache_dir",
    "run_convergence",
    "emit",
]

CACHE_ENV_VAR = "RANK1TDSE_CACHE_DIR"

DEFAULT_SWEEP = (5, 10, 20, 50, 100, 200, 500, 1000)


def default_cache_dir() -> Path:
    env = os.environ.get(CACHE_ENV_VAR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "rank1tdse"


#: the types each ``ExperimentConfig`` field accepts: JSON's, plus a tuple of step counts
_FIELD_TYPES = {
    "preset": (str, type(None)), "lattice": (dict, type(None)), "potential": str, "scheme": str,
    "epsilon": numbers.Real, "final_time": numbers.Real, "reference_steps": numbers.Integral,
    "sweep_steps": (list, tuple), "output": (str, type(None)), "cache_dir": (str, type(None)),
}


@dataclass
class ExperimentConfig:
    """Everything needed to reproduce one convergence study."""

    preset: str | None = None
    lattice: dict | None = None          # explicit {d, n, z}, overrides preset
    potential: str = "harmonic_v2"
    scheme: str = "s9odr6a"
    epsilon: float = 1.0
    final_time: float = 1.0
    reference_steps: int = 10000
    sweep_steps: tuple[int, ...] = DEFAULT_SWEEP
    output: str | None = None
    cache_dir: str | None = None

    def __post_init__(self) -> None:
        for f in fields(self):
            if not isinstance(value := getattr(self, f.name), _FIELD_TYPES[f.name]):
                raise ValueError(f"{f.name} = {value!r} is not of type {f.type}")
        if not all(isinstance(m, numbers.Integral) for m in self.sweep_steps):
            raise ValueError(f"sweep_steps = {self.sweep_steps!r} is not a list of integers")
        self.sweep_steps = tuple(int(m) for m in self.sweep_steps)
        if self.preset is None and self.lattice is None:
            raise ValueError("config needs a lattice preset or an explicit lattice")
        if not self.sweep_steps:
            raise ValueError("sweep_steps must not be empty")
        if any(m < 1 for m in self.sweep_steps):
            raise ValueError("all sweep step counts must be >= 1")
        if self.reference_steps <= max(self.sweep_steps):
            raise ValueError("reference_steps must exceed every sweep step count")
        if self.final_time <= 0 or self.epsilon <= 0:
            raise ValueError("final_time and epsilon must be positive")

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(doc) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**doc)

    def build_lattice(self) -> Rank1Lattice:
        return load_lattice(self.lattice if self.lattice is not None else self.preset)

    def to_dict(self) -> dict:
        doc = asdict(self)
        doc["sweep_steps"] = list(self.sweep_steps)
        return doc


@dataclass
class ConvergenceRow:
    m: int
    dt: float
    err: float
    floor_filtered: bool


@dataclass
class ConvergenceReport:
    config: dict
    aaset_sha256: str
    rows: list[ConvergenceRow] = field(default_factory=list)
    fitted_order: float | None = None


def run_convergence(config: ExperimentConfig) -> ConvergenceReport:
    """Execute the study described by ``config`` and fit the empirical order."""
    lat = config.build_lattice()
    cache_dir = config.cache_dir if config.cache_dir is not None else default_cache_dir()
    aa = antialias.cached_build(lat, cache_dir)
    kt = make_kinetic(aa, config.epsilon)
    pf = make_potential(config.potential, lat)
    sch = scheme(config.scheme)
    state0 = make_gaussian(aa, config.epsilon)

    t = config.final_time
    ref, _ = evolve(state0, sch, kt, pf, config.reference_steps,
                    t / config.reference_steps, config.epsilon)

    rows: list[ConvergenceRow] = []
    for m in sorted(set(config.sweep_steps)):  # ascending m = descending dt
        st, _ = evolve(state0, sch, kt, pf, m, t / m, config.epsilon)
        err = vector_norm(np.subtract(ref.coeffs, st.coeffs, out=st.coeffs))
        rows.append(ConvergenceRow(m, t / m, err, err < ORDER_FIT_FLOOR))

    fitted = None
    usable = [(r.dt, r.err) for r in rows if not r.floor_filtered]
    if len(usable) >= 3:
        fitted = empirical_order(usable)
    return ConvergenceReport(config.to_dict(), aa.sha256(), rows, fitted)


def _csv_text(report: ConvergenceReport) -> str:
    buf = io.StringIO()
    buf.write(f"# config: {json.dumps(report.config, sort_keys=True)}\n")
    buf.write(f"# aaset_sha256: {report.aaset_sha256}\n")
    order = "" if report.fitted_order is None else repr(report.fitted_order)
    buf.write(f"# fitted_order: {order}\n")
    buf.write("m,dt,err,floor_filtered\n")
    for r in report.rows:
        buf.write(f"{r.m},{r.dt!r},{r.err!r},{int(r.floor_filtered)}\n")
    return buf.getvalue()


def emit(report: ConvergenceReport, path, fmt: str = "csv") -> None:
    """Write the report as CSV or JSON; both embed the config echo and set hash."""
    path = Path(path)
    if fmt == "csv":
        path.write_text(_csv_text(report))
    elif fmt == "json":
        doc = {
            "config": report.config,
            "aaset_sha256": report.aaset_sha256,
            "fitted_order": report.fitted_order,
            "rows": [asdict(r) for r in report.rows],
        }
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    else:
        raise ValueError(f"unknown format {fmt!r}; use 'csv' or 'json'")

