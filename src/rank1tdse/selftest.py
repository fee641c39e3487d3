"""Quick desk-scale property checks, runnable without pytest."""

from __future__ import annotations

import numpy as np

from . import antialias, diagnostics
from .lattice import Rank1Lattice
from .operators import (
    make_gaussian,
    make_kinetic,
    make_potential,
    smooth_potential_coefficients,
)
from .splitting import empirical_order, evolve, scheme
from .transform import NodalValues, aliasing_oracle, forward, inverse


def _check_transform_roundtrip() -> None:
    lat = Rank1Lattice(2, 256, (1, 37))
    aa = antialias.build(lat)
    rng = np.random.default_rng(7)
    vals = rng.standard_normal(256) + 1j * rng.standard_normal(256)
    back = inverse(forward(NodalValues(vals, lat), aa)).values
    assert np.abs(back - vals).max() < 1e-12


def _check_character_property() -> None:
    lat = Rank1Lattice(2, 64, (1, 19))
    aa = antialias.build(lat)
    x = lat.node_coords()
    for xi in (0, 1, 17, 63):
        for xi2 in (0, 1, 17, 63):
            s = np.mean(np.exp(2j * np.pi * (x @ (aa.freq[xi].astype(np.int64) - aa.freq[xi2]))))
            assert abs(s - (1.0 if xi == xi2 else 0.0)) < 1e-12


def _check_aliasing() -> None:
    lat = Rank1Lattice(2, 5, (1, 3))
    aa = antialias.build(lat)
    rng = np.random.default_rng(1)
    support = {(2, 1): 1.0 + 0j, (0, 0): 0.5, (4, -3): complex(*rng.standard_normal(2))}
    vals = np.zeros(5, dtype=np.complex128)
    x = lat.node_coords()
    for h, c in support.items():
        vals += c * np.exp(2j * np.pi * (x @ np.asarray(h)))
    got = forward(NodalValues(vals, lat), aa).coeffs
    want = aliasing_oracle(support, aa).coeffs
    assert np.abs(got - want).max() < 1e-12


def _check_unitarity() -> None:
    lat = Rank1Lattice(2, 128, (1, 47))
    aa = antialias.build(lat)
    kt = make_kinetic(aa)
    pf = make_potential("harmonic_v2", lat)
    state = make_gaussian(aa)
    out, rec = evolve(state, scheme("s9odr6a"), kt, pf, 50, 0.02, 1.0)
    assert abs(rec.final_norm - 1.0) < 1e-12


def _check_order_fit() -> None:
    dts = [0.1 / 2**k for k in range(5)]
    assert abs(empirical_order([(dt, 7 * dt**6) for dt in dts]) - 6.0) < 1e-8


def _check_circulant() -> None:
    lat = Rank1Lattice(2, 5, (1, 3))
    aa = antialias.build(lat)
    dev = diagnostics.circulant_check(aa, make_potential("smooth_v1", lat))
    assert dev < 1e-13


def _check_minimality() -> None:
    lat = Rank1Lattice(2, 32, (1, 9))
    aa = antialias.build(lat)
    r = int(np.ceil(np.sqrt(aa.max_norm2()))) + 1
    g = np.arange(-r, r + 1)
    hh = np.stack(np.meshgrid(g, g, indexing="ij"), axis=-1).reshape(-1, 2)
    res = lat.residues(hh)
    n2 = np.einsum("ij,ij->i", hh, hh)
    best = np.full(lat.n, np.iinfo(np.int64).max)
    np.minimum.at(best, res, n2)
    assert np.array_equal(best, aa.norms2)


CHECKS = [
    ("transform round-trip", _check_transform_roundtrip),
    ("character property", _check_character_property),
    ("aliasing identity", _check_aliasing),
    ("splitting unitarity", _check_unitarity),
    ("order fitting", _check_order_fit),
    ("circulant equivalence", _check_circulant),
    ("anti-aliasing minimality", _check_minimality),
]


def run() -> int:
    failures = 0
    for name, fn in CHECKS:
        try:
            fn()
        except Exception as exc:  # noqa: BLE001 - report and keep going
            failures += 1
            print(f"FAIL {name}: {exc}")
        else:
            print(f"PASS {name}")
    return 1 if failures else 0
