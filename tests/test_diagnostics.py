import json

import numpy as np
import pytest

from rank1tdse import antialias
from rank1tdse.diagnostics import (
    circulant_check,
    commutator_norm,
    commutator_sweep,
    dense_multiplication_operator,
    fourier_matrix,
    shifted_representatives,
    _spectral_norm,
)
from rank1tdse.lattice import Rank1Lattice
from rank1tdse.operators import make_potential, smooth_potential_coefficients
from rank1tdse.transform import aliasing_oracle


def v1_for(lat):
    return make_potential("smooth_v1", lat)


@pytest.fixture(scope="module")
def sweep_pairs():
    pairs = []
    for n, z2 in ((64, 19), (256, 37), (1024, 275)):
        lat = Rank1Lattice(2, n, (1, z2))
        pairs.append((lat, antialias.build(lat)))
    return pairs


def test_fourier_matrix_unitary():
    F = fourier_matrix(16)
    assert np.abs(F @ F.conj().T - np.eye(16)).max() < 1e-13


def test_dense_operator_of_constant_potential():
    lat = Rank1Lattice(1, 8, (1,))
    pf = make_potential(None, lat, func=lambda x: np.full(len(x), 3.0))
    W = dense_multiplication_operator(pf)
    assert np.abs(W - 3.0 * np.eye(8)).max() < 1e-13


def test_dense_operator_is_circulant():
    lat = Rank1Lattice(2, 5, (1, 3))
    W = dense_multiplication_operator(v1_for(lat))
    for i in range(5):
        for j in range(5):
            assert abs(W[i, j] - W[(i + 1) % 5, (j + 1) % 5]) < 1e-13


def test_dense_limit_enforced():
    lat = Rank1Lattice(1, 1 << 13, (1,))
    with pytest.raises(ValueError, match="too large"):
        dense_multiplication_operator(v1_for(lat))


def test_first_column_d1():
    lat = Rank1Lattice(1, 8, (1,))
    w = aliasing_oracle(smooth_potential_coefficients(1), antialias.build(lat)).coeffs
    assert np.allclose(w, [1.0, -0.5, 0, 0, 0, 0, 0, -0.5])


def test_first_column_aliases_collide():
    lat = Rank1Lattice(2, 5, (1, 3))
    w = aliasing_oracle({(0, 0): 1.0, (2, 1): 2.0}, antialias.build(lat)).coeffs  # both residue 0
    assert w[0] == 3.0 and np.count_nonzero(w) == 1


def test_circulant_check_small():
    for lat in (Rank1Lattice(1, 8, (1,)), Rank1Lattice(2, 5, (1, 3))):
        aa = antialias.build(lat)
        assert circulant_check(aa, v1_for(lat)) <= 1e-12


def test_circulant_check_guards():
    lat = Rank1Lattice(1, 1 << 11, (1,))
    with pytest.raises(ValueError, match="desk-scale"):
        circulant_check(antialias.build(lat), v1_for(lat))
    small = Rank1Lattice(2, 5, (1, 3))
    with pytest.raises(ValueError, match="trigonometric"):
        circulant_check(antialias.build(small), make_potential("harmonic_v2", small))
    other = Rank1Lattice(2, 5, (1, 2))
    with pytest.raises(ValueError, match="another lattice"):
        circulant_check(antialias.build(other), v1_for(small))


def test_commutator_p0_is_operator_norm():
    lat = Rank1Lattice(2, 5, (1, 3))
    aa = antialias.build(lat)
    got = commutator_norm(aa, v1_for(lat), p=0)
    want = np.linalg.norm(dense_multiplication_operator(v1_for(lat)), ord=2)
    assert abs(got - want) < 1e-8 * want


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_commutator_equals_repeated_commutation(p):
    """The entrywise (d_i - d_j)^p scaling against p explicit commutations D M - M D."""
    lat = Rank1Lattice(2, 64, (1, 19))
    aa, pf, eps = antialias.build(lat), v1_for(lat), 0.7
    d = 2.0 * np.pi**2 * eps * aa.norms2.astype(np.float64)
    M = dense_multiplication_operator(pf) / eps
    for _ in range(p):
        M = d[:, None] * M - M * d[None, :]
    want = _spectral_norm(M / (d[None, :] + 1.0) ** p)
    assert abs(commutator_norm(aa, pf, p, eps) - want) <= 1e-12 * want


def test_commutator_p_validation():
    lat = Rank1Lattice(2, 5, (1, 3))
    aa = antialias.build(lat)
    with pytest.raises(ValueError):
        commutator_norm(aa, v1_for(lat), p=5)


def test_shifted_representatives_same_residues():
    lat = Rank1Lattice(2, 64, (1, 19))
    aa = antialias.build(lat)
    shifted = shifted_representatives(aa)
    assert np.array_equal(lat.residues(shifted.freq), lat.residues(aa.freq))
    assert shifted.norms2[0] == 0  # the zero vector is kept as-is
    assert shifted.norms2[1:].min() >= lat.n**2 - 2 * lat.n * np.abs(aa.freq[:, 0]).max()


def test_minimal_representatives_stay_bounded(sweep_pairs):
    for p in (1, 2):
        rep = commutator_sweep(sweep_pairs, v1_for, p)
        growth = max(rep.norms) / min(rep.norms)
        assert growth < 2.0 and rep.bounded


def test_non_minimal_representatives_grow(sweep_pairs):
    for p in (1, 2):
        contrast = [(lat, shifted_representatives(aa)) for lat, aa in sweep_pairs]
        rep = commutator_sweep(contrast, v1_for, p)
        growth = max(rep.norms) / min(rep.norms)
        assert growth > 4.0 and not rep.bounded


def test_report_json(sweep_pairs):
    rep = commutator_sweep(sweep_pairs[:2], v1_for, 1)
    doc = json.loads(rep.to_json())
    assert doc["p"] == 1
    assert [e["n"] for e in doc["entries"]] == [64, 256]
    assert doc["verdict"] in ("bounded", "growing")
