import json

import numpy as np
import pytest
import scipy.fft

from rank1tdse import antialias
from rank1tdse.diagnostics import (
    circulant_check,
    commutator_norm,
    commutator_sweep,
    shifted_representatives,
    _spectral_norm,
)
from rank1tdse.lattice import Rank1Lattice, cbc_construct, load_lattice
from rank1tdse.operators import PotentialField, make_potential, smooth_potential_coefficients
from rank1tdse.transform import NodalValues, SpectralState, aliasing_oracle, forward, inverse


def v1_for(lat):
    return make_potential("smooth_v1", lat)


def dense_norm(M):
    """``_spectral_norm`` of a dense matrix, its normal operator applied as ``M^H (M y)``."""
    return _spectral_norm(lambda y: np.conj(np.conj(M @ y) @ M), M.shape[0])


def circulant_matrix(w):
    """``C[i, j] = w[(i - j) mod n]`` by index arithmetic."""
    i = np.arange(len(w))
    return w[(i[:, None] - i[None, :]) % len(w)]


def fft_operator(pf):
    """W as the circulant of ``FFT(v) / n`` (the convention of ``transform.forward``), built densely."""
    return circulant_matrix(scipy.fft.fft(pf.values) / pf.values.shape[0])


@pytest.fixture(scope="module")
def sweep_pairs():
    pairs = []
    for n, z2 in ((64, 19), (256, 37), (1024, 275)):
        lat = Rank1Lattice(2, n, (1, z2))
        pairs.append((lat, antialias.build(lat)))
    return pairs


def test_fourier_matrix_unitary(fourier_matrix):
    F = fourier_matrix(16)
    assert np.abs(F @ F.conj().T - np.eye(16)).max() < 1e-13


def test_conjugation_oracle_multiplies_in_coefficient_space(conjugated_operator):
    """The tests' F diag(v) F^-1 maps the coefficients of u to those of v u (``forward``'s convention)."""
    lat = Rank1Lattice(2, 64, (1, 19))
    aa, pf = antialias.build(lat), make_potential("harmonic_v2", lat)
    rng = np.random.default_rng(3)
    c = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    product = forward(NodalValues(pf.values * inverse(SpectralState(c, aa)).values, lat), aa).coeffs
    assert np.abs(conjugated_operator(pf) @ c - product).max() < 1e-13 * np.abs(product).max()


#: (d, n, z) of the lattices on which the library's W is compared with the oracle
_ORACLE_LATTICES = [(1, 8, (1,)), (1, 256, (1,)), (2, 5, (1, 3)), (2, 64, (1, 19)), (2, 256, (1, 37)),
                    (3, 128, None), (3, 255, None)]


@pytest.mark.parametrize("d, n, z", _ORACLE_LATTICES)
@pytest.mark.parametrize("kind", ["smooth_v1", "harmonic_v2"])
def test_dense_operator_equals_conjugation(conjugated_operator, d, n, z, kind):
    """The circulant of FFT(v) / n, the W of the oracles below, is the dense conjugation F diag(v) F^-1
    to 1e-13 of max |v|."""
    lat = Rank1Lattice(d, n, z) if z else cbc_construct(d, n)
    pf = make_potential(kind, lat)
    err = np.abs(fft_operator(pf) - conjugated_operator(pf)).max()
    assert err <= 1e-13 * np.abs(pf.values).max()


def test_dense_operator_of_constant_potential():
    lat = Rank1Lattice(1, 8, (1,))
    pf = PotentialField(np.full(lat.n, 3.0), "custom", lat)
    W = fft_operator(pf)
    assert np.abs(W - 3.0 * np.eye(8)).max() < 1e-13


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


def test_circulant_check_paper_d2_holds_n_vectors(peak_bytes):
    """On paper-d2 (n = 2^16) the check compares two n-vectors: deviation <= 1e-10 and a traced peak of
    at most four complex n-vectors (the two dense circulants it replaced were 2 x 64 GiB)."""
    lat = load_lattice("paper-d2")
    aa, pf = antialias.build(lat), v1_for(lat)
    assert circulant_check(aa, pf) <= 1e-10
    assert peak_bytes(circulant_check, aa, pf) <= 4 * 16 * lat.n


def test_circulant_check_guards():
    small = Rank1Lattice(2, 5, (1, 3))
    with pytest.raises(ValueError, match="trigonometric"):
        circulant_check(antialias.build(small), make_potential("harmonic_v2", small))
    other = Rank1Lattice(2, 5, (1, 2))
    with pytest.raises(ValueError, match="another lattice"):
        circulant_check(antialias.build(other), v1_for(small))


def test_commutator_norm_guards():
    """From p = 1 the check reads W off the analytic column, as ``circulant_check`` does: it refuses the
    harmonic potential, whose Fourier support is every residue, and a field of another lattice."""
    small = Rank1Lattice(2, 5, (1, 3))
    aa = antialias.build(small)
    with pytest.raises(ValueError, match="trigonometric"):
        commutator_norm(aa, make_potential("harmonic_v2", small), p=1)
    with pytest.raises(ValueError, match="another lattice"):
        commutator_norm(aa, v1_for(Rank1Lattice(2, 5, (1, 2))), p=1)


def test_commutator_p0_is_operator_norm():
    lat = Rank1Lattice(2, 5, (1, 3))
    aa = antialias.build(lat)
    got = commutator_norm(aa, v1_for(lat), p=0)
    want = np.linalg.norm(fft_operator(v1_for(lat)), ord=2)
    assert abs(got - want) < 1e-8 * want


@pytest.mark.parametrize("eps", [1.0, 0.7])
def test_commutator_p0_is_max_potential_over_epsilon(eps):
    """At p = 0, M = W / eps is unitarily similar to diag(v) / eps: the norm is max |v| / eps exactly,
    4 / eps for the smooth potential on the CBC d = 2, n = 1024 set (the capped power iteration read 3.98756)."""
    lat = cbc_construct(2, 1024)
    pf = v1_for(lat)
    assert np.abs(pf.values).max() == 4.0
    assert commutator_norm(antialias.build(lat), pf, 0, eps) == 4.0 / eps


def test_commutator_p0_has_no_dense_limit():
    """At p = 0 the check is one pass over the potential, at n = 8192 as at any n."""
    lat = Rank1Lattice(1, 8192, (1,))
    pf = v1_for(lat)
    assert commutator_norm(antialias.build(lat), pf, 0, 0.5) == np.abs(pf.values).max() / 0.5


def test_spectral_norm_of_a_complex_matrix():
    """The power iteration applies M^H, not M^T: a complex M = U diag(s) V^H with ||M||_2 = 3."""
    rng = np.random.default_rng(5)
    U, V = (np.linalg.qr(rng.standard_normal((48, 48)) + 1j * rng.standard_normal((48, 48)))[0] for _ in "UV")
    s = np.linspace(0.1, 1.0, 48)
    s[0] = 3.0
    assert abs(dense_norm((U * s) @ V.conj().T) - 3.0) < 1e-8


def test_spectral_norm_warns_when_it_stops_short():
    """Two top singular values 1 and 1 - 1e-6 leave the estimate moving by more than 1e-8 a step after
    50 steps: the estimate is still returned, with a warning that gives the last relative change."""
    s = np.linspace(0.1, 1.0, 48)
    s[-2] = 1.0 - 1e-6
    with pytest.warns(RuntimeWarning, match=r"stopped after 50 steps at relative change \d\.\de-\d\d"):
        assert abs(dense_norm(np.diag(s).astype(complex)) - 1.0) < 1e-5


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_commutator_equals_repeated_commutation(p):
    """The entrywise (d_i - d_j)^p scaling against p explicit commutations D M - M D."""
    lat = Rank1Lattice(2, 64, (1, 19))
    aa, pf, eps = antialias.build(lat), v1_for(lat), 0.7
    d = 2.0 * np.pi**2 * eps * aa.norms2.astype(np.float64)
    M = fft_operator(pf) / eps
    for _ in range(p):
        M = d[:, None] * M - M * d[None, :]
    want = dense_norm(M / (d[None, :] + 1.0) ** p)
    assert abs(commutator_norm(aa, pf, p, eps) - want) <= 1e-12 * want


def _oracle_commutator_norm(conjugated_operator, aa, pf, p):
    """The dense path without the library's operator: conjugation, full n x n scaling, exact 2-norm."""
    d = 2.0 * np.pi**2 * aa.norms2.astype(np.float64)
    M = conjugated_operator(pf) * ((d[:, None] - d[None, :]) ** p / (d[None, :] + 1.0) ** p)
    return np.linalg.norm(M, 2)


@pytest.mark.parametrize("p", range(5))
@pytest.mark.parametrize("shifted", [False, True], ids=["minimal", "shifted"])
@pytest.mark.parametrize("d, n", [(2, 5), (2, 64), (2, 256), (3, 256)])
def test_commutator_norm_equals_conjugation_oracle(conjugated_operator, d, n, shifted, p):
    """``commutator_norm`` reads the oracle's dense norm within 1e-8, on minimal and shifted sets; at n = 5
    on z = (1, 3), where the nine support vectors of the smooth potential share five residues."""
    lat = Rank1Lattice(2, 5, (1, 3)) if n == 5 else cbc_construct(d, n)
    aa = antialias.build(lat)
    if shifted:
        aa = shifted_representatives(aa)
    pf = v1_for(lat)
    want = _oracle_commutator_norm(conjugated_operator, aa, pf, p)
    assert abs(commutator_norm(aa, pf, p) - want) <= 1e-8 * want


def test_commutator_norm_matches_the_analytic_operator():
    """At d = 2, n = 1024, p = 4 the scaling multiplies entries by up to 6e15, rounding noise too: the
    circulant of FFT(v) / n keeps the norm of the operator built from the exact coefficients to 1e-12
    (the dense conjugation F diag(v) F^-1 was 3.2e-9 off)."""
    lat = cbc_construct(2, 1024)
    aa = antialias.build(lat)
    d = 2.0 * np.pi**2 * aa.norms2.astype(np.float64)
    exact = circulant_matrix(aliasing_oracle(smooth_potential_coefficients(2), aa).coeffs)
    want = np.linalg.norm(exact * ((d[:, None] - d[None, :]) ** 4 / (d[None, :] + 1.0) ** 4), ord=2)
    assert abs(commutator_norm(aa, v1_for(lat), 4) - want) <= 1e-12 * want


@pytest.mark.parametrize("n, limit_mib", [(1024, 4), (4096, 16), (2**16, 16)])
def test_commutator_norm_holds_no_n_by_n_array(peak_bytes, n, limit_mib):
    """The check holds a few n-vectors, not the operator: its traced peak is at most 4 MiB at n = 1024 and
    16 MiB at n = 4096 and 2^16, where one n x n complex array is 16 MiB, 256 MiB and 64 GiB."""
    lat = cbc_construct(2, n)
    aa, pf = antialias.build(lat), v1_for(lat)
    assert peak_bytes(commutator_norm, aa, pf, 2) <= limit_mib * 2**20


def test_commutator_p_validation():
    lat = Rank1Lattice(2, 5, (1, 3))
    aa = antialias.build(lat)
    with pytest.raises(ValueError):
        commutator_norm(aa, v1_for(lat), p=5)
    with pytest.raises(ValueError, match="epsilon must be positive"):
        commutator_norm(aa, v1_for(lat), p=1, epsilon=0.0)


def test_shifted_representatives_same_residues():
    lat = Rank1Lattice(2, 64, (1, 19))
    aa = antialias.build(lat)
    shifted = shifted_representatives(aa)
    assert np.array_equal(lat.residues(shifted.freq), lat.residues(aa.freq))
    assert shifted.norms2[0] == 0  # the zero vector is kept as-is
    assert shifted.norms2[1:].min() >= lat.n**2 - 2 * lat.n * int(np.abs(aa.freq[:, 0]).max())


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
