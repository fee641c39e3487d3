import numpy as np
import pytest

from rank1tdse import antialias
from rank1tdse.lattice import Rank1Lattice
from rank1tdse.transform import (
    NodalValues,
    SpectralState,
    aliasing_oracle,
    evaluate_offlattice,
    forward,
    inverse,
    load_snapshot,
    save_snapshot,
    vector_norm,
)


@pytest.fixture(scope="module")
def lat256():
    lat = Rank1Lattice(2, 256, (1, 37))
    return lat, antialias.build(lat)


def dft_direct(values):
    """O(n^2) reference DFT with 1/n normalization."""
    n = len(values)
    k = np.arange(n)
    return (values @ np.exp(-2j * np.pi * np.outer(k, k) / n).T) / n


def sample_polynomial(lat, support):
    x = lat.node_coords()
    vals = np.zeros(lat.n, dtype=np.complex128)
    for h, c in support.items():
        vals += c * np.exp(2j * np.pi * (x @ np.asarray(h, dtype=float)))
    return NodalValues(vals, lat)


def test_forward_constant(lat256):
    lat, aa = lat256
    st = forward(NodalValues(np.ones(lat.n), lat), aa)
    want = np.zeros(lat.n)
    want[0] = 1.0
    assert np.abs(st.coeffs - want).max() < 1e-14


def test_forward_single_character(lat256):
    lat, aa = lat256
    xi0 = 57
    st = forward(sample_polynomial(lat, {tuple(aa.freq[xi0]): 1.0}), aa)
    want = np.zeros(lat.n)
    want[xi0] = 1.0
    assert np.abs(st.coeffs - want).max() < 1e-12


def test_forward_matches_direct_dft(lat256):
    lat, aa = lat256
    rng = np.random.default_rng(11)
    vals = rng.standard_normal(lat.n) + 1j * rng.standard_normal(lat.n)
    got = forward(NodalValues(vals, lat), aa).coeffs
    want = dft_direct(vals)
    assert np.abs(got - want).max() / np.abs(want).max() < 1e-12


def test_inverse_unit_vector(lat256):
    lat, aa = lat256
    coeffs = np.zeros(lat.n)
    coeffs[0] = 1.0
    vals = inverse(SpectralState(coeffs, aa)).values
    assert np.abs(vals - 1.0).max() < 1e-13


def test_roundtrip_identity():
    lat = Rank1Lattice(2, 2**12, (1, 1557))
    aa = antialias.build(lat)
    rng = np.random.default_rng(5)
    vals = rng.standard_normal(lat.n) + 1j * rng.standard_normal(lat.n)
    back = inverse(forward(NodalValues(vals, lat), aa)).values
    assert np.abs(back - vals).max() < 1e-12
    coeffs = rng.standard_normal(lat.n) + 1j * rng.standard_normal(lat.n)
    st = SpectralState(coeffs, aa)
    again = forward(inverse(st), aa).coeffs
    assert np.abs(again - coeffs).max() < 1e-12


def test_single_character_inverse(lat256):
    lat, aa = lat256
    xi = 3
    coeffs = np.zeros(lat.n, dtype=complex)
    coeffs[xi] = 2.0 - 1.0j
    vals = inverse(SpectralState(coeffs, aa)).values
    k = np.arange(lat.n)
    assert np.abs(vals - coeffs[xi] * np.exp(2j * np.pi * xi * k / lat.n)).max() < 1e-12


def test_evaluate_offlattice_interpolates(lat256):
    lat, aa = lat256
    rng = np.random.default_rng(2)
    vals = rng.standard_normal(lat.n) + 1j * rng.standard_normal(lat.n)
    st = forward(NodalValues(vals, lat), aa)
    nodal = inverse(st).values
    for k in (0, 1, 100, 255):
        got = evaluate_offlattice(st, np.asarray(lat.point(k)) / lat.n)
        assert abs(got - nodal[k]) < 1e-10


def test_evaluate_offlattice_exact_character(lat256):
    lat, aa = lat256
    h = tuple(aa.freq[19])
    st = forward(sample_polynomial(lat, {h: 1.0}), aa)
    for x in ([0.1, 0.7], [0.33, 0.99]):
        want = np.exp(2j * np.pi * (np.asarray(h) @ np.asarray(x)))
        assert abs(evaluate_offlattice(st, x) - want) < 1e-10


def test_evaluate_offlattice_constant(lat256):
    _, aa = lat256
    coeffs = np.zeros(aa.n)
    coeffs[0] = 1.0
    assert abs(evaluate_offlattice(SpectralState(coeffs, aa), [0.123, 0.456]) - 1.0) < 1e-14


def test_aliasing_in_set_support(lat256):
    lat, aa = lat256
    support = {tuple(aa.freq[7]): 1.5, tuple(aa.freq[33]): -2j}
    st = aliasing_oracle(support, aa)
    assert st.coeffs[7] == 1.5 and st.coeffs[33] == -2j
    assert np.count_nonzero(st.coeffs) == 2


def test_aliasing_dual_vector_hits_zero_slot():
    lat = Rank1Lattice(2, 5, (1, 3))
    aa = antialias.build(lat)
    st = aliasing_oracle({(2, 1): 1.0}, aa)
    assert st.coeffs[0] == 1.0


@pytest.mark.parametrize("lat", [
    Rank1Lattice(2, 5, (1, 3)),
    Rank1Lattice(2, 1024, (1, 275)),
])
def test_forward_equals_aliasing_oracle(lat):
    aa = antialias.build(lat)
    rng = np.random.default_rng(42)
    for _ in range(20):
        support = {}
        for _ in range(6):
            h = tuple(rng.integers(-8, 9, size=lat.d).tolist())
            support[h] = complex(*rng.standard_normal(2))
        got = forward(sample_polynomial(lat, support), aa).coeffs
        want = aliasing_oracle(support, aa).coeffs
        assert np.abs(got - want).max() < 1e-12


def test_l2_norm_basics(lat256):
    _, aa = lat256
    coeffs = np.zeros(aa.n)
    coeffs[4] = 1.0
    assert vector_norm(SpectralState(coeffs, aa).coeffs) == 1.0
    coeffs = np.zeros(aa.n)
    coeffs[0], coeffs[1] = 3.0, 4.0
    assert abs(vector_norm(SpectralState(coeffs, aa).coeffs) - 5.0) < 1e-15


def test_vector_norm_is_independent_of_alignment():
    """The same values at every 16-byte offset give the same bits, and match the BLAS norm to rounding."""
    rng = np.random.default_rng(5)
    n = 3 * 2**14 + 5
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    norms = set()
    for off in range(0, 64, 16):
        buf = np.empty(16 * n + 128, dtype=np.uint8)
        start = -buf.ctypes.data % 64 + off
        w = buf[start:start + 16 * n].view(np.complex128)
        w[:] = v
        norms.add(vector_norm(w))
    assert len(norms) == 1
    assert abs(norms.pop() - np.linalg.norm(v)) <= 1e-12 * np.linalg.norm(v)


def test_discrete_plancherel(lat256):
    lat, aa = lat256
    rng = np.random.default_rng(9)
    vals = rng.standard_normal(lat.n) + 1j * rng.standard_normal(lat.n)
    st = forward(NodalValues(vals, lat), aa)
    nodal_side = np.sum(np.abs(vals) ** 2) / lat.n
    coeff_side = np.sum(np.abs(st.coeffs) ** 2)
    assert abs(nodal_side - coeff_side) < 1e-12 * coeff_side


def test_character_property_exhaustive():
    lat = Rank1Lattice(2, 64, (1, 19))
    aa = antialias.build(lat)
    x = lat.node_coords()
    for xi in range(lat.n):
        for xi2 in range(lat.n):
            s = np.mean(np.exp(2j * np.pi * (x @ (aa.freq[xi].astype(np.int64) - aa.freq[xi2]))))
            assert abs(s - (1.0 if xi == xi2 else 0.0)) < 1e-12


def test_snapshot_roundtrip(tmp_path, lat256):
    lat, aa = lat256
    rng = np.random.default_rng(1)
    st = SpectralState(rng.standard_normal(lat.n) + 1j * rng.standard_normal(lat.n), aa, time=0.75)
    path = tmp_path / "state.bin"
    save_snapshot(st, path)
    loaded = load_snapshot(path, aa)
    assert loaded.time == 0.75
    assert np.array_equal(loaded.coeffs, st.coeffs)


def test_snapshot_size_mismatch(tmp_path, lat256):
    lat, aa = lat256
    st = SpectralState(np.ones(lat.n, dtype=complex), aa)
    path = tmp_path / "state.bin"
    save_snapshot(st, path)
    other = antialias.build(Rank1Lattice(2, 5, (1, 3)))
    with pytest.raises(ValueError):
        load_snapshot(path, other)


def test_failed_snapshot_write_keeps_old_snapshot(tmp_path, lat256, full_disk):
    lat, aa = lat256
    path = tmp_path / "state.bin"
    save_snapshot(SpectralState(np.ones(lat.n, dtype=complex), aa, time=0.5), path)
    before = path.read_bytes()
    full_disk()
    with pytest.raises(OSError, match="No space"):
        save_snapshot(SpectralState(np.zeros(lat.n, dtype=complex), aa, time=1.0), path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["state.bin"]


def test_load_snapshot_reads_the_body_once(tmp_path, peak_bytes):
    """The coefficients are read straight into their array: the peak stays within 1.5x its 16n bytes.

    A loader that reads the file's bytes and then copies them out peaks at 2x.
    """
    aa = antialias.build(Rank1Lattice(1, 2**16, (1,)))
    path = tmp_path / "state.bin"
    save_snapshot(SpectralState(np.ones(aa.n, dtype=complex), aa, time=0.5), path)
    assert peak_bytes(load_snapshot, path, aa) <= 1.5 * 16 * aa.n


@pytest.mark.parametrize("size", [0, 10])
def test_snapshot_shorter_than_header_rejected(tmp_path, lat256, size):
    _, aa = lat256
    path = tmp_path / "state.bin"
    path.write_bytes(b"\x01" * size)
    with pytest.raises(ValueError, match="truncated snapshot"):
        load_snapshot(path, aa)


def test_size_mismatch_rejected(lat256):
    lat, aa = lat256
    with pytest.raises(ValueError):
        forward(NodalValues(np.ones(5), Rank1Lattice(2, 5, (1, 3))), aa)


def test_forward_rejects_set_of_another_lattice():
    """Equal n is not enough: the set must be built on the values' own lattice."""
    vals = NodalValues(np.ones(64), Rank1Lattice(2, 64, (1, 19)))
    with pytest.raises(ValueError, match="different lattices"):
        forward(vals, antialias.build(Rank1Lattice(2, 64, (1, 27))))
