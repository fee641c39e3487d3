import io
import math

import numpy as np
import pytest

from rank1tdse import antialias
from rank1tdse.lattice import Rank1Lattice, cbc_construct, load_lattice, stage_workers


@pytest.fixture(scope="module")
def tiny():
    lat = Rank1Lattice(2, 5, (1, 3))
    return lat, antialias.build(lat)


def brute_force_min_norms(lat, box_radius):
    """Independent minimal squared norm per residue, by exhaustive box search."""
    g = np.arange(-box_radius, box_radius + 1)
    grids = np.meshgrid(*([g] * lat.d), indexing="ij")
    hh = np.stack(grids, axis=-1).reshape(-1, lat.d).astype(np.int64)
    res = (hh @ np.asarray(lat.z, dtype=np.int64)) % lat.n
    n2 = np.einsum("ij,ij->i", hh, hh)
    best = np.full(lat.n, np.iinfo(np.int64).max)
    np.minimum.at(best, res, n2)
    return best


def _reference_ball(d, r2):
    """All integer vectors with squared norm <= r2, with their squared norms."""
    rmax = math.isqrt(r2)
    vals = np.arange(-rmax, rmax + 1, dtype=np.int64)
    pts = vals[:, None]
    ssq = vals * vals
    for _ in range(1, d):
        parts, sq = [], []
        for v in vals:
            mask = ssq + v * v <= r2
            if mask.any():
                parts.append(np.hstack([pts[mask], np.full((int(mask.sum()), 1), v, dtype=np.int64)]))
                sq.append(ssq[mask] + v * v)
        pts, ssq = np.vstack(parts), np.concatenate(sq)
    return pts, ssq


def _reference_build(lat):
    """Whole-ball build: sort each doubled ball's new annulus by (norm, lex), first per residue wins."""
    n, d = lat.n, lat.d
    z = np.asarray(lat.z, dtype=np.int64)
    freq = np.zeros((n, d), dtype=np.int32)
    norms2 = np.full(n, -1, dtype=np.int64)
    found = np.zeros(n, dtype=bool)
    vol = math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)
    r2_prev, r2 = -1, max(1, math.ceil((2.0 * n / vol) ** (2.0 / d)))
    while not found.all():
        pts, ssq = _reference_ball(d, r2)
        ann = ssq > r2_prev
        pts, ssq = pts[ann], ssq[ann]
        order = np.lexsort(tuple(pts[:, j] for j in range(d - 1, -1, -1)) + (ssq,))
        pts, ssq = pts[order], ssq[order]
        res = (pts @ z) % n
        new = ~found[res]
        uniq, first = np.unique(res[new], return_index=True)
        freq[uniq] = pts[new][first]
        norms2[uniq] = ssq[new][first]
        found[uniq] = True
        r2_prev, r2 = r2, 2 * r2
    return freq, norms2


ORACLE_LATTICES = {
    "d1-tie": lambda: Rank1Lattice(1, 4, (1,)),  # residue 2 ties -2 and +2
    "d1-wide": lambda: Rank1Lattice(1, 2**12, (1,)),  # max ||h||^2 = n^2 / 4 >= n
    "tiny": lambda: Rank1Lattice(2, 5, (1, 3)),
    "d2-wide": lambda: Rank1Lattice(2, 256, (1, 1)),  # max ||h||^2 = 8192 >= n
    "d2": lambda: Rank1Lattice(2, 1024, (1, 275)),
    "cbc-d3": lambda: cbc_construct(3, 2**10),
    "d3": lambda: Rank1Lattice(3, 512, (1, 131, 217)),
    "d4": lambda: Rank1Lattice(4, 512, (1, 149, 113, 207)),
    "d5": lambda: Rank1Lattice(5, 256, (1, 75, 23, 57, 31)),
    "d3-wrap": lambda: Rank1Lattice(3, 5, (1, 2, 3)),  # 2R + 1 = 7 > n: the scatter's residues repeat
    "cbc-d2": lambda: cbc_construct(2, 2**14),  # 209^2 = 43 681 scatter candidates, several default chunks
}


@pytest.fixture(scope="module", params=list(ORACLE_LATTICES))
def oracle_case(request):
    lat = ORACLE_LATTICES[request.param]()
    return lat, _reference_build(lat)


@pytest.mark.parametrize("variant", ["default", "small", "block7", "int64"])
def test_build_equals_whole_ball_reference(oracle_case, variant, monkeypatch):
    """The recursion picks the reference's vectors bit for bit, from any starting radius,
    in blocks of any length and with either key width.

    ``small`` starts every build at coordinate bound 3, so across the
    lattices both reruns happen: after an unreached residue (``d1-wide``,
    ``d2-wide``, ``d2``) and after ``isqrt(max g_1)`` exceeded the bound
    (``cbc-d3``).  ``block7`` cuts every dense level into blocks of 7 residues,
    so each d >= 3 lattice but ``d3-wrap`` spans several blocks, ends in a
    partial one and has windows that wrap past n, and the scatter level into
    one row of t per call.  ``int64`` forces the wide keys.
    """
    lat, (freq, norms2) = oracle_case
    if variant == "small":
        monkeypatch.setattr(antialias, "_initial_r2", lambda d, n: 1)
    elif variant == "block7":
        monkeypatch.setattr(antialias, "_BLOCK", 7)
    elif variant == "int64":
        monkeypatch.setattr(antialias, "_key_dtype", lambda d, radius: np.int64)
    aa = antialias.build(lat)
    assert np.array_equal(aa.freq, freq) and aa.freq.dtype == _narrowest(freq)
    assert np.array_equal(aa.norms2, norms2) and aa.norms2.dtype == _narrowest(norms2)


def _narrowest(a):
    """The narrowest signed integer type holding -(max |a| + 1), so +-max |a|: numpy's own rule."""
    return np.min_scalar_type(-int(np.abs(a).max()) - 1)


@pytest.mark.parametrize("n, dtype", [(255, np.int8), (256, np.int16)])
def test_narrowest_type_at_the_int8_edge(n, dtype):
    """d = 1, n = 255 holds h in [-127, 127], which int8 holds either sign of; n = 256 holds h = -128."""
    aa = antialias.build(Rank1Lattice(1, n, (1,)))
    assert aa.freq.dtype == dtype and int(aa.freq.min()) == -(n // 2)
    assert aa.norms2.dtype == np.int16 and aa.max_norm2() == (n // 2) ** 2


def test_preset_sets_hold_the_narrowest_types():
    """``paper-d2`` holds its vectors in int16 and norms up to 36 424 in int32, ``paper-d4`` int8 and int16."""
    for name, types in (("paper-d2", (np.int16, np.int32)), ("paper-d4", (np.int8, np.int16))):
        aa = antialias.build(load_lattice(name))
        assert (aa.freq.dtype, aa.norms2.dtype) == types


@pytest.mark.parametrize("lat", [Rank1Lattice(1, 256, (1,)), Rank1Lattice(2, 1024, (1, 275)),
                                 Rank1Lattice(4, 2**14, (1, 6229, 2691, 7737))], ids=["d1", "d2", "d4"])
def test_cache_holds_the_int32_bytes_and_loads_the_built_types(tmp_path, lat):
    """The cache file and ``sha256()`` are those of the set's int32 copy, and loading gives the built set's
    types and values back."""
    aa = antialias.build(lat)
    wide = antialias.AntiAliasingSet(lat, aa.freq.astype(np.int32), aa.norms2.astype(np.int64))
    antialias.save_cache(aa, tmp_path / "narrow.bin")
    antialias.save_cache(wide, tmp_path / "wide.bin")
    assert (tmp_path / "narrow.bin").read_bytes() == (tmp_path / "wide.bin").read_bytes()
    assert aa.sha256() == wide.sha256()
    for loaded in (antialias.load_cache(tmp_path / name, lat) for name in ("narrow.bin", "wide.bin")):
        assert (loaded.freq.dtype, loaded.norms2.dtype) == (aa.freq.dtype, aa.norms2.dtype)
        assert np.array_equal(loaded.freq, aa.freq) and np.array_equal(loaded.norms2, aa.norms2)


def test_key_width_follows_d_and_radius():
    """int32 keys at ``paper-d4``'s coordinate bound; int64 at d = 2, R = 1635 (about n = 2^22's)."""
    assert antialias._key_dtype(4, math.isqrt(antialias._initial_r2(4, 2**20)) + 2) == np.int32
    assert antialias._key_dtype(2, 1635) == np.int64


def test_build_memory_is_order_n_d(peak_bytes):
    """Desk-scale d = 4 and d = 2 builds peak at O(n d) bytes; the whole-ball reference does not."""
    lat = Rank1Lattice(4, 2**14, (1, 6229, 2691, 7737))  # cbc_construct(4, 2**14)
    bound = 32 * lat.n * lat.d
    assert peak_bytes(antialias.build, lat) <= bound
    assert peak_bytes(_reference_build, lat) > bound
    for lat in (cbc_construct(2, 2**14), load_lattice("paper-d2")):
        assert peak_bytes(antialias.build, lat) <= 32 * lat.n * lat.d


def test_budget_counts_pairs_examined():
    """The budget is the (residue, t) pairs of every pass: exactly enough passes, one less raises.

    A pass examines 2R + 1 pairs for the last coordinate, the min(2R + 1, n) residues it reaches times
    2R + 1 for the scatter level, and n (2R + 1) for each level below."""
    for lat, radii, top in ((Rank1Lattice(2, 256, (1, 1)), (14, 28, 56, 112), 8192),
                            (Rank1Lattice(3, 512, (1, 131, 217)), (8,), 37)):
        pairs = sum((2 * r + 1) * (1 + min(2 * r + 1, lat.n) + (lat.d - 2) * lat.n) for r in radii)
        assert antialias.build(lat, budget=pairs).max_norm2() == top
        with pytest.raises(antialias.BudgetExceededError):
            antialias.build(lat, budget=pairs - 1)


def test_minimality_across_default_blocks():
    """n above ``_BLOCK`` and no multiple of it: several blocks and a partial last one, unpatched; at
    d = 3 (``cbc_construct(3, 100003)``) in the dense level, at d = 2 in the scatter level's chunks."""
    for lat in (Rank1Lattice(2, 100003, (1, 38197)), Rank1Lattice(3, 100003, (1, 38763, 27231))):
        assert lat.n > antialias._BLOCK and lat.n % antialias._BLOCK
        aa = antialias.build(lat)
        r = math.isqrt(aa.max_norm2()) + 1
        assert np.array_equal(brute_force_min_norms(lat, r), aa.norms2)


def test_build_small_example(tiny):
    _, aa = tiny
    assert aa.freq.tolist() == [[0, 0], [1, 0], [0, -1], [0, 1], [-1, 0]]
    assert aa.norms2.tolist() == [0, 1, 1, 1, 1]


def test_build_1d_tie_break():
    lat = Rank1Lattice(1, 4, (1,))
    aa = antialias.build(lat)
    # residue 2 is a tie between -2 and +2; lexicographic order picks -2
    assert aa.freq.ravel().tolist() == [0, 1, -2, -1]
    assert aa.norms2.tolist() == [0, 1, 4, 1]


def test_zero_residue_is_zero_vector(tiny):
    _, aa = tiny
    assert aa.freq[0].tolist() == [0, 0] and aa.norms2[0] == 0


def test_residue_lookup(tiny):
    _, aa = tiny
    assert int(aa.lattice.residues((0, 0))) == 0
    assert int(aa.lattice.residues((2, 1))) == 0  # 2 + 3 = 5
    assert int(aa.lattice.residues((1, 1))) == 4


def test_max_norm2(tiny):
    _, aa = tiny
    assert aa.max_norm2() == 1
    assert antialias.build(Rank1Lattice(1, 1, (0,))).max_norm2() == 0
    assert antialias.build(Rank1Lattice(1, 4, (1,))).max_norm2() == 4


def test_residues_are_permutation():
    for lat in (Rank1Lattice(2, 64, (1, 19)), Rank1Lattice(3, 128, (1, 29, 45))):
        aa = antialias.build(lat)
        assert np.array_equal(np.sort(aa.lattice.residues(aa.freq)), np.arange(lat.n))


@pytest.mark.parametrize("lat", [
    Rank1Lattice(2, 1024, (1, 275)),
    Rank1Lattice(3, 512, (1, 131, 217)),
])
def test_minimality_desk_scale(lat):
    aa = antialias.build(lat)
    r = int(np.ceil(np.sqrt(aa.max_norm2()))) + 1
    assert np.array_equal(brute_force_min_norms(lat, r), aa.norms2)


def test_conjugacy_classes_partition_a_box(tiny):
    lat, aa = tiny
    g = np.arange(-4, 5)
    hh = np.stack(np.meshgrid(g, g, indexing="ij"), axis=-1).reshape(-1, 2)
    classes = aa.lattice.residues(hh)
    # every vector lands in exactly one class; all classes are hit
    assert classes.shape == (81,)
    assert set(classes.tolist()) == set(range(5))


def test_budget_guard():
    with pytest.raises(antialias.BudgetExceededError):
        antialias.build(Rank1Lattice(2, 1024, (1, 275)), budget=100)


def test_cache_roundtrip(tmp_path, tiny):
    lat, aa = tiny
    path = tmp_path / "aa.bin"
    antialias.save_cache(aa, path)
    loaded = antialias.load_cache(path, lat)
    assert np.array_equal(loaded.freq, aa.freq)
    assert np.array_equal(loaded.norms2, aa.norms2)


def test_cache_header_mismatch(tmp_path, tiny):
    lat, aa = tiny
    path = tmp_path / "aa.bin"
    antialias.save_cache(aa, path)
    other = Rank1Lattice(2, 5, (1, 2))
    with pytest.raises(ValueError, match="does not match"):
        antialias.load_cache(path, other)


def test_cache_corruption_triggers_rebuild(tmp_path, tiny):
    lat, aa = tiny
    path = antialias.cache_path(lat, tmp_path)
    path.write_bytes(b"AASET1garbage")
    rebuilt = antialias.cached_build(lat, tmp_path)
    assert np.array_equal(rebuilt.freq, aa.freq)
    # and the good cache replaced the corrupt one
    assert antialias.load_cache(path, lat).freq.shape == (5, 2)


def test_truncated_cache_body_triggers_rebuild(tmp_path, tiny):
    lat, aa = tiny
    path = antialias.cache_path(lat, tmp_path)
    antialias.save_cache(aa, path)
    path.write_bytes(path.read_bytes()[:-4])  # valid header, one int32 short
    with pytest.raises(ValueError, match="truncated cache"):
        antialias.load_cache(path, lat)
    rebuilt = antialias.cached_build(lat, tmp_path)
    assert np.array_equal(rebuilt.freq, aa.freq)
    assert np.array_equal(antialias.load_cache(path, lat).freq, aa.freq)


def test_load_cache_memory_is_table_plus_norms(tmp_path, peak_bytes):
    """Loading reads the int32 table once: the peak stays within twice the table plus its norms.

    The rest is the set's residue check (a mask and a few blocks).  A loader
    that copies the bytes and two int64 tables peaks at 4.3x.
    """
    lat = Rank1Lattice(4, 2**14, (1, 6229, 2691, 7737))
    path = tmp_path / "aa.bin"
    antialias.save_cache(antialias.build(lat), path)
    assert peak_bytes(antialias.load_cache, path, lat) <= 2 * (4 * lat.n * lat.d + 8 * lat.n)


def test_load_cache_memory_is_the_narrow_set_plus_its_check(tmp_path, peak_bytes):
    """Loading traces the narrow table and norms (int8 both here) plus what the set's own residue
    check traces and the open file's read buffer.  A loader that keeps the whole int32 table until
    the check traces 4 n d bytes more."""
    lat = Rank1Lattice(4, 2**14, (1, 6229, 2691, 7737))
    path = tmp_path / "aa.bin"
    aa = antialias.build(lat)
    antialias.save_cache(aa, path)
    assert (aa.freq.dtype, aa.norms2.dtype) == (np.int8, np.int8)
    check = peak_bytes(antialias.AntiAliasingSet, lat, aa.freq, aa.norms2)
    bound = aa.freq.nbytes + aa.norms2.nbytes + check + io.DEFAULT_BUFFER_SIZE
    assert peak_bytes(antialias.load_cache, path, lat) <= bound


def test_residue_check_holds_a_mask_and_a_block_per_thread(peak_bytes):
    """The set's own check marks a bool mask from one block of residues per thread at a time: on
    ``paper-d4`` (n = 2^20, a 6 MiB set) it traces at most n + 16 ``_BLOCK`` bytes per thread, where
    the residues of all n rows at once traced 10.1 MiB."""
    lat = load_lattice("paper-d4")
    aa = antialias.build(lat)
    bound = lat.n + 16 * antialias._BLOCK * stage_workers(lat.n)
    assert peak_bytes(antialias.AntiAliasingSet, lat, aa.freq, aa.norms2) <= bound


def test_serialization_holds_a_few_blocks(tmp_path, peak_bytes):
    """``sha256()`` and ``save_cache`` convert the narrow table to int32 one ``_BLOCK``-row block at a
    time: at n = 2^18, d = 2 they trace two blocks (the one written and the next one) and a file
    buffer's worth of change, about half the int32 table."""
    lat = Rank1Lattice(2, 2**18, (1, 100135))
    aa = antialias.build(lat)
    block = 4 * lat.d * antialias._BLOCK
    assert aa.freq.dtype == np.int16 and 4 * aa.freq.size == 4 * block
    assert peak_bytes(aa.sha256) <= 2 * block + io.DEFAULT_BUFFER_SIZE
    assert peak_bytes(antialias.save_cache, aa, tmp_path / "aa.bin") <= 2 * block + io.DEFAULT_BUFFER_SIZE


def test_failed_cache_write_keeps_old_cache(tmp_path, tiny, full_disk):
    lat, aa = tiny
    path = tmp_path / "aa.bin"
    antialias.save_cache(aa, path)
    before = path.read_bytes()
    full_disk()
    with pytest.raises(OSError, match="No space"):
        antialias.save_cache(aa, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["aa.bin"]


def test_cached_build_reuses_file(tmp_path, tiny):
    lat, _ = tiny
    first = antialias.cached_build(lat, tmp_path)
    mtime = antialias.cache_path(lat, tmp_path).stat().st_mtime_ns
    second = antialias.cached_build(lat, tmp_path)
    assert antialias.cache_path(lat, tmp_path).stat().st_mtime_ns == mtime
    assert np.array_equal(first.freq, second.freq)
