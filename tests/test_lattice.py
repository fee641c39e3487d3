import itertools
import json
import math
import threading

import numpy as np
import pytest
from hypothesis import given, strategies as st

from rank1tdse import lattice
from rank1tdse.lattice import (PRESETS, _TIE_TOL, Rank1Lattice, _korobov_kernel_table, _tie_sets,
                               _unit_group, cbc_construct, load_lattice)


def _numerators(lat):
    """(n, d) int64 array of the exact coordinate numerators k z_j mod n."""
    return np.stack([lat.numerator_column(j) for j in range(lat.d)], axis=1)


def test_point_origin():
    lat = Rank1Lattice(2, 2**16, (1, 100135))
    assert lat.point(0) == (0, 0)


def test_point_published_d2_vector():
    lat = Rank1Lattice(2, 2**16, (1, 100135))
    assert lat.point(1) == (1, 34599)  # 100135 - 65536
    assert np.allclose(lat.node_coords()[1], [1 / 65536, 34599 / 65536])


def test_point_small():
    lat = Rank1Lattice(2, 5, (1, 3))
    assert lat.point(4) == (4, 2)  # 3*4 = 12 = 2 mod 5


def test_point_index_out_of_range():
    lat = Rank1Lattice(2, 5, (1, 3))
    with pytest.raises(IndexError):
        lat.point(5)
    with pytest.raises(IndexError):
        lat.point(-1)


def test_all_points_small():
    lat = Rank1Lattice(2, 5, (1, 3))
    pts = {tuple(p) for p in _numerators(lat).tolist()}
    assert pts == {(0, 0), (1, 3), (2, 1), (3, 4), (4, 2)}


def test_all_points_single():
    lat = Rank1Lattice(3, 1, (0, 0, 0))
    assert _numerators(lat).tolist() == [[0, 0, 0]]


def test_all_points_equispaced_1d():
    lat = Rank1Lattice(1, 4, (1,))
    assert np.allclose(lat.node_coords().ravel(), [0, 0.25, 0.5, 0.75])


def test_in_dual():
    lat = Rank1Lattice(2, 5, (1, 3))
    assert lat.residues((0, 0)) == 0
    assert lat.residues((2, 1)) == 0  # 2 + 3 = 5
    assert lat.residues((1, 0)) != 0


@given(st.integers(-20, 20), st.integers(-20, 20), st.integers(-20, 20), st.integers(-20, 20))
def test_dual_is_a_group(h1, h2, g1, g2):
    lat = Rank1Lattice(2, 5, (1, 3))
    h, g = np.array([h1, h2]), np.array([g1, g2])
    if lat.residues(h) == 0 and lat.residues(g) == 0:
        assert lat.residues(h + g) == 0


def test_coords_distinct_per_coordinate():
    lat = Rank1Lattice(2, 1024, (1, 275))
    nums = _numerators(lat)
    for j in range(lat.d):
        assert len(set(nums[:, j].tolist())) == lat.n


def test_point_is_modular_multiple_of_first():
    lat = Rank1Lattice(2, 1024, (1, 275))
    p1 = np.asarray(lat.point(1))
    for k in range(0, lat.n, 37):
        assert np.array_equal(np.asarray(lat.point(k)), (p1 * k) % lat.n)


def test_invariant_violations_rejected():
    with pytest.raises(ValueError):
        Rank1Lattice(2, 4, (1, 2))  # gcd(2, 4) != 1
    with pytest.raises(ValueError):
        Rank1Lattice(3, 5, (1, 2))  # wrong length
    with pytest.raises(ValueError):
        Rank1Lattice(0, 5, ())


def test_presets_valid():
    for name, (d, n, z) in PRESETS.items():
        lat = load_lattice(name)
        assert (lat.d, lat.n) == (d, n)
        for zj in lat.z:
            assert math.gcd(zj, n) == 1


def test_load_from_json_file(tmp_path):
    path = tmp_path / "lat.json"
    path.write_text(json.dumps({"d": 2, "n": 5, "z": [1, 3]}))
    assert load_lattice(str(path)) == Rank1Lattice(2, 5, (1, 3))


def test_load_missing_file_names_the_path(tmp_path):
    path = str(tmp_path / "nope.json")
    with pytest.raises(ValueError, match=f"^{path}: No such file or directory$"):
        load_lattice(path)


@pytest.mark.parametrize("doc, field", [({"d": 2, "n": 64}, "z"), ({"n": 64}, "d"), ({"d": 1, "z": [1]}, "n")])
def test_load_missing_field_names_the_field(tmp_path, doc, field):
    path = tmp_path / "lat.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=f"^lattice has no field '{field}'$"):
        load_lattice(str(path))


def _residues_per_column(lat, h):
    """``h . z mod n`` with a reduction after every column: each partial sum stays below n + max |h_j z_j|."""
    res = np.zeros(len(h), dtype=np.int64)
    for j, zj in enumerate(lat.z):
        res += h[:, j] * zj
        res %= lat.n
    return res


@pytest.mark.parametrize("d, n", [(2, 65521), (4, 1000003), (8, 2**24 + 43)])
def test_residues_exact_at_the_documented_bound(d, n):
    """One reduction after the last column equals the per-column one while every |h_j| < 2^63 / (d n).

    The moduli are primes: int64 wraps modulo 2^64, which a power-of-two n divides, so there an
    overflow would not show.
    """
    lat = Rank1Lattice(d, n, tuple(range(n - 1, n - 2 * d, -2)))  # components near n
    bound = 2**63 // (d * n) - 1
    rng = np.random.default_rng(d)
    h = np.concatenate([np.full((1, d), bound), np.full((1, d), -bound),
                        rng.choice([-bound, bound], (64, d)), rng.integers(-bound, bound + 1, (64, d))])
    got = lat.residues(h)
    assert np.array_equal(got, _residues_per_column(lat, h))
    assert [int(r) for r in got[:4]] == [sum(int(x) * zj for x, zj in zip(row, lat.z)) % n for row in h[:4]]


@pytest.mark.parametrize("n, block, edges", [
    (10, 2, [(0, 2), (2, 4), (4, 6), (6, 8), (8, 10)]),
    (11, 2, [(0, 2), (2, 4), (4, 6), (6, 8), (8, 11)]),  # a one-row tail joins the block before it
    (2, 1, [(0, 2)]),
    (3, 4, [(0, 3)]),  # n < block
    (1, 4, [(0, 1)]),
])
def test_blockwise_deals_fixed_blocks_with_scratch_per_thread(n, block, edges, monkeypatch):
    """The block edges do not depend on the worker count; block i runs on thread i % workers, which
    has its own scratch (the calling thread's with one worker)."""
    for workers in (1, 3):
        monkeypatch.setattr(lattice, "stage_workers", lambda n: workers)
        seen = []

        def task(lo, hi, buf):
            assert buf.shape == (hi - lo,) and buf.dtype == np.int64
            seen.append((lo, hi, threading.get_ident(), buf.ctypes.data))
        lattice._blockwise(n, task, np.int64, block=block)
        seen.sort()
        assert [(lo, hi) for lo, hi, _, _ in seen] == edges
        slots = [{(thread, address) for _, _, thread, address in seen[i::workers]} for i in range(workers)]
        assert all(len(slot) <= 1 for slot in slots)
        addresses = [address for slot in slots for _, address in slot]
        assert len(set(addresses)) == len(addresses)
        if workers == 1:
            assert slots[0] == {(threading.get_ident(), seen[0][3])}


def test_cbc_d1():
    assert cbc_construct(1, 128).z == (1,)


def test_cbc_d2_n4_exhaustive():
    # the units 1 and 3 score the same; the smaller wins
    assert cbc_construct(2, 4).z == (1, 1)


def test_cbc_small_invariants():
    # 30, 210 and 1000 are even but not powers of two, so some odd residues (3 for 30) are not units
    for n in (8, 32, 9, 30, 210, 1000):
        lat = cbc_construct(3, n)
        assert lat.z[0] == 1
        for zj in lat.z:
            assert math.gcd(zj, n) == 1


def _slow_cbc(d: int, n: int) -> tuple[int, ...]:
    """Reference CBC: every unit scored by a direct O(n) sum of p[k] omega(k c / n), O(n^2)
    per component; the smallest unit within the tie tolerance of the least score wins."""
    omega = _korobov_kernel_table(n)
    k = np.arange(n, dtype=np.int64)
    units = [c for c in range(1, n) if math.gcd(c, n) == 1]
    z = [1]
    prods = 1.0 + omega
    for _ in range(1, d):
        scores = np.array([np.sum(prods * omega[k * c % n]) for c in units])  # pairwise, no BLAS
        tol = _TIE_TOL * np.sqrt(np.sum(prods * prods) * np.sum(omega * omega) / n)
        z.append(units[np.flatnonzero(scores <= scores.min() + tol)[0]])
        prods = prods * (1.0 + omega[k * z[-1] % n])
    return tuple(z)


@pytest.mark.parametrize("d, n", [
    # powers of two
    (3, 2), (3, 4), (5, 8), (5, 16), (5, 256), (8, 1024), (8, 2**13),
    # primes
    (3, 3), (5, 97), (8, 1009), (8, 8191),
    # odd prime powers and odd composites
    (5, 9), (5, 125), (5, 343), (8, 2187), (8, 2401), (8, 3125), (5, 1155),
    # even composites
    (5, 12), (5, 30), (5, 210), (8, 864), (8, 1000), (8, 2310), (8, 6000),
    # layouts of several axes, most of whose levels take proper blocks on more than one of them
    (5, 100), (5, 162), (5, 224), (5, 360), (5, 1089),
])
def test_cbc_equals_direct_search(d, n):
    assert cbc_construct(d, n).z == _slow_cbc(d, n)


@pytest.mark.parametrize("d, n, z", [
    (3, 2**13, (1, 2431, 563)),
    (2, 2**10, (1, 275)),
])
def test_cbc_pinned_vectors(d, n, z):
    assert cbc_construct(d, n).z == z


@pytest.mark.parametrize("n", [2, 4, 8, 64, 9, 3**7, 30, 100, 162, 224, 360, 1000, 1089, 2310])
def test_unit_group_layout(n):
    table = _unit_group(n)
    assert sorted(table.ravel().tolist()) == [c for c in range(1, n) if math.gcd(c, n) == 1]
    # per divisor m of n, the leading block under each axis's order mod m holds every unit of Z_m once
    gens = [table.item(*(int(a == i) for a in range(table.ndim))) if size > 1 else 1
            for i, size in enumerate(table.shape)]
    for m in (m for m in range(2, n + 1) if n % m == 0):
        block = [next(j for j in range(1, size + 1) if pow(x, j, m) == 1) for x, size in zip(gens, table.shape)]
        assert sorted((table[tuple(map(slice, block))] % m).ravel().tolist()) == \
            [c for c in range(1, m) if math.gcd(c, m) == 1]
    # multiplying units adds their indices cyclically along every axis
    rng = np.random.default_rng(0)
    for _ in range(20):
        e, f = (tuple(rng.integers(0, s) for s in table.shape) for _ in range(2))
        ef = tuple((a + b) % s for a, b, s in zip(e, f, table.shape))
        assert table[e] * table[f] % n == table[ef]


def test_cbc_d2_power_of_two_full_size():
    assert cbc_construct(2, 2**16).z == (1, 19463)


def test_paper_d2_is_not_a_cbc_choice():
    """Its second component, 100135 = 34599 mod 2^16, is not tied for the least score."""
    d, n, z = PRESETS["paper-d2"]
    ties = next(_tie_sets(n, [1])).tolist()
    assert ties == [19463, 25015, 40521, 46073] and z[1] % n not in ties


@pytest.mark.parametrize("name, second", [
    ("paper-d4", 387275),
    pytest.param("paper-d8", 6159871, marks=pytest.mark.slow),  # paper-d6 is its prefix; ~35 s, 1.2 GiB
])
def test_presets_are_cbc_choices_up_to_an_orbit_tie(name, second):
    """Given the preset's own earlier components, component 2 is tied for the least score with
    the CBC choice ``second``, and every later component is the smallest unit of its tie set."""
    d, n, z = PRESETS[name]
    ties = [t.tolist() for t in itertools.islice(_tie_sets(n, list(z)), d - 1)]
    assert ties[0][0] == second and z[1] in ties[0]
    assert [t[0] for t in ties[1:]] == list(z[2:])
