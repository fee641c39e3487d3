import math
import os
import threading
import time

import numpy as np
import pytest
import scipy.fft
from scipy.linalg import expm

from rank1tdse import antialias, lattice, operators
from rank1tdse.lattice import Rank1Lattice, cbc_construct, load_lattice
from rank1tdse.operators import (
    POTENTIAL_KINDS,
    PotentialField,
    kinetic_apply,
    kinetic_stage,
    make_gaussian,
    make_kinetic,
    make_potential,
    potential_apply,
    smooth_potential_coefficients,
)
from rank1tdse.splitting import SCHEME_NAMES, scheme
from rank1tdse.transform import SpectralState, aliasing_oracle, inverse, vector_norm


@pytest.fixture(scope="module")
def small():
    lat = Rank1Lattice(2, 64, (1, 19))
    return lat, antialias.build(lat)


def _row_smooth(x):
    """``smooth_v1`` as one reduction over the rows of the (n, d) node coordinates (the oracle)."""
    return np.prod(1.0 - np.cos(2.0 * np.pi * np.atleast_2d(x)), axis=-1)


def _row_harmonic(x):
    """``harmonic_v2`` as one reduction over the rows of the (n, d) node coordinates (the oracle)."""
    return 0.5 * np.sum((2.0 * np.pi * np.atleast_2d(x) - np.pi) ** 2, axis=-1)


def _row_gaussian(aa, epsilon=1.0):
    """``make_gaussian``'s coefficients from the (n, d) node coordinates (the oracle)."""
    lat = aa.lattice
    x = lat.node_coords()
    amp = (2.0 / (np.pi * epsilon)) ** (lat.d / 4.0)
    vals = amp * np.exp(-np.sum((2.0 * np.pi * x - np.pi) ** 2, axis=1) / epsilon)
    coeffs = scipy.fft.fft(vals.astype(np.complex128)) / lat.n
    return coeffs / np.linalg.norm(coeffs)


def random_state(aa, seed=0):
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(aa.n) + 1j * rng.standard_normal(aa.n)
    return SpectralState(c / np.linalg.norm(c), aa)


def test_kinetic_zero_frequency_slot(small):
    _, aa = small
    kt = make_kinetic(aa)
    assert kt.phases_base[0] == 0.0
    st = random_state(aa)
    out = kinetic_apply(st, kt, a=0.7, dt=0.3)
    assert out.coeffs[0] == st.coeffs[0]


def test_kinetic_table_is_bounded_by_n_in_d1():
    """In d=1 max||h||^2 = n^2/4, but the table holds one rate per distinct norm, at most n."""
    aa = antialias.build(Rank1Lattice(1, 2**12, (1,)))
    assert aa.max_norm2() == 2**22
    kt = make_kinetic(aa, epsilon=0.5)
    assert kt.rates.size <= aa.n and kt.index.shape == (aa.n,)
    assert np.array_equal(kt.phases_base, 2.0 * np.pi**2 * 0.5 * aa.norms2)
    out = kinetic_apply(random_state(aa), kt, a=0.7, dt=0.3)
    assert abs(vector_norm(out.coeffs) - 1.0) < 1e-12


def test_kinetic_table_over_all_norms_equals_distinct_norms(small):
    """Below n the table runs over 0..max||h||^2; both layouts give the same phases."""
    _, aa = small
    kt = make_kinetic(aa)
    assert kt.rates.size == aa.max_norm2() + 1 and kt.index is aa.norms2
    norms, index = np.unique(aa.norms2, return_inverse=True)
    assert np.array_equal(kt.phases(0.7, 0.3)[kt.index],
                          np.exp(-1j * 0.7 * 0.3 * (2.0 * np.pi**2 * norms))[index])


def test_kinetic_table_keeps_the_dense_layout_while_half_the_norms_occur(small):
    """The small set holds 15 of the norms 0..26, the CBC d = 3, n = 2^10 set 53 of 0..65: one rate per
    norm 0..max, and the set's own array as the index."""
    lat = cbc_construct(3, 2**10)
    for aa in (small[1], antialias.build(lat)):
        kt = make_kinetic(aa)
        assert kt.index is aa.norms2 and kt.rates.size == aa.max_norm2() + 1


def test_kinetic_table_over_the_norms_that_occur():
    """paper-d2 holds 8 277 of the norms 0..36 424: one rate per norm that occurs, an int16 index (the
    narrowest type that holds the table size), and the same per-residue rates as the dense layout."""
    aa = antialias.build(load_lattice("paper-d2"))
    kt = make_kinetic(aa, epsilon=0.5)
    assert kt.rates.size == np.unique(aa.norms2).size == 8277 and kt.index.dtype == np.int16
    assert np.array_equal(kt.phases_base, 2.0 * np.pi**2 * 0.5 * aa.norms2)


def test_make_kinetic_holds_less_than_an_intp_n_vector(peak_bytes):
    """On paper-d2 the compact table's mask, slots, int16 index and rates, and a kinetic block's intp
    cast of the norms, trace less than one intp n-vector, which an intp index alone would fill."""
    aa = antialias.build(load_lattice("paper-d2"))
    assert peak_bytes(make_kinetic, aa, 0.5) < np.dtype(np.intp).itemsize * aa.n


def test_kinetic_zero_coefficient_is_identity(small):
    _, aa = small
    kt = make_kinetic(aa)
    st = random_state(aa)
    out = kinetic_apply(st, kt, a=0.0, dt=0.5)
    assert np.array_equal(out.coeffs, st.coeffs)


def test_kinetic_unit_norm_phase(small):
    _, aa = small
    kt = make_kinetic(aa, epsilon=1.0)
    xi = int(np.flatnonzero(aa.norms2 == 1)[0])
    st = SpectralState(np.eye(aa.n)[xi].astype(complex), aa)
    out = kinetic_apply(st, kt, a=1.0, dt=1.0)
    assert abs(out.coeffs[xi] - np.exp(-2j * np.pi**2)) < 1e-12


def test_kinetic_preserves_norm(small):
    _, aa = small
    kt = make_kinetic(aa)
    st = random_state(aa, 3)
    out = kinetic_apply(st, kt, a=0.4, dt=0.01)
    assert abs(vector_norm(out.coeffs) - 1.0) < 1e-13


def _deal_blocks(monkeypatch, workers):
    """Have ``lattice._blockwise`` deal the operators' blocks to ``workers`` threads; return the set
    of threads that ran one.  Each block first sleeps 1 ms, so that the pool starts more than one."""
    monkeypatch.setattr(lattice, "stage_workers", lambda n: workers)
    threads = set()

    def blockwise(n, task, *scratch, block=None):
        def traced(*args):
            threads.add(threading.get_ident())
            time.sleep(1e-3)
            task(*args)
        lattice._blockwise(n, traced, *scratch, block=block)
    monkeypatch.setattr(operators, "_blockwise", blockwise)
    return threads


def test_kinetic_stage_blocks_round_as_one_product(monkeypatch):
    """Any block of two or more residues gives the bits of one in-place product over
    the whole vector, on one thread or with the blocks dealt to three.  With this seed
    the last product, taken alone in place, rounds differently, so a one-residue tail
    block would show."""
    rng = np.random.default_rng(0)
    n = 64
    coeffs = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    table, index = np.exp(1j * rng.standard_normal(40)), rng.integers(0, 40, n)
    want = coeffs.copy()
    want *= table[index]
    for workers in (1, 3):
        threads = _deal_blocks(monkeypatch, workers)
        for block in range(2, n + 2):
            monkeypatch.setattr(operators, "_BLOCK", block)
            got = kinetic_stage(coeffs.copy(), table, index)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (workers, block)
        assert (len(threads) > 1) == (workers > 1)


def _custom(lat, func):
    """A potential of any ``func`` of the (n, d) node coordinates."""
    return PotentialField(np.asarray(func(lat.node_coords()), float), "custom", lat)


def _custom_with_zeros(x):
    """Negative values and exact zeros (a zero potential value makes a signed-zero argument)."""
    return np.where(x[:, 0] < 0.3, 0.0, np.sin(7.0 * x[:, 0]) - 0.4)


def _stage_order(n):
    """The lattice point at each position of the potential stage's nodal order."""
    split = operators.four_step_split(n)
    return np.arange(n) if split is None else np.arange(n).reshape(split).T.ravel()


def _in_layout(v, pad):
    """The n-vector ``v`` in ``stage_layout(n)``, with ``pad`` in the pads (a state's 0, a phase's 1)."""
    out = operators.stage_copy(v)
    if out.ndim == 2:
        out[:, -1] = pad
    return out


def _read_layout(a, n, pad):
    """The n values ``a`` holds in ``stage_layout(n)``, once its shape and its pads (all ``pad``) are asserted."""
    assert a.shape == operators.stage_layout(n)
    if a.ndim == 1:
        return a
    assert np.array_equal(a[:, -1], np.full(a.shape[0], pad, a.dtype))
    return a[:, :-1].reshape(-1)


@pytest.mark.parametrize("lat", [Rank1Lattice(2, 64, (1, 19)), cbc_construct(3, 2**10),
                                 load_lattice("paper-d2")], ids=lambda lat: f"d{lat.d}-n{lat.n}")
def test_potential_phases_bit_identical_to_complex_product(lat):
    """The in-place phases carry the bits, signed zeros included, of the complex product,
    in the stage's order and layout, 1 in the pads (paper-d2, n = 2^16, runs the four-step pair)."""
    order = _stage_order(lat.n)
    fields = [make_potential("smooth_v1", lat), make_potential("harmonic_v2", lat),
              _custom(lat, _custom_with_zeros)]
    assert np.any(fields[2].values == 0.0) and np.any(fields[2].values < 0.0)
    weights = sorted({b for name in SCHEME_NAMES for _, b in scheme(name).stages} - {0.0})
    for pf in fields:
        for b in weights:
            for dt in (1e-3, 0.25, 1 / 2048, 0.37, -0.01):
                for eps in (1.0, 0.3):
                    want = np.exp(-1j * (b * dt / eps) * pf.values)[order]
                    got = _read_layout(pf.phases(b, dt, eps), lat.n, 1)
                    assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (pf.kind, b, dt, eps)


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("n", [2**16, 2**20])
def test_potential_phases_blocked_build_bit_identical(n, workers, monkeypatch):
    """Built a row block at a time from a blocked read of the values, on one thread or
    three, the phases carry the complex product's bits, signed zeros included."""
    threads = _deal_blocks(monkeypatch, workers)
    rng = np.random.default_rng(n)
    values = np.where(rng.random(n) < 0.1, 0.0, rng.standard_normal(n))
    pf = PotentialField(values, "custom", Rank1Lattice(1, n, (1,)))
    for b, dt, eps in ((0.5, 0.01, 1.0), (-0.155248405110362, 1 / 2048, 0.3)):
        want = np.exp(-1j * (b * dt / eps) * values)[_stage_order(n)]
        got = _read_layout(pf.phases(b, dt, eps), n, 1)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (b, dt, eps)
    assert (len(threads) > 1) == (workers > 1)


# Runs two blocks on both pool threads, forks, and exits 0 once the forked child has done the same.
_FORK_CHILD = """
import os, time
from rank1tdse import lattice
lattice.stage_workers = lambda n: 2
lattice._blockwise(4, lambda lo, hi: time.sleep(0.2), block=2)
time.sleep(0.2)  # both threads idle, waiting for work
pid = os.fork()
if pid == 0:
    lattice._blockwise(4, lambda lo, hi: None, block=2)
    os._exit(0)
for _ in range(200):
    done, status = os.waitpid(pid, os.WNOHANG)
    if done:
        raise SystemExit(os.waitstatus_to_exitcode(status))
    time.sleep(0.05)
os.kill(pid, 9)
raise SystemExit("the forked child did not finish in 10 s")
"""


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork on this platform")
def test_forked_child_gets_a_pool_of_its_own(python_child):
    """A child forked after the pool has run must not wait on the parent's threads, which it lacks."""
    python_child(_FORK_CHILD, timeout=60)


def _random_pair_inputs(n, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n) + 1j * rng.standard_normal(n), np.exp(-1j * rng.standard_normal(n))


@pytest.mark.parametrize("n", [2**15, 2**16])
def test_four_step_pair_matches_1d_pair(n):
    """The four-step stage, given the state and the phases in its order and layout, agrees with the
    1-D pair to 1e-14."""
    assert operators.four_step_split(n) is not None
    coeffs, phases = _random_pair_inputs(n)
    want = scipy.fft.fft(scipy.fft.ifft(coeffs) * phases)
    work = operators.potential_stage(operators.stage_copy(coeffs), _in_layout(phases[_stage_order(n)], 1))
    got = _read_layout(work, n, 0)
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def _four_step_reference(coeffs, phases):
    """The four-step pair on one thread, a block of rows at a time, each block's twiddle
    formed from its own copy of the tables (the loop version of ``potential_stage``)."""
    n = coeffs.size
    m1, m2 = operators.four_step_split(n)
    rows = max(operators._BLOCK // m1, math.isqrt(m2))
    lo, hi = (np.exp((2j * np.pi / n) * (np.outer(j, range(m1)) % n)) for j in (range(rows), range(0, m2, rows)))
    c, p = coeffs.reshape(m2, m1), phases.reshape(m2, m1)
    scipy.fft.ifft(c, axis=0, overwrite_x=True)
    for r, h in zip(range(0, m2, rows), hi):
        block, twiddle = c[r:r + rows], lo[:m2 - r] * h
        block *= twiddle
        scipy.fft.ifft(block, axis=1, overwrite_x=True)
        block *= p[r:r + rows]
        scipy.fft.fft(block, axis=1, overwrite_x=True)
        block *= np.conjugate(twiddle)
    return scipy.fft.fft(c, axis=0, overwrite_x=True).reshape(-1)


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("n", [2**15, 2**16, 2**18, 2**21])
def test_four_step_pair_shares_its_tables_and_keeps_its_bits(n, workers, monkeypatch):
    """Every ``potential_stage`` call reuses the read-only twiddle tables of its n, and the pair,
    on one thread or with its row blocks dealt to three, gives the reference's bits in the stage
    layout, 0 in the pads (2^15: m1 = 128; 2^18: m1 = 512; 2^21: m2 = 2 m1, with a partial last
    block of rows)."""
    threads = _deal_blocks(monkeypatch, workers)
    coeffs, phases = _random_pair_inputs(n)
    want = _four_step_reference(coeffs.copy(), phases)
    assert not any(table.flags.writeable for table in operators._twiddles(n))
    assert all(np.array_equal(table[:, -1], np.zeros(len(table))) for table in operators._twiddles(n))
    for _ in range(2):
        hits = operators._twiddles.cache_info().hits
        work = operators.stage_copy(coeffs)
        assert operators.potential_stage(work, _in_layout(phases, 1)) is work
        assert operators._twiddles.cache_info().hits == hits + 1
        got = _read_layout(work, n, 0)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert (len(threads) > 1) == (workers > 1)


def test_potential_apply_keeps_its_bits_with_shared_tables():
    """Repeated ``potential_apply`` calls on paper-d2 (n = 2^16) give the reference pair's bits."""
    lat = load_lattice("paper-d2")
    st, pf = make_gaussian(antialias.build(lat)), make_potential("smooth_v1", lat)
    want = _four_step_reference(st.coeffs.copy(), np.exp(-1j * (0.5 * 0.01) * pf.values)[_stage_order(lat.n)])
    for _ in range(2):
        out = potential_apply(st, pf, 0.5, 0.01, 1.0)
        assert np.array_equal(out.coeffs.view(np.uint64), want.view(np.uint64))


def test_stage_layout_pads_every_four_step_n():
    """From 2^15 to 2^26 each power of two 2^k is held as 2^k / 2^(k // 2) rows of 2^(k // 2) + 1; every other
    n, and each power of two below 2^15, as one plain row.  ``stage_copy`` and ``stage_compact`` round-trip."""
    for k in range(27):
        m1 = 2 ** (k // 2)
        assert operators.stage_layout(2**k) == ((2**k // m1, m1 + 1) if k >= 15 else (2**k,))
        for n in (2**k + 1, 3 * 2**k, 2 ** (k + 1) - 1):
            assert operators.stage_layout(n) == (n,)
    for n in (2**13, 2**15, 2**16, 3 * 2**12):
        v = np.random.default_rng(n).standard_normal(n) + 0j
        work = operators.stage_copy(v)
        assert np.array_equal(_read_layout(work, n, 0), v)
        got = operators.stage_compact(work)
        assert np.array_equal(got, v) and np.shares_memory(got, work)


@pytest.mark.parametrize("n", [2**13, 2**16])
def test_potential_stage_refuses_work_or_phases_outside_the_layout(n):
    """A state or phases not in ``stage_layout(n)`` (a natural-order n-vector at a four-step n, phases
    made for another n) is refused, not transformed."""
    coeffs, phases = _random_pair_inputs(n)
    work, phases = operators.stage_copy(coeffs), _in_layout(phases, 1)
    other = _in_layout(_random_pair_inputs(2 * n)[1], 1)
    cases = [(work, other), (other, phases)]
    if work.ndim == 2:  # a natural-order n-vector, and phases flattened with their pads
        cases += [(coeffs.copy(), phases), (work, phases.reshape(-1))]
    for args in cases:
        before = args[0].copy()
        with pytest.raises(ValueError, match="stage_layout"):
            operators.potential_stage(*args)
        assert np.array_equal(args[0], before)


@pytest.mark.parametrize("n", [2**13, 65537, 3 * 2**14])
def test_small_or_non_power_of_two_n_keeps_the_1d_pair(n):
    """Below 2^15 and for n not a power of two (prime or composite) the stage is the 1-D pair, bit for bit."""
    assert operators.four_step_split(n) is None
    coeffs, phases = _random_pair_inputs(n)
    want = scipy.fft.fft(scipy.fft.ifft(coeffs) * phases)
    assert np.array_equal(operators.potential_stage(coeffs.copy(), phases), want)


def test_potential_zero_coefficient_is_identity(small):
    lat, aa = small
    pf = make_potential("smooth_v1", lat)
    st = random_state(aa, 1)
    out = potential_apply(st, pf, b=0.0, dt=0.1, epsilon=1.0)
    assert np.array_equal(out.coeffs, st.coeffs)


def test_constant_potential_is_global_phase(small):
    lat, aa = small
    pf = _custom(lat, lambda x: np.full(len(x), 2.5))
    st = random_state(aa, 2)
    out = potential_apply(st, pf, b=0.3, dt=0.2, epsilon=1.0)
    assert np.abs(out.coeffs - st.coeffs * np.exp(-1j * 0.3 * 0.2 * 2.5)).max() < 1e-13


def test_potential_preserves_norm(small):
    lat, aa = small
    pf = make_potential("harmonic_v2", lat)
    st = random_state(aa, 4)
    out = potential_apply(st, pf, b=0.9, dt=0.05, epsilon=1.0)
    assert abs(vector_norm(out.coeffs) - 1.0) < 1e-13


def test_potential_matches_dense_matrix_exponential(small):
    lat, aa = small
    pf = make_potential("smooth_v1", lat)
    b, dt, eps = 0.37, 0.11, 1.0
    st = random_state(aa, 5)
    got = potential_apply(st, pf, b, dt, eps).coeffs
    # dense circulant from the analytic coefficients, exponentiated directly
    w = aliasing_oracle(smooth_potential_coefficients(lat.d), aa).coeffs
    xi = np.arange(lat.n)
    W = w[(xi[:, None] - xi[None, :]) % lat.n]
    want = expm(-1j * b * dt / eps * W) @ st.coeffs
    assert np.abs(got - want).max() < 1e-10


def test_operators_do_not_commute(small):
    lat, aa = small
    kt = make_kinetic(aa)
    pf = make_potential("smooth_v1", lat)
    st = random_state(aa, 6)
    kv = potential_apply(kinetic_apply(st, kt, 1.0, 0.1), pf, 1.0, 0.1, 1.0)
    vk = kinetic_apply(potential_apply(st, pf, 1.0, 0.1, 1.0), kt, 1.0, 0.1)
    assert np.linalg.norm(kv.coeffs - vk.coeffs) > 1e-6


def test_potential_vertex_values():
    lat = Rank1Lattice(3, 2, (1, 1, 1))  # nodes at 0 and (1/2,...,1/2)
    v1 = make_potential("smooth_v1", lat).values
    v2 = make_potential("harmonic_v2", lat).values
    assert abs(v1[0] - 0.0) < 1e-15 and abs(v1[1] - 2**3) < 1e-12
    assert abs(v2[1] - 0.0) < 1e-12 and abs(v2[0] - 3 * np.pi**2 / 2) < 1e-12


def test_potential_ranges(small):
    lat, _ = small
    v1 = make_potential("smooth_v1", lat).values
    v2 = make_potential("harmonic_v2", lat).values
    assert v1.min() >= 0 and v1.max() <= 2**lat.d + 1e-12
    assert v2.min() >= 0 and v2.max() <= lat.d * np.pi**2 / 2 + 1e-12


def test_unknown_potential_kind(small):
    lat, _ = small
    with pytest.raises(ValueError, match="unknown potential"):
        make_potential("v3", lat)


def test_smooth_potential_is_its_own_truncation(small):
    lat, aa = small
    pf = make_potential("smooth_v1", lat)
    st = aliasing_oracle(smooth_potential_coefficients(lat.d), aa)
    nodal = inverse(st).values
    assert np.abs(nodal - pf.values).max() < 1e-12


def test_gaussian_unit_norm(small):
    _, aa = small
    st = make_gaussian(aa, epsilon=1.0)
    assert abs(vector_norm(st.coeffs) - 1.0) < 1e-14


def test_gaussian_peak_at_center(small):
    lat, aa = small
    st = make_gaussian(aa)
    nodal = np.abs(inverse(st).values)
    center = np.full(lat.d, 0.5)
    dist2 = np.sum((lat.node_coords() - center) ** 2, axis=1)
    assert nodal.argmax() == dist2.argmin()


def test_gaussian_tail_mass_paper_scale():
    lat = load_lattice("paper-d2")
    aa = antialias.build(lat)
    st = make_gaussian(aa, epsilon=1.0)
    tail = np.sum(np.abs(st.coeffs[aa.norms2 > 100]) ** 2)
    assert tail < 1e-10


#: (d, n, z), z None meaning ``cbc_construct(d, n)``; (3, 2^13) is the study-d3
#: lattice, (2, 2^13, (1, 100135)) the paper-d2 vector at a smaller n, and (3, 2^16 + 1)
#: ends in a block of one point.
TABULATION_LATTICES = [(1, 2**10, (1,))] + [(d, 2**10, None) for d in range(2, 8)] + [
    (3, 2**13, None), (2, 2**13, (1, 100135)), (5, 1000, (1, 3, 7, 11, 13)), (3, 2**16 + 1, None)]


@pytest.mark.parametrize("d, n, z", TABULATION_LATTICES)
def test_tabulation_equals_row_formulas(d, n, z):
    """Coordinate-by-coordinate tabulation is bit-identical to the (n, d) row reductions for d <= 7."""
    lat = cbc_construct(d, n) if z is None else Rank1Lattice(d, n, z)
    x = lat.node_coords()
    assert np.array_equal(make_potential("smooth_v1", lat).values, _row_smooth(x))
    assert np.array_equal(make_potential("harmonic_v2", lat).values, _row_harmonic(x))
    aa = antialias.build(lat)
    for eps in (1.0, 0.3):
        assert np.array_equal(make_gaussian(aa, eps).coeffs, _row_gaussian(aa, eps))


def test_setup_bits_do_not_depend_on_the_worker_count(monkeypatch):
    """A d = 3 CBC lattice at n = 2^18 + 3, four full blocks and a last one of three points, gives
    the same set, norms, residues, potentials and Gaussian with the threshold lowered to n on a
    process that reports three CPUs, so that every set-up pass is dealt to three threads."""
    lat, outs = cbc_construct(3, 2**18 + 3), []
    assert lat.n % lattice._BLOCK == 3
    for workers in (1, 3):
        if workers > 1:
            monkeypatch.setattr(lattice, "_PARALLEL_MIN", lat.n)
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(workers)))
        assert lattice.stage_workers(lat.n) == workers
        aa = antialias.build(lat)
        outs.append([aa.freq, aa.norms2, antialias._norms2(aa.freq), lat.residues(aa.freq)]
                    + [make_potential(kind, lat).values.view(np.uint64) for kind in POTENTIAL_KINDS]
                    + [make_gaussian(aa, eps).coeffs.view(np.uint64) for eps in (1.0, 0.3)])
    for one, three in zip(*outs):
        assert np.array_equal(one, three)


@pytest.mark.parametrize("d", [8, 9])
def test_tabulation_within_4_ulp_of_row_formulas_from_d8(d):
    """From d = 8 numpy's row sum adds in pairs; the sequential sum stays within 4 ulp.

    The product has no such grouping and stays bit-identical.
    """
    lat = cbc_construct(d, 2**10)
    x = lat.node_coords()
    assert np.array_equal(make_potential("smooth_v1", lat).values, _row_smooth(x))
    want = _row_harmonic(x)
    assert np.all(np.abs(make_potential("harmonic_v2", lat).values - want) <= 4 * np.spacing(want))
    aa = antialias.build(lat)
    want = _row_gaussian(aa)
    assert np.abs(make_gaussian(aa).coeffs - want).max() <= 4 * np.spacing(np.abs(want).max())


def test_custom_potential_gets_node_coordinates(small):
    lat, _ = small
    pf = _custom(lat, _row_harmonic)
    assert pf.kind == "custom" and np.array_equal(pf.values, make_potential("harmonic_v2", lat).values)


def test_custom_potential_of_wrong_shape_rejected(small):
    """Values of the (n, d) coordinates themselves are refused by ``PotentialField``."""
    lat, _ = small
    with pytest.raises(ValueError, match=r"shape \(64, 2\)"):
        _custom(lat, lambda x: x)


def test_tabulation_memory_is_order_n(peak_bytes):
    """Named potentials and the Gaussian peak under six float64 n-vectors at d = 6; the row formulas do not."""
    lat = Rank1Lattice(6, 2**14, (1, 6229, 2691, 7737, 717, 3893))  # cbc_construct(6, 2**14)
    aa = antialias.build(lat)
    bound = 6 * 8 * lat.n
    for kind in POTENTIAL_KINDS:
        assert peak_bytes(make_potential, kind, lat) <= bound
    assert peak_bytes(make_gaussian, aa) <= bound
    for row_formula in (_row_smooth, _row_harmonic):
        assert peak_bytes(lambda: row_formula(lat.node_coords())) > bound
    assert peak_bytes(_row_gaussian, aa) > bound
