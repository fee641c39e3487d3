import json
import os
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm

from rank1tdse import antialias, lattice, operators
from rank1tdse.antialias import AntiAliasingSet
from rank1tdse.lattice import Rank1Lattice, cbc_construct, load_lattice
from rank1tdse.operators import (
    KineticTable,
    PotentialField,
    kinetic_apply,
    make_gaussian,
    make_kinetic,
    make_potential,
    potential_apply,
)
from rank1tdse.splitting import (
    ORDER_FIT_FLOOR,
    SCHEME_NAMES,
    SplittingScheme,
    empirical_order,
    evolve,
    scheme,
)
from rank1tdse.transform import SpectralState, vector_norm


@pytest.fixture(scope="module")
def setup():
    lat = Rank1Lattice(2, 64, (1, 19))
    aa = antialias.build(lat)
    return {
        "lat": lat,
        "aa": aa,
        "kt": make_kinetic(aa),
        "pf": make_potential("smooth_v1", lat),
        "st": make_gaussian(aa),
    }


def test_registry_names():
    assert set(SCHEME_NAMES) == {"strang", "s9odr6a", "s17odr8a"}


def test_stage_sums_machine_exact():
    for name in SCHEME_NAMES:
        sch = scheme(name)
        assert abs(sum(a for a, _ in sch.stages) - 1.0) <= 1e-12
        assert abs(sum(b for _, b in sch.stages) - 1.0) <= 1e-12


def test_stage_counts_and_orders():
    assert (scheme("strang").order_p, len(scheme("strang").stages)) == (2, 2)
    assert (scheme("s9odr6a").order_p, len(scheme("s9odr6a").stages)) == (6, 10)
    assert (scheme("s17odr8a").order_p, len(scheme("s17odr8a").stages)) == (8, 18)


def test_palindromic_symmetry():
    for name, s in (("s9odr6a", 10), ("s17odr8a", 18)):
        sch = scheme(name)
        a = [st[0] for st in sch.stages]
        b = [st[1] for st in sch.stages]
        assert a[-1] == 0.0
        for j in range(1, s):          # a_j = a_{s-j}, 1-based
            assert a[j - 1] == a[s - j - 1]
        for j in range(1, s + 1):      # b_j = b_{s+1-j}
            assert b[j - 1] == b[s - j]


def test_known_table_entries():
    six = scheme("s9odr6a").stages
    assert six[0] == (0.392161444007314, 0.196080722003657)
    assert six[4] == (0.798543990934830, 0.440378793614190)
    eight = scheme("s17odr8a").stages
    assert eight[8] == (-0.605508533830035, -0.155248405110362)


def test_unknown_scheme():
    with pytest.raises(ValueError, match="unknown scheme"):
        scheme("rk4")


def test_bad_stage_sums_rejected():
    with pytest.raises(ValueError, match="must both equal 1"):
        SplittingScheme("bad", 2, ((0.5, 1.0), (0.4, 0.0)))


def test_strang_is_potential_kinetic_potential(setup):
    s = setup
    dt = 0.05
    got = evolve(s["st"], scheme("strang"), s["kt"], s["pf"], 1, dt, 1.0)[0]
    want = potential_apply(
        kinetic_apply(potential_apply(s["st"], s["pf"], 0.5, dt, 1.0), s["kt"], 1.0, dt),
        s["pf"], 0.5, dt, 1.0)
    assert np.abs(got.coeffs - want.coeffs).max() < 1e-14


def test_step_advances_time(setup):
    s = setup
    out = evolve(s["st"], scheme("strang"), s["kt"], s["pf"], 1, 0.25, 1.0)[0]
    assert out.time == 0.25


def test_evolve_equals_repeated_step(setup):
    s = setup
    sch = scheme("s9odr6a")
    st = s["st"]
    for _ in range(5):
        st = evolve(st, sch, s["kt"], s["pf"], 1, 0.1, 1.0)[0]
    out, rec = evolve(s["st"], sch, s["kt"], s["pf"], 5, 0.1, 1.0)
    assert np.abs(out.coeffs - st.coeffs).max() < 1e-13
    assert rec.steps_taken == 5 and rec.dt == 0.1
    assert abs(out.time - 0.5) < 1e-15


def test_evolve_preserves_norm(setup):
    s = setup
    for name in SCHEME_NAMES:
        out, rec = evolve(s["st"], scheme(name), s["kt"], s["pf"], 100, 0.01, 1.0)
        assert abs(vector_norm(out.coeffs) - 1.0) < 1e-12
        assert abs(rec.final_norm - 1.0) < 1e-12


def test_evolve_rejects_bad_m(setup):
    s = setup
    with pytest.raises(ValueError):
        evolve(s["st"], scheme("strang"), s["kt"], s["pf"], 0, 0.1, 1.0)


def test_size_mismatch_rejected(setup):
    s = setup
    other = Rank1Lattice(2, 5, (1, 3))
    pf = make_potential("smooth_v1", other)
    with pytest.raises(ValueError, match="sizes disagree"):
        evolve(s["st"], scheme("strang"), s["kt"], pf, 1, 0.1, 1.0)


def test_kinetic_table_from_another_set_rejected(setup):
    """A kinetic table of an equal-n lattice with another z is not the state's."""
    s = setup
    other = antialias.build(Rank1Lattice(2, 64, (1, 27)))
    assert not np.array_equal(other.norms2, s["aa"].norms2)
    with pytest.raises(ValueError, match="another anti-aliasing set"):
        evolve(s["st"], scheme("strang"), make_kinetic(other), s["pf"], 2, 0.1, 1.0)


def test_kinetic_apply_rejects_table_from_another_set(setup):
    """``kinetic_apply`` runs the same set check as ``evolve``."""
    s = setup
    other = make_kinetic(antialias.build(Rank1Lattice(2, 64, (1, 27))))
    with pytest.raises(ValueError, match="another anti-aliasing set"):
        kinetic_apply(s["st"], other, 0.5, 0.1)


def test_potential_field_from_another_lattice_rejected(setup):
    """A potential tabulated on an equal-n lattice with another z is not the state's."""
    s = setup
    pf = make_potential("smooth_v1", Rank1Lattice(2, 64, (1, 27)))
    with pytest.raises(ValueError, match="another lattice"):
        evolve(s["st"], scheme("strang"), s["kt"], pf, 4, 0.1, 1.0)


def test_potential_apply_rejects_field_from_another_lattice(setup):
    """``potential_apply`` runs the same lattice check as ``evolve``."""
    s = setup
    pf = make_potential("smooth_v1", Rank1Lattice(2, 64, (1, 27)))
    with pytest.raises(ValueError, match="another lattice"):
        potential_apply(s["st"], pf, 0.5, 0.1, 1.0)


def test_epsilon_other_than_the_kinetic_table_rejected(setup):
    """The kinetic and potential phases of one call share one epsilon."""
    s = setup
    kt = make_kinetic(s["aa"], 0.5)
    with pytest.raises(ValueError, match="kinetic table"):
        evolve(s["st"], scheme("strang"), kt, s["pf"], 4, 0.1, 1.0)


# Not palindromic; repeated a and b weights, a zero b and a nonzero last a.
_UNEVEN = SplittingScheme("uneven", 1, ((0.3, 0.2), (0.3, 0.6), (0.1, 0.2), (0.3, 0.0)))


def _reference_evolve(st, sch, kt, pf, m, dt, epsilon):
    """Stage by stage, right to left: each kinetic stage one whole-vector in-place product,
    each potential stage ``potential_apply``.

    In place, because numpy's complex product with FMA is not commutative bitwise, and
    ``coeffs * temporary`` over 256 KiB is computed into the temporary as ``temporary * coeffs``."""
    for _ in range(m):
        for a, b in reversed(sch.stages):
            if a != 0.0:
                coeffs = st.coeffs.copy()
                coeffs *= kt.phases(a, dt)[kt.index]
                st = SpectralState(coeffs, st.aa, st.time)
            st = potential_apply(st, pf, b, dt, epsilon)
    return st


_COMPOSITION_SCHEMES = [scheme(name) for name in SCHEME_NAMES] + [_UNEVEN]


@pytest.mark.parametrize("sch", _COMPOSITION_SCHEMES, ids=lambda sch: sch.name)
def test_evolve_equals_stage_composition(setup, sch):
    s = setup
    out, _ = evolve(s["st"], sch, s["kt"], s["pf"], 3, 0.05, 1.0)
    want = _reference_evolve(s["st"], sch, s["kt"], s["pf"], 3, 0.05, 1.0)
    assert np.array_equal(out.coeffs, want.coeffs)


@pytest.fixture(scope="module")
def setup_four_step():
    lat = load_lattice("paper-d2")
    aa = antialias.build(lat)
    return {"aa": aa, "kt": make_kinetic(aa), "pf": make_potential("smooth_v1", lat), "st": make_gaussian(aa)}


@pytest.mark.parametrize("sch", _COMPOSITION_SCHEMES, ids=lambda sch: sch.name)
def test_evolve_equals_stage_composition_four_step(setup_four_step, sch):
    """The same on paper-d2 (n = 2^16), whose potential stages run the four-step pair."""
    assert operators.four_step_split(setup_four_step["aa"].n) is not None
    test_evolve_equals_stage_composition(setup_four_step, sch)


@pytest.fixture(scope="module", params=[2**15, 2**18], ids=lambda n: f"n{n}")
def setup_four_step_cbc(request):
    lat = cbc_construct(2, request.param)
    aa = antialias.build(lat)
    return {"aa": aa, "kt": make_kinetic(aa), "pf": make_potential("smooth_v1", lat), "st": make_gaussian(aa)}


@pytest.mark.parametrize("sch", _COMPOSITION_SCHEMES, ids=lambda sch: sch.name)
def test_evolve_equals_stage_composition_padded_rows(setup_four_step_cbc, sch):
    """The same on CBC d = 2 lattices of n = 2^15 (m1 = 128) and 2^18 (m1 = 512), whose evolving copy is
    held as m2 rows of m1 + 1."""
    m1, m2 = operators.four_step_split(setup_four_step_cbc["aa"].n)
    assert operators.stage_layout(m1 * m2) == (m2, m1 + 1)
    test_evolve_equals_stage_composition(setup_four_step_cbc, sch)


@pytest.mark.parametrize("block", [5, 7])
@pytest.mark.parametrize("sch", _COMPOSITION_SCHEMES, ids=lambda sch: sch.name)
def test_evolve_equals_stage_composition_across_blocks(setup, sch, block, monkeypatch):
    """Kinetic stages over several blocks of the n = 64 residues: 5 ends in a partial block
    of 4, 7 in a one-residue tail that joins the block before it."""
    monkeypatch.setattr(operators, "_BLOCK", block)
    test_evolve_equals_stage_composition(setup, sch)


def test_evolve_counts_fft_pairs(setup):
    """One inverse/forward pair per stage with a nonzero b, per step; n = 64 runs on one thread."""
    s = setup
    _, rec = evolve(s["st"], scheme("s17odr8a"), s["kt"], s["pf"], 3, 0.01, 1.0)
    assert rec.fft_pairs == 3 * 18
    assert rec.workers == 1
    _, rec = evolve(s["st"], _UNEVEN, s["kt"], s["pf"], 2, 0.01, 1.0)
    assert rec.fft_pairs == 2 * 3


@pytest.mark.parametrize("sch", _COMPOSITION_SCHEMES, ids=lambda sch: sch.name)
def test_evolve_bits_do_not_depend_on_the_worker_count(setup_four_step, sch, monkeypatch):
    """paper-d2 (n = 2^16, one thread) gives the same bits with the threshold lowered to 2^16
    on a process that reports three CPUs, so that every stage's blocks are dealt to three threads."""
    s, outs = setup_four_step, []
    for workers in (1, 3):
        if workers > 1:
            monkeypatch.setattr(lattice, "_PARALLEL_MIN", s["aa"].n)
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(workers)))
        out, rec = evolve(s["st"], sch, s["kt"], s["pf"], 2, 0.05, 1.0)
        assert rec.workers == workers
        outs.append(out.coeffs.view(np.uint64))
    assert np.array_equal(*outs)


def test_evolve_stops_at_the_first_non_finite_step(setup):
    """A NaN in the potential makes every coefficient NaN in the first step, and ``evolve`` says so."""
    s = setup
    values = s["pf"].values.copy()
    values[5] = np.nan
    pf = PotentialField(values, "custom", s["lat"])
    with np.errstate(invalid="ignore"), pytest.raises(FloatingPointError, match="after step 1 of 3"):
        evolve(s["st"], scheme("strang"), s["kt"], pf, 3, 0.01, 1.0)


# Under the CPUs set before it imports rank1tdse: SHA-256s of the set, of both potentials, of the
# Gaussian and of one evolve step per scheme on d = 2 CBC lattices at n = _PARALLEL_MIN and twice
# that (one of the two an odd power of two, m1 != m2), of a ``solve --out`` snapshot at
# _PARALLEL_MIN, and the thread counts reported.
_HASH_CHILD = """
import hashlib, json, sys
from pathlib import Path
from rank1tdse import antialias, lattice, operators
from rank1tdse.cli import main
from rank1tdse.lattice import cbc_construct
from rank1tdse.splitting import SCHEME_NAMES, evolve, scheme
work, out = Path(sys.argv[1]), {"workers": set()}
for n in (2 * lattice._PARALLEL_MIN, lattice._PARALLEL_MIN):
    lat = cbc_construct(2, n)
    aa = antialias.build(lat)
    kt, pf, st = operators.make_kinetic(aa), operators.make_potential("smooth_v1", lat), operators.make_gaussian(aa)
    out[f"{n}-set"] = aa.sha256()
    out[f"{n}-norms2"] = hashlib.sha256(aa.norms2).hexdigest()
    for kind in operators.POTENTIAL_KINDS:
        out[f"{n}-{kind}"] = hashlib.sha256(operators.make_potential(kind, lat).values).hexdigest()
    out[f"{n}-gaussian"] = hashlib.sha256(st.coeffs).hexdigest()
    for name in SCHEME_NAMES:
        final, rec = evolve(st, scheme(name), kt, pf, 1, 0.01, 1.0)
        out[f"{n}-{name}"] = hashlib.sha256(final.coeffs).hexdigest()
        out["workers"].add(rec.workers)
(work / "lat.json").write_text(json.dumps(lat.to_dict()))
assert main(["solve", "--lattice", str(work / "lat.json"), "--steps", "2", "--cache-dir", str(work / "c"),
             "--out", str(work / "state.bin")]) == 0
out["solve"] = hashlib.sha256((work / "state.bin").read_bytes()).hexdigest()
print(json.dumps(dict(out, workers=sorted(out["workers"]))))
"""


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
                    reason="this process has one CPU, or no CPU affinity to set")
def test_evolve_and_solve_bits_do_not_depend_on_the_cpu_count(tmp_path, python_child):
    """A child on one CPU and a child on every CPU of this process hash the same bytes.

    Both run BLAS on one thread: ``make_gaussian``'s norm is a BLAS dot, whose bits follow
    the BLAS thread count, and OpenBLAS takes its default count from the CPUs."""
    cpus = sorted(os.sched_getaffinity(0))
    docs = []
    for run in ([cpus[0]], cpus):
        (tmp_path / str(len(run))).mkdir()
        stdout = python_child(_HASH_CHILD, str(tmp_path / str(len(run))), cpus=run, OPENBLAS_NUM_THREADS="1")
        docs.append(json.loads(stdout.splitlines()[-1]))
    assert docs[0].pop("workers") == [1]
    assert docs[1].pop("workers") == [len(cpus)]
    assert docs[0] == docs[1]


@pytest.fixture(scope="module")
def cbc_d3():
    lat = cbc_construct(3, 2**12)
    aa = antialias.build(lat)
    return lat, aa


@pytest.mark.parametrize("name,vectors", [
    ("s9odr6a", 9),     # 5 distinct nonzero b + 4
    ("s17odr8a", 13),   # 9 distinct nonzero b + 4
])
def test_evolve_memory_is_one_array_per_distinct_potential_weight(cbc_d3, name, vectors):
    """Traced peak of one evolve call, in complex n-vectors."""
    lat, aa = cbc_d3
    kt, pf, st = make_kinetic(aa), make_potential("smooth_v1", lat), make_gaussian(aa)
    tracemalloc.start()
    try:
        evolve(st, scheme(name), kt, pf, 3, 0.01, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= vectors * 16 * lat.n, f"peak {peak / (16 * lat.n):.1f} n-vectors"


@pytest.fixture(scope="module")
def sparse_norm_sets():
    """Two sets that hold under half of their norms 0..max||h||^2: paper-d2 23%, CBC d = 2, n = 2^12 30%."""
    return {name: (lat, antialias.build(lat))
            for name, lat in (("paper-d2", load_lattice("paper-d2")), ("cbc-d2-4096", cbc_construct(2, 2**12)))}


def _dense_table(aa, epsilon=1.0):
    """The kinetic table over every norm 0..max||h||^2, indexed by the set's own norms."""
    rates = 2.0 * np.pi**2 * epsilon * np.arange(aa.max_norm2() + 1)
    return KineticTable(epsilon, aa.norms2, rates, aa.norms2)


@pytest.mark.parametrize("name", SCHEME_NAMES)
@pytest.mark.parametrize("where", ["paper-d2", "cbc-d2-4096"])
def test_evolve_with_the_compact_table_equals_the_dense_table(sparse_norm_sets, name, where):
    """The table over the norms that occur gives the dense table's states bit for bit."""
    lat, aa = sparse_norm_sets[where]
    kt, pf, st = make_kinetic(aa), make_potential("smooth_v1", lat), make_gaussian(aa)
    assert kt.rates.size < aa.max_norm2() + 1
    got, want = (evolve(st, scheme(name), k, pf, 3, 0.01, 1.0)[0].coeffs for k in (kt, _dense_table(aa)))
    assert got.tobytes() == want.tobytes()


@pytest.fixture(scope="module")
def narrow_and_wide_sets():
    """paper-d2 (int16 vectors, int32 norms) and CBC d = 3, n = 2^13 (int8, int16), each beside its
    int32/int64 copy."""
    sets = {}
    for name, lat in (("paper-d2", load_lattice("paper-d2")), ("cbc-d3-8192", cbc_construct(3, 2**13))):
        aa = antialias.build(lat)
        sets[name] = (lat, aa, AntiAliasingSet(lat, aa.freq.astype(np.int32), aa.norms2.astype(np.int64)))
    return sets


@pytest.mark.parametrize("name", SCHEME_NAMES)
@pytest.mark.parametrize("where", ["paper-d2", "cbc-d3-8192"])
def test_evolve_does_not_depend_on_the_set_types(narrow_and_wide_sets, name, where):
    """``evolve`` from the narrow set and from its int32/int64 copy gives the same state bit for bit."""
    lat, *sets = narrow_and_wide_sets[where]
    assert sets[0].freq.itemsize < 4 and sets[0].norms2.itemsize < 8
    pf, outs = make_potential("smooth_v1", lat), []
    for aa in sets:
        st = make_gaussian(aa)
        outs.append(evolve(st, scheme(name), make_kinetic(aa), pf, 3, 0.01, 1.0)[0].coeffs.tobytes())
    assert outs[0] == outs[1]


def test_evolve_memory_with_the_compact_table(sparse_norm_sets, peak_bytes):
    """One 3-step s17odr8a evolve on paper-d2 traces at most 12 complex n-vectors (11.5 measured;
    15.4 with the dense table, whose nine phase tables of 36 425 rates add 5 n-vectors)."""
    lat, aa = sparse_norm_sets["paper-d2"]
    kt, pf, st = make_kinetic(aa), make_potential("smooth_v1", lat), make_gaussian(aa)
    peak = peak_bytes(evolve, st, scheme("s17odr8a"), kt, pf, 3, 0.01, 1.0)
    assert peak <= 12.0 * 16 * lat.n, f"peak {peak / (16 * lat.n):.2f} n-vectors"


@pytest.fixture(scope="module")
def cbc_d3_blocks():
    lat = cbc_construct(3, 2**16)
    return lat, antialias.build(lat)


@pytest.mark.parametrize("name", SCHEME_NAMES)
def test_evolve_allocates_no_complex_temporary(cbc_d3_blocks, name, peak_bytes):
    """Traced peak of one evolve call: at most (distinct nonzero b + 2) complex n-vectors.

    That is the evolving copy, one phase n-vector per distinct b, and one n-vector
    for the kinetic phase tables, a block's gathered phases and the finiteness
    check.  n = 2^16 spans four kinetic blocks (below 2^14 one block is the whole
    vector).  Its potential stages run the four-step pair, whose twiddle tables and
    block buffer (0.52 n-vectors here) are traced; the 1-D pair's pocketfft scratch is not.
    """
    lat, aa = cbc_d3_blocks
    kt, pf, st = make_kinetic(aa), make_potential("smooth_v1", lat), make_gaussian(aa)
    sch = scheme(name)
    vectors = len({b for _, b in sch.stages} - {0.0}) + 2
    peak = peak_bytes(evolve, st, sch, kt, pf, 3, 0.01, 1.0)
    assert peak <= vectors * 16 * lat.n, f"peak {peak / (16 * lat.n):.2f} n-vectors"


def test_plan_vectors_count_fft_scratch_only_on_the_1d_pair():
    """State, copy and one phase n-vector per distinct nonzero b, plus the 1-D pair's scratch."""
    assert [scheme(name).plan_vectors(2**13) for name in SCHEME_NAMES] == [4, 8, 12]
    assert [scheme(name).plan_vectors(2**20) for name in SCHEME_NAMES] == [3, 7, 11]


def _dense_order(s, pf, W, name, ms):
    """Slope of the error against the exact matrix exponential of D + W over t in [0, 0.2]."""
    D = np.diag(s["kt"].phases_base)
    t = 0.2
    exact = expm(-1j * t * (D + W)) @ s["st"].coeffs
    errs = []
    for m in ms:
        out, _ = evolve(s["st"], scheme(name), s["kt"], pf, m, t / m, 1.0)
        errs.append((t / m, float(np.linalg.norm(out.coeffs - exact))))
    return empirical_order(errs)


@pytest.mark.parametrize("name,ms,window", [
    ("strang", (16, 32, 64, 128), (1.8, 2.2)),
    ("s9odr6a", (4, 8, 16, 32), (5.5, 6.5)),
    ("s17odr8a", (2, 4, 8, 16), (7.4, 8.6)),
])
def test_order_against_dense_propagator(setup, conjugated_operator, name, ms, window):
    """Each scheme converges at its nominal order to the exact matrix exponential."""
    slope = _dense_order(setup, setup["pf"], conjugated_operator(setup["pf"]), name, ms)
    assert window[0] < slope < window[1]


@pytest.mark.parametrize("name,window", [
    ("strang", (1.8, 2.2)),
    ("s9odr6a", (5.5, 6.5)),
])
def test_order_against_dense_propagator_harmonic(setup, conjugated_operator, name, window):
    """The kinked ``harmonic_v2`` potential keeps the nominal order once
    dt * 2 pi^2 * max||h||^2 is small (max||h||^2 = 26 here).

    s17odr8a is left out: its error is already 4e-12 at m = 64, so these
    rows leave fewer than three points above ORDER_FIT_FLOOR.
    """
    pf = make_potential("harmonic_v2", setup["lat"])
    slope = _dense_order(setup, pf, conjugated_operator(pf), name, (32, 64, 128, 256))
    assert window[0] < slope < window[1]


def test_empirical_order_exact_power_law():
    errs = [(dt, 2.5 * dt**3) for dt in (0.1, 0.05, 0.025, 0.0125)]
    assert abs(empirical_order(errs) - 3.0) < 1e-12


def test_empirical_order_floor_filtering():
    errs = [(0.1, 1e-3), (0.05, 1.25e-4), (0.025, 1.5625e-5), (0.0125, 1e-13)]
    assert abs(empirical_order(errs) - 3.0) < 1e-12
    assert ORDER_FIT_FLOOR == 1e-11


def test_empirical_order_needs_three_points():
    with pytest.raises(ValueError, match="need >= 3"):
        empirical_order([(0.1, 1e-3), (0.05, 1e-13), (0.025, 1e-14)])
