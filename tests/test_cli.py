import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from rank1tdse import antialias
from rank1tdse.cli import main
from rank1tdse.lattice import Rank1Lattice, load_lattice
from rank1tdse.transform import load_snapshot


def write_lattice(tmp_path, d=2, n=64, z=(1, 19)):
    path = tmp_path / "lat.json"
    path.write_text(json.dumps({"d": d, "n": n, "z": list(z)}))
    return str(path)


def test_lattice_info(tmp_path, capsys):
    lat = write_lattice(tmp_path)
    assert main(["lattice", "info", "--lattice", lat]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["d"], doc["n"], doc["z"]) == (2, 64, [1, 19])
    assert doc["preview_points"][1] == [1, 19]


def test_lattice_gen_to_file(tmp_path, capsys):
    out = tmp_path / "gen.json"
    assert main(["lattice", "gen", "--d", "2", "--n", "32", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["d"] == 2 and doc["n"] == 32 and doc["z"][0] == 1


def test_lattice_requires_source(capsys):
    with pytest.raises(SystemExit):
        main(["lattice", "info"])


#: SHA-256 of the paper-d6 anti-aliasing set (its cache file), max ||h||^2 = 238.
PAPER_D6_SHA256 = "cb0781160c80c6627e42e3bc5b7ecfb15e4c36cc9d80cb04d1f9e1cbd4fa2768"

_PRINT_PEAK = "print(next(l for l in open('/proc/self/status') if l.startswith('VmHWM')).strip())"
# the process's peak RSS after importing the CLI, and after cli.main with the arguments given after it
_IMPORT_PEAK = f"import rank1tdse.cli; {_PRINT_PEAK}"
_REPORT_PEAK = f"import sys; from rank1tdse.cli import main; rc = main(sys.argv[1:]); {_PRINT_PEAK}; sys.exit(rc)"


def _main_peak_kb(python_child, *args, **env):
    """Run ``cli.main(args)`` in a child process with ``env`` added; return the child's peak RSS in KiB."""
    return int(python_child(_REPORT_PEAK, *args, **env).splitlines()[-1].split()[1])


def _sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


@pytest.mark.slow
@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
def test_aaset_build_paper_d6_fits_in_memory(tmp_path, python_child):
    """``aaset build --preset paper-d6 --large`` (n = 2^24) writes the pinned set under 3 GiB peak RSS."""
    peak_kb = _main_peak_kb(python_child, "aaset", "build", "--preset", "paper-d6", "--large",
                            "--cache-dir", str(tmp_path))
    assert peak_kb < 3 * 2**20
    cache = next(tmp_path.glob("aaset_d6_n16777216_*.bin"))
    assert cache.stat().st_size == 26 + 4 * 6 * 2**24
    assert _sha256(cache) == PAPER_D6_SHA256


#: SHA-256 of the snapshot of ``solve --preset paper-d6 --large --scheme strang --steps 2
#: --time 0.002 --potential smooth_v1`` with two BLAS threads; the (n, d) row formulas of
#: ``test_operators`` write the same bytes.  ``make_gaussian`` normalizes through a BLAS dot
#: product whose partial sums follow the thread count: one thread writes b1741787…b8ea4.
PAPER_D6_SOLVE_SHA256 = "c676a7fbca821149e654a7b88d553f2f748a6fad19622d8a808d6a65809222ee"


@pytest.mark.slow
@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
def test_solve_paper_d6_fits_in_memory(tmp_path, python_child):
    """A two-step ``paper-d6`` (n = 2^24) Strang solve writes the pinned snapshot under 2.5 GiB peak RSS.

    Set-up tabulated from the (n, 6) node coordinates peaked at 2.82 GiB here.
    """
    out = tmp_path / "state.bin"
    peak_kb = _main_peak_kb(python_child, "solve", "--preset", "paper-d6", "--large", "--scheme", "strang",
                            "--steps", "2", "--time", "0.002", "--potential", "smooth_v1",
                            "--cache-dir", str(tmp_path / "cache"), "--out", str(out),
                            OPENBLAS_NUM_THREADS="2")
    assert peak_kb < 2.5 * 2**20
    assert out.stat().st_size == 16 + 16 * 2**24
    assert _sha256(out) == PAPER_D6_SOLVE_SHA256


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
def test_lattice_gen_bytes_do_not_depend_on_blas_threads(tmp_path, python_child):
    """``lattice gen`` at d = 4, n = 2^20 writes the same file on one and on two BLAS threads.

    The second component is an exact tie (387275 and 443165 score equal), which a rule
    that let rounding decide would break by how the BLAS splits a dot product over threads.
    """
    texts = []
    for threads in ("1", "2"):
        out = tmp_path / f"z{threads}.json"
        _main_peak_kb(python_child, "lattice", "gen", "--d", "4", "--n", str(2**20), "--out", str(out),
                      OPENBLAS_NUM_THREADS=threads)
        texts.append(out.read_bytes())
    assert texts[0] == texts[1]
    assert json.loads(texts[0])["z"] == [1, 387275, 314993, 50301]


@pytest.mark.parametrize("cmd, message", [
    (["lattice", "gen", "--n", "1"], "lattice: need n >= 2 and d >= 1"),
    (["lattice", "gen", "--d", "0"], "lattice: need n >= 2 and d >= 1"),
    (["solve", "--preset", "paper-d2", "--steps", "0", "--cache-dir", "c"],
     "--steps must be at least 1, got 0"),
    (["diagnose", "commutator", "--preset", "paper-d2", "--n-values", "1", "--cache-dir", "c"],
     "diagnose: need n >= 2 and d >= 1"),
    (["converge", "--preset", "paper-d2", "--sweep", "4,0", "--cache-dir", "c"],
     "converge: all sweep step counts must be >= 1"),
    (["lattice", "gen", "--n", "4194304"], "lattice has n = 4194304; pass --large to confirm"),
])
def test_bad_input_exits_in_one_line(tmp_path, monkeypatch, capsys, cmd, message):
    """Bad numbers end the command with a one-line message, not a traceback, before any work."""
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(cmd)
    assert exc.value.code == message
    assert not (tmp_path / "c").exists()


@pytest.mark.parametrize("cmd, message", [
    (["diagnose", "commutator", "--p", "5"], "diagnose: commutator order p must be in 0..4"),
    (["diagnose", "commutator", "--n-values", "64", str(2**22)],
     "lattice has n = 4194304; pass --large to confirm"),
    (["solve", "--epsilon", "0"], "solve: epsilon must be positive"),
    (["solve", "--potential", "nope"], "solve: unknown potential kind 'nope'"),
    (["diagnose", "commutator", "--p", "-1"], "diagnose: commutator order p must be in 0..4"),
    (["diagnose", "commutator", "--epsilon", "-1"], "diagnose: epsilon must be positive"),
    (["diagnose", "commutator", "--epsilon", "nan"], "diagnose: epsilon must be positive"),
    (["diagnose", "commutator", "--n-values", "64", "1"], "diagnose: need n >= 2 and d >= 1"),
])
def test_bad_input_after_the_set_exits_in_one_line(tmp_path, monkeypatch, capsys, cmd, message):
    """Input that the library would refuse only once the sets are built ends in one line, and is
    now checked first: nothing is built, so ``--cache-dir`` stays empty."""
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main([*cmd, "--lattice", write_lattice(tmp_path), "--cache-dir", "c"])
    assert exc.value.code == message
    assert not (tmp_path / "c").exists()


@pytest.mark.parametrize("doc, message", [
    (None, "lattice: {path}: No such file or directory"),
    ({"d": 2, "n": 64}, "lattice: lattice has no field 'z'"),
    ({"d": 2, "n": None, "z": [1, 19]}, "lattice: n = None is not an integer"),
    ({"d": 2, "n": 64, "z": 19}, "lattice: z = 19 is not a list"),
    ([2, 64, [1, 19]], "lattice: cannot load lattice from [2, 64, [1, 19]]"),
    ({"d": True, "n": 5, "z": [1]}, "lattice: d = True is not an integer"),
    ({"d": 1, "n": False, "z": [1]}, "lattice: n = False is not an integer"),
    ({"d": 2, "n": 64, "z": [1, True]}, "lattice: z[1] = True is not an integer"),
])
def test_lattice_file_missing_or_incomplete_exits_in_one_line(tmp_path, capsys, doc, message):
    """A ``--lattice`` file that does not exist, lacks a field, holds a field of the wrong type (a JSON
    boolean included, which Python counts as an integer) or is not a JSON object is refused in one line,
    not a traceback."""
    path = tmp_path / "lat.json"
    if doc is not None:
        path.write_text(json.dumps(doc))
    with pytest.raises(SystemExit) as exc:
        main(["lattice", "info", "--lattice", str(path)])
    assert exc.value.code == message.format(path=path)


@pytest.mark.parametrize("doc, message", [
    ({"d": 2, "n": 64.9, "z": [1, 19.5]}, "lattice: n = 64.9 is not an integer"),
    ({"d": 2, "n": 64, "z": [1, 19.5]}, "lattice: z[1] = 19.5 is not an integer"),
    ({"d": 2.5, "n": 64, "z": [1, 19]}, "lattice: d = 2.5 is not an integer"),
])
def test_lattice_file_with_a_fraction_exits_in_one_line(tmp_path, capsys, doc, message):
    """A ``--lattice`` file is refused, not truncated, where d, n or a z component is not whole."""
    path = tmp_path / "lat.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SystemExit) as exc:
        main(["lattice", "info", "--lattice", str(path)])
    assert exc.value.code == message


def test_large_preset_guard(capsys):
    with pytest.raises(SystemExit, match="--large"):
        main(["aaset", "build", "--preset", "paper-d6"])


#: The prime just above 2^24: not a power of two, so the potential stage is the 1-D pair.
_PRIME_NEAR_2_24 = 2**24 + 43


@pytest.mark.parametrize("name,vectors,gib,n", [
    pytest.param("strang", 3, "0.8", None, id="strang-3-0.8"),           # 1 distinct b + 2
    pytest.param("s17odr8a", 11, "2.8", None, id="s17odr8a-11-2.8"),     # 9 distinct b + 2
    pytest.param("strang", 4, "1.0", _PRIME_NEAR_2_24, id="strang-4-1.0"),        # + FFT scratch
    pytest.param("s17odr8a", 12, "3.0", _PRIME_NEAR_2_24, id="s17odr8a-12-3.0"),  # + FFT scratch
])
def test_large_preset_estimate_counts_scheme_arrays(tmp_path, capsys, name, vectors, gib, n):
    """vectors * 16n bytes at n ~ 2^24: the paper-d6 preset runs the four-step pair, which keeps
    no n-vector of FFT scratch; a ``--lattice`` file of prime n runs the 1-D pair, which keeps one."""
    source = (["--preset", "paper-d6"] if n is None else
              ["--lattice", write_lattice(tmp_path, n=n, z=(1, 3)), "--cache-dir", str(tmp_path / "c")])
    with pytest.raises(SystemExit,
                       match=rf"{name} evolve holds {vectors} complex n-vectors, {gib} GiB.*--large"):
        main(["solve", *source, "--scheme", name])


@pytest.mark.parametrize("cmd", [["solve", "--cache-dir", "c"], ["aaset", "build", "--cache-dir", "c"],
                                 ["lattice", "info"]])
def test_large_lattice_file_guard(tmp_path, monkeypatch, capsys, cmd):
    """A ``--lattice`` file of n = 2^22 is refused without ``--large``, as a preset is."""
    monkeypatch.chdir(tmp_path)
    lat = write_lattice(tmp_path, n=2**22, z=(1, 3))
    with pytest.raises(SystemExit, match="n = 4194304.*--large"):
        main([*cmd, "--lattice", lat])
    assert not (tmp_path / "c").exists()


@pytest.mark.parametrize("doc, message", [
    (None, "converge: {path}: No such file or directory"),
    (["paper-d2"], "converge: {path}: config is not a JSON object"),
    ({"preset": "paper-d2", "sweep_steps": 5}, "converge: sweep_steps = 5 is not of type tuple[int, ...]"),
    ({"preset": "paper-d2", "sweep_steps": [4, None]}, "converge: sweep_steps = [4, None] is not a list of integers"),
    ({"preset": "paper-d2", "epsilon": "0.5"}, "converge: epsilon = '0.5' is not of type float"),
    ({"preset": "paper-d2", "reference_steps": None}, "converge: reference_steps = None is not of type int"),
    ({"preset": "paper-d2", "epsilon": True}, "converge: epsilon = True is not of type float"),
    ({"preset": "paper-d2", "final_time": False}, "converge: final_time = False is not of type float"),
    ({"preset": "paper-d2", "reference_steps": True}, "converge: reference_steps = True is not of type int"),
    ({"preset": "paper-d2", "sweep_steps": [True, 4]},
     "converge: sweep_steps = [True, 4] is not a list of integers"),
])
def test_converge_config_missing_or_mistyped_exits_in_one_line(tmp_path, capsys, doc, message):
    """A ``--config`` file that does not exist, is not a JSON object or has a field of the wrong type (a
    JSON boolean for a number included) is refused in one line that names the file or the field, not a
    traceback."""
    path = tmp_path / "cfg.json"
    if doc is not None:
        path.write_text(json.dumps(doc))
    with pytest.raises(SystemExit) as exc:
        main(["converge", "--config", str(path), "--cache-dir", str(tmp_path / "c")])
    assert exc.value.code == message.format(path=path)
    assert not (tmp_path / "c").exists()


def test_large_converge_config_guard(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"lattice": {"d": 2, "n": 2**22, "z": [1, 3]},
                               "cache_dir": str(tmp_path / "c")}))
    with pytest.raises(SystemExit, match="n = 4194304.*--large"):
        main(["converge", "--config", str(cfg)])
    assert not (tmp_path / "c").exists()


def test_aaset_build_writes_cache(tmp_path, capsys):
    lat = write_lattice(tmp_path)
    cache = tmp_path / "cache"
    assert main(["aaset", "build", "--lattice", lat, "--cache-dir", str(cache)]) == 0
    out = capsys.readouterr().out
    assert "max_norm2" in out and ", workers = 1, build " in out  # n = 64: set-up on one thread
    files = list(cache.glob("aaset_*.bin"))
    assert len(files) == 1
    loaded = antialias.load_cache(files[0], Rank1Lattice(2, 64, (1, 19)))
    assert loaded.freq.shape == (64, 2)


def test_aaset_build_labels_build_and_load(tmp_path, capsys):
    """A cold cache is built, a warm one loaded, a corrupt one built again."""
    lat = write_lattice(tmp_path)
    cmd = ["aaset", "build", "--lattice", lat, "--cache-dir", str(tmp_path / "cache")]
    labels = []
    for corrupt in (False, False, True):
        if corrupt:
            next((tmp_path / "cache").glob("aaset_*.bin")).write_bytes(b"AASET1garbage")
        assert main(cmd) == 0
        labels.append(capsys.readouterr().out.split(", ")[-1].split()[0])
    assert labels == ["build", "load", "build"]


def test_solve_writes_snapshot(tmp_path, capsys):
    lat = write_lattice(tmp_path)
    out = tmp_path / "state.bin"
    rc = main(["solve", "--lattice", lat, "--potential", "smooth_v1",
               "--scheme", "strang", "--steps", "50", "--time", "0.5",
               "--cache-dir", str(tmp_path / "c"), "--out", str(out)])
    assert rc == 0
    aa = antialias.build(Rank1Lattice(2, 64, (1, 19)))
    st = load_snapshot(out, aa)
    assert st.time == 0.5
    assert abs(np.linalg.norm(st.coeffs) - 1.0) < 1e-12


def test_solve_reports_fft_pairs(tmp_path, capsys):
    """Strang runs two potential stages per step: 50 steps are 100 FFT pairs, at n = 64 on one thread."""
    lat = write_lattice(tmp_path)
    assert main(["solve", "--lattice", lat, "--scheme", "strang", "--steps", "50",
                 "--cache-dir", str(tmp_path / "c"), "--out", str(tmp_path / "state.bin")]) == 0
    assert "(100 FFT pairs), workers = 1," in capsys.readouterr().out


def test_converge_with_config_and_overrides(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "lattice": {"d": 2, "n": 64, "z": [1, 19]},
        "potential": "smooth_v1",
        "scheme": "strang",
        "final_time": 0.25,
        "reference_steps": 512,
        "cache_dir": str(tmp_path / "c"),
    }))
    out = tmp_path / "run.csv"
    rc = main(["converge", "--config", str(cfg), "--scheme", "s9odr6a",
               "--sweep", "4,8,16,32", "--out", str(out)])
    assert rc == 0
    text = out.read_text()
    assert '"scheme": "s9odr6a"' in text  # override took effect
    assert text.count("\n") == 8  # 3 header comments + column row + 4 data rows


def test_converge_json_format(tmp_path, capsys):
    cfg = tmp_path / "mini.json"
    cfg.write_text(json.dumps({"lattice": {"d": 2, "n": 64, "z": [1, 19]}}))
    out = tmp_path / "run.json"
    rc = main(["converge", "--config", str(cfg), "--potential", "smooth_v1",
               "--scheme", "s9odr6a", "--time", "0.25", "--reference-steps", "512",
               "--sweep", "4,8,16", "--cache-dir", str(tmp_path / "c"),
               "--out", str(out), "--format", "json"])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert len(doc["rows"]) == 3


def test_diagnose_circulant(tmp_path, capsys):
    lat = write_lattice(tmp_path, d=2, n=5, z=(1, 3))
    rc = main(["diagnose", "circulant", "--lattice", lat,
               "--cache-dir", str(tmp_path / "c")])
    assert rc == 0
    assert "max deviation" in capsys.readouterr().out


def test_diagnose_circulant_paper_d2(tmp_path, capsys):
    """The check compares two n-vectors, so it runs at paper-d2 (n = 2^16) and passes."""
    rc = main(["diagnose", "circulant", "--preset", "paper-d2", "--cache-dir", str(tmp_path / "c")])
    assert rc == 0
    assert float(capsys.readouterr().out.split()[-1]) <= 1e-10


def test_diagnose_commutator(tmp_path, capsys):
    lat = write_lattice(tmp_path)
    rc = main(["diagnose", "commutator", "--lattice", lat, "--p", "1",
               "--n-values", "16", "32", "--cache-dir", str(tmp_path / "c")])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert [e["n"] for e in doc["entries"]] == [16, 32]
    assert doc["verdict"] == "bounded"


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
def test_aaset_build_paper_d4_holds_the_narrow_set(tmp_path, python_child):
    """``aaset build --preset paper-d4`` peaks within the README's build memory of the import's peak RSS:
    the set, n d + 2 n bytes in int8 and int16, plus 16 bytes per residue while it is built (22 MiB).
    With the int32/int64 set it is n (16 + 8 + 16) bytes, 40 MiB."""
    lat = load_lattice("paper-d4")
    base_kb = int(python_child(_IMPORT_PEAK).split()[1])
    peak_kb = _main_peak_kb(python_child, "aaset", "build", "--preset", "paper-d4", "--cache-dir", str(tmp_path))
    assert peak_kb < base_kb + lat.n * (lat.d + 2 + 16) // 2**10


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
def test_diagnose_commutator_holds_no_n_by_n_array(tmp_path, python_child):
    """A p = 2 check at n = 1024, 4096 and 2^16 (the preset itself) stays within 64 MiB of the import's
    peak RSS and finds the norms bounded; one dense 4096 x 4096 complex operator alone is 256 MiB."""
    base_kb = int(python_child(_IMPORT_PEAK).split()[1])
    *report, peak = python_child(_REPORT_PEAK, "diagnose", "commutator", "--preset", "paper-d2", "--p", "2",
                                 "--n-values", "1024", "4096", "65536", "--cache-dir", str(tmp_path)).splitlines()
    assert int(peak.split()[1]) < base_kb + 64 * 2**10
    assert json.loads("\n".join(report))["verdict"] == "bounded"


def test_diagnose_commutator_p0_above_the_dense_limit(tmp_path, capsys):
    """p = 0 reads max|v| / eps, at n = 8192 as at any n."""
    rc = main(["diagnose", "commutator", "--preset", "paper-d2", "--p", "0",
               "--n-values", "8192", "--cache-dir", str(tmp_path / "c")])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["entries"] == [{"n": 8192, "norm": 4.0}]


def test_diagnose_commutator_contrast(tmp_path, capsys):
    lat = write_lattice(tmp_path)
    rc = main(["diagnose", "commutator", "--lattice", lat, "--p", "2", "--contrast",
               "--n-values", "16", "64", "--cache-dir", str(tmp_path / "c")])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "growing"


def test_selftest(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out
