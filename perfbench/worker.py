"""Child processes of the benchmark: ``setup``, ``solve`` and a traced ``cli``.

Run as ``python worker.py <role> <config.json>`` with ``src`` on PYTHONPATH.
Each role writes one JSON document to the ``out`` path named in its config;
``run.py`` checks the values and turns them into metrics.  The package is
only reached through its public functions, looked up on the module at call
time so that the tracing wrappers, when installed, see every call.
"""

from __future__ import annotations

import json
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import timing
import tracing

import rank1tdse
from rank1tdse import antialias, cli, diagnostics, experiments, lattice, operators
from rank1tdse import splitting, transform

POTENTIAL = "smooth_v1"


def operators_for(aa, eps):
    return (operators.make_kinetic(aa, eps), operators.make_potential(POTENTIAL, aa.lattice),
            operators.make_gaussian(aa, eps))


def timed_burst(fn, min_s=0.2, min_calls=3):
    """Median wall time of ``fn()`` over a burst of at least ``min_s`` seconds."""
    times = []
    start = time.perf_counter()
    while len(times) < min_calls or time.perf_counter() - start < min_s:
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def role_setup(cfg, tracer):
    """Cold set-up, ``reps`` times: lattice spec -> set build and save -> operators."""
    spec = cfg["lattice"]
    n = spec["cbc"][1] if "cbc" in spec else lattice.PRESETS[spec["preset"]][1]
    cal = timing.Calibrator(n)
    cache = Path(cfg["cache"])
    reps = []
    for rep in range(cfg["reps"]):
        last = rep == cfg["reps"] - 1
        target = cache if last else Path(cfg["work"]) / f"cold{rep}"
        first_span = len(tracer.spans)
        before = cal.pair_s()
        with tracer.span("bench.setup"):
            t0 = time.perf_counter()
            lat = (lattice.cbc_construct(*spec["cbc"]) if "cbc" in spec
                   else lattice.load_lattice(spec["preset"]))
            aa = antialias.cached_build(lat, target)
            ops = operators_for(aa, cfg["epsilon"])
            raw = time.perf_counter() - t0
        after = cal.pair_s()
        reps.append({"raw_s": raw, "speed": cal.speed(before, after),
                     "spans": [first_span, len(tracer.spans)],
                     "sha256": aa.sha256(), "z": list(lat.z)})
        result_lattice, max_norm2 = lat.to_dict(), aa.max_norm2()
        del aa, ops
        if not last:
            shutil.rmtree(target)
    return {"reps": reps, "lattice": result_lattice, "max_norm2": max_norm2}


def throughput(cfg, aa, kt, pf, shifted, cal):
    """Round-robin closed loop over the schemes until the time budget is spent."""
    eps, dt = cfg["epsilon"], cfg["dt"]
    out = {name: {"m": m, "raw_s": [], "speed": [], "norm_err": [], "same": True,
                  "stages": splitting.scheme(name).stages}
           for name, m in cfg["chunk_steps"].items()}
    first = {}
    # round -1 is untimed: the first evolve of each scheme faults in fresh memory
    rounds = -1
    start = time.perf_counter()
    while rounds < cfg["min_rounds"] or time.perf_counter() - start < cfg["seconds"]:
        if rounds == 0:
            start = time.perf_counter()
            prev = cal.pair_s()
        for name, rec in out.items():
            sch = splitting.scheme(name)
            t0 = time.perf_counter()
            final, _ = splitting.evolve(shifted, sch, kt, pf, rec["m"], dt, eps)
            raw = time.perf_counter() - t0
            if rounds >= 0:
                after = cal.pair_s()
                rec["raw_s"].append(raw)
                rec["speed"].append(cal.speed(prev, after))
                prev = after
            rec["norm_err"].append(abs(float(np.linalg.norm(final.coeffs)) - 1.0))
            if name in first:
                rec["same"] = rec["same"] and np.array_equal(first[name], final.coeffs)
            else:
                first[name] = final.coeffs
                rec["peak_rss_mb"] = timing.peak_rss_mb()
            del final
        rounds += 1
    for name, coeffs in first.items():
        p = np.abs(coeffs) ** 2
        out[name]["observables"] = [float(np.sqrt(p.sum())), float(p @ kt.phases_base),
                                    float(coeffs[0].real), float(coeffs[0].imag)]
    return out


def role_solve(cfg, tracer):
    cache, work, eps = Path(cfg["cache"]), Path(cfg["work"]), cfg["epsilon"]
    lat = lattice.load_lattice(cfg["lattice"])
    cal = timing.Calibrator(lat.n)
    res = {}

    with tracer.span("bench.warm_setup"):
        aa = antialias.cached_build(lat, cache)
        kt, pf, state0 = operators_for(aa, eps)
    res["sha256"] = aa.sha256()

    # the seed's input: the Gaussian translated by s, exact on the coefficients
    shift = np.random.default_rng(cfg["seed"]).random(lat.d)
    coeffs = state0.coeffs * np.exp(-2j * np.pi * (aa.freq @ shift))
    shifted = transform.SpectralState(coeffs, aa)

    with tracer.span("bench.throughput"):
        res["throughput"] = throughput(cfg, aa, kt, pf, shifted, cal)
    if cfg["trace"]:
        with tracer.span("bench.single_calls"):
            for name in cfg["chunk_steps"]:
                sch = splitting.scheme(name)
                res["throughput"][name]["single_s"] = timed_burst(
                    lambda: splitting.evolve(shifted, sch, kt, pf, 1, cfg["dt"], eps),
                    min_s=0.0, min_calls=cfg["single_calls"])
    del shifted

    cs = cfg["cli_solve"]
    with tracer.span("bench.inprocess_solve"):
        t0 = time.perf_counter()
        aa2 = antialias.cached_build(lat, cache)
        kt2, pf2, st2 = operators_for(aa2, eps)
        final, _ = splitting.evolve(st2, splitting.scheme(cs["scheme"]), kt2, pf2,
                                    cs["steps"], cs["time"] / cs["steps"], eps)
        transform.save_snapshot(final, work / "inprocess.bin")
        res["inprocess_solve_s"] = time.perf_counter() - t0
    res["inprocess_norm_err"] = abs(float(np.linalg.norm(final.coeffs)) - 1.0)
    del aa2, kt2, pf2, st2, final

    with tracer.span("bench.study"):
        res["study"] = study(cfg, lat, cache, work / "study")

    if cfg["trace"]:
        with tracer.span("bench.microbench"):
            res["micro"] = microbench(cfg, kt, pf, state0)
    res["calib_pair_s"] = statistics.median(cal.samples)
    return res


def study(cfg, lat, cache, sweep_cache):
    """Commutator check on small CBC lattices, convergence study, two emits of its report."""
    eps, com = cfg["epsilon"], cfg["commutator"]
    t0 = time.perf_counter()
    pairs = []
    for n in com["n_values"]:
        sub = lattice.cbc_construct(lat.d, n)
        pairs.append((sub, antialias.cached_build(sub, sweep_cache)))
    sweep = diagnostics.commutator_sweep(
        pairs, lambda l: operators.make_potential(POTENTIAL, l), com["p"], eps)
    conv = dict(cfg["convergence"], lattice=lat.to_dict(), potential=POTENTIAL,
                epsilon=eps, cache_dir=str(cache))
    report = experiments.run_convergence(experiments.ExperimentConfig.from_dict(conv))
    for name in ("study_a.csv", "study_b.csv"):
        experiments.emit(report, Path(cfg["work"]) / name)
    return {"raw_s": time.perf_counter() - t0, "bounded": sweep.bounded,
            "fitted_order": report.fitted_order, "sha256": report.aaset_sha256}


def microbench(cfg, kt, pf, state):
    """Single-layer timings; these functions are not wrapped, so they record no spans."""
    out = {"fft_pair_s": {str(n): timing.Calibrator(n, min_s=0.2).pair_s()
                          for n in (2**13, 2**16, 2**20)}}
    dt, eps = cfg["dt"], cfg["epsilon"]
    out["kinetic_apply_s"] = timed_burst(lambda: operators.kinetic_apply(state, kt, 0.5, dt))
    out["potential_apply_s"] = timed_burst(
        lambda: operators.potential_apply(state, pf, 0.5, dt, eps))
    out["per_span_overhead_s"] = tracing.per_span_overhead_s()
    return out


def role_cli(cfg, tracer):
    """``rank1tdse.cli.main`` in this process, so its calls are traced."""
    with tracer.span("cli.main"):
        rc = cli.main(cfg["argv"])
    if rc != 0:
        raise SystemExit(rc)
    return {}


ROLES = {"setup": role_setup, "solve": role_solve, "cli": role_cli}


def main(argv):
    role, cfg_path = argv
    cfg = json.loads(Path(cfg_path).read_text())
    src = (Path.cwd() / "src").resolve()
    if src not in Path(rank1tdse.__file__).resolve().parents:
        raise SystemExit(f"rank1tdse imported from {rank1tdse.__file__}, not from {src}")
    tracer = tracing.Tracer()
    if cfg["trace"]:
        tracing.install(tracer)
    res = ROLES[role](cfg, tracer)
    res["peak_rss_mb"] = timing.peak_rss_mb()
    res["spans"] = tracer.spans
    Path(cfg["out"]).write_text(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
