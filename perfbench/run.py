"""rank1tdse benchmark: end-to-end metrics, or per-layer metrics from a traced run.

Usage, from the root of a checkout that holds ``src/rank1tdse``::

    python3 perfbench/run.py --workload solve-d2 --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table each

The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  A readable table and the
run metadata go to standard error, and the full record to
``.perfbench/results/``.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np
import scipy

import timing
import tracing

HERE = Path(__file__).resolve().parent
SCHEMES = ("strang", "s9odr6a", "s17odr8a")
EPSILON = 1.0
DT = 1e-3
DEADLINE_S = 170.0

_COMMUTATOR = {"n_values": [64, 256, 1024], "p": 2}

#: Inputs of each workload.  ``chunk_steps`` is the step count of one timed
#: ``evolve`` call in the closed loop; chunks are sized to take 0.1-0.3 s on
#: a 2-core box except on solve-d4, where a few steps already take seconds.
WORKLOADS = {
    "solve-d2": {
        "lattice": {"preset": "paper-d2"},
        "setup_reps": 7,
        "chunk_steps": {"strang": 20, "s9odr6a": 5, "s17odr8a": 3},
        "min_rounds": 3, "single_calls": 5,
        "cli_solve": {"scheme": "s9odr6a", "steps": 20, "time": 0.02}, "cli_reps": 3,
        "commutator": _COMMUTATOR,
        "convergence": {"scheme": "strang", "reference_steps": 64,
                        "sweep_steps": [4, 8, 16, 32]},
    },
    "solve-d4": {
        "lattice": {"preset": "paper-d4"},
        "setup_reps": 1,
        "chunk_steps": {"strang": 4, "s9odr6a": 2, "s17odr8a": 2},
        "min_rounds": 4, "single_calls": 3,
        "cli_solve": {"scheme": "strang", "steps": 2, "time": 0.002}, "cli_reps": 1,
        "commutator": _COMMUTATOR,
        "convergence": {"scheme": "strang", "reference_steps": 8, "sweep_steps": [1, 2, 4]},
    },
    "study-d3": {
        "lattice": {"cbc": [3, 2**13]},
        "setup_reps": 7,
        "chunk_steps": {"strang": 100, "s9odr6a": 25, "s17odr8a": 15},
        "min_rounds": 3, "single_calls": 5,
        "cli_solve": {"scheme": "s9odr6a", "steps": 40, "time": 0.04}, "cli_reps": 3,
        "commutator": _COMMUTATOR,
        "convergence": {"scheme": "s9odr6a", "reference_steps": 2048,
                        "sweep_steps": [4, 8, 16, 32, 64, 128, 256]},
    },
    # desk-scale copy of the pipeline for perfbench/test_smoke.py
    "smoke": {
        "lattice": {"cbc": [2, 2**10]},
        "setup_reps": 2,
        "chunk_steps": {"strang": 10, "s9odr6a": 4, "s17odr8a": 2},
        "min_rounds": 1, "single_calls": 1,
        "cli_solve": {"scheme": "strang", "steps": 4, "time": 0.004}, "cli_reps": 1,
        "commutator": {"n_values": [16, 32, 64], "p": 1},
        "convergence": {"scheme": "strang", "reference_steps": 16, "sweep_steps": [2, 4, 8]},
    },
}
BENCH_WORKLOADS = ("solve-d2", "solve-d4", "study-d3")

#: Values produced by the seed commit.  ``observables`` hold, per scheme, the
#: final state of one timed chunk at seed 0: [norm, sum |c|^2 * kinetic rate,
#: Re c_0, Im c_0].
PINS = {
    "solve-d2": {
        "sha256": "3c0883d06f04b206460a803590439b0dfad7338c8319b85812f761da8d649fed",
        "bounded": True,
        "fitted_order": 1.2713858618999343,
        "observables": {
            "strang": [1.000000000000008, 39.33002951893741,
                       0.3996840492357894, -0.0036495558774634566],
            "s9odr6a": [1.0000000000000098, 39.46799479859669,
                        0.3989824363443561, -0.0008885428295666482],
            "s17odr8a": [1.0000000000000109, 39.47464631629604,
                         0.3989522103419759, -0.0005325183650735588],
        },
    },
    "solve-d4": {
        "sha256": "e27d46245f6ebb7c84b6000ec1764847fe0ca203c8c019b6a1dbf11d0680260d",
        "bounded": True,
        "fitted_order": 0.47161005082488655,
        "observables": {
            "strang": [1.0000000000001001, 78.95121395488741,
                       0.15915192304521428, -0.0008823279720176294],
            "s9odr6a": [1.000000000000103, 78.95538614996907,
                        0.15914997515794985, -0.0004405447674740244],
            "s17odr8a": [1.0000000000001068, 78.95538614996971,
                         0.1591499751579498, -0.00044054476747398927],
        },
    },
    "study-d3": {
        "sha256": "ddd2abbed4c17049c0889b2ed29bd2fc5ec495a2ce15dbcc66d6c08727a5c059",
        "z": [1, 2431, 563],
        "bounded": True,
        "fitted_order": 4.532480629456471,
        "observables": {
            "strang": [1.0000000000000178, 59.00086307794868,
                       0.2501961044340833, -0.027511262282409785],
            "s9odr6a": [1.0000000000000264, 59.02474207292669,
                        0.2526151234441833, -0.0052262651941621975],
            "s17odr8a": [1.0000000000000309, 59.12361162797414,
                         0.2522242279754064, -0.003016905478850811],
        },
    },
    "smoke": {
        "sha256": "3b9ade1b3415b5822bc2ea0211a616fbba760d2f918f030ebfdb9c01de0d8823",
        "z": [1, 275],
        "bounded": True,
        "fitted_order": 0.4954762679361829,
    },
}
DEFAULT_SEED = 0
NORM_TOL = 1e-10
PIN_TOL = 1e-9


class Checks:
    """Counts correctness operations; each failed one is logged to stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"CHECK FAILED: {what}", file=sys.stderr)

    def pin(self, pins: dict, key: str, observed, close=False) -> None:
        """One operation per pinned value, however often the value was observed."""
        if key not in pins:
            return
        want = pins[key]
        if close:
            ok = all(np.allclose(v, want, rtol=PIN_TOL, atol=PIN_TOL) for v in observed)
        else:
            ok = all(v == want for v in observed)
        self.check(ok, f"{key}: observed {observed!r}, pinned {want!r}")


def run_child(cmd, env, root, deadline) -> None:
    """Run one child to completion, its output going to our stderr."""
    proc = subprocess.Popen(cmd, env=env, cwd=root, stdout=sys.stderr, stderr=sys.stderr)
    try:
        rc = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise SystemExit(f"child {cmd[1:3]} exceeded the run deadline")
    if rc != 0:
        raise SystemExit(f"child {cmd[1:3]} exited with code {rc}")


def worker(role, cfg, env, root, work, deadline) -> dict:
    out = work / f"{role}.json"
    cfg_path = work / f"{role}.cfg.json"
    cfg_path.write_text(json.dumps(dict(cfg, out=str(out))))
    run_child([sys.executable, str(HERE / "worker.py"), role, str(cfg_path)],
              env, root, deadline)
    return json.loads(out.read_text())


def child_env(root: Path, cache: Path, nproc: int) -> dict:
    env = dict(os.environ)
    threads = str(nproc)
    env.update({
        "PYTHONPATH": str(root / "src"),
        "PYTHONDONTWRITEBYTECODE": "1",
        "RANK1TDSE_CACHE_DIR": str(cache),
        "OMP_NUM_THREADS": threads,
        "OPENBLAS_NUM_THREADS": threads,
        "MKL_NUM_THREADS": threads,
    })
    return env


def cli_argv(wl_cfg, lat: dict, work: Path, cache: Path, out: Path) -> list[str]:
    cs = wl_cfg["cli_solve"]
    spec = wl_cfg["lattice"]
    if "preset" in spec:
        where = ["--preset", spec["preset"]]
    else:
        path = work / "lattice.json"
        path.write_text(json.dumps(lat))
        where = ["--lattice", str(path)]
    return ["solve", *where, "--potential", "smooth_v1", "--scheme", cs["scheme"],
            "--epsilon", repr(EPSILON), "--time", repr(cs["time"]),
            "--steps", str(cs["steps"]), "--cache-dir", str(cache), "--out", str(out)]


def metadata(root: Path, name: str, args, nproc: int) -> dict:
    try:
        # the ceiling keeps git from reporting an enclosing repository's commit
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                                capture_output=True, text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "rank1tdse").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_commit": commit, "src_sha256": digest.hexdigest(),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "nproc": nproc,
        "threads": {"scipy.fft workers": 1, "BLAS/OpenMP": nproc},
        "cache": {"setup": "cold, private directory", "solve": "warm, written by setup",
                  "cli": "warm, written by setup"},
        "reference_flops": timing.REFERENCE_FLOPS,
    }


def run_workload(name: str, args, root: Path) -> dict:
    wl = WORKLOADS[name]
    start = time.monotonic()
    deadline = start + DEADLINE_S
    nproc = os.cpu_count() or 1
    work = root / ".perfbench" / "work" / f"{name}-{os.getpid()}"
    cache = work / "cache"
    shutil.rmtree(work, ignore_errors=True)
    cache.mkdir(parents=True)
    env = child_env(root, cache, nproc)
    trace = bool(args.trace)
    try:
        setup = worker("setup", {
            "trace": trace, "lattice": wl["lattice"], "reps": wl["setup_reps"],
            "epsilon": EPSILON, "cache": str(cache), "work": str(work),
        }, env, root, work, deadline)
        lat = setup["lattice"]
        n = lat["n"]
        solve = worker("solve", {
            "trace": trace, "lattice": lat, "seed": args.seed, "seconds": args.seconds,
            "epsilon": EPSILON, "dt": DT, "cache": str(cache), "work": str(work),
            **{k: wl[k] for k in ("chunk_steps", "min_rounds", "single_calls",
                                  "cli_solve", "commutator", "convergence")},
        }, env, root, work, deadline)
        cli = run_cli(wl, lat, work, cache, env, root, deadline, trace)
        checks = Checks()
        observed = verify(checks, name, args.seed, setup, solve, cli, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if trace:
        metrics = per_layer_metrics(wl, setup, solve, cli, n)
    else:
        metrics = end_to_end_metrics(setup, solve, cli)
    samples = {"setup": [{k: r[k] for k in ("raw_s", "speed")} for r in setup["reps"]],
               "throughput": {k: {f: v[f] for f in ("m", "raw_s", "speed")}
                              for k, v in solve["throughput"].items()},
               "cli_s": [r["raw_s"] for r in cli["reps"]], "study_s": solve["study"]["raw_s"],
               "calib_pair_s": solve["calib_pair_s"]}
    return {"correct": checks.failed == 0, "attempted": checks.attempted,
            "failed": checks.failed, "metrics": metrics, "observed": observed,
            "samples": samples,
            "wall_s": time.monotonic() - start}


def run_cli(wl, lat, work, cache, env, root, deadline, trace) -> dict:
    """The ``solve`` subcommand as a subprocess; traced runs go through worker.py."""
    reps = []
    for rep in range(wl["cli_reps"]):
        snap = work / f"cli{rep}.bin"
        argv = cli_argv(wl, lat, work, cache, snap)
        t0 = time.perf_counter()
        if trace:
            res = worker("cli", {"trace": True, "argv": argv}, env, root, work, deadline)
        else:
            run_child([sys.executable, "-m", "rank1tdse.cli", *argv], env, root, deadline)
            res = {}
        res.update(raw_s=time.perf_counter() - t0, snapshot=str(snap))
        reps.append(res)
    return {"reps": reps}


def verify(checks: Checks, name, seed, setup, solve, cli, work: Path) -> dict:
    pins = PINS[name]
    checks.pin(pins, "sha256", [r["sha256"] for r in setup["reps"]]
               + [solve["sha256"], solve["study"]["sha256"]])
    checks.pin(pins, "z", [r["z"] for r in setup["reps"]])
    for scheme_name, rec in solve["throughput"].items():
        for k, err in enumerate(rec["norm_err"]):
            checks.check(err <= NORM_TOL, f"{scheme_name} chunk {k}: |norm - 1| = {err:.3e}")
        checks.check(rec["same"], f"{scheme_name}: repeated chunks differ")
        if seed == DEFAULT_SEED:
            checks.pin(pins.get("observables", {}), scheme_name, [rec["observables"]],
                       close=True)
    checks.check(solve["inprocess_norm_err"] <= NORM_TOL,
                 f"in-process solve: |norm - 1| = {solve['inprocess_norm_err']:.3e}")
    reference = (work / "inprocess.bin").read_bytes()
    for k, rep in enumerate(cli["reps"]):
        checks.check(Path(rep["snapshot"]).read_bytes() == reference,
                     f"CLI snapshot {k} differs from the in-process solve")
    checks.check((work / "study_a.csv").read_bytes() == (work / "study_b.csv").read_bytes(),
                 "two emits of one report differ")
    study = solve["study"]
    checks.pin(pins, "bounded", [study["bounded"]])
    checks.pin(pins, "fitted_order", [study["fitted_order"]], close=True)
    return {"sha256": solve["sha256"], "z": setup["reps"][0]["z"],
            "bounded": study["bounded"], "fitted_order": study["fitted_order"],
            "observables": {k: r["observables"] for k, r in solve["throughput"].items()}}


def end_to_end_metrics(setup, solve, cli) -> dict:
    m = {"setup_s": (statistics.median(r["raw_s"] * r["speed"] for r in setup["reps"]), "s")}
    for name in SCHEMES:
        rec = solve["throughput"][name]
        rate = statistics.median(rec["m"] / (raw * speed)
                                 for raw, speed in zip(rec["raw_s"], rec["speed"]))
        m[f"steps_per_s.{name}"] = (rate, "1/s")
    m["peak_rss_mb"] = (solve["peak_rss_mb"], "MB")
    m["setup_peak_rss_mb"] = (setup["peak_rss_mb"], "MB")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def per_layer_metrics(wl, setup, solve, cli, n) -> dict:
    """Per-layer metrics for one pass: a median setup rep, the solve child, a median CLI rep."""
    setup_m = [_slice(setup["spans"], *r["spans"]) for r in setup["reps"]]
    cli_m = [r["spans"] for r in cli["reps"]]

    def per_pass(fn):
        """fn(spans) summed over one pass: a median setup rep, the solve child, a median CLI rep."""
        out = Counter(fn(solve["spans"]))
        for members in (setup_m, cli_m):
            per = [fn(spans) for spans in members]
            out.update({k: statistics.median(p.get(k, 0.0) for p in per)
                        for k in set().union(*per)})
        return out

    span_total = per_pass(tracing.totals)

    def total(span_name):
        return span_total.get(span_name, 0.0)

    m = {}
    m["lattice.cbc_s"] = (total("lattice.cbc_construct"), "s")
    m["lattice.cbc_candidates"] = (cbc_candidates(wl, setup["lattice"]["d"]), "count")
    for fn in ("build", "save", "load", "sha256"):
        span = {"save": "antialias.save_cache", "load": "antialias.load_cache"}.get(
            fn, f"antialias.{fn}")
        m[f"antialias.{fn}_s"] = (total(span), "s")
    m["antialias.max_norm2"] = (setup["max_norm2"], "count")
    m["antialias.build_peak_rss_mb"] = (setup["peak_rss_mb"], "MB")

    micro = solve["micro"]
    for size, value in micro["fft_pair_s"].items():
        m[f"transform.fft_pair_s.n{size}"] = (value, "s")
    pair_s = solve["calib_pair_s"]
    m["transform.fft_pair_s"] = (pair_s, "s")

    for fn in ("make_kinetic", "make_potential", "make_gaussian"):
        m[f"operators.{fn}_s"] = (total(f"operators.{fn}"), "s")
    m["operators.kinetic_apply_s"] = (micro["kinetic_apply_s"], "s")
    m["operators.potential_apply_s"] = (micro["potential_apply_s"], "s")

    for name in SCHEMES:
        rec = solve["throughput"][name]
        stages = rec["stages"]
        pairs = sum(1 for _, b in stages if b != 0.0)
        arrays = pairs + sum(1 for a, _ in stages if a != 0.0)
        chunk = statistics.median(rec["raw_s"])
        single = rec["single_s"]
        step = (chunk - single) / (rec["m"] - 1)
        m[f"splitting.pairs_per_step.{name}"] = (pairs, "count")
        m[f"splitting.multiplier_arrays.{name}"] = (arrays, "count")
        m[f"splitting.multiplier_mb.{name}"] = (16 * n * arrays / 2**20, "MB")
        m[f"splitting.step_s.{name}"] = (step, "s")
        m[f"splitting.evolve_call_s.{name}"] = (single - step, "s")
        ratio = statistics.median(raw / rec["m"] * speed / timing.reference_pair_s(n)
                                  for raw, speed in zip(rec["raw_s"], rec["speed"]))
        m[f"splitting.fft_floor_ratio.{name}"] = (ratio / pairs, "ratio")
        m[f"splitting.peak_rss_mb.{name}"] = (rec["peak_rss_mb"], "MB")

    m["experiments.run_convergence_s"] = (total("experiments.run_convergence"), "s")
    ref_s, sweep_s = convergence_split(solve["spans"])
    m["experiments.reference_s"] = (ref_s, "s")
    m["experiments.sweep_s"] = (sweep_s, "s")
    m["experiments.emit_s"] = (total("experiments.emit"), "s")
    m["experiments.study_s"] = (solve["study"]["raw_s"], "s")
    m["diagnostics.commutator_sweep_s"] = (total("diagnostics.commutator_sweep"), "s")
    cli_s = statistics.median(r["raw_s"] for r in cli["reps"])
    m["cli.solve_s"] = (cli_s, "s")
    m["cli.overhead_s"] = (cli_s - solve["inprocess_solve_s"], "s")

    self_t = per_pass(layer_self)
    for layer in tracing.LAYERS:
        m[f"{layer}.self_s"] = (self_t.get(layer, 0.0), "s")

    span_count = len(setup["spans"]) + len(solve["spans"]) + sum(len(s) for s in cli_m)
    m["trace.span_count"] = (span_count, "count")
    m["trace.overhead_s"] = (span_count * micro["per_span_overhead_s"], "s")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def _slice(spans, a, b):
    """Spans ``a:b`` of one process with parent indices re-based to the slice."""
    return [[name, t0, t1, None if parent is None or parent < a else parent - a]
            for name, t0, t1, parent in spans[a:b]]


def layer_self(spans) -> dict:
    out = {}
    for name, value in tracing.self_times(spans).items():
        layer = name.split(".")[0]
        out[layer] = out.get(layer, 0.0) + value
    return out


def convergence_split(spans):
    """Time of the reference evolve and of the sweep evolves inside run_convergence."""
    ref = sweep = 0.0
    for idx, (name, start, end, _) in enumerate(spans):
        if name != "experiments.run_convergence":
            continue
        evolves = [s for s in spans if s[3] == idx and s[0] == "splitting.evolve"]
        if evolves:
            ref += evolves[0][2] - evolves[0][1]
            sweep += sum(e[2] - e[1] for e in evolves[1:])
    return ref, sweep


def cbc_candidates(wl, d: int) -> int:
    """Candidates the CBC searches scan: (d - 1) * (odd residues of n) per lattice built."""
    spec = wl["lattice"]
    sizes = list(wl["commutator"]["n_values"]) + ([spec["cbc"][1]] if "cbc" in spec else [])
    return sum((d - 1) * (size // 2) for size in sizes)


def print_table(name: str, result: dict, meta: dict) -> None:
    err = sys.stderr
    print(f"# {name}: correct={result['correct']} failed_ops={result['failed']} "
          f"of attempted_ops={result['attempted']} wall={result['wall_s']:.1f}s", file=err)
    for key, metric in result["metrics"].items():
        computed = (metric["unit"] == "count" and key != "trace.span_count"
                    or key.startswith("splitting.multiplier_mb"))
        kind = "computed" if computed else "measured"
        print(f"  {key:40s} {metric['value']:>14.6g} {metric['unit']:6s} {kind}", file=err)
    print(json.dumps({"metadata": meta}), file=err)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "rank1tdse" / "__init__.py").is_file():
        print(f"no rank1tdse sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    names = BENCH_WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        meta = metadata(root, name, args, os.cpu_count() or 1)
        result = run_workload(name, args, root)
        print_table(name, result, meta)
        out = root / ".perfbench" / "results"
        out.mkdir(parents=True, exist_ok=True)
        (out / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps({"metadata": meta, **result}, indent=2))
        results[name] = {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
