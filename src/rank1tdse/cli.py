"""Command-line interface.

Subcommands: ``lattice gen|info``, ``aaset build``, ``solve``, ``converge``,
``diagnose commutator|circulant`` and ``selftest``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import fields

from . import antialias, diagnostics, experiments, selftest as _selftest
from .lattice import PRESETS, Rank1Lattice, cbc_construct, load_lattice, stage_workers
from .operators import check_epsilon, make_gaussian, make_kinetic, make_potential, potential_kind
from .splitting import SCHEME_NAMES, evolve, scheme
from .transform import save_snapshot

_LARGE_N = 2**22


def _resolve_lattice(args, lat: Rank1Lattice | None = None) -> Rank1Lattice:
    """``lat``, else ``--lattice``, else ``--preset``; n >= 2^22 needs ``--large`` (solve estimates memory)."""
    if lat is None:
        if not (args.lattice or args.preset):
            raise SystemExit("specify --preset or --lattice")
        lat = load_lattice(args.lattice or args.preset)
    if lat.n >= _LARGE_N and not args.large:
        msg = f"lattice has n = {lat.n}"
        if args.command == "solve":
            vec = scheme(args.scheme).plan_vectors(lat.n)
            gib = 16 * vec * lat.n / 2**30
            msg += f" ({args.scheme} evolve holds {vec} complex n-vectors, {gib:.1f} GiB)"
        raise SystemExit(f"{msg}; pass --large to confirm")
    return lat


def _add_lattice_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--preset", choices=sorted(PRESETS), help="built-in lattice preset")
    p.add_argument("--lattice", help="path to a JSON file {d, n, z}")
    p.add_argument("--large", action="store_true",
                   help="allow lattices with n >= 2^22 (solve's refusal estimates memory)")


def _step_counts(text: str) -> list[int]:
    return [int(m) for m in text.split(",")]


def _cmd_lattice(args) -> int:
    if args.action == "gen":
        lat = cbc_construct(args.d, args.n)
    else:
        lat = _resolve_lattice(args)
    doc = lat.to_dict()
    if args.action == "info":
        doc["preview_points"] = [list(lat.point(k)) for k in range(min(4, lat.n))]
    text = json.dumps(doc, indent=2)
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


def _cmd_aaset(args) -> int:
    lat = _resolve_lattice(args)
    cache_dir = args.cache_dir or experiments.default_cache_dir()
    path = antialias.cache_path(lat, cache_dir)
    t0 = time.perf_counter()
    try:
        aa, action = antialias.load_cache(path, lat), "load"
    except (FileNotFoundError, ValueError):  # no cache, or a corrupt one that cached_build replaces
        aa, action = antialias.cached_build(lat, cache_dir), "build"
    elapsed = time.perf_counter() - t0
    print(f"cache: {path}")
    print(f"n = {lat.n}, d = {lat.d}, max_norm2 = {aa.max_norm2()}, workers = {stage_workers(lat.n)}, "
          f"{action} {elapsed:.2f}s")
    return 0


def _cmd_solve(args) -> int:
    if args.steps < 1:
        raise SystemExit(f"--steps must be at least 1, got {args.steps}")
    lat = _resolve_lattice(args)
    check_epsilon(args.epsilon)  # refuse bad input before the set is built and cached
    potential_kind(args.potential)
    cache_dir = args.cache_dir or experiments.default_cache_dir()
    aa = antialias.cached_build(lat, cache_dir)
    kt = make_kinetic(aa, args.epsilon)
    pf = make_potential(args.potential, lat)
    sch = scheme(args.scheme)
    state = make_gaussian(aa, args.epsilon)
    final, rec = evolve(state, sch, kt, pf, args.steps, args.time / args.steps, args.epsilon)
    save_snapshot(final, args.out)
    print(f"evolved {rec.steps_taken} steps of dt = {rec.dt!r} "
          f"in {rec.wall_time:.2f}s ({rec.fft_pairs} FFT pairs), workers = {rec.workers}, "
          f"final norm {rec.final_norm!r}")
    print(f"snapshot: {args.out}")
    return 0


def _cmd_converge(args) -> int:
    doc = {}
    if args.config:
        try:
            with open(args.config) as fh:
                doc = json.load(fh)
        except OSError as e:
            raise ValueError(f"{args.config}: {e.strerror}") from None
        if not isinstance(doc, dict):
            raise ValueError(f"{args.config}: config is not a JSON object")
    # each override flag's dest is the config field it sets
    doc.update({f.name: getattr(args, f.name) for f in fields(experiments.ExperimentConfig)
                if getattr(args, f.name, None) is not None})
    config = experiments.ExperimentConfig.from_dict(doc)
    _resolve_lattice(args, config.build_lattice())
    report = experiments.run_convergence(config)
    out = config.output or "convergence.csv"
    experiments.emit(report, out, args.format)
    order = "not fitted" if report.fitted_order is None else f"{report.fitted_order:.3f}"
    print(f"wrote {out} ({len(report.rows)} rows, fitted order {order})")
    return 0


def _cmd_diagnose(args) -> int:
    lat = _resolve_lattice(args)
    cache_dir = args.cache_dir or experiments.default_cache_dir()
    if args.check == "circulant":
        aa = antialias.cached_build(lat, cache_dir)
        pf = make_potential("smooth_v1", lat)
        dev = diagnostics.circulant_check(aa, pf)
        print(f"max deviation: {dev:.3e}")
        return 0 if dev <= 1e-10 else 1
    # commutator sweep over the given moduli, CBC vectors per n; bad input is refused before any set is built
    diagnostics.check_commutator_input(args.p, args.epsilon)
    if max(args.n_values) >= _LARGE_N and not args.large:
        raise SystemExit(f"lattice has n = {max(args.n_values)}; pass --large to confirm")
    subs = [cbc_construct(lat.d, n) if lat.n != n else lat for n in args.n_values]
    pairs = [(sub, antialias.cached_build(sub, cache_dir)) for sub in subs]
    if args.contrast:
        pairs = [(l, diagnostics.shifted_representatives(a)) for l, a in pairs]
    report = diagnostics.commutator_sweep(pairs, lambda l: make_potential("smooth_v1", l), args.p, args.epsilon)
    print(report.to_json())
    return 0


def _cmd_selftest(args) -> int:
    return _selftest.run()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="rank1tdse",
        description="Pseudo-spectral Schrödinger solver on rank-1 lattice points",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lattice", help="generate or inspect lattices")
    p.add_argument("action", choices=["gen", "info"])
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--n", type=int, default=2**10)
    _add_lattice_args(p)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_lattice)

    p = sub.add_parser("aaset", help="construct and cache anti-aliasing sets")
    p.add_argument("action", choices=["build"])
    _add_lattice_args(p)
    p.add_argument("--cache-dir")
    p.set_defaults(func=_cmd_aaset)

    p = sub.add_parser("solve", help="single evolution, snapshot output")
    _add_lattice_args(p)
    p.add_argument("--potential", default="harmonic_v2")
    p.add_argument("--scheme", default="s9odr6a", choices=SCHEME_NAMES)
    p.add_argument("--epsilon", type=float, default=1.0)
    p.add_argument("--time", type=float, default=1.0)
    p.add_argument("--steps", type=int, default=1000)
    p.add_argument("--cache-dir")
    p.add_argument("--out", default="state.bin")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("converge", help="run a convergence study")
    p.add_argument("--config", help="JSON config file; flags override its values")
    p.add_argument("--preset")
    p.add_argument("--potential")
    p.add_argument("--scheme")
    p.add_argument("--epsilon", type=float)
    p.add_argument("--time", dest="final_time", type=float)
    p.add_argument("--reference-steps", type=int)
    p.add_argument("--sweep", dest="sweep_steps", type=_step_counts, help="comma-separated step counts")
    p.add_argument("--cache-dir")
    p.add_argument("--out", dest="output")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--large", action="store_true", help="allow lattices with n >= 2^22")
    p.set_defaults(func=_cmd_converge)

    p = sub.add_parser("diagnose", help="operator structure checks on the smooth_v1 potential")
    p.add_argument("check", choices=["commutator", "circulant"])
    _add_lattice_args(p)
    p.add_argument("--p", type=int, default=1)
    p.add_argument("--epsilon", type=float, default=1.0)
    p.add_argument("--n-values", type=int, nargs="+", default=[2**6, 2**8, 2**10])
    p.add_argument("--contrast", action="store_true",
                   help="use deliberately non-minimal representatives")
    p.add_argument("--cache-dir")
    p.set_defaults(func=_cmd_diagnose)

    p = sub.add_parser("selftest", help="run the desk-scale property suites")
    p.set_defaults(func=_cmd_selftest)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as e:  # bad input the library refused: one line, not a traceback
        raise SystemExit(f"{args.command}: {e}") from None


if __name__ == "__main__":
    sys.exit(main())
