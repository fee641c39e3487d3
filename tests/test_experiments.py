import json

import numpy as np
import pytest

from rank1tdse.experiments import (
    CACHE_ENV_VAR,
    ConvergenceRow,
    ExperimentConfig,
    default_cache_dir,
    emit,
    run_convergence,
)

SMALL = {"d": 2, "n": 64, "z": [1, 19]}


def small_config(tmp_path, **kw):
    base = dict(
        lattice=SMALL,
        potential="smooth_v1",
        scheme="s9odr6a",
        final_time=0.25,
        reference_steps=512,
        sweep_steps=(4, 8, 16, 32, 64),
        cache_dir=str(tmp_path / "cache"),
    )
    base.update(kw)
    return ExperimentConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError, match="preset or an explicit lattice"):
        ExperimentConfig()
    with pytest.raises(ValueError, match="must exceed"):
        ExperimentConfig(lattice=SMALL, reference_steps=10, sweep_steps=(10,))
    with pytest.raises(ValueError, match="must be positive"):
        ExperimentConfig(lattice=SMALL, final_time=0.0)
    with pytest.raises(ValueError, match=">= 1"):
        ExperimentConfig(lattice=SMALL, sweep_steps=(0, 5))


def test_config_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown config keys"):
        ExperimentConfig.from_dict({"lattice": SMALL, "stepz": [1]})


def test_config_file_roundtrip(tmp_path):
    cfg = small_config(tmp_path)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg.to_dict()))
    with open(path) as fh:
        again = ExperimentConfig.from_dict(json.load(fh))
    assert again.to_dict() == cfg.to_dict()


def test_default_cache_dir_env(tmp_path, monkeypatch):
    monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path / "env-cache"))
    assert default_cache_dir() == tmp_path / "env-cache"
    monkeypatch.delenv(CACHE_ENV_VAR)
    assert default_cache_dir().name == "rank1tdse"


def test_run_convergence_sixth_order(tmp_path):
    report = run_convergence(small_config(tmp_path))
    assert len(report.rows) == 5
    ms = [r.m for r in report.rows]
    assert ms == sorted(ms)
    errs = [r.err for r in report.rows]
    assert errs == sorted(errs, reverse=True)  # smaller dt, smaller error
    assert report.fitted_order is not None and 5.0 < report.fitted_order < 7.0
    assert len(report.aaset_sha256) == 64


def test_run_convergence_dedupes_sweep(tmp_path):
    report = run_convergence(small_config(tmp_path, sweep_steps=(8, 4, 8, 16)))
    assert [r.m for r in report.rows] == [4, 8, 16]


def test_floor_filtered_rows_marked(tmp_path):
    # very fine sweep entries land below the roundoff floor
    cfg = small_config(tmp_path, sweep_steps=(4, 8, 128, 256))
    report = run_convergence(cfg)
    flags = {r.m: r.floor_filtered for r in report.rows}
    assert not flags[4] and not flags[8]
    assert flags[128] and flags[256]
    assert report.fitted_order is None  # only two usable rows


def test_csv_roundtrip_and_determinism(tmp_path):
    cfg = small_config(tmp_path)
    report = run_convergence(cfg)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    emit(report, p1)
    emit(run_convergence(cfg), p2)
    assert p1.read_bytes() == p2.read_bytes()

    head, rows = {}, []
    for line in p1.read_text().splitlines():
        if line.startswith("# "):
            key, val = line[2:].split(": ", 1)
            head[key] = val
        elif not line.startswith("m,"):
            m, dt, err, ff = line.split(",")
            rows.append(ConvergenceRow(int(m), float(dt), float(err), bool(int(ff))))
    assert json.loads(head["config"]) == report.config
    assert head["aaset_sha256"] == report.aaset_sha256
    assert float(head["fitted_order"]) == report.fitted_order
    assert rows == report.rows


def test_json_roundtrip(tmp_path):
    report = run_convergence(small_config(tmp_path))
    path = tmp_path / "r.json"
    emit(report, path, fmt="json")
    doc = json.loads(path.read_text())
    rows = [ConvergenceRow(**r) for r in doc["rows"]]
    assert rows == report.rows and doc["fitted_order"] == report.fitted_order


def test_emit_unknown_format(tmp_path):
    report = run_convergence(small_config(tmp_path))
    with pytest.raises(ValueError, match="unknown format"):
        emit(report, tmp_path / "x.yaml", fmt="yaml")


def test_csv_uses_repr_floats(tmp_path):
    report = run_convergence(small_config(tmp_path))
    emit(report, tmp_path / "r.csv")
    text = (tmp_path / "r.csv").read_text()
    row = text.splitlines()[4].split(",")
    assert float(row[1]) == report.rows[0].dt
    assert float(row[2]) == report.rows[0].err
