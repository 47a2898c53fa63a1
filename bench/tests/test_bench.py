"""Self-tests of the benchmark harness, on tiny inputs.

    PYTHONPATH=src python -m pytest -q bench/tests
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import run
import spans
import spectral_forge
import speed
from workloads import WORKLOADS, CliWorkload, LibraryWorkload

TINY = {
    "dense_normal": lambda: CliWorkload(
        "dense_normal", "random_normal", 6, 10.0, 1.0, count=2),
    "diagonal_product": lambda: CliWorkload(
        "diagonal_product", "multiplication", 8, 100.0, 1.0, shuffle=True),
    "mixed_small": lambda: LibraryWorkload(
        "mixed_small", 1.0, dims=(2, 3), norms=(1e-2, 1.0, 1e2)),
    "cli_roundtrip": lambda: CliWorkload(
        "cli_roundtrip", "random_normal", 5, 10.0, 1.0, emit="all"),
}


def _no_wrappers():
    for name, module in list(sys.modules.items()):
        if name == "spectral_forge" or name.startswith("spectral_forge."):
            for attr, value in vars(module).items():
                assert not hasattr(value, "__spans_original__"), \
                    f"{name}.{attr} is still wrapped"


def test_benchmark_json_names_what_the_harness_prints():
    root = os.path.dirname(os.path.dirname(spans.__file__))
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert set(TINY) == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        spans.metric_units()


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("traced", [False, True])
def test_smoke_each_workload(name, traced, tmp_path):
    record = run.run_workload(TINY[name](), 5, 1, traced, str(tmp_path))
    assert record["correct"], record["problems"]
    assert record["failed"] == 0, record["failures"]
    assert record["attempted"] == (2 if traced else 1)
    expected = spans.metric_units() if traced else \
        {k: v for k, v in run.UNITS.items() if k != "setup_s"}
    assert set(record["metrics"]) == set(expected)
    if traced:
        assert record["metrics"]["pipeline.spectral_theorem.calls"] == 1.0
        assert record["metrics"]["measures.e1.atoms"] > 0
    else:
        assert record["metrics"]["latency_p50_s"] > 0
        assert record["metrics"]["pass_share"] == 1.0
    _no_wrappers()


def test_op_count_is_fixed_by_seconds_alone():
    workload = WORKLOADS["mixed_small"]()
    assert run.op_count(workload, 25) == round(25 / workload.op_s)
    assert run.op_count(workload, 0) == 1


def test_same_seed_fails_the_same_ops(tmp_path):
    workload = LibraryWorkload("mixed_small", 1.0, dims=(2, 3, 4),
                               norms=(1e-2, 1e3, 1e6))
    first = run.run_workload(workload, 3, 8.0, False, str(tmp_path))
    second = run.run_workload(workload, 3, 8.0, False, str(tmp_path))
    assert first["attempted"] == second["attempted"] == 8
    assert first["failed"] == second["failed"] > 0
    assert [op[4] for op in first["ops"]] == [op[4] for op in second["ops"]]


def test_setup_runs_in_fresh_interpreters(tmp_path):
    scaled, raw = run.measure_setup("dense_normal", 5, str(tmp_path))
    assert scaled > 0 and raw > 0
    assert os.listdir(tmp_path) == []


def test_times_scale_to_the_reference_speed():
    assert speed.reference() > 0
    # With sensitivity one half, a machine that runs the reference four
    # times as slow halves every time.
    slow = 4 * speed.REFERENCE_S
    assert speed.scale(slow, slow, 0.5) == pytest.approx(0.5)
    assert speed.scale(speed.REFERENCE_S, speed.REFERENCE_S, 0.7) == 1.0
    assert set(speed.SENSITIVITY) == set(WORKLOADS)


def test_refusals_count_as_failed_ops(tmp_path):
    spec = spectral_forge.OperatorSpec
    library = LibraryWorkload("refusals", 1.0, specs=[
        spec(kind="jordan_block", dim=4),
        spec(kind="random_unitary", dim=3, scale=2e6, seed=1),
        spec(kind="random_normal", dim=3, scale=1.0, seed=1),
    ])
    pool = library.prepare(0, str(tmp_path))
    ops = [library.run_op(pool, k, str(tmp_path)) for k in range(3)]
    assert library.check(pool, ops) == []
    assert ops[0].error.startswith("NotNormal")
    assert ops[1].error.startswith("ScaleLimit")
    assert ops[2].error is None

    cli = CliWorkload("jordan", "jordan_block", 4, 1.0, 1.0)
    state = cli.prepare(0, str(tmp_path))
    op = cli.run_op(state, 0, str(tmp_path))
    assert cli.check(state, [op]) == []
    assert op.error.startswith("pipeline exit 3")
    assert op.verify_s == []


def test_traced_and_untraced_ops_write_identical_bytes(tmp_path):
    record = run.run_workload(TINY["cli_roundtrip"](), 5, 1, True,
                              str(tmp_path))
    assert record["correct"], record["problems"]
    with open(tmp_path / "op0u" / "bundle.json", "rb") as f:
        plain = f.read()
    with open(tmp_path / "op0t" / "bundle.json", "rb") as f:
        traced = f.read()
    assert plain == traced
    assert b"spans" not in traced
    _no_wrappers()


def test_wrappers_restored_when_an_op_raises():
    tracer = spans.Tracer()
    jordan = spectral_forge.generate(
        spectral_forge.OperatorSpec(kind="jordan_block", dim=3))
    with pytest.raises(spectral_forge.NotNormal):
        with tracer.installed(0):
            spectral_forge.pipeline.spectral_theorem(jordan)
    _no_wrappers()
    top = [s for s in tracer.spans if s[spans.NAME] ==
           "pipeline.spectral_theorem"]
    assert len(top) == 1 and top[0][spans.RAISED]


def test_missing_function_is_recorded_absent(monkeypatch):
    monkeypatch.setitem(spans.TARGETS, "linalg",
                        spans.TARGETS["linalg"] + ("no_such_function",))
    tracer = spans.Tracer()
    with tracer.installed(0):
        pass
    assert "linalg.no_such_function" in tracer.absent
    _no_wrappers()


def test_self_time_subtracts_children():
    spans_ = [
        ["outer", 0.0, 10.0, -1, 0, False, None],
        ["inner", 1.0, 4.0, 0, 0, False, None],
        ["leaf", 2.0, 3.0, 1, 0, False, None],
        ["inner", 5.0, 6.0, 0, 0, False, None],
    ]
    assert spans.self_times(spans_) == [6.0, 2.0, 1.0, 1.0]


def test_fails_without_package_sources(tmp_path):
    root = os.path.dirname(os.path.dirname(spans.__file__))
    shutil.copy(os.path.join(root, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(root, "bench"), tmp_path / "bench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "dense_normal",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
