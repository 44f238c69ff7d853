"""Tests of the benchmark itself: repeatable counts, hooks restored after
tracing, sabotaged steps counted as failures, and the result contract.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import harness
import run
import layers
from layers import LAYERS, LayerTimer, hook_points, traced
from repro.engine import BurstEngine
from repro.kernels import current_backend_name, use_backend
from repro.testing.faults import CorruptPayloadComm, FaultInjectingCommunicator
from repro.topology import make_cluster

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())

#: Counts the program makes; two runs with one seed must agree exactly.
COUNTS = (
    "comm.bytes.attn-fwd", "comm.bytes.attn-bwd", "comm.bytes.fsdp",
    "comm.bytes.inter-node", "kernels.tiles_computed",
    "kernels.tile_skip_fraction", "nn.checkpoint.recompute_gflop",
    "kernels.flash_fwd.calls", "kernels.flash_bwd.calls",
    "kernels.mlp.calls", "comm.calls",
)


@pytest.fixture
def quick(monkeypatch):
    """Short runs: 3 timed steps or traced pairs, one set-up probe."""
    monkeypatch.setattr(harness, "MIN_TIMED_STEPS", 3)
    monkeypatch.setattr(harness, "MIN_TRACED_PAIRS", 3)
    monkeypatch.setattr(harness, "SETUP_PROBES", 1)

    def run_quick(name, trace, **kw):
        return harness.run_workload(name, seed=7, seconds=0, trace=trace, **kw)

    return run_quick


def held(container, key):
    """What ``container`` itself holds under ``key``, not inherited."""
    if isinstance(container, dict):
        return container.get(key)
    return vars(container).get(key)


def global_hooks():
    """The process-wide hook points (the others die with their engine)."""
    engine = BurstEngine(harness.WORKLOADS["ring-many-ranks"].engine_config())
    with use_backend(harness.BACKEND) as backend:
        return [
            (c, k, held(c, k))
            for _, c, k in hook_points(engine, backend)
            if c is backend or isinstance(c, (dict, type, types.ModuleType))
        ]


@pytest.mark.parametrize("name", sorted(harness.WORKLOADS))
def test_counts_repeat_exactly_for_one_seed(name, quick):
    hooks = global_hooks()
    first, second = quick(name, trace=True), quick(name, trace=True)
    for report in (first, second):
        assert report.correct, report.errors
        assert report.failed == 0
        assert report.samples["traced_steps"] >= 3
    for key in COUNTS:
        assert first.per_layer[key] == second.per_layer[key], key
    for key in ("peak_saved_bytes", "comm_bytes_per_step"):
        assert first.end_to_end[key] == second.end_to_end[key] > 0, key
    assert first.per_layer["comm.bytes.fsdp"] > 0
    assert first.per_layer["kernels.tiles_computed"] > 0
    # Process-wide hooks are the original objects again after each run.
    assert all(held(c, k) is v for c, k, v in hooks)


def test_traced_restores_every_hook_and_sees_every_layer():
    workload = harness.WORKLOADS["ulysses-wide"]
    engine = BurstEngine(workload.engine_config())
    ids, targets = next(harness.batches(workload, 0))
    with use_backend(harness.BACKEND) as backend:
        points = hook_points(engine, backend)
        before = [held(c, k) for _, c, k in points]
        timer = LayerTimer()
        with traced(engine, backend, timer):
            engine.train_step(ids, targets)
        after = [held(c, k) for _, c, k in points]
    assert all(a is b for a, b in zip(before, after))
    assert set(timer.calls) == set(LAYERS)
    assert timer.calls["engine.step"] == 1
    # Outer backward plus one checkpoint replay per layer.
    assert timer.calls["nn.backward"] == 3
    assert sum(timer.self_s.values()) > 0


class _RaiseOnCall(CorruptPayloadComm):
    """Raises on the ``at_call``-th matching delivery instead of
    corrupting it."""

    def _fault_list(self, op, operands, out, prev):
        raise RuntimeError("injected delivery failure")


def test_hooks_restored_when_a_traced_step_raises():
    workload = harness.WORKLOADS["ring-many-ranks"]
    config = workload.engine_config()
    topo = make_cluster(config.num_gpus, gpus_per_node=config.gpus_per_node)
    engine = BurstEngine(config, comm=_RaiseOnCall(topo, phase="attn-bwd"))
    ids, targets = next(harness.batches(workload, 0))
    with use_backend(harness.BACKEND) as backend:
        points = hook_points(engine, backend)
        before = [held(c, k) for _, c, k in points]
        with pytest.raises(RuntimeError, match="injected"):
            with traced(engine, backend, LayerTimer()):
                engine.train_step(ids, targets)
        after = [held(c, k) for _, c, k in points]
    assert all(a is b for a, b in zip(before, after))


def test_corrupted_gradient_is_counted_as_a_failed_step(quick):
    # Corrupt the first backward delivery: the gradients of the gate step
    # (the first step) are wrong while its loss is still exact.
    report = quick(
        "burst-long", trace=False,
        make_comm=lambda topo: CorruptPayloadComm(
            topo, phase="attn-bwd", at_call=1
        ),
    )
    assert not report.gate_ok
    assert report.failed == 1
    assert not report.correct
    warmups = harness.WARMUP_STEPS
    probe_steps = harness.SETUP_PROBES * warmups
    assert report.attempted == (
        warmups + report.samples["timed_steps"] + probe_steps
    )


@pytest.mark.parametrize("trace", [False, True])
def test_raising_step_is_counted_not_dropped(trace, quick):
    workload = harness.WORKLOADS["ring-many-ranks"]
    config = workload.engine_config()
    topo = make_cluster(config.num_gpus, gpus_per_node=config.gpus_per_node)
    # The base class counts matching deliveries and damages none.
    counter = FaultInjectingCommunicator(topo, phase="attn-fwd", at_call=None)
    BurstEngine(config, comm=counter).train_step(
        *next(harness.batches(workload, 0))
    )
    per_step = counter.calls_matched
    # The first attn-fwd delivery of the first step after warm-up.
    sabotaged = harness.WARMUP_STEPS * per_step + 1
    report = quick(
        "ring-many-ranks", trace=trace,
        make_comm=lambda t: _RaiseOnCall(t, phase="attn-fwd",
                                         at_call=sabotaged),
    )
    assert report.gate_ok
    assert report.failed == 1
    assert not report.correct
    assert any("injected delivery failure" in e for e in report.errors)
    passed = report.samples["timed_steps"] + report.samples.get(
        "traced_steps", 0
    )
    probe_steps = 0 if trace else harness.SETUP_PROBES * harness.WARMUP_STEPS
    assert report.attempted == harness.WARMUP_STEPS + passed + 1 + probe_steps


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # NaN arithmetic
@pytest.mark.parametrize("trace", [False, True])
def test_run_whose_every_step_fails_ends_early(trace, quick):
    report = quick(
        "ring-many-ranks", trace=trace,
        make_comm=lambda t: CorruptPayloadComm(
            t, noise=np.nan, phase="attn-fwd", at_call=None
        ),
    )
    # The set-up probes use the program's own communicator and pass.
    probe_steps = 0 if trace else harness.SETUP_PROBES * harness.WARMUP_STEPS
    assert report.attempted == report.failed + probe_steps
    assert report.failed == 4
    assert not report.correct


def test_traced_step_that_bypasses_a_wrapper_fails(quick, monkeypatch):
    """A call site that reaches a kernel without going through the backend
    instance would hand its time to the caller's layer unnoticed; the
    workload's coverage check counts such a traced step as failed."""
    def bypass_mlp(engine, backend):
        return [p for p in hook_points(engine, backend)
                if p[0] != "kernels.mlp"]

    monkeypatch.setattr(layers, "hook_points", bypass_mlp)
    report = quick("ulysses-wide", trace=True)
    assert report.failed == 4
    assert not report.correct
    assert all("kernels.mlp" in e for e in report.errors)


def test_result_line_matches_the_benchmark_contract(monkeypatch, capsys):
    backend_before = current_backend_name()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)  # restored after the test
    monkeypatch.setattr(harness, "MIN_TIMED_STEPS", 3)
    monkeypatch.setattr(harness, "MIN_TRACED_PAIRS", 3)
    monkeypatch.setattr(harness, "SETUP_PROBES", 2)
    declared = {
        0: {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]},
        1: {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]},
    }
    for trace in (0, 1):
        code = run.main([
            "--workload", "ring-many-ranks", "--seed", "3",
            "--seconds", "0", "--trace", str(trace),
        ])
        lines = capsys.readouterr().out.strip().splitlines()
        result = json.loads(lines[-1])
        assert code == 0
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == declared[trace]
        assert all(np.isfinite(v["value"]) for v in result["metrics"].values())
        env = json.loads(lines[-2])["environment"]
        for key in ("nproc", "python", "numpy", "blas", "backend", "commit",
                    "seed"):
            assert key in env
        assert env["backend"] == "reference" and env["seed"] == 3
    assert current_backend_name() == backend_before


def test_exits_nonzero_without_the_program(tmp_path):
    """In a directory holding only the benchmark's files there is nothing
    to measure: the run fails without printing a result."""
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, BENCHMARK["command"][1], "--workload", "burst-long",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
