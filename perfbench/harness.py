"""Step-level training benchmark of ``repro.engine.BurstEngine``.

One run builds the engine for one workload, checks its first step against
the single-device model, then times ``train_step`` on fresh batches.  The
untraced run gives the end-to-end metrics; the traced run alternates
untraced and traced steps and gives the per-layer metrics of
:mod:`layers`.  See ``README.md`` next to this file for the workloads.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from layers import LAYERS, LayerTimer, traced
from repro.engine import BurstEngine, EngineConfig
from repro.kernels import counters, use_backend
from repro.nn import CheckpointPolicy, TransformerConfig, TransformerLM
from repro.nn.checkpoint import CheckpointMode
from repro.perf.memory import predict_step_peak_saved_bytes
from repro.topology import LinkClass, make_cluster

HERE = Path(__file__).resolve().parent
BACKEND = "reference"
#: A p90 needs ten samples beyond it.
MIN_TIMED_STEPS = 100
#: Traced and untraced steps are taken in pairs, at least this many.
MIN_TRACED_PAIRS = 10
#: Discarded steps after construction; ``setup_s`` covers them.
WARMUP_STEPS = 2
#: Cold set-ups per untraced run, each in a fresh process
#: (``setup_probe.py``); ``setup_s`` is their median.
SETUP_PROBES = 5
#: Longest a set-up probe may take before it counts as failed.
PROBE_TIMEOUT_S = 60
#: Tolerances of ``tests/test_engine.py::TestDistributedEqualsLocal``.
GATE_LOSS_REL = 1e-10
GATE_GRAD_RTOL, GATE_GRAD_ATOL = 1e-8, 1e-10
#: Largest share of a traced step its layers' self times may leave
#: unattributed.  It holds only the root wrapper's entry and exit, so this
#: is a sanity check of the timing stack; the check that catches a call
#: site bypassing the wrappers is :attr:`Workload.loads`.
CONSERVATION_TOL = 0.01


@dataclass(frozen=True)
class Workload:
    name: str
    method: str
    method_kwargs: dict
    num_gpus: int
    gpus_per_node: int
    model: dict
    checkpoint: str

    @property
    def seq_len(self) -> int:
        return self.model["max_seq_len"]

    @property
    def loads(self) -> tuple[str, ...]:
        """Layers every traced step must call at least once.  Only the
        chunked MLP calls the MLP kernels."""
        chunked = self.model.get("mlp_chunk_size") is not None
        return tuple(
            layer for layer in LAYERS if chunked or layer != "kernels.mlp"
        )

    def engine_config(self) -> EngineConfig:
        return EngineConfig(
            model=TransformerConfig(n_layers=2, **self.model),
            method=self.method,
            method_kwargs=dict(self.method_kwargs),
            num_gpus=self.num_gpus,
            gpus_per_node=self.gpus_per_node,
            checkpoint=CheckpointPolicy(CheckpointMode(self.checkpoint), 0.5),
            head_impl="fused",
            fsdp=True,
        )


# Why each workload exists, and which layer it loads, is in README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="burst-long", method="burst",
            method_kwargs={"block_size": 64},
            num_gpus=4, gpus_per_node=2,
            model=dict(max_seq_len=1024, dim=64, n_heads=4, ffn_hidden=256,
                       vocab_size=256, attn_block_size=64),
            checkpoint="sequence_level",
        ),
        Workload(
            name="ulysses-wide", method="ulysses", method_kwargs={},
            num_gpus=8, gpus_per_node=8,
            model=dict(max_seq_len=256, dim=128, n_heads=8, ffn_hidden=512,
                       vocab_size=8192, mlp_chunk_size=64),
            checkpoint="full",
        ),
        Workload(
            name="ring-many-ranks", method="burst",
            method_kwargs={"block_size": 16, "ring_mode": "bidirectional"},
            num_gpus=16, gpus_per_node=8,
            model=dict(max_seq_len=256, dim=32, n_heads=4, ffn_hidden=128,
                       vocab_size=256, attn_block_size=16),
            checkpoint="sequence_level",
        ),
    )
}


@dataclass
class Report:
    """Everything one run measured; ``run.py`` prints a subset."""

    workload: str
    attempted: int = 0
    failed: int = 0
    gate_ok: bool = False
    errors: list[str] = field(default_factory=list)
    end_to_end: dict[str, float] = field(default_factory=dict)
    per_layer: dict[str, float] = field(default_factory=dict)
    samples: dict[str, int] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return self.gate_ok and self.failed == 0 and self.attempted > 0

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)


def batches(workload: Workload, seed: int):
    """Endless fresh ``(ids, targets)`` batches from the workload seed."""
    rng = np.random.default_rng(seed)
    vocab, s = workload.model["vocab_size"], workload.seq_len
    while True:
        yield rng.integers(0, vocab, s), rng.integers(0, vocab, s)


def predicted_peak_bytes(engine: BurstEngine) -> int:
    cfg = engine.config
    m = cfg.model
    return predict_step_peak_saved_bytes(
        seq_len=m.max_seq_len, dim=m.dim, n_layers=m.n_layers,
        n_heads=m.n_heads, ffn_hidden=m.ffn_hidden, vocab=m.vocab_size,
        checkpoint=cfg.checkpoint.mode.value,
        split_fraction=cfg.checkpoint.split_fraction,
        head_impl=cfg.head_impl,
        fused_mlp=m.mlp_chunk_size is not None,
        rebuilds_context=engine.method.supports_context_rebuild,
    )["peak_saved_bytes"]


def reference_step(engine: BurstEngine, ids, targets):
    """Loss and gradients of the single-device model built from the same
    config and seed as ``engine`` (the correctness gate's oracle)."""
    local = TransformerLM(engine.config.resolved_model())
    loss = local(ids, targets)
    loss.backward()
    return loss.item(), {n: p.grad.copy() for n, p in local.named_parameters()}


def gate_errors(engine: BurstEngine, loss: float, ref) -> list[str]:
    """Mismatches between ``engine``'s just-finished first step and the
    single-device oracle ``ref``."""
    ref_loss, ref_grads = ref
    errors = []
    if not abs(loss - ref_loss) <= GATE_LOSS_REL * abs(ref_loss):
        errors.append(f"gate: loss {loss!r} != single-device {ref_loss!r}")
    for name, p in engine.model.named_parameters():
        if p.grad is None or not np.allclose(
            p.grad, ref_grads[name], rtol=GATE_GRAD_RTOL, atol=GATE_GRAD_ATOL
        ):
            errors.append(f"gate: gradient of {name} differs")
    return errors


class Stepper:
    """Runs and checks ``train_step`` calls, counting each as attempted.

    A step fails when it raises, its loss is not finite, its peak saved
    bytes differ from ``predict_step_peak_saved_bytes``, or its traffic
    differs from the first step's.  Failed steps are counted, never
    dropped; their time is not sampled.
    """

    def __init__(self, report: Report):
        self.report = report
        self.comm_bytes: int | None = None
        self.peak_bytes: int | None = None
        self.expected_peak: int | None = None

    def step(self, engine, ids, targets):
        """Returns ``(seconds, result, traffic records)``, or ``None``
        when the step failed."""
        report = self.report
        report.attempted += 1
        mark = len(engine.comm.log.records)
        t0 = time.perf_counter()
        try:
            res = engine.train_step(ids, targets)
        except Exception:  # a failed operation: count it, keep running
            report.fail("step raised:\n" + traceback.format_exc(limit=3))
            return None
        dt = time.perf_counter() - t0
        records = engine.comm.log.records[mark:]
        # The log only grows; keep it from growing across the run.
        engine.comm.log.clear()
        problems = []
        if not np.isfinite(res.loss):
            problems.append(f"loss {res.loss!r} is not finite")
        if self.expected_peak is None:
            self.expected_peak = predicted_peak_bytes(engine)
        if res.peak_activation_bytes != self.expected_peak:
            problems.append(
                f"peak saved bytes {res.peak_activation_bytes} != "
                f"predicted {self.expected_peak}"
            )
        if self.comm_bytes is None:
            self.comm_bytes = res.step_comm_bytes
        elif res.step_comm_bytes != self.comm_bytes:
            problems.append(
                f"step traffic {res.step_comm_bytes} B != first step's "
                f"{self.comm_bytes} B"
            )
        if problems:
            report.fail("; ".join(problems))
            return None
        self.peak_bytes = res.peak_activation_bytes
        return dt, res, records


def set_up(workload, stream, stepper, report, make_comm=None, gate=False):
    """Build an engine and run its warm-up steps; with ``gate``, check the
    first against the single-device model.  Returns the engine and the
    seconds spent, the gate's own work excluded."""
    config = workload.engine_config()
    t0 = time.perf_counter()
    if make_comm is None:
        engine = BurstEngine(config)
    else:
        topo = make_cluster(config.num_gpus, gpus_per_node=config.gpus_per_node)
        engine = BurstEngine(config, comm=make_comm(topo))
    spent = time.perf_counter() - t0
    for i in range(WARMUP_STEPS):
        ids, targets = next(stream)
        ref = reference_step(engine, ids, targets) if gate and i == 0 else None
        out = stepper.step(engine, ids, targets)
        if out is None:
            continue
        spent += out[0]
        if ref is not None:
            errors = gate_errors(engine, out[1].loss, ref)
            report.gate_ok = not errors
            if errors:
                report.fail("; ".join(errors[:3]))
    return engine, spent


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, *, make_comm=None
) -> Report:
    """One benchmark run.  ``make_comm(topology)`` substitutes the
    engine's communicator (tests use it to sabotage steps)."""
    workload = WORKLOADS[name]
    report = Report(workload=name)
    stepper = Stepper(report)
    stream = batches(workload, seed)
    with use_backend(BACKEND) as backend:
        engine, _ = set_up(workload, stream, stepper, report, make_comm,
                           gate=True)
        if trace:
            _traced_run(workload, engine, backend, stream, stepper, report,
                        seconds)
        else:
            _timed_run(workload, engine, stream, stepper, report, seconds)
    if not trace:
        setup_s = [
            s for s in (_probe_setup(name, seed, report)
                        for _ in range(SETUP_PROBES))
            if s is not None
        ]
        if setup_s:
            report.end_to_end["setup_s"] = statistics.median(setup_s)
        report.samples["setup_probes"] = len(setup_s)
    report.end_to_end["peak_saved_bytes"] = float(stepper.peak_bytes or 0)
    report.end_to_end["comm_bytes_per_step"] = float(stepper.comm_bytes or 0)
    return report


def _probe_setup(name, seed, report) -> float | None:
    """Seconds of one cold set-up, measured by ``setup_probe.py`` in a
    fresh process so that once-per-process work is paid again.  Its
    warm-up steps count as attempted; a probe that fails counts once."""
    command = [sys.executable, str(HERE / "setup_probe.py"),
               "--workload", name, "--seed", str(seed)]
    try:
        proc = subprocess.run(command, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S)
        out = json.loads(proc.stdout.strip().splitlines()[-1])
    except subprocess.TimeoutExpired:
        problem = f"timed out after {PROBE_TIMEOUT_S} s"
    except (IndexError, ValueError):
        problem = "printed no result:\n" + proc.stderr[-500:]
    else:
        report.attempted += out["attempted"]
        report.failed += out["failed"]
        report.errors += out["errors"][: max(0, 20 - len(report.errors))]
        return out["seconds"] if out["failed"] == 0 else None
    report.attempted += 1
    report.fail(f"set-up probe {problem}")
    return None


def _timed_run(workload, engine, stream, stepper, report, seconds):
    times = []
    start = time.perf_counter()
    while _more(start, seconds, len(times), MIN_TIMED_STEPS, report):
        out = stepper.step(engine, *next(stream))
        if out is not None:
            times.append(out[0])
    _step_metrics(workload, times, report)


def _more(start, seconds, samples, min_samples, report) -> bool:
    """Keep stepping until ``seconds`` have passed and ``min_samples``
    steps passed, unless more steps than that failed: a broken run ends
    early instead of looping until it is killed."""
    if report.failed > min_samples:
        return False
    return time.perf_counter() - start < seconds or samples < min_samples


def _step_metrics(workload, times, report):
    report.samples["timed_steps"] = len(times)
    if times:
        report.end_to_end["tokens_per_s"] = (
            workload.seq_len / statistics.median(times)
        )
        report.end_to_end["step_ms_p90"] = 1e3 * float(
            np.percentile(times, 90)
        )


def _traced_run(workload, engine, backend, stream, stepper, report,
                seconds):
    """Alternate untraced and traced steps, so drift hits both alike."""
    plain, traced_s, samples = [], [], []
    outer_s = self_s = flash_s = pairs = 0.0
    start = time.perf_counter()
    while _more(start, seconds, len(traced_s), MIN_TRACED_PAIRS, report):
        out = stepper.step(engine, *next(stream))
        if out is not None:
            plain.append(out[0])
        ids, targets = next(stream)
        tiles_before = counters.snapshot()
        timer = LayerTimer()
        with traced(engine, backend, timer):
            out = stepper.step(engine, ids, targets)
        if out is None:
            continue
        dt, res, records = out
        tiles_after = counters.snapshot()
        tiles = {
            k: tiles_after[k] - tiles_before[k]
            for k in ("tiles_computed", "tiles_skipped", "computed_pairs")
        }
        attributed = sum(timer.self_s.values())
        missed = [layer for layer in workload.loads if not timer.calls[layer]]
        if missed:
            report.fail(f"coverage: no wrapped call reached {missed}")
            continue
        if abs(dt - attributed) > CONSERVATION_TOL * dt:
            report.fail(
                f"conservation: layers sum to {attributed:.6f} s of a "
                f"{dt:.6f} s traced step"
            )
            continue
        traced_s.append(dt)
        outer_s += dt
        self_s += attributed
        flash_s += (timer.self_s["kernels.flash_fwd"]
                    + timer.self_s["kernels.flash_bwd"])
        pairs += tiles["computed_pairs"]
        samples.append(_layer_sample(timer, tiles, res, records))
    _step_metrics(workload, plain, report)
    report.samples["traced_steps"] = len(traced_s)
    if not traced_s:
        return
    layer = report.per_layer
    for key in samples[0]:
        layer[key] = statistics.median(s[key] for s in samples)
    layer["kernels.flash.mpairs_per_s"] = (
        pairs / flash_s / 1e6 if flash_s else 0.0
    )
    if plain:
        layer["trace.overhead_ratio"] = (
            statistics.median(traced_s) / statistics.median(plain)
        )
    layer["trace.unattributed_share"] = (outer_s - self_s) / outer_s


def _layer_sample(timer, tiles, res, records) -> dict[str, float]:
    sample = {}
    for name in LAYERS:
        sample[f"{name}.self_ms"] = 1e3 * timer.self_s.get(name, 0.0)
    for name in ("kernels.flash_fwd", "kernels.flash_bwd", "kernels.mlp",
                 "comm"):
        sample[f"{name}.calls"] = float(timer.calls.get(name, 0))
    attempts = tiles["tiles_computed"] + tiles["tiles_skipped"]
    sample["kernels.tiles_computed"] = float(tiles["tiles_computed"])
    sample["kernels.tile_skip_fraction"] = (
        tiles["tiles_skipped"] / attempts if attempts else 0.0
    )
    for phase in ("attn-fwd", "attn-bwd", "fsdp"):
        sample[f"comm.bytes.{phase}"] = float(
            sum(r.nbytes for r in records if r.phase == phase)
        )
    sample["comm.bytes.inter-node"] = float(
        sum(r.nbytes for r in records if r.link is LinkClass.INTER)
    )
    sample["nn.checkpoint.recompute_gflop"] = res.recompute_flops / 1e9
    return sample
