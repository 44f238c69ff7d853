"""Benchmark regression harness (``python -m repro.perf.bench``).

Runs kernel- and attention-method microbenchmarks twice — once with the
legacy dense-mask path (``use_planning(False)``) and once with mask-aware
tile planning — and writes machine-readable results to ``BENCH_kernels.json``
and ``BENCH_attention.json`` at the repo root.  Each record carries the
configuration, wall-clock times, sub-tile skip accounting from
:data:`repro.kernels.tileplan.counters`, the dense-vs-planned speedup, and
the maximum numeric deviation between the two paths (gated at ``1e-12``).

``--check`` compares a fresh run against the committed JSON baselines:

* tile counts must match the baseline exactly (they are deterministic);
* per-case speedup must not regress below ``baseline / tolerance``;
* the causal kernel case must keep skipping >= 40 % of sub-tiles (always)
  and show a wall-clock win (full-size runs only — smoke configs are too
  small for skipped tiles to beat plan overhead).

Exit status is non-zero on any regression, which is what the CI
``perf-smoke`` job gates on.  ``--check`` still rewrites the JSON files so
CI uploads the fresh numbers as artifacts.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from repro.attention.methods import get_method
from repro.comm import SimCommunicator
from repro.topology import make_cluster
from repro.kernels import (
    BiasTileCache,
    TilePlan,
    counters,
    get_backend,
    use_planning,
)
from repro.masks import ALiBiMask, CausalMask, sliding_window_block_mask
from repro.masks.patterns import SlidingWindowMask

#: Required causal skip fraction (acceptance criterion).
CAUSAL_SKIP_FLOOR = 0.4

#: Numeric identity gate between dense and planned paths.
MAX_NUMERIC_DIFF = 1e-12


def repo_root() -> Path:
    return Path(__file__).resolve().parents[3]


# --- kernel suite -------------------------------------------------------------


def _kernel_cases(smoke: bool) -> list[dict]:
    s, d, h, blk = (256, 16, 2, 32) if smoke else (768, 32, 4, 64)
    return [
        {"name": "causal", "seq": s, "head_dim": d, "heads": h, "block": blk},
        {"name": "sliding-window", "seq": s, "head_dim": d, "heads": h,
         "block": blk, "window": s // 4},
        {"name": "block-sparse", "seq": s, "head_dim": d, "heads": h,
         "block": blk, "mask_block": s // 8, "window_blocks": 2},
        {"name": "alibi", "seq": s, "head_dim": d, "heads": h, "block": blk},
    ]


def _kernel_mask(case: dict):
    if case["name"] == "causal":
        return CausalMask()
    if case["name"] == "sliding-window":
        return SlidingWindowMask(case["window"])
    if case["name"] == "block-sparse":
        return sliding_window_block_mask(
            case["seq"], case["mask_block"], case["window_blocks"]
        )
    if case["name"] == "alibi":
        return ALiBiMask(case["heads"])
    raise ValueError(case["name"])


def _time_kernel_pass(q, k, v, do, mask, case, *, planned: bool, repeats: int):
    """One fwd+bwd measurement; returns (best_seconds, outputs, counters)."""
    s = case["seq"]
    blk = case["block"]
    idx = np.arange(s)
    best = float("inf")
    outs = None
    snap = None
    for _ in range(repeats):
        counters.reset()
        t0 = time.perf_counter()
        if planned:
            plan = TilePlan.build(
                mask, idx, idx, blk, blk, bias_cache=BiasTileCache()
            )
            backend = get_backend()
            o, lse = backend.flash_forward(q, k, v, plan=plan)
            grads = backend.flash_backward(
                q, k, v, o, lse, do, plan=plan
            )
        else:
            dense = mask.dense(s)
            bias = mask.bias_block(idx, idx)
            backend = get_backend()
            o, lse = backend.flash_forward(
                q, k, v, mask=dense, bias=bias, block_q=blk, block_k=blk
            )
            grads = backend.flash_backward(
                q, k, v, o, lse, do, mask=dense, bias=bias,
                block_q=blk, block_k=blk,
            )
        elapsed = time.perf_counter() - t0
        if elapsed < best:
            best = elapsed
            outs = (o, lse, *grads)
            snap = counters.snapshot()
    return best, outs, snap


def run_kernel_suite(smoke: bool, repeats: int) -> list[dict]:
    results = []
    rng = np.random.default_rng(0)
    for case in _kernel_cases(smoke):
        s, d, h = case["seq"], case["head_dim"], case["heads"]
        q, k, v, do = (rng.normal(size=(h, s, d)) for _ in range(4))
        mask = _kernel_mask(case)
        dense_s, dense_out, _ = _time_kernel_pass(
            q, k, v, do, mask, case, planned=False, repeats=repeats
        )
        plan_s, plan_out, snap = _time_kernel_pass(
            q, k, v, do, mask, case, planned=True, repeats=repeats
        )
        max_diff = max(
            float(np.max(np.abs(a - b))) for a, b in zip(dense_out, plan_out)
        )
        results.append({
            "name": case["name"],
            "params": {k_: v_ for k_, v_ in case.items() if k_ != "name"},
            "dense_s": dense_s,
            "planned_s": plan_s,
            "speedup": dense_s / plan_s if plan_s > 0 else float("inf"),
            "tiles_computed": snap["tiles_computed"],
            "tiles_skipped": snap["tiles_skipped"],
            "skip_fraction": snap["skip_fraction"],
            "bias_tiles_built": snap["bias_tiles_built"],
            "bias_tiles_reused": snap["bias_tiles_reused"],
            "max_abs_diff": max_diff,
        })
    return results


# --- kernel-backend suite -----------------------------------------------------

#: Required threaded speedup on the full-size causal flash forward — only
#: enforced when the host actually has >= 4 cores and the pool >= 4
#: workers (a 1-core runner cannot speed anything up; the JSON records
#: the honest numbers either way).
THREADED_SPEEDUP_FLOOR = 1.3
THREADED_GATE_MIN_CPUS = 4


def run_backends_suite(smoke: bool, repeats: int) -> list[dict]:
    """Every registered backend on the full-size causal flash kernels.

    Records per-backend forward / forward+backward wall time, the
    forward speedup over ``reference``, and whether every output and
    gradient is bitwise-equal to the reference backend's.
    """
    from repro.kernels import available_backends

    s, d, h, blk = (256, 16, 2, 32) if smoke else (768, 32, 4, 64)
    rng = np.random.default_rng(2)
    q, k, v, do = (rng.normal(size=(h, s, d)) for _ in range(4))
    mask = CausalMask()
    idx = np.arange(s)
    plan = TilePlan.build(mask, idx, idx, blk, blk)
    outs: dict[str, tuple] = {}
    times: dict[str, tuple[float, float]] = {}
    for name in available_backends():
        backend = get_backend(name)
        best_f = best_fb = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            o, lse = backend.flash_forward(q, k, v, plan=plan)
            fwd = time.perf_counter() - t0
            t0 = time.perf_counter()
            grads = backend.flash_backward(
                q, k, v, o, lse, do, plan=plan
            )
            bwd = time.perf_counter() - t0
            best_f = min(best_f, fwd)
            best_fb = min(best_fb, fwd + bwd)
        outs[name] = (o, lse, *grads)
        times[name] = (best_f, best_fb)
    ref = outs["reference"]
    ref_fwd = times["reference"][0]
    results = []
    for name in available_backends():
        backend = get_backend(name)
        bitwise = all(np.array_equal(a, b) for a, b in zip(ref, outs[name]))
        results.append({
            "name": name,
            "params": {"seq": s, "head_dim": d, "heads": h, "block": blk,
                       "mask": "causal"},
            "fwd_s": times[name][0],
            "fwd_bwd_s": times[name][1],
            "speedup_fwd": ref_fwd / times[name][0] if times[name][0] > 0
            else float("inf"),
            "bitwise_identical": bool(bitwise),
            "workers": getattr(backend, "workers", 1),
            "cpu_count": os.cpu_count() or 1,
        })
    return results


def check_backend_results(
    results: list[dict], baseline: list[dict] | None, *, smoke: bool
) -> list[str]:
    problems = []
    for rec in results:
        if not rec["bitwise_identical"]:
            problems.append(
                f"backends/{rec['name']}: outputs/grads not bitwise-equal "
                "to the reference backend"
            )
        gated = (
            rec["name"] == "threaded"
            and not smoke
            and rec["cpu_count"] >= THREADED_GATE_MIN_CPUS
            and rec["workers"] >= THREADED_GATE_MIN_CPUS
        )
        if gated and rec["speedup_fwd"] < THREADED_SPEEDUP_FLOOR:
            problems.append(
                f"backends/threaded: forward speedup "
                f"{rec['speedup_fwd']:.3f}x below the "
                f"{THREADED_SPEEDUP_FLOOR}x floor "
                f"({rec['cpu_count']} cpus, {rec['workers']} workers)"
            )
    return problems


# --- blockwise-MLP suite ------------------------------------------------------


def _mlp_cases(smoke: bool) -> list[dict]:
    if smoke:
        return [{"name": "chunk-64", "seq": 256, "dim": 32, "hidden": 128,
                 "chunk": 64}]
    return [
        {"name": "chunk-32", "seq": 1024, "dim": 48, "hidden": 192,
         "chunk": 32},
        {"name": "chunk-128", "seq": 1024, "dim": 48, "hidden": 192,
         "chunk": 128},
    ]


def run_mlp_suite(smoke: bool, repeats: int) -> list[dict]:
    """Dense composed SwiGLU vs the fused blockwise FFN.

    Gates bitwise identity of the output and all four gradients, times
    both paths, and pins the persistent saved-bytes closed forms of
    :mod:`repro.perf.memory` against the live memory tracker.
    """
    from repro.nn.memory import get_tracker
    from repro.nn.modules import SwiGLU
    from repro.nn.tensor import Tensor
    from repro.perf.memory import (
        swiglu_dense_saved_bytes,
        swiglu_fused_saved_bytes,
    )

    results = []
    rng = np.random.default_rng(3)
    for case in _mlp_cases(smoke):
        s, d, hid, chunk = (
            case["seq"], case["dim"], case["hidden"], case["chunk"]
        )
        x_data = rng.normal(size=(s, d))
        dy = rng.normal(size=(s, d))

        def run(chunk_size):
            tracker = get_tracker()
            base = tracker.current_saved_bytes
            module = SwiGLU(
                d, hid, np.random.default_rng(7), mlp_chunk_size=chunk_size
            )
            best = float("inf")
            for _ in range(repeats):
                x = Tensor(x_data.copy(), requires_grad=True)
                t0 = time.perf_counter()
                y = module(x)
                saved = tracker.current_saved_bytes - base
                y.backward(dy)
                best = min(best, time.perf_counter() - t0)
            grads = (
                x.grad, module.gate.weight.grad, module.up.weight.grad,
                module.down.weight.grad,
            )
            return best, (y.data, *grads), saved

        dense_s, dense_out, dense_saved = run(None)
        chunk_s, chunk_out, chunk_saved = run(chunk)
        max_diff = max(
            float(np.max(np.abs(a - b)))
            for a, b in zip(dense_out, chunk_out)
        )
        closed_ok = (
            dense_saved == swiglu_dense_saved_bytes(s, d, hid)
            and chunk_saved == swiglu_fused_saved_bytes(s, d, hid)
        )
        results.append({
            "name": case["name"],
            "params": {k_: v_ for k_, v_ in case.items() if k_ != "name"},
            "dense_s": dense_s,
            "blockwise_s": chunk_s,
            "dense_saved_bytes": dense_saved,
            "blockwise_saved_bytes": chunk_saved,
            "saved_bytes_reduction": (
                dense_saved / chunk_saved if chunk_saved else float("inf")
            ),
            "closed_form_ok": bool(closed_ok),
            "max_abs_diff": max_diff,
        })
    return results


def check_mlp_results(
    results: list[dict], baseline: list[dict] | None
) -> list[str]:
    problems = []
    for rec in results:
        if rec["max_abs_diff"] != 0.0:
            problems.append(
                f"mlp/{rec['name']}: blockwise path deviates from the "
                f"composed dense FFN by {rec['max_abs_diff']:.3e} "
                "(must be bitwise-identical)"
            )
        if not rec["closed_form_ok"]:
            problems.append(
                f"mlp/{rec['name']}: tracker-measured saved bytes diverge "
                "from the repro.perf.memory closed forms"
            )
        if rec["saved_bytes_reduction"] <= 1.0:
            problems.append(
                f"mlp/{rec['name']}: no peak-memory reduction "
                f"({rec['saved_bytes_reduction']:.2f}x)"
            )
    if baseline is not None:
        base_by_name = {r["name"]: r for r in baseline}
        for rec in results:
            base = base_by_name.get(rec["name"])
            if base is None or base.get("params") != rec.get("params"):
                continue
            for key in ("dense_saved_bytes", "blockwise_saved_bytes"):
                if rec[key] != base[key]:
                    problems.append(
                        f"mlp/{rec['name']}: {key} changed "
                        f"{base[key]} -> {rec[key]} (deterministic count)"
                    )
    return problems


# --- attention-method suite ---------------------------------------------------


def _method_cases(smoke: bool) -> list[dict]:
    g = 4
    s, d, h, blk = (128, 8, 4, 16) if smoke else (256, 16, 4, 32)
    names = ["megatron-cp", "burst", "loongtrain-double"]
    if not smoke:
        names.append("usp")
    return [
        {"name": name, "world": g, "seq": s, "head_dim": d, "heads": h,
         "block": blk}
        for name in names
    ]


def _run_method(case: dict, q, k, v, do, mask) -> tuple[float, tuple]:
    kwargs = {"block_size": case["block"]}
    if case["name"] == "usp":
        kwargs["ulysses_degree"] = 2
    method = get_method(case["name"], **kwargs)
    g = case["world"]
    comm = SimCommunicator(make_cluster(g, gpus_per_node=max(2, g // 2)))
    s = case["seq"]
    idxs = method.indices(s, g)
    qs, ks, vs = method.shard(q, g), method.shard(k, g), method.shard(v, g)
    t0 = time.perf_counter()
    os_, lses, ctx = method.forward_shards(comm, qs, ks, vs, idxs, mask, None)
    dos = method.shard(do, g)
    dqs, dks, dvs = method.backward_shards(comm, ctx, dos)
    elapsed = time.perf_counter() - t0
    flat = tuple(
        np.concatenate(parts, axis=-2)
        for parts in (os_, dqs, dks, dvs)
    )
    return elapsed, flat


def run_attention_suite(smoke: bool, repeats: int) -> list[dict]:
    results = []
    rng = np.random.default_rng(1)
    mask = CausalMask()
    for case in _method_cases(smoke):
        s, d, h = case["seq"], case["head_dim"], case["heads"]
        q, k, v, do = (rng.normal(size=(h, s, d)) for _ in range(4))
        dense_s = float("inf")
        plan_s = float("inf")
        dense_out = plan_out = None
        snap = None
        for _ in range(repeats):
            with use_planning(False):
                t, out = _run_method(case, q, k, v, do, mask)
            if t < dense_s:
                dense_s, dense_out = t, out
            counters.reset()
            with use_planning(True):
                t, out = _run_method(case, q, k, v, do, mask)
            if t < plan_s:
                plan_s, plan_out = t, out
                snap = counters.snapshot()
        max_diff = max(
            float(np.max(np.abs(a - b))) for a, b in zip(dense_out, plan_out)
        )
        results.append({
            "name": case["name"],
            "params": {k_: v_ for k_, v_ in case.items() if k_ != "name"},
            "dense_s": dense_s,
            "planned_s": plan_s,
            "speedup": dense_s / plan_s if plan_s > 0 else float("inf"),
            "tiles_computed": snap["tiles_computed"],
            "tiles_skipped": snap["tiles_skipped"],
            "skip_fraction": snap["skip_fraction"],
            "max_abs_diff": max_diff,
        })
    return results


# --- baseline gate ------------------------------------------------------------


def check_results(
    results: list[dict], baseline: list[dict] | None, tolerance: float,
    suite: str, *, smoke: bool = False,
) -> list[str]:
    """Return a list of human-readable regression messages (empty = pass)."""
    if suite == "backends":
        return check_backend_results(results, baseline, smoke=smoke)
    if suite == "mlp":
        return check_mlp_results(results, baseline)
    problems = []
    for rec in results:
        if rec["max_abs_diff"] > MAX_NUMERIC_DIFF:
            problems.append(
                f"{suite}/{rec['name']}: planned path deviates from dense "
                f"by {rec['max_abs_diff']:.3e} (> {MAX_NUMERIC_DIFF})"
            )
    causal = next(
        (r for r in results if r["name"] in ("causal", "megatron-cp")), None
    )
    if suite == "kernels" and causal is not None:
        if causal["skip_fraction"] < CAUSAL_SKIP_FLOOR:
            problems.append(
                f"kernels/causal: skip fraction {causal['skip_fraction']:.3f}"
                f" below the {CAUSAL_SKIP_FLOOR:.0%} acceptance floor"
            )
        # The wall-clock-win criterion only applies at full size: smoke
        # configs are too small for skipped tiles to beat plan overhead.
        if not smoke and causal["speedup"] <= 1.0:
            problems.append(
                f"kernels/causal: no wall-clock win (speedup "
                f"{causal['speedup']:.3f}x)"
            )
    if baseline is None:
        return problems
    base_by_name = {r["name"]: r for r in baseline}
    for rec in results:
        base = base_by_name.get(rec["name"])
        if base is None:
            continue
        if base.get("params") != rec.get("params"):
            continue  # config changed; counts incomparable
        for key in ("tiles_computed", "tiles_skipped"):
            if rec[key] != base[key]:
                problems.append(
                    f"{suite}/{rec['name']}: {key} changed "
                    f"{base[key]} -> {rec[key]} (deterministic count)"
                )
        floor = base["speedup"] / tolerance
        if rec["speedup"] < floor:
            problems.append(
                f"{suite}/{rec['name']}: speedup regressed "
                f"{base['speedup']:.3f}x -> {rec['speedup']:.3f}x "
                f"(floor {floor:.3f}x at tolerance {tolerance}x)"
            )
    return problems


_SCHEMAS = {
    "backends": {
        "fwd_s": "best wall-clock of the causal flash forward (s)",
        "fwd_bwd_s": "best wall-clock of forward + backward (s)",
        "speedup_fwd": "reference fwd_s / this backend's fwd_s",
        "bitwise_identical": "o/lse/dq/dk/dv bitwise-equal to reference",
        "workers": "thread-pool size (1 for sequential backends)",
        "cpu_count": "os.cpu_count() on the benchmarking host",
    },
    "mlp": {
        "dense_s": "best fwd+bwd wall-clock of the composed SwiGLU (s)",
        "blockwise_s": "best fwd+bwd wall-clock of the fused blockwise FFN (s)",
        "dense_saved_bytes": "tracker-measured persistent saves, composed path",
        "blockwise_saved_bytes": "tracker-measured persistent saves, fused path",
        "saved_bytes_reduction": "dense_saved_bytes / blockwise_saved_bytes",
        "closed_form_ok": "saves match repro.perf.memory closed forms exactly",
        "max_abs_diff": "max |dense - blockwise| over y and all four grads",
    },
}

_DEFAULT_SCHEMA = {
    "dense_s": "best wall-clock of the dense-mask baseline (s)",
    "planned_s": "best wall-clock of the tile-planned path (s)",
    "speedup": "dense_s / planned_s",
    "tiles_computed": "sub-tiles executed by the planned path",
    "tiles_skipped": "sub-tiles skipped as empty",
    "skip_fraction": "tiles_skipped / (computed + skipped)",
    "max_abs_diff": "max |dense - planned| over outputs and grads",
}


def _payload(results: list[dict], suite: str, smoke: bool) -> dict:
    return {
        "suite": suite,
        "smoke": smoke,
        "schema": _SCHEMAS.get(suite, _DEFAULT_SCHEMA),
        "results": results,
    }


def _print_record(suite: str, rec: dict) -> None:
    if suite == "backends":
        print(
            f"[{suite}] {rec['name']:<18} fwd {rec['fwd_s']*1e3:8.2f}ms"
            f"  fwd+bwd {rec['fwd_bwd_s']*1e3:8.2f}ms"
            f"  speedup {rec['speedup_fwd']:5.2f}x"
            f"  workers {rec['workers']}"
            f"  bitwise {'yes' if rec['bitwise_identical'] else 'NO'}"
        )
    elif suite == "mlp":
        print(
            f"[{suite}] {rec['name']:<18} dense {rec['dense_s']*1e3:8.2f}ms"
            f"  blockwise {rec['blockwise_s']*1e3:8.2f}ms"
            f"  saved {rec['dense_saved_bytes']:>9d}B ->"
            f" {rec['blockwise_saved_bytes']:>7d}B"
            f" ({rec['saved_bytes_reduction']:4.1f}x)"
            f"  maxdiff {rec['max_abs_diff']:.2e}"
        )
    else:
        print(
            f"[{suite}] {rec['name']:<18} dense {rec['dense_s']*1e3:8.2f}ms"
            f"  planned {rec['planned_s']*1e3:8.2f}ms"
            f"  speedup {rec['speedup']:5.2f}x"
            f"  skip {rec['skip_fraction']:6.1%}"
            f"  maxdiff {rec['max_abs_diff']:.2e}"
        )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.perf.bench",
        description="kernel/attention microbenchmarks with a JSON "
        "regression gate",
    )
    parser.add_argument(
        "--suite",
        choices=["kernels", "attention", "backends", "mlp", "all"],
        default="all",
    )
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--smoke", action="store_true",
                        help="small configs for CI")
    parser.add_argument("--check", action="store_true",
                        help="fail on regression vs the committed baseline")
    parser.add_argument("--tolerance", type=float, default=1.5,
                        help="allowed speedup regression factor in --check")
    parser.add_argument("--out", type=Path, default=None,
                        help="output directory (default: repo root)")
    args = parser.parse_args(argv)

    out_dir = args.out or repo_root()
    out_dir.mkdir(parents=True, exist_ok=True)
    suites = []
    if args.suite in ("kernels", "all"):
        suites.append(("kernels", run_kernel_suite))
    if args.suite in ("attention", "all"):
        suites.append(("attention", run_attention_suite))
    if args.suite in ("backends", "all"):
        suites.append(("backends", run_backends_suite))
    if args.suite in ("mlp", "all"):
        suites.append(("mlp", run_mlp_suite))

    problems = []
    for suite, runner in suites:
        path = out_dir / f"BENCH_{suite}.json"
        baseline = None
        if args.check and path.exists():
            baseline = json.loads(path.read_text()).get("results")
        results = runner(args.smoke, args.repeats)
        if args.check:
            problems += check_results(
                results, baseline, args.tolerance, suite, smoke=args.smoke
            )
        path.write_text(
            json.dumps(_payload(results, suite, args.smoke), indent=2)
            + "\n"
        )
        for rec in results:
            _print_record(suite, rec)
        print(f"wrote {path}")

    if problems:
        print("\nREGRESSIONS:", file=sys.stderr)
        for p in problems:
            print(f"  - {p}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
