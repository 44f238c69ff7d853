"""Kernel backend registry: selection API, bitwise identity, spans.

The registry contract is that a backend is an *implementation* choice,
never a *semantics* choice: every registered backend must be
bitwise-indistinguishable from ``reference`` on every input the kernels
accept (dense masks, additive bias, tile plans, ragged block edges).
These tests pin that contract for the ``threaded`` worker-pool backend,
plus the selection plumbing (env var, ``set_backend``, nested
``use_backend``) and the observability satellite (``backend``-labelled
kernel spans feeding the per-backend report breakdown).
"""

from dataclasses import replace

import numpy as np
import pytest

import repro.kernels.backend as backend_mod
from repro.kernels import (
    ReferenceBackend,
    ThreadedBackend,
    TilePlan,
    available_backends,
    counters,
    current_backend_name,
    get_backend,
    register_backend,
    set_backend,
    use_backend,
)
from repro.kernels.backend import BACKEND_ENV_VAR, WORKERS_ENV_VAR
from repro.masks import ALiBiMask, CausalMask
from repro.masks.patterns import SlidingWindowMask
from repro.obs import spans_to_chrome_json, use_tracing
from repro.obs.report import kernel_time_by_backend
from repro.testing.differential import FuzzCase, check_case, fuzz, shrink_case


class TestRegistry:
    def test_reference_is_first_and_threaded_registered(self):
        names = available_backends()
        assert names[0] == "reference"
        assert "threaded" in names

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            get_backend("no-such-backend")

    def test_duplicate_registration_rejected_unless_replace(self):
        with pytest.raises(ValueError, match="already registered"):
            register_backend("reference", ReferenceBackend)
        register_backend("reference", ReferenceBackend, replace=True)
        assert get_backend("reference").name == "reference"

    def test_named_lookup_does_not_change_active(self):
        set_backend("reference")
        assert get_backend("threaded").name == "threaded"
        assert current_backend_name() == "reference"

    def test_use_backend_nests_and_restores(self):
        set_backend("reference")
        with use_backend("threaded"):
            assert current_backend_name() == "threaded"
            with use_backend("reference"):
                assert current_backend_name() == "reference"
            assert current_backend_name() == "threaded"
        assert current_backend_name() == "reference"

    def test_env_var_selects_default(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "threaded")
        monkeypatch.setattr(backend_mod, "_active", None)
        assert get_backend().name == "threaded"

    def test_workers_env_var_and_validation(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "2")
        assert ThreadedBackend().workers == 2
        with pytest.raises(ValueError, match="workers"):
            ThreadedBackend(workers=0)


def _qkvdo(rng, heads, seq, dim):
    return (rng.normal(size=(heads, seq, dim)) for _ in range(4))


def _run_flash(backend, q, k, v, do, **kw):
    o, lse = backend.flash_forward(q, k, v, **kw)
    dq, dk, dv = backend.flash_backward(q, k, v, o, lse, do, **kw)
    return o, lse, dq, dk, dv


class TestBitwiseIdentity:
    """threaded must reproduce reference bit for bit, not approximately."""

    @pytest.mark.parametrize("case", [
        {"name": "plain", "seq": 100, "heads": 3, "dim": 16},
        {"name": "dense-causal", "seq": 96, "heads": 2, "dim": 8,
         "mask": "causal"},
        {"name": "dense-window", "seq": 96, "heads": 2, "dim": 8,
         "mask": "window"},
        {"name": "alibi-bias", "seq": 80, "heads": 4, "dim": 8,
         "mask": "causal", "bias": True},
        {"name": "planned-causal", "seq": 128, "heads": 2, "dim": 16,
         "plan": "causal"},
        {"name": "ragged-tail", "seq": 70, "heads": 2, "dim": 8},
    ], ids=lambda c: c["name"])
    def test_flash_matches_reference(self, case):
        rng = np.random.default_rng(11)
        s, h, d = case["seq"], case["heads"], case["dim"]
        q, k, v, do = _qkvdo(rng, h, s, d)
        kw = {"block_q": 32, "block_k": 32}
        if case.get("mask") == "causal":
            kw["mask"] = CausalMask().dense(s)
        elif case.get("mask") == "window":
            kw["mask"] = SlidingWindowMask(window=s // 4).dense(s)
        if case.get("bias"):
            idx = np.arange(s)
            kw["bias"] = ALiBiMask(n_heads=h).bias_block(idx, idx)
        if case.get("plan") == "causal":
            idx = np.arange(s)
            kw = {"plan": TilePlan.build(CausalMask(), idx, idx, 32, 32)}
        ref = _run_flash(get_backend("reference"), q, k, v, do, **kw)
        thr = _run_flash(get_backend("threaded"), q, k, v, do, **kw)
        for name, a, b in zip(("o", "lse", "dq", "dk", "dv"), ref, thr):
            assert np.array_equal(a, b), f"{case['name']}: {name} diverged"

    def test_single_block_and_single_worker_fallbacks(self):
        rng = np.random.default_rng(5)
        q, k, v, do = _qkvdo(rng, 2, 24, 8)  # one 32-row q block
        ref = _run_flash(get_backend("reference"), q, k, v, do)
        thr = _run_flash(get_backend("threaded"), q, k, v, do)
        solo = ThreadedBackend(workers=1)
        try:
            one = _run_flash(solo, q, k, v, do)
        finally:
            solo.close()
        for a, b, c in zip(ref, thr, one):
            assert np.array_equal(a, b)
            assert np.array_equal(a, c)

    def test_tile_counters_match_reference(self):
        rng = np.random.default_rng(7)
        q, k, v, do = _qkvdo(rng, 2, 128, 8)
        idx = np.arange(128)
        plan = TilePlan.build(CausalMask(), idx, idx, 32, 32)

        def counted(backend):
            counters.reset()
            _run_flash(backend, q, k, v, do, plan=plan)
            snap = counters.snapshot()
            return {k_: snap[k_] for k_ in (
                "tiles_computed", "tiles_skipped", "computed_pairs",
            )}

        assert counted(get_backend("reference")) == \
            counted(get_backend("threaded"))


class TestLabeledTileCounts:
    """Each backend's tile counts also land under ``backend=<name>``;
    the labeled values must equal the unlabeled deltas."""

    @pytest.mark.parametrize("name", ["reference", "threaded"])
    def test_labeled_counts_equal_unlabeled(self, name):
        from repro.kernels import resolve_tiles
        from repro.kernels.tileplan import _TILE_FIELDS
        from repro.obs.metrics import get_registry

        rng = np.random.default_rng(4)
        q, k, v, do = _qkvdo(rng, 2, 96, 8)
        idx = np.arange(96)
        mask = ALiBiMask(n_heads=2)
        _, plan, _, _ = resolve_tiles(mask, idx, idx, 32)
        counters.reset()
        _run_flash(get_backend(name), q, k, v, do, plan=plan)
        _run_flash(get_backend(name), q, k, v, do, plan=plan)
        registry = get_registry()
        other = "threaded" if name == "reference" else "reference"
        for field in _TILE_FIELDS:
            metric = registry.counter(f"tileplan.{field}")
            assert metric.value(backend=name) == metric.value(), field
            assert metric.value(backend=other) == 0, field
        assert counters.skipped_empty > 0 and counters.bias_tiles_reused > 0


class TestSpanLabels:
    def test_kernel_spans_carry_backend_and_report_groups_them(self):
        rng = np.random.default_rng(3)
        q, k, v, do = _qkvdo(rng, 2, 96, 8)
        x = rng.normal(size=(64, 16))
        wg = rng.normal(size=(48, 16))
        wu = rng.normal(size=(48, 16))
        wd = rng.normal(size=(16, 48))
        with use_tracing() as tracer:
            _run_flash(get_backend("reference"), q, k, v, do)
            _run_flash(get_backend("threaded"), q, k, v, do)
            get_backend("reference").mlp_forward(x, wg, wu, wd)
            get_backend("threaded").mlp_forward(x, wg, wu, wd, chunk_size=16)
        spans = tracer.spans()
        kernel = [s for s in spans
                  if s.name.startswith(("flash.", "mlp."))]
        assert kernel, "no kernel spans recorded"
        assert all("backend" in s.attrs for s in kernel)
        payload = spans_to_chrome_json(spans)
        by_backend = kernel_time_by_backend(payload)
        assert set(by_backend) == {"reference", "threaded"}
        for per in by_backend.values():
            assert per["total"] > 0.0
        assert "flash.fwd" in by_backend["threaded"]
        assert "mlp.fwd" in by_backend["reference"]


class TestFuzzBackendAxis:
    BASE = FuzzCase(
        method="burst", mask="causal", nodes=1, gpn=2,
        seq_len=16, head_dim=4, n_heads=2,
    )

    def test_spec_roundtrip_keeps_backend(self):
        case = replace(self.BASE, backend="threaded")
        assert "backend=threaded" in case.spec()
        assert FuzzCase.parse(case.spec()) == case
        # default backend stays out of the spec (stable repro strings)
        assert "backend" not in self.BASE.spec()

    def test_check_case_runs_under_requested_backend(self):
        passed, detail = check_case(replace(self.BASE, backend="threaded"))
        assert passed, detail

    def test_shrinker_tries_reference_backend_first(self):
        seen = []

        def fails(c):
            seen.append(c)
            return False

        case = replace(self.BASE, backend="threaded")
        assert shrink_case(case, fails) == case  # nothing simpler fails
        assert seen[0].backend == "reference"

    def test_fuzz_smoke_forced_onto_threaded(self):
        result = fuzz(seed=3, budget=4, smoke=True, backend="threaded")
        assert result.cases_run == 4
        assert not result.failures, result.summary()
