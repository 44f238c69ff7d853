"""Tile planning: plan-driven kernels vs the dense-mask reference.

The TilePlan path changes *how* the flash kernels see the mask (per-block
classification, lazy partial tiles, skipped empties) but
must not change a single bit of the numerics.  These tests pin that:

* property tests draw random ``BlockSparseMask`` configurations and
  zigzag/striped shard pairs — including uneven block edges and GQA-shaped
  batches — and require exact agreement with the dense-mask kernels;
* the causal acceptance floor (>= 40 % of sub-tiles skipped) is asserted;
* the bench harness's smoke mode and its regression gate are exercised.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.kernels import (
    EMPTY,
    FULL,
    PARTIAL,
    BiasTileCache,
    TilePlan,
    counters,
    flash_attention_backward,
    flash_attention_forward,
    resolve_tiles,
    use_planning,
)
from repro.masks import (
    ALiBiMask,
    BlockSparseMask,
    CausalMask,
    SlidingWindowMask,
    sliding_window_block_mask,
)
from repro.partition import StripedPartitioner, ZigzagPartitioner


def _dense_for(mask, q_idx, k_idx):
    return mask.block(q_idx, k_idx)


def _run_both(q, k, v, do, mask, q_idx, k_idx, block_q, block_k):
    """Dense-path and plan-path fwd+bwd outputs for one shard pair."""
    dense = mask.block(q_idx, k_idx)
    bias = mask.bias_block(q_idx, k_idx)
    o0, l0 = flash_attention_forward(
        q, k, v, mask=dense, bias=bias, block_q=block_q, block_k=block_k
    )
    g0 = flash_attention_backward(
        q, k, v, o0, l0, do, mask=dense, bias=bias,
        block_q=block_q, block_k=block_k,
    )
    plan = TilePlan.build(
        mask, q_idx, k_idx, block_q, block_k, bias_cache=BiasTileCache()
    )
    o1, l1 = flash_attention_forward(q, k, v, plan=plan)
    g1 = flash_attention_backward(
        q, k, v, o1, l1, do, plan=plan
    )
    return (o0, l0, *g0), (o1, l1, *g1), plan


class TestPlanClassification:
    def test_states_never_contradict_dense_tiles(self):
        mask = CausalMask()
        idx = np.arange(96)
        plan = TilePlan.build(mask, idx, idx, 32, 32)
        for i in range(plan.n_q_blocks):
            for j in range(plan.n_k_blocks):
                q0, q1 = plan.q_range(i)
                k0, k1 = plan.k_range(j)
                tile = _dense_for(mask, idx[q0:q1], idx[k0:k1])
                state = plan.state(i, j)
                if state == FULL:
                    assert tile.all()
                elif state == EMPTY:
                    assert not tile.any()
                else:
                    assert state == PARTIAL

    def test_causal_contiguous_census(self):
        plan = TilePlan.build(CausalMask(), np.arange(128), np.arange(128),
                              32, 32)
        # 4x4 grid: diagonal partial, below full, above empty.
        assert plan.num_partial == 4
        assert plan.num_full == 6
        assert plan.num_empty == 6

    def test_assume_full_short_circuits(self):
        plan = TilePlan.build(
            CausalMask(), np.arange(64, 96), np.arange(0, 32), 8, 8,
            assume_full=True,
        )
        assert plan.num_full == plan.num_tiles

    def test_uneven_edges_cover_all_tokens(self):
        idx = np.arange(100)  # not a multiple of the 32-block
        plan = TilePlan.build(CausalMask(), idx, idx, 32, 32)
        assert plan.q_range(plan.n_q_blocks - 1) == (96, 100)
        computed, skipped = plan.pair_counts()
        assert computed + skipped == 100 * 100

    def test_plan_rejects_mismatched_geometry(self):
        plan = TilePlan.build(CausalMask(), np.arange(64), np.arange(64),
                              16, 16)
        q = np.zeros((2, 32, 8))
        with pytest.raises(ValueError, match="plan covers"):
            flash_attention_forward(q, q, q, plan=plan)

    def test_plan_and_dense_mask_are_mutually_exclusive(self):
        idx = np.arange(32)
        plan = TilePlan.build(CausalMask(), idx, idx, 16, 16)
        q = np.zeros((2, 32, 8))
        with pytest.raises(ValueError, match="not both"):
            flash_attention_forward(
                q, q, q, mask=np.ones((32, 32), bool), plan=plan
            )


class TestPlanNumericsMatchDense:
    @settings(deadline=None, max_examples=25)
    @given(
        seed=st.integers(0, 10_000),
        n_blocks=st.integers(2, 6),
        mask_block=st.sampled_from([8, 12, 16]),
        causal=st.booleans(),
        block_q=st.sampled_from([8, 16, 24]),
        block_k=st.sampled_from([8, 16, 24]),
    )
    def test_random_block_sparse(
        self, seed, n_blocks, mask_block, causal, block_q, block_k
    ):
        rng = np.random.default_rng(seed)
        bm = rng.random((n_blocks, n_blocks)) > 0.4
        mask = BlockSparseMask(mask_block, bm, intra_block_causal=causal)
        n = n_blocks * mask_block
        idx = np.arange(n)
        q, k, v, do = (rng.normal(size=(2, n, 8)) for _ in range(4))
        dense_out, plan_out, _ = _run_both(
            q, k, v, do, mask, idx, idx, block_q, block_k
        )
        for a, b in zip(dense_out, plan_out):
            np.testing.assert_array_equal(a, b)

    @settings(deadline=None, max_examples=15)
    @given(
        seed=st.integers(0, 10_000),
        partitioner=st.sampled_from(["zigzag", "striped"]),
        g=st.sampled_from([2, 4]),
        r1=st.integers(0, 3),
        r2=st.integers(0, 3),
        window=st.sampled_from([0, 24]),
    )
    def test_zigzag_striped_shard_pairs(
        self, seed, partitioner, g, r1, r2, window
    ):
        """Plan path equals dense path on real (non-contiguous) shard
        index pairs — the tiles the distributed ring actually resolves."""
        r1, r2 = r1 % g, r2 % g
        n = 16 * g
        part = (
            ZigzagPartitioner() if partitioner == "zigzag"
            else StripedPartitioner()
        )
        idxs = part.indices(n, g)
        mask = SlidingWindowMask(window) if window else CausalMask()
        rng = np.random.default_rng(seed)
        s_q, s_k = len(idxs[r1]), len(idxs[r2])
        q = rng.normal(size=(2, s_q, 8))
        do = rng.normal(size=(2, s_q, 8))
        k = rng.normal(size=(2, s_k, 8))
        v = rng.normal(size=(2, s_k, 8))
        dense_out, plan_out, _ = _run_both(
            q, k, v, do, mask, idxs[r1], idxs[r2], 8, 8
        )
        for a, b in zip(dense_out, plan_out):
            np.testing.assert_array_equal(a, b)

    @settings(deadline=None, max_examples=10)
    @given(seed=st.integers(0, 10_000), groups=st.sampled_from([2, 4]))
    def test_gqa_expanded_heads(self, seed, groups):
        """GQA runs the kernels on repeat_kv-expanded KV; the plan path
        must agree on those head-expanded batches too."""
        from repro.attention.gqa import repeat_kv

        rng = np.random.default_rng(seed)
        n, d, h_kv = 48, 8, 2
        q = rng.normal(size=(h_kv * groups, n, d))
        do = rng.normal(size=(h_kv * groups, n, d))
        k = repeat_kv(rng.normal(size=(h_kv, n, d)), groups)
        v = repeat_kv(rng.normal(size=(h_kv, n, d)), groups)
        idx = np.arange(n)
        dense_out, plan_out, _ = _run_both(
            q, k, v, do, ALiBiMask(h_kv * groups), idx, idx, 16, 16
        )
        for a, b in zip(dense_out, plan_out):
            np.testing.assert_array_equal(a, b)

    def test_uneven_block_edges_match(self):
        rng = np.random.default_rng(3)
        n = 90  # 90 / 32 leaves a 26-wide edge tile
        idx = np.arange(n)
        q, k, v, do = (rng.normal(size=(2, n, 8)) for _ in range(4))
        dense_out, plan_out, _ = _run_both(
            q, k, v, do, CausalMask(), idx, idx, 32, 32
        )
        for a, b in zip(dense_out, plan_out):
            np.testing.assert_array_equal(a, b)


class TestSkipAccounting:
    def test_causal_skips_at_least_40_percent(self):
        """The repo's acceptance floor: causal single-device fwd+bwd must
        skip >= 40 % of sub-tiles."""
        rng = np.random.default_rng(0)
        n = 512
        q, k, v, do = (rng.normal(size=(2, n, 16)) for _ in range(4))
        idx = np.arange(n)
        plan = TilePlan.build(CausalMask(), idx, idx, 64, 64)
        counters.reset()
        o, lse = flash_attention_forward(q, k, v, plan=plan)
        flash_attention_backward(q, k, v, o, lse, do, plan=plan)
        assert counters.skip_fraction >= 0.4
        assert counters.computed > 0

    def test_alibi_bias_tiles_cached_across_ring_steps(self):
        """Ring passes over a contiguous partition share ALiBi tiles:
        every off-diagonal step reuses the same relative-offset tiles."""
        from repro.attention.ring import ring_attention_forward
        from repro.comm import SimCommunicator
        from repro.comm.ring import global_ring_schedule
        from repro.partition import ContiguousPartitioner
        from repro.topology import make_cluster

        g, n, h, d = 4, 64, 2, 8
        topo = make_cluster(g, gpus_per_node=g)
        comm = SimCommunicator(topo)
        schedule = global_ring_schedule(topo)
        part = ContiguousPartitioner()
        idxs = part.indices(n, g)
        rng = np.random.default_rng(0)
        mask = ALiBiMask(h)
        qs = [rng.normal(size=(h, n // g, d)) for _ in range(g)]
        ks = [rng.normal(size=(h, n // g, d)) for _ in range(g)]
        vs = [rng.normal(size=(h, n // g, d)) for _ in range(g)]
        counters.reset()
        ring_attention_forward(
            comm, schedule, qs, ks, vs, idxs, mask=mask, block_size=8
        )
        assert counters.bias_tiles_reused > 0
        # Distinct relative offsets are far fewer than resolved tiles.
        assert counters.bias_tiles_built < counters.bias_tiles_reused

    def test_use_planning_toggle_restores_dense_resolution(self):
        mask = CausalMask()
        idx_q = np.arange(32)
        idx_k = np.arange(16)
        with use_planning(False):
            skip, plan, tile, bias = resolve_tiles(mask, idx_q, idx_k, 8)
            assert plan is None and tile is not None
        skip, plan, tile, bias = resolve_tiles(mask, idx_q, idx_k, 8)
        assert plan is not None and tile is None


class TestDistributedPathsPlanned:
    def test_ring_planned_equals_ring_dense(self):
        """End-to-end: a full distributed forward/backward is bit-identical
        with planning on and off."""
        from repro.attention.methods import get_method
        from repro.comm import SimCommunicator
        from repro.topology import make_cluster

        g, n, h, d = 4, 64, 2, 8
        rng = np.random.default_rng(1)
        q, k, v, do = (rng.normal(size=(h, n, d)) for _ in range(4))
        mask = CausalMask()
        outs = {}
        for planned in (False, True):
            method = get_method("megatron-cp", block_size=8)
            comm = SimCommunicator(make_cluster(g, gpus_per_node=g))
            idxs = method.indices(n, g)
            qs, ks, vs = (method.shard(x, g) for x in (q, k, v))
            with use_planning(planned):
                os_, lses, ctx = method.forward_shards(
                    comm, qs, ks, vs, idxs, mask, None
                )
                grads = method.backward_shards(comm, ctx, method.shard(do, g))
            outs[planned] = (os_, lses, *grads)
        for a_parts, b_parts in zip(outs[False], outs[True]):
            for a, b in zip(a_parts, b_parts):
                np.testing.assert_array_equal(a, b)


class TestBenchHarness:
    def test_kernel_smoke_suite_records_skips_and_identity(self):
        from repro.perf.bench import run_kernel_suite

        results = run_kernel_suite(smoke=True, repeats=1)
        by_name = {r["name"]: r for r in results}
        assert by_name["causal"]["skip_fraction"] >= 0.4
        for rec in results:
            assert rec["max_abs_diff"] <= 1e-12
            assert rec["tiles_skipped"] > 0

    def test_check_mode_flags_regressions(self):
        from repro.perf.bench import check_results

        rec = {
            "name": "causal", "params": {"seq": 1},
            "dense_s": 1.0, "planned_s": 1.0, "speedup": 1.2,
            "tiles_computed": 10, "tiles_skipped": 10,
            "skip_fraction": 0.5, "max_abs_diff": 0.0,
        }
        base = dict(rec, speedup=2.0)
        problems = check_results([rec], [base], tolerance=1.2, suite="kernels")
        assert any("regressed" in p for p in problems)
        # Tile-count drift is flagged even when speed is fine.
        drift = dict(rec, tiles_skipped=9, speedup=2.0)
        problems = check_results([drift], [base], tolerance=1.2,
                                 suite="kernels")
        assert any("tiles_skipped" in p for p in problems)
        # Numeric deviation always fails.
        bad = dict(rec, max_abs_diff=1e-9, speedup=2.0)
        problems = check_results([bad], [base], tolerance=1.2, suite="kernels")
        assert any("deviates" in p for p in problems)

    def test_cli_writes_json(self, tmp_path):
        from repro.perf.bench import main

        rc = main([
            "--suite", "kernels", "--smoke", "--repeats", "1",
            "--out", str(tmp_path),
        ])
        assert rc == 0
        payload = json.loads((tmp_path / "BENCH_kernels.json").read_text())
        assert payload["suite"] == "kernels"
        assert {"dense_s", "planned_s", "speedup", "tiles_computed",
                "tiles_skipped", "skip_fraction", "max_abs_diff"} <= set(
                    payload["results"][0])


class TestTilePlanInvariants:
    def test_closed_forms_match_measured_counts(self):
        from repro.testing import check_tile_plan_invariants

        report = check_tile_plan_invariants(seq_len=128, block_q=16,
                                            block_k=16)
        assert report.passed, report.summary()

    def test_uneven_kernel_blocks(self):
        from repro.testing import check_tile_plan_invariants

        report = check_tile_plan_invariants(seq_len=192, block_q=24,
                                            block_k=48)
        assert report.passed, report.summary()


def _shard_pairs(g=4, n=32):
    """Every (query-shard, key-shard) index pair of a contiguous
    partition (the upper triangle is skipped under causal masking)."""
    from repro.partition import ContiguousPartitioner

    idxs = ContiguousPartitioner().indices(n, g)
    return [(idxs[i], idxs[j]) for i in range(g) for j in range(g)]


class TestResolverCache:
    """``resolve_tiles`` builds each shard pair's plan once per pattern
    object and reuses it; every distinguishing input gets its own entry."""

    def test_same_inputs_reuse_one_plan(self):
        mask, idx = CausalMask(), np.arange(32)
        _, plan, _, _ = resolve_tiles(mask, idx, idx, 8)
        _, again, _, _ = resolve_tiles(mask, idx.copy(), np.arange(32), 8)
        assert again is plan

    @pytest.mark.parametrize("change", [
        "pattern", "contents", "block", "include_bias", "head_slice",
    ])
    def test_each_key_component_gets_its_own_entry(self, change):
        mask, idx = ALiBiMask(4), np.arange(32)
        base = dict(include_bias=True, head_slice=slice(0, 2))
        _, plan, _, _ = resolve_tiles(mask, idx, idx, 8, **base)
        args = [mask, idx, idx, 8]
        kw = dict(base)
        if change == "pattern":
            args[0] = ALiBiMask(4)  # equal parameters, distinct object
        elif change == "contents":
            args[2] = np.arange(32, 64)  # same length, other tokens
        elif change == "block":
            args[3] = 16
        elif change == "include_bias":
            kw["include_bias"] = False
        else:
            kw["head_slice"] = slice(2, 4)
        _, other, _, _ = resolve_tiles(*args, **kw)
        assert other is not plan
        _, again, _, _ = resolve_tiles(mask, idx, idx, 8, **base)
        assert again is plan

    def test_head_slices_select_their_heads_of_one_bias(self):
        mask, idx = ALiBiMask(4), np.arange(16)
        full = mask.bias_block(idx, idx)
        for h0 in (0, 2):
            _, plan, _, _ = resolve_tiles(
                mask, idx, idx, 16, head_slice=slice(h0, h0 + 2)
            )
            ((_, _, edits),) = plan.runs[0]
            np.testing.assert_array_equal(edits[0][3], full[h0:h0 + 2])

    def test_dropping_the_pattern_frees_its_entries(self):
        import gc
        import weakref

        from repro.kernels import tileplan

        mask, idx = SlidingWindowMask(6), np.arange(32)
        _, plan, _, _ = resolve_tiles(mask, idx, idx, 8)
        plan_ref, mask_ref = weakref.ref(plan), weakref.ref(mask)
        key = id(mask)
        assert key in tileplan._RESOLVED
        del mask, plan
        gc.collect()
        assert mask_ref() is None, "a cached plan must not pin its pattern"
        assert plan_ref() is None
        assert key not in tileplan._RESOLVED

    @pytest.mark.parametrize("make_mask", [
        CausalMask, lambda: ALiBiMask(2), lambda: SlidingWindowMask(6),
    ], ids=["causal", "alibi", "window"])
    def test_cached_resolution_counts_exactly_like_a_fresh_one(
        self, make_mask
    ):
        """Fresh (first) and cached (second) resolutions of every shard
        pair — skipped pairs included — add identical counter deltas,
        through the resolver and the kernel alike."""
        mask = make_mask()
        rng = np.random.default_rng(0)
        q, k, v, do = (rng.normal(size=(2, 8, 4)) for _ in range(4))

        def one_pass():
            counters.reset()
            skipped = 0
            for q_idx, k_idx in _shard_pairs():
                skip, plan, _, _ = resolve_tiles(mask, q_idx, k_idx, 4)
                if skip:
                    skipped += 1
                    continue
                o, lse = flash_attention_forward(q, k, v, plan=plan)
                flash_attention_backward(q, k, v, o, lse, do, plan=plan)
            return skipped, counters.snapshot()

        fresh = one_pass()
        cached = one_pass()
        assert cached == fresh
        assert fresh[0] > 0, "some shard pairs must be skipped"
        # ... and both equal the census of uncached plans: once for a
        # skipped pair, once per kernel call (fwd + bwd) otherwise.
        expected = np.zeros(5, dtype=np.int64)
        for q_idx, k_idx in _shard_pairs():
            census = TilePlan.build(mask, q_idx, k_idx, 4, 4).census[:5]
            skipped = mask.tile_state(q_idx, k_idx) == "empty"
            expected += (1 if skipped else 2) * np.array(census)
        fields = ("computed_full", "computed_partial", "skipped_empty",
                  "computed_pairs", "skipped_pairs")
        assert [fresh[1][f] for f in fields] == expected.tolist()

    def test_caller_edits_do_not_reach_a_cached_plan(self):
        mask = CausalMask()
        q_idx, k_idx = np.arange(16), np.arange(16)
        _, plan, _, _ = resolve_tiles(mask, q_idx, k_idx, 8)
        q_idx[:] = 100
        assert plan.q_idx[0] == 0 and not plan.q_idx.flags.writeable
        assert not plan.states.flags.writeable


class TestMaskImmutability:
    def test_block_sparse_mask_copies_and_freezes_its_matrix(self):
        bm = np.tril(np.ones((4, 4), dtype=bool))
        mask = BlockSparseMask(8, bm)
        idx = np.arange(32)
        before = mask.block(idx, idx).copy()
        bm[:] = False  # a later edit of the caller's array
        np.testing.assert_array_equal(mask.block(idx, idx), before)
        assert not mask.block_mask.flags.writeable

    def test_alibi_slopes_are_read_only(self):
        mask = ALiBiMask(4)
        with pytest.raises(ValueError):
            mask.slopes[0] = 0.0


def _engine_case(method, mask_name, seq=32, heads=4):
    from repro.engine import BurstEngine, EngineConfig
    from repro.nn import TransformerConfig
    from repro.topology import a800_node, make_cluster

    mask = {
        "causal": CausalMask(),
        "alibi": ALiBiMask(heads),
        "window": SlidingWindowMask(6),
    }[mask_name]
    kwargs = {"block_size": 4}
    if method == "burst-bidir":
        method, kwargs["ring_mode"] = "burst", "bidirectional"
    model = TransformerConfig(
        vocab_size=31, dim=16, n_layers=2, n_heads=heads, ffn_hidden=24,
        max_seq_len=seq, attn_block_size=4, seed=3, mask=mask,
    )
    engine = BurstEngine(
        EngineConfig(model=model, method=method, method_kwargs=kwargs),
        topology=make_cluster(4, node=a800_node(gpus_per_node=2)),
    )
    return engine, mask


class TestStepsReusePlans:
    """After the first training step every shard pair's plan comes from
    the cache, and each later step accounts exactly what step 1 did."""

    @pytest.mark.parametrize("mask_name", ["causal", "alibi", "window"])
    @pytest.mark.parametrize("method", [
        "burst", "burst-bidir", "megatron-cp", "loongtrain-double", "ulysses",
    ])
    def test_steps_two_and_three_build_nothing(
        self, method, mask_name, monkeypatch
    ):
        from repro.obs.mem import use_memory_timeline

        engine, mask = _engine_case(method, mask_name)
        calls = {"build": 0, "tile_state": 0}
        build = TilePlan.build.__func__
        tile_state = mask.tile_state

        def counting_build(cls, *args, **kwargs):
            calls["build"] += 1
            return build(cls, *args, **kwargs)

        def counting_tile_state(*args):
            calls["tile_state"] += 1
            return tile_state(*args)

        monkeypatch.setattr(TilePlan, "build", classmethod(counting_build))
        monkeypatch.setattr(mask, "tile_state", counting_tile_state)
        rng = np.random.default_rng(0)
        steps = []
        for _ in range(3):
            ids = rng.integers(0, 31, 32)
            before = dict(calls)
            counters.reset()
            with use_memory_timeline() as timeline:
                engine.train_step(ids, np.roll(ids, -1))
            scratch = sorted(
                (e.site, e.kind, e.delta) for e in timeline.events()
                if e.series == "transient" and e.site.startswith("flash.")
            )
            steps.append((
                {n: calls[n] - before[n] for n in calls},
                counters.snapshot(), scratch,
            ))
        assert steps[0][0]["build"] > 0
        assert steps[0][1]["tiles_computed"] > 0 and steps[0][2]
        for made, snap, scratch in steps[1:]:
            assert made == {"build": 0, "tile_state": 0}
            assert snap == steps[0][1]
            assert scratch == steps[0][2]
