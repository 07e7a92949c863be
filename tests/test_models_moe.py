"""Tests for MoE model substrate: specs, capacity, and operator sequences."""

from __future__ import annotations

import math

import pytest

from repro.core import LigerConfig
from repro.errors import ConfigError, PartitionError
from repro.hw import v100_nvlink_node
from repro.models import MOE_16E, MODELS, ModelSpec, expert_capacity
from repro.models.kvcache import decode_layer_ops
from repro.models.moe import moe_ffn_ops, moe_layer_ops, validate_ep
from repro.models.transformer import layer_ops
from repro.serving.api import make_strategy
from repro.serving.server import Server
from repro.serving.workload import general_trace
from repro.units import FP16_BYTES


class TestSpec:
    def test_moe_16e_registered(self):
        assert MODELS["MoE-16E"] is MOE_16E
        assert MOE_16E.is_moe
        assert MOE_16E.num_experts == 16
        assert MOE_16E.top_k == 2

    def test_dense_models_not_moe(self):
        assert not MODELS["OPT-30B"].is_moe

    def test_bad_top_k_rejected(self):
        with pytest.raises(ConfigError, match="top_k"):
            ModelSpec(
                name="bad", num_layers=2, num_heads=8, hidden_size=1024,
                num_experts=4, top_k=5,
            )
        with pytest.raises(ConfigError, match="num_experts"):
            ModelSpec(
                name="bad", num_layers=2, num_heads=8, hidden_size=1024,
                num_experts=-1,
            )

    def test_scaled_layers_keeps_expert_config(self):
        small = MOE_16E.scaled_layers(2)
        assert small.num_experts == 16
        assert small.top_k == 2
        assert small.is_moe

    def test_moe_params_count_expert_bank(self):
        # E expert FFN pairs ≫ one dense FFN pair: the MoE layer must be
        # substantially heavier than a dense layer of the same width.
        dense = ModelSpec(
            name="dense", num_layers=MOE_16E.num_layers,
            num_heads=MOE_16E.num_heads, hidden_size=MOE_16E.hidden_size,
        )
        assert MOE_16E.approx_params > 4 * dense.approx_params


class TestCapacityAndValidation:
    def test_expert_capacity_balanced(self):
        assert expert_capacity(256, 16, 2) == 32
        assert expert_capacity(256, 16, 1) == 16
        assert expert_capacity(1, 16, 2) == 1  # floor at one token

    def test_capacity_ceils(self):
        assert expert_capacity(100, 16, 2) == math.ceil(200 / 16)

    def test_validate_ep(self):
        validate_ep(MOE_16E, 4)
        with pytest.raises(PartitionError, match="not divisible"):
            validate_ep(MOE_16E, 5)
        with pytest.raises(PartitionError, match="ep must be >= 1"):
            validate_ep(MOE_16E, 0)
        with pytest.raises(ConfigError, match="not a MoE model"):
            validate_ep(MODELS["OPT-30B"], 4)


class TestFfnOps:
    def test_sharded_sequence_shape(self):
        ops = moe_ffn_ops(MOE_16E, 256, 4, layer=0)
        names = [o.op for o in ops]
        # ln2, router, dispatch, 4 local experts × 2 GEMMs, combine
        assert names == (
            ["elementwise", "gemm", "all_to_all"]
            + ["gemm"] * 8
            + ["all_to_all"]
        )
        dispatch = ops[2]
        assert dispatch.name == "a2a_dispatch_L0"
        assert dispatch.comm_bytes == pytest.approx(
            256 * 2 * MOE_16E.hidden_size * FP16_BYTES / 4
        )
        cap = expert_capacity(256, 16, 2)
        gemm1 = ops[3]
        assert gemm1.gemm_shape == (cap, MOE_16E.hidden_size, MOE_16E.ffn_size)
        gemm2 = ops[4]
        assert gemm2.gemm_shape == (cap, MOE_16E.ffn_size, MOE_16E.hidden_size)

    def test_ep1_has_no_exchanges_and_all_experts_local(self):
        ops = moe_ffn_ops(MOE_16E, 64, 1, layer=0)
        assert not any(o.op == "all_to_all" for o in ops)
        n_expert_gemms = sum(
            1 for o in ops if o.op == "gemm" and o.name.startswith("expert")
        )
        assert n_expert_gemms == 2 * 16

    def test_router_not_decomposable(self):
        ops = moe_ffn_ops(MOE_16E, 64, 4, layer=0)
        router = next(o for o in ops if o.name.startswith("router"))
        assert not router.decomposable
        assert router.gemm_shape == (64, MOE_16E.hidden_size, 16)


class TestLayerDelegation:
    def test_layer_ops_routes_to_moe(self):
        ops = layer_ops(MOE_16E, 2, 64, 4, layer=0)
        flavours = {o.op for o in ops}
        assert "all_to_all" in flavours
        assert "all_reduce" in flavours  # attention block keeps its AR
        # No dense MLP: every non-router/non-qkv GEMM is an expert GEMM.
        assert not any(o.name.startswith("mlp_gemm") for o in ops)
        assert ops == moe_layer_ops(MOE_16E, 2, 64, 4, layer=0)

    def test_decode_ops_route_to_moe(self):
        ops = decode_layer_ops(MOE_16E, 8, 16, 4, layer=0)
        assert any(o.op == "all_to_all" for o in ops)
        assert any(o.op == "kv_append" for o in ops)
        assert not any(o.name.startswith("mlp_gemm") for o in ops)
        # decode routes m = batch tokens
        dispatch = next(o for o in ops if o.name.startswith("a2a_dispatch"))
        assert dispatch.comm_bytes == pytest.approx(
            8 * 2 * MOE_16E.hidden_size * FP16_BYTES / 4
        )

    def test_dense_layers_unchanged(self):
        ops = layer_ops(MODELS["OPT-30B"], 2, 64, 4, layer=0)
        assert not any(o.op == "all_to_all" for o in ops)
        assert any(o.name.startswith("mlp_gemm") for o in ops)

    def test_indivisible_expert_bank_raises(self):
        model = ModelSpec(
            name="moe6", num_layers=2, num_heads=8, hidden_size=1024,
            num_experts=6, top_k=2,
        )
        with pytest.raises(PartitionError, match="not divisible"):
            layer_ops(model, 1, 16, 4, layer=0)


class TestExpertOverlapGain:
    def test_overlap_beats_single_batch_serving(self):
        """expert_overlap finishes the same MoE trace strictly faster."""
        model = MOE_16E.scaled_layers(2)
        node = v100_nvlink_node(4)

        def serve(max_inflight):
            # Each server numbers its batches from 0, so both runs see
            # the same kernels.
            config = LigerConfig(policy="expert_overlap", max_inflight=max_inflight)
            strategy = make_strategy("liger", model, node, config=config)
            server = Server(model, node, strategy, record_trace=False,
                            check_memory=False)
            server.run(general_trace(12, 2000.0, 2, seed=0))
            return server.engine.now, strategy.stats

        base_us, _ = serve(1)
        overlap_us, stats = serve(6)
        assert stats.total_fill > 0
        assert overlap_us < base_us
