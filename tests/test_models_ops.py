"""Tests for operator sequences: transformer prefill, decode, partitioning."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError, PartitionError
from repro.models import (
    GLM_130B,
    OPT_30B,
    boundary_bytes,
    decode_step_ops,
    layer_ops,
    pipeline_stages,
    prefill_ops,
)
from repro.models.ops import OpDesc, gemm_op, p2p_op
from repro.sim.kernel import KernelKind
from repro.units import FP16_BYTES


class TestOpDesc:
    def test_gemm_requires_shape(self):
        with pytest.raises(ConfigError):
            OpDesc(name="bad", op="gemm", kind=KernelKind.COMPUTE)

    def test_unknown_flavour_rejected(self):
        with pytest.raises(ConfigError):
            OpDesc(name="bad", op="conv", kind=KernelKind.COMPUTE)

    def test_collective_must_be_comm_kind(self):
        with pytest.raises(ConfigError):
            OpDesc(name="bad", op="all_reduce", kind=KernelKind.COMPUTE)

    def test_p2p_needs_endpoints(self):
        with pytest.raises(ConfigError):
            OpDesc(name="bad", op="p2p", kind=KernelKind.COMM, comm_bytes=1.0)
        ok = p2p_op("ok", 0, 1.0, 0, 1)
        assert ok.p2p_src == 0 and ok.p2p_dst == 1

    @pytest.mark.parametrize(
        "shape", [(4, 4), (), (4, 4, 4, 4), (4, 0, 4), (4, 4.0, 4), (True, 4, 4), [4, 4, 4]],
        ids=["two", "empty", "four", "zero", "float", "bool", "list"],
    )
    def test_gemm_shape_must_be_three_positive_ints(self, shape):
        """A malformed shape fails at construction, not later in the cost
        model's ``gemm_time``."""
        with pytest.raises(ConfigError, match="gemm needs a positive"):
            OpDesc(name="bad", op="gemm", kind=KernelKind.COMPUTE, gemm_shape=shape)

    def test_with_gemm_shape(self):
        op = gemm_op("g", 0, 128, 512, 512)
        split = op.with_gemm_shape(128, 512, 64)
        assert split.gemm_shape == (128, 512, 64)
        assert split.name == op.name


class TestLayerOps:
    def test_two_allreduces_per_layer_under_tp(self):
        """The Megatron scheme: exactly 2 all-reduces per transformer layer."""
        ops = layer_ops(OPT_30B, 2, 64, 4, layer=0)
        ars = [o for o in ops if o.op == "all_reduce"]
        assert len(ars) == 2

    def test_no_collectives_without_tp(self):
        ops = layer_ops(OPT_30B, 2, 64, 1, layer=0)
        assert all(not o.is_comm for o in ops)

    def test_gemm_shapes_partitioned_by_tp(self):
        ops = {o.name: o for o in layer_ops(OPT_30B, 2, 64, 4, layer=3)}
        m = 2 * 64
        h = OPT_30B.hidden_size
        assert ops["qkv_gemm_L3"].gemm_shape == (m, h, 3 * h // 4)
        assert ops["attn_out_gemm_L3"].gemm_shape == (m, h // 4, h)
        assert ops["mlp_gemm1_L3"].gemm_shape == (m, h, OPT_30B.ffn_size // 4)
        assert ops["mlp_gemm2_L3"].gemm_shape == (m, OPT_30B.ffn_size // 4, h)

    def test_allreduce_bytes_are_activation_size(self):
        ops = layer_ops(OPT_30B, 2, 64, 4, layer=0)
        ar = next(o for o in ops if o.op == "all_reduce")
        assert ar.comm_bytes == 2 * 64 * OPT_30B.hidden_size * FP16_BYTES

    def test_attention_heads_partitioned(self):
        ops = layer_ops(GLM_130B, 2, 32, 4, layer=0)
        attn = next(o for o in ops if o.op == "attention")
        assert attn.attn_heads == GLM_130B.num_heads // 4

    def test_type_switch_structure(self):
        """Compute runs alternate with comm ops — Algorithm 1's switch points."""
        ops = layer_ops(OPT_30B, 2, 64, 4, layer=0)
        kinds = [o.is_comm for o in ops]
        # compute..., comm, compute..., comm
        assert kinds == [False] * 4 + [True] + [False] * 3 + [True]

    def test_invalid_batch_rejected(self):
        with pytest.raises(ConfigError):
            layer_ops(OPT_30B, 0, 64, 1, layer=0)

    def test_invalid_tp_rejected(self):
        with pytest.raises(PartitionError):
            layer_ops(OPT_30B, 2, 64, 5, layer=0)


class TestPrefill:
    def test_full_prefill_counts(self):
        tp = 4
        ops = prefill_ops(OPT_30B, 2, 64, tp)
        ars = [o for o in ops if o.op == "all_reduce"]
        # 2 per layer + 1 logits collective
        assert len(ars) == 2 * OPT_30B.num_layers + 1
        assert ops[0].op == "embed"
        assert any(o.name == "lm_head_gemm" for o in ops)

    def test_layer_subset_omits_embed_and_head(self):
        ops = prefill_ops(OPT_30B, 2, 64, 1, layers=range(10, 20))
        assert all(o.op != "embed" for o in ops)
        assert all(o.name != "lm_head_gemm" for o in ops)

    def test_first_stage_has_embed_only(self):
        ops = prefill_ops(OPT_30B, 2, 64, 1, layers=range(0, 24))
        assert ops[0].op == "embed"
        assert all(o.name != "lm_head_gemm" for o in ops)

    def test_last_stage_has_head_only(self):
        ops = prefill_ops(OPT_30B, 2, 64, 1, layers=range(24, 48))
        assert ops[0].op != "embed"
        assert any(o.name == "lm_head_gemm" for o in ops)

    def test_empty_subset_rejected(self):
        with pytest.raises(ConfigError):
            prefill_ops(OPT_30B, 2, 64, 1, layers=[])


#: Layer subsets of a 4-layer model that are not a consecutive, increasing
#: run inside range(4): out of range, decreasing, repeated, negative (which
#: would collide with the pre/post-model ``layer=-1`` ops), with a gap.
BAD_LAYERS = [[2, 99], [3, 1], [1, 1], [-1], [0, 2], [4]]


class TestLayerSubsets:
    MODEL = OPT_30B.scaled_layers(4)

    @pytest.mark.parametrize("layers", BAD_LAYERS, ids=str)
    def test_prefill_rejects_a_non_contiguous_subset(self, layers):
        with pytest.raises(ConfigError, match="prefill_ops: layers"):
            prefill_ops(self.MODEL, 2, 64, 4, layers=layers)

    @pytest.mark.parametrize("layers", BAD_LAYERS, ids=str)
    def test_decode_rejects_a_non_contiguous_subset(self, layers):
        with pytest.raises(ConfigError, match="decode_step_ops: layers"):
            decode_step_ops(self.MODEL, 2, 64, 4, layers=layers)

    def test_decode_rejects_an_empty_subset(self):
        with pytest.raises(ConfigError, match="empty layer subset"):
            decode_step_ops(self.MODEL, 2, 64, 4, layers=[])

    @pytest.mark.parametrize("num_stages", [1, 2, 3, 4])
    def test_pipeline_stage_ranges_are_accepted(self, num_stages):
        """Every stage's range walks exactly its own layers, and the stages
        together walk the whole model once."""
        for enumerate_ops in (prefill_ops, decode_step_ops):
            walked = []
            for stage in pipeline_stages(self.MODEL, num_stages):
                ops = enumerate_ops(self.MODEL, 2, 64, 1, layers=stage.layers)
                walked += sorted({op.layer for op in ops} - {-1})
            assert walked == list(range(self.MODEL.num_layers))


class TestDecode:
    def test_decode_has_kv_append_and_single_row_gemms(self):
        ops = decode_step_ops(OPT_30B, 32, 16, 4)
        kv = [o for o in ops if o.op == "kv_append"]
        assert len(kv) == OPT_30B.num_layers
        qkv = next(o for o in ops if o.name == "qkv_gemm_L0")
        assert qkv.gemm_shape[0] == 32  # m = batch, not batch*seq

    def test_decode_attention_reads_context(self):
        ops = decode_step_ops(OPT_30B, 32, 16, 1)
        attn = next(o for o in ops if o.op == "attention")
        assert attn.attn_q_len == 1
        assert attn.attn_ctx_len == 17

    def test_decode_comm_bytes_much_smaller_than_prefill(self):
        d = next(
            o for o in decode_step_ops(OPT_30B, 32, 16, 4) if o.op == "all_reduce"
        )
        p = next(o for o in prefill_ops(OPT_30B, 32, 64, 4) if o.op == "all_reduce")
        assert d.comm_bytes < p.comm_bytes / 32

    def test_invalid_context_rejected(self):
        with pytest.raises(ConfigError):
            decode_step_ops(OPT_30B, 32, 0, 1)


class TestPipelinePartition:
    def test_equal_stages(self):
        stages = pipeline_stages(OPT_30B, 4)  # 48 / 4
        assert [s.num_layers for s in stages] == [12, 12, 12, 12]
        assert [s.device for s in stages] == [0, 1, 2, 3]

    def test_uneven_layers_front_loaded(self):
        stages = pipeline_stages(GLM_130B, 4)  # 70 / 4 = 18,18,17,17
        assert [s.num_layers for s in stages] == [18, 18, 17, 17]

    def test_stages_cover_all_layers_contiguously(self):
        stages = pipeline_stages(GLM_130B, 3)
        covered = [l for s in stages for l in s.layers]
        assert covered == list(range(GLM_130B.num_layers))

    def test_single_stage(self):
        stages = pipeline_stages(OPT_30B, 1)
        assert len(stages) == 1
        assert stages[0].num_layers == 48

    def test_too_many_stages_rejected(self):
        with pytest.raises(PartitionError):
            pipeline_stages(OPT_30B, 49)

    def test_boundary_bytes(self):
        assert boundary_bytes(OPT_30B, 2, 64) == 2 * 64 * 7168 * 2


class TestPrefillDecodeConsistency:
    """The two phases share the layer skeleton; only shapes differ."""

    def test_same_op_names_modulo_kv_append(self):
        prefill = [o.name for o in layer_ops(OPT_30B, 2, 64, 4, layer=3)]
        decode = [
            o.name
            for o in decode_step_ops(OPT_30B, 2, 64, 4, layers=[3],
                                     include_lm_head=False)
            if o.op != "kv_append"
        ]
        assert prefill == decode

    def test_same_collective_structure(self):
        def comm_bytes(ops):
            return [o.comm_bytes for o in ops if o.is_comm]

        prefill = layer_ops(OPT_30B, 4, 1, 4, layer=0)  # seq 1 == one token
        decode = decode_step_ops(OPT_30B, 4, 16, 4, layers=[0],
                                 include_lm_head=False)
        assert comm_bytes(prefill) == comm_bytes(decode)

    def test_decode_gemm_rows_are_batch_not_tokens(self):
        prefill = {o.name: o for o in layer_ops(OPT_30B, 4, 32, 4, layer=0)}
        decode = {
            o.name: o
            for o in decode_step_ops(OPT_30B, 4, 32, 4, layers=[0],
                                     include_lm_head=False)
        }
        assert prefill["qkv_gemm_L0"].gemm_shape[0] == 4 * 32
        assert decode["qkv_gemm_L0"].gemm_shape[0] == 4


@given(
    batch=st.integers(min_value=1, max_value=32),
    seq=st.integers(min_value=1, max_value=256),
    tp=st.sampled_from([1, 2, 4, 8]),
)
@settings(max_examples=50, deadline=None)
def test_layer_ops_work_conservation(batch, seq, tp):
    """Total GEMM FLOPs across tp devices must not depend on tp."""
    def layer_flops(tp_):
        ops = layer_ops(GLM_130B, batch, seq, tp_, layer=0)
        return tp_ * sum(
            2 * o.gemm_shape[0] * o.gemm_shape[1] * o.gemm_shape[2]
            for o in ops
            if o.op == "gemm"
        )

    assert layer_flops(tp) == layer_flops(1)
