"""Model substrate: specs, cost model, and forward-pass operator sequences.

Everything the paper gets from FasterTransformer + real models is rebuilt
here analytically: Table 1's model specifications, a roofline kernel cost
model per GPU, and the Megatron-partitioned per-device operator sequences
for both prefill ("general tasks") and KV-cache decode ("generative tasks").
"""

from repro import _lazy_exports

#: Every public name of the package, by the submodule that defines it.
_EXPORTS = {
    "ModelSpec": "specs",
    "MODELS": "specs",
    "OPT_8B": "specs",
    "OPT_13B": "specs",
    "OPT_30B": "specs",
    "OPT_66B": "specs",
    "OPT_175B": "specs",
    "GLM_130B": "specs",
    "MOE_16E": "specs",
    "KernelCostModel": "costs",
    "CostBreakdown": "costs",
    "OpDesc": "ops",
    "gemm_op": "ops",
    "attention_op": "ops",
    "elementwise_op": "ops",
    "allreduce_op": "ops",
    "all_to_all_op": "ops",
    "p2p_op": "ops",
    "layer_ops": "transformer",
    "moe_layer_ops": "moe",
    "moe_ffn_ops": "moe",
    "expert_capacity": "moe",
    "prefill_ops": "transformer",
    "embed_ops": "transformer",
    "lm_head_ops": "transformer",
    "decode_layer_ops": "kvcache",
    "decode_step_ops": "kvcache",
    "PipelineStage": "partition",
    "pipeline_stages": "partition",
    "boundary_bytes": "partition",
    "check_placement": "partition",
}

__all__ = list(_EXPORTS)
__getattr__ = _lazy_exports(__name__, _EXPORTS)
