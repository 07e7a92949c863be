#!/usr/bin/env python3
"""MoE expert parallelism: hide all-to-alls behind other batches' experts.

A Mixture-of-Experts layer replaces the dense FFN with a router plus
``num_experts`` expert FFNs, of which each token visits ``top_k``.  Under
expert parallelism the experts are spread across GPUs and every layer pays
two **all-to-all** exchanges — dispatch (tokens to their experts) and
combine (results back) — on top of the attention block's all-reduce.

That is a new resource class for Algorithm 1.  The default dichotomy
policy delimits primary runs by compute-vs-communication *kind*; the
``expert_overlap`` policy delimits them by resource class, so a dispatch
all-to-all window of one batch can be packed with expert GEMMs (and even
NVLink all-reduces) of other in-flight batches.

This example serves a 16-expert model twice with the same workload:

* ``no overlap`` — ``max_inflight=1``: one batch in flight, every
  all-to-all sits exposed on the wire (the Intra-Op regime);
* ``expert_overlap`` — a deep processing list under the overlap policy.

and asserts the overlap schedule finishes the same work strictly faster.

Run:
    python examples/moe_expert_parallel.py
"""

from repro.core import LigerConfig
from repro.hw import v100_nvlink_node
from repro.models import MOE_16E, expert_capacity
from repro.serving.api import make_strategy
from repro.serving.server import Server
from repro.serving.workload import general_trace


def _serve_makespan(model, node, *, max_inflight: int):
    config = LigerConfig(policy="expert_overlap", max_inflight=max_inflight)
    strategy = make_strategy("liger", model, node, config=config)
    server = Server(model, node, strategy, record_trace=False, check_memory=False)
    result = server.run(general_trace(24, 2000.0, 2, seed=0))
    return server.engine.now, strategy.stats, result


def main() -> None:
    model = MOE_16E.scaled_layers(2)
    node = v100_nvlink_node(4)
    ep = node.num_gpus
    tokens = 2 * 128  # largest prefill batch in the trace: batch 2 × seq 128
    print(
        f"{model.name} on {node.name}: {model.num_experts} experts, "
        f"top-{model.top_k} routing, expert parallelism {ep} "
        f"({model.num_experts // ep} experts/GPU, capacity "
        f"{expert_capacity(tokens, model.num_experts, model.top_k)} "
        f"tokens/expert at m={tokens})\n"
    )

    base_us, _, base_result = _serve_makespan(model, node, max_inflight=1)
    over_us, stats, over_result = _serve_makespan(model, node, max_inflight=6)

    print(f"no overlap      makespan {base_us / 1e3:8.2f} ms   "
          f"{base_result.summary()}")
    print(f"expert_overlap  makespan {over_us / 1e3:8.2f} ms   "
          f"{over_result.summary()}")
    speedup = base_us / over_us
    print(
        f"\nexpert_overlap speedup: {speedup:.3f}x "
        f"({stats.rounds_launched} rounds, "
        f"{stats.total_fill:.0f} us of secondary fill packed into "
        f"all-to-all/compute windows)"
    )

    # The point of the policy: the same kernels, strictly less wall time.
    assert stats.total_fill > 0, "expert_overlap packed no secondary work"
    assert speedup > 1.0, (
        f"expert overlap must beat no-overlap serving, got {speedup:.3f}x"
    )
    print("OK: overlap schedule strictly faster than no-overlap serving")


if __name__ == "__main__":
    main()
