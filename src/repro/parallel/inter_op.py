"""Inter-operator (pipeline) parallelism — the GPipe-style baseline (§4.1).

The model is split into equal contiguous stages, one per device; a batch
flows through the stages with a single point-to-point activation transfer at
each boundary.  Pipelining falls out of stream FIFO order plus collective
rendezvous: each stage's stream processes batches in arrival order, and a
stage's receive kernel blocks (occupying only its copy-engine footprint)
until the upstream send is admitted.  Throughput approaches ``p×`` a single
device once the pipeline fills; latency is never better than a full
single-device traversal — the §2.2.2 trade-off.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.models.ops import p2p_op
from repro.models.partition import PipelineStage, boundary_bytes, pipeline_stages
from repro.parallel.base import (
    KernelFunc,
    ParallelStrategy,
    instantiate_op,
    instantiate_run,
)
from repro.serving.request import Batch, Phase
from repro.sim.events import CudaEvent
from repro.sim.kernel import Kernel
from repro.sim.stream import Stream
from repro.units import FP16_BYTES

__all__ = ["InterOpStrategy"]


class InterOpStrategy(ParallelStrategy):
    """Equal-stage pipeline parallelism with p2p boundary transfers."""

    name = "inter"

    def __init__(self, model, node, *, profiler=None, num_stages: Optional[int] = None):
        super().__init__(model, node, profiler=profiler)
        self.stages: List[PipelineStage] = pipeline_stages(
            model, num_stages or node.num_gpus
        )
        # A pipeline batch occupies one stage at a time: its steady-state
        # per-device memory footprint is 1/num_stages of the shard.
        self.memory_share = 1.0 / len(self.stages)

    def bind(self, machine, host, *, track_memory=True) -> None:
        super().bind(machine, host, track_memory=track_memory)
        # Compute stream plus dedicated ingress/egress transfer streams per
        # stage device: boundary transfers must not block the compute stream,
        # or the pipeline degrades to synchronous handoffs (a stage would be
        # unable to start batch k+1 until downstream accepted batch k).
        self._streams: Dict[int, Stream] = {
            s.device: machine.gpu(s.device).stream("main") for s in self.stages
        }
        self._pipe_in: Dict[int, Stream] = {
            s.device: machine.gpu(s.device).stream("pipe_in") for s in self.stages
        }
        self._pipe_out: Dict[int, Stream] = {
            s.device: machine.gpu(s.device).stream("pipe_out") for s in self.stages
        }

    # ------------------------------------------------------------------
    def stage_funcs(self, batch: Batch, stage: PipelineStage) -> Sequence[KernelFunc]:
        """The launch list of one stage (whole, unpartitioned ops)."""
        return self.launch_list(batch, tp=1, layers=stage.layers)

    def _boundary_bytes(self, batch: Batch) -> float:
        if batch.phase is Phase.PREFILL:
            return boundary_bytes(self.model, batch.size, batch.seq_len)
        # Decode steps move one token's activations per request.
        return float(batch.size * self.model.hidden_size * FP16_BYTES)

    # ------------------------------------------------------------------
    def submit_batch(self, batch: Batch) -> None:
        machine = self._require_bound()
        host = self.host
        assert host is not None
        host.catch_up()

        bid = batch.batch_id
        total = 0
        kernel_plan: List[List[Kernel]] = []  # per-stage kernels, in order
        for i, stage in enumerate(self.stages):
            kernel_plan.append(instantiate_run(
                self.stage_funcs(batch, stage), (stage.device,), bid, self.profiler
            ))
            total += len(kernel_plan[-1])
            if i > 0:
                total += 2  # the boundary transfer pair

        self.track_batch(batch, total)

        # Launch stage by stage with event-decoupled boundary transfers:
        #   main[i]:     ...stage-i ops... → record(done_i)
        #   pipe_out[i]: wait(done_i) → send_i
        #   pipe_in[i+1]:            recv_i → record(xfer_i)
        #   main[i+1]:   wait(xfer_i) → ...stage-(i+1) ops...
        # pipe streams serialize transfers per link while compute streams
        # keep flowing — real double-buffered pipelining.
        for i, stage in enumerate(self.stages):
            dev = stage.device
            if i > 0:
                prev = self.stages[i - 1]
                done = CudaEvent(f"stage{i-1}_done_b{bid}")
                host.record_event(self._streams[prev.device], done)
                xfer_op = p2p_op(
                    f"pipe_xfer_s{i}",
                    stage.layers[0],
                    self._boundary_bytes(batch),
                    prev.device,
                    dev,
                )
                send, recv = instantiate_op(
                    KernelFunc.profiled(xfer_op, self.profiler),
                    [(prev.device,), (dev,)],
                    bid,
                    self.profiler,
                )
                host.wait_event(self._pipe_out[prev.device], done)
                host.launch_kernel(self._pipe_out[prev.device], send)
                arrived = CudaEvent(f"stage{i}_input_b{bid}")
                host.launch_kernel(self._pipe_in[dev], recv)
                host.record_event(self._pipe_in[dev], arrived)
                host.wait_event(self._streams[dev], arrived)
            host.launch_kernels(self._streams[dev], kernel_plan[i])
