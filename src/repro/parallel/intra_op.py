"""Intra-operator (tensor) parallelism — the Megatron-LM baseline (§4.1).

Every operator is partitioned across all GPUs of the node; each device runs
its shard of every kernel and the devices synchronise with two all-reduces
per transformer layer.  Batches are processed strictly one at a time: each
batch's kernels are appended to a single per-GPU stream, so a new batch's
computation starts only when the previous batch fully drains — which is
exactly why the intra-op approach saturates early ("computation units being
left idle when communicating", §2.2.1): during every all-reduce the device's
compute pipeline idles.
"""

from __future__ import annotations

from typing import Dict

from repro.parallel.base import ParallelStrategy, instantiate_op, instantiate_run
from repro.serving.request import Batch
from repro.sim.stream import Stream

__all__ = ["IntraOpStrategy"]


class IntraOpStrategy(ParallelStrategy):
    """Megatron-style tensor parallelism over all GPUs of the node."""

    name = "intra"

    def bind(self, machine, host, *, track_memory=True) -> None:
        super().bind(machine, host, track_memory=track_memory)
        # One in-order stream per device; TP executes lock-step across them.
        self._streams: Dict[int, Stream] = {
            g: machine.gpu(g).stream("main") for g in range(self.node.num_gpus)
        }
        # Every rank runs the same command stream: simulate them once.
        machine.mirror_ranks(range(self.node.num_gpus))

    def submit_batch(self, batch: Batch) -> None:
        machine = self._require_bound()
        host = self.host
        assert host is not None
        # The launcher ranks were idle waiting for work; they cannot have
        # issued anything before the batch arrived.
        host.catch_up()

        groups = machine.groups
        funcs = self.launch_list(batch, tp=self.node.num_gpus)
        bid, profiler = batch.batch_id, self.profiler
        # Every op runs on every rank.
        self.track_batch(batch, len(funcs) * self.node.num_gpus)
        streams = self._streams
        if len(groups) == 1:
            # One rank group: the whole batch is one run on one stream.
            group = groups[0]
            host.launch_kernels(
                streams[group[0]], instantiate_run(funcs, group, bid, profiler)
            )
            return
        # An armed fault injector keeps the ranks apart: launch in op
        # order, once per rank.
        for f in funcs:
            kernels = instantiate_op(f, groups, bid, profiler)
            for group, kernel in zip(groups, kernels):
                host.launch_kernel(streams[group[0]], kernel)
