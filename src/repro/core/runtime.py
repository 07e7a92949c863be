"""The Liger runtime: round execution with hybrid synchronization (§3.4).

This is where scheduling decisions become stream commands.  Each planned
:class:`~repro.core.scheduler.Round` is launched onto **two streams per
GPU** — stream 0 carries the primary subset, stream 1 the secondary — and
consecutive rounds are chained by the configured synchronization approach:

* **HYBRID** (Liger): stream 0 records a *pre-kick* event before its last
  kernel; when the CPU observes it, the next round is planned and launched
  while that kernel still runs (launch overhead hidden).  Execution order
  stays exact because each stream's first command of round *k+1* waits on
  the *other* stream's end-of-round-*k* event — pure inter-stream sync, no
  CPU on the critical path.
* **CPU_GPU**: the CPU waits for *all* GPUs' end-of-round events (paying
  visibility latency plus the multi-GPU coordination penalty §4.5 measures
  at >20 µs), then launches the next round — the overhead is exposed.
* **INTER_STREAM**: every plannable round is launched immediately with the
  same event gating but no CPU feedback; communication kernels are charged
  the empirically-motivated launch-queue lag (§3.4's observed failure mode).

Per the paper, the communication subset is launched first within a round.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from repro.core.assembly import FunctionAssembler, KernelFunc
from repro.core.config import LigerConfig, SyncMode
from repro.core.contention import ContentionAnticipator
from repro.core.decomposition import DecompositionPlanner
from repro.core.plan_cache import SchedulePlanCache
from repro.core.policy import make_policy
from repro.core.scheduler import LigerScheduler, Round
from repro.parallel.base import instantiate_op
from repro.profiling.profiler import OpProfiler
from repro.serving.request import Batch
from repro.sim.events import CudaEvent
from repro.sim.gpu import Machine
from repro.sim.host import Host
from repro.sim.kernel import Kernel, KernelKind
from repro.sim.stream import Stream

__all__ = ["LigerRuntime", "RuntimeStats"]


@dataclass
class RuntimeStats:
    """Execution counters for analysis and the ablation benches."""

    rounds_launched: int = 0
    kernels_launched: int = 0
    decomposed_pieces: int = 0
    total_window: float = 0.0
    total_fill: float = 0.0

    @property
    def mean_fill_fraction(self) -> float:
        return self.total_fill / self.total_window if self.total_window > 0 else 0.0


class LigerRuntime:
    """Executes the Liger scheduler's rounds on a simulated machine."""

    def __init__(
        self,
        machine: Machine,
        host: Host,
        profiler: OpProfiler,
        assembler: FunctionAssembler,
        anticipator: ContentionAnticipator,
        config: LigerConfig,
        *,
        on_batch_launched=None,
        on_batch_drained=None,
    ) -> None:
        self.machine = machine
        self.host = host
        self.profiler = profiler
        self.assembler = assembler
        self.config = config
        decomposer = (
            DecompositionPlanner(profiler, config.division_factor)
            if config.enable_decomposition
            else None
        )
        policy = make_policy(config.policy, packing=config.packing)
        self.scheduler = LigerScheduler(
            anticipator=anticipator,
            decomposer=decomposer,
            max_inflight=config.max_inflight,
            policy=policy,
        )
        self.stats = RuntimeStats()
        self._gpus = list(range(machine.node.num_gpus))
        #: Memoized Algorithm 1 (bit-identical replay of recurring rounds).
        self.plan_cache: Optional[SchedulePlanCache] = (
            SchedulePlanCache(
                self._gpus,
                max_entries=config.plan_cache_size,
                policy_id=policy.name,
            )
            if config.enable_plan_cache
            else None
        )
        self._s0: Dict[int, Stream] = {
            g: machine.gpu(g).stream("liger_s0") for g in self._gpus
        }
        self._s1: Dict[int, Stream] = {
            g: machine.gpu(g).stream("liger_s1", priority=1) for g in self._gpus
        }
        # End-of-round events per GPU for cross-stream gating.
        self._prev_end0: Dict[int, Optional[CudaEvent]] = {g: None for g in self._gpus}
        self._prev_end1: Dict[int, Optional[CudaEvent]] = {g: None for g in self._gpus}
        self._chain_active = False
        # Serving-side accounting hooks: (batch_id, n_kernels) / (batch_id, t).
        self._on_batch_launched = on_batch_launched or (lambda bid, n: None)
        self._on_batch_drained = on_batch_drained or (lambda bid: None)
        #: Optional observer called as ``fn(round_index, expected_primary,
        #: expected_secondary, window_us)`` right before a round's kernels are
        #: issued.  When set, every launched kernel is additionally tagged
        #: with ``meta["_round"]`` / ``meta["_subset"]`` so a completion
        #: observer can reconstruct per-round subset end times — the
        #: Principle-1 violation monitor (:mod:`repro.faults.monitor`) builds
        #: on this.  ``None`` skips both the call and the tagging.
        self.on_round_launched = None

    # ------------------------------------------------------------------
    # Entry point: a batch arrives
    # ------------------------------------------------------------------
    def enqueue(self, batch: Batch) -> None:
        """Assemble and enqueue a batch; kicks the round chain if idle."""
        funcvec = self.assembler.assemble(batch)
        self.scheduler.enqueue(funcvec)
        self.maybe_kick()

    def maybe_kick(self) -> None:
        """Restart the round chain if it is idle and work is admittable.

        Called on batch arrival and again when resources free (memory-aware
        admission may have parked the waiting queue until a batch released
        its KV/workspace reservation).
        """
        if not self._chain_active and self.scheduler.has_work:
            self.host.catch_up()
            self._chain_active = True
            self._advance()

    # ------------------------------------------------------------------
    # The round chain
    # ------------------------------------------------------------------
    def _advance(self) -> None:
        """Plan and launch the next round; arrange the follow-up trigger."""
        planned = self._next_round()
        if planned is None:
            self._chain_active = False
            self._flush_drained()
            return
        if self.config.sync_mode is SyncMode.INTER_STREAM:
            # Launch every plannable round immediately; new rounds only
            # become plannable when batches arrive, which re-enters here.
            while planned is not None:
                self._launch_round(*planned, pre_kick=False)
                self._flush_drained()
                planned = self._next_round()
            self._chain_active = False
            self._flush_drained()
            return
        pre_kick = self.config.sync_mode is SyncMode.HYBRID
        end_events = self._launch_round(*planned, pre_kick=pre_kick)
        self._flush_drained()
        if self.config.sync_mode is SyncMode.CPU_GPU:
            # The CPU confirms completion on every GPU before relaunching.
            self.host.when_all_events(
                [e for pair in end_events.values() for e in pair if e is not None],
                self._advance,
                multi_gpu=True,
            )
        # HYBRID: the pre-kick host callback registered inside _launch_round
        # drives the chain.

    def _flush_drained(self) -> None:
        for fv in self.scheduler.take_drained():
            self._on_batch_drained(fv.batch.batch_id)

    # ------------------------------------------------------------------
    def _next_round(self):
        """Plan (or replay) the next round plus its instantiated kernels.

        Returns ``(round, subset0_kernels, subset1_kernels)`` or None.  With
        the plan cache enabled, a fingerprint hit replays the recorded round;
        a miss plans normally while recording, then memoizes.
        """
        sched = self.scheduler
        cache = self.plan_cache
        if cache is None:
            round_ = sched.plan_round()
            if round_ is None:
                return None
            return round_, self._instantiate(round_.subset0), self._instantiate(
                round_.subset1
            )
        sched._sweep_drained()
        key = cache.fingerprint(sched)
        if key is not None:
            entry = cache.get(key)
            if entry is not None:
                return cache.replay(sched, entry)
        start = perf_counter()
        record: Optional[list] = [] if key is not None else None
        round_ = sched.plan_swept(record)
        if round_ is None:
            return None
        maps0 = self._instantiate(round_.subset0)
        maps1 = self._instantiate(round_.subset1)
        if key is not None:
            cache.put(key, round_, record, maps0, maps1)
        cache.build_seconds += perf_counter() - start
        return round_, maps0, maps1

    def _instantiate(self, funcs: List[KernelFunc]):
        return [
            instantiate_op(f.op, self._gpus, f.batch_id, self.profiler)
            for f in funcs
        ]

    def _launch_round(
        self,
        round_: Round,
        subset0_kernels: List[Dict[int, Kernel]],
        subset1_kernels: List[Dict[int, Kernel]],
        *,
        pre_kick: bool,
    ) -> Dict[int, Tuple[Optional[CudaEvent], Optional[CudaEvent]]]:
        """Issue one round's commands on every GPU; returns end events.

        The kernel maps come from :meth:`_next_round` — instantiated fresh on
        a plan-cache miss, rebuilt from prototypes on a hit — so this single
        issue path serves both, which is what makes cache-on bit-identical
        to cache-off.
        """
        cfg = self.config
        inter_stream_gating = cfg.sync_mode in (SyncMode.HYBRID, SyncMode.INTER_STREAM)
        comm_lag = (
            cfg.comm_lag_penalty if cfg.sync_mode is SyncMode.INTER_STREAM else 0.0
        )

        self._account_launches(round_.subset0)
        self._account_launches(round_.subset1)

        if self.machine.trace is not None:
            # Label kernels with their scheduling provenance so trace rows
            # (and the merged timeline) carry policy + resource class.
            # Gated on tracing: the zero-cost contract for untraced runs.
            pol = self.scheduler.policy
            for kernel_maps, funcs in (
                (subset0_kernels, round_.subset0),
                (subset1_kernels, round_.subset1),
            ):
                for kernels, func in zip(kernel_maps, funcs):
                    rclass = pol.resource_class(func)
                    for kern in kernels.values():
                        kern.meta["_policy"] = pol.name
                        kern.meta["_rclass"] = rclass

        if self.on_round_launched is not None:
            for which, kernel_maps in ((0, subset0_kernels), (1, subset1_kernels)):
                for kernels in kernel_maps:
                    for kern in kernels.values():
                        kern.meta["_round"] = round_.index
                        kern.meta["_subset"] = which
            self.on_round_launched(
                round_.index,
                sum(len(k) for k in subset0_kernels),
                sum(len(k) for k in subset1_kernels),
                round_.window,
            )

        # The paper launches the communication subset first.
        comm_first = round_.primary_kind is KernelKind.COMM
        order: List[Tuple[int, List[dict], List[KernelFunc]]] = (
            [(0, subset0_kernels, round_.subset0), (1, subset1_kernels, round_.subset1)]
            if comm_first
            else [(1, subset1_kernels, round_.subset1), (0, subset0_kernels, round_.subset0)]
        )

        end_events: Dict[int, Tuple[Optional[CudaEvent], Optional[CudaEvent]]] = {}
        pre_kick_event: Optional[CudaEvent] = None

        for g in self._gpus:
            s0, s1 = self._s0[g], self._s1[g]
            # Cross-stream gating: round k+1 starts only after BOTH streams
            # finished round k (each stream's own FIFO covers itself).
            if inter_stream_gating:
                prev1 = self._prev_end1[g]
                if prev1 is not None:
                    self.host.wait_event(s0, prev1)
                prev0 = self._prev_end0[g]
                if prev0 is not None and round_.subset1:
                    self.host.wait_event(s1, prev0)

            for which, kernel_maps, funcs in order:
                stream = s0 if which == 0 else s1
                for idx, kernels in enumerate(kernel_maps):
                    kern = kernels[g]
                    is_comm = kern.kind is KernelKind.COMM
                    # HYBRID pre-kick: before the last primary kernel.
                    if (
                        pre_kick
                        and which == 0
                        and idx == len(kernel_maps) - 1
                        and g == 0
                    ):
                        pre_kick_event = CudaEvent(f"prekick_r{round_.index}")
                        self.host.record_event(stream, pre_kick_event)
                    self.host.launch_kernel(
                        stream, kern, extra_delay=comm_lag if is_comm else 0.0
                    )

            e0 = CudaEvent(f"r{round_.index}_end0@g{g}")
            self.host.record_event(s0, e0)
            e1: Optional[CudaEvent] = None
            if round_.subset1:
                e1 = CudaEvent(f"r{round_.index}_end1@g{g}")
                self.host.record_event(s1, e1)
            self._prev_end0[g] = e0
            self._prev_end1[g] = e1 if e1 is not None else self._prev_end1[g]
            end_events[g] = (e0, e1)

        if pre_kick:
            assert pre_kick_event is not None
            self.host.when_event(pre_kick_event, self._advance)

        self.stats.rounds_launched += 1
        self.stats.kernels_launched += (
            len(round_.subset0) + len(round_.subset1)
        ) * len(self._gpus)
        self.stats.decomposed_pieces += sum(
            1 for f in round_.subset1 if ".v" in f.op.name or ".c" in f.op.name
        )
        self.stats.total_window += round_.window
        self.stats.total_fill += round_.secondary_fill
        return end_events

    def _account_launches(self, funcs: List[KernelFunc]) -> None:
        for f in funcs:
            n = len(self._gpus) if f.op.op != "p2p" else 2
            self._on_batch_launched(f.batch_id, n)
