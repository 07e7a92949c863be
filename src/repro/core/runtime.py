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

The end events are also each round's realised subset end times.
:class:`PrincipleMonitor` judges Principle 1 (§3.5) on executions from
their record times: under a fault (a straggling GPU) the profiled
contention factors are wrong, the plan passes
:meth:`~repro.core.scheduler.Round.validate_principle1`, and the secondary
subset outlives the primary.

Per the paper, the communication subset is launched first within a round.

Every rank runs the same commands, so the runtime declares all of them one
group (:meth:`~repro.sim.gpu.Machine.mirror_ranks`) and issues each round
once per group, on the group lead's streams: each subset's launches go
out as one run (:meth:`~repro.sim.host.Host.launch_kernels`).  Under
HYBRID every rank records its own pre-kick event, as each of the
prototype's per-GPU launchers does, before the primary run's last
launch; the chain advances on the first group's (GPU 0's).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.assembly import FuncVec, KernelFunc
from repro.core.config import LigerConfig, SyncMode
from repro.core.decomposition import DecompositionPlanner
from repro.core.policy import default_resource_class, make_policy
from repro.core.scheduler import LigerScheduler, Round
from repro.parallel.base import instantiate_op
from repro.profiling.contention_profiler import ContentionFactors
from repro.profiling.profiler import OpProfiler
from repro.serving.request import Batch
from repro.sim.events import CudaEvent
from repro.sim.gpu import Machine
from repro.sim.host import Host
from repro.sim.kernel import Kernel, KernelKind
from repro.sim.stream import Stream

__all__ = ["LigerRuntime", "PrincipleMonitor", "RuntimeStats"]

#: Tolerated secondary overshoot as a fraction of the round window
#: (anticipation margins make small overshoots benign).
MARGIN_FRAC = 0.10
#: Absolute overshoot floor (µs) below which no violation is counted,
#: whatever the window size.
MIN_MARGIN_US = 10.0

#: A round's end events by group lead: ``(end0, end1)``, ``end1`` ``None``
#: without a secondary subset.
EndEvents = Dict[int, Tuple[CudaEvent, Optional[CudaEvent]]]

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
        launch_list: Callable[[Batch], Sequence[KernelFunc]],
        factors: ContentionFactors,
        config: LigerConfig,
        *,
        on_batch_launched=None,
        on_batch_drained=None,
    ) -> None:
        self.machine = machine
        self.host = host
        self.profiler = profiler
        #: ``launch_list(batch)``: the batch's shared, profiled launch list.
        self._launch_list = launch_list
        self.config = config
        decomposer = (
            DecompositionPlanner(profiler, config.division_factor)
            if config.enable_decomposition
            else None
        )
        self.scheduler = LigerScheduler(
            factors=factors,
            decomposer=decomposer,
            max_inflight=config.max_inflight,
            policy=make_policy(config.policy),
        )
        self.stats = RuntimeStats()
        self._gpus = list(range(machine.node.num_gpus))
        self._s0: Dict[int, Stream] = {
            g: machine.gpu(g).stream("liger_s0") for g in self._gpus
        }
        self._s1: Dict[int, Stream] = {
            g: machine.gpu(g).stream("liger_s1", priority=1) for g in self._gpus
        }
        machine.mirror_ranks(self._gpus)
        # End-of-round events per group lead for cross-stream gating.
        self._prev_end0: Dict[int, CudaEvent] = {}
        self._prev_end1: Dict[int, CudaEvent] = {}
        self._chain_active = False
        # Serving-side accounting hooks: (batch_id, n_kernels) / (batch_id, t).
        self._on_batch_launched = on_batch_launched or (lambda bid, n: None)
        self._on_batch_drained = on_batch_drained or (lambda bid: None)
        #: Optional observer called as ``fn(round_index, window_us,
        #: end_events)`` once a round's commands are issued
        #: (:meth:`PrincipleMonitor.attach`).
        self.on_round_launched = None

    # ------------------------------------------------------------------
    # Entry point: a batch arrives
    # ------------------------------------------------------------------
    def enqueue(self, batch: Batch) -> None:
        """Assemble and enqueue a batch; kicks the round chain if idle."""
        self.scheduler.enqueue(FuncVec(batch, self._launch_list(batch)))
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
        end_events = self._launch_round(*planned)
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
            self._on_batch_drained(fv.batch_id)

    # ------------------------------------------------------------------
    def _next_round(self):
        """Plan the next round and instantiate its kernels.

        Returns ``(round, subset0_kernels, subset1_kernels)`` or None.
        """
        round_ = self.scheduler.plan_round()
        if round_ is None:
            return None
        groups, profiler = self.machine.groups, self.profiler
        primary = round_.primary_batch
        subset0 = [
            instantiate_op(f, groups, primary, profiler) for f in round_.subset0
        ]
        subset1 = [
            instantiate_op(f, groups, bid, profiler)
            for f, bid in zip(round_.subset1, round_.secondary_batches)
        ]
        return round_, subset0, subset1

    def _launch_round(
        self,
        round_: Round,
        subset0_kernels: List[List[Kernel]],
        subset1_kernels: List[List[Kernel]],
    ) -> EndEvents:
        """Issue one round's commands on every rank group; returns the
        end events by group lead.

        Each op's kernels, one per rank group in :attr:`Machine.groups`
        order, come from :meth:`_next_round`.
        """
        hybrid = self.config.sync_mode is SyncMode.HYBRID

        self._account_launches(round_)

        if self.machine.trace is not None:
            # Label kernels with their scheduling provenance so trace rows
            # (and the merged timeline) carry policy + resource class.
            # Gated on tracing: the zero-cost contract for untraced runs.
            pol = self.scheduler.policy
            for op_kernels, funcs in (
                (subset0_kernels, round_.subset0),
                (subset1_kernels, round_.subset1),
            ):
                for kernels, func in zip(op_kernels, funcs):
                    rclass = default_resource_class(func)
                    for kern in kernels:
                        kern.policy = pol.name
                        kern.resource_class = rclass

        # The paper launches the communication subset first.
        if round_.primary_kind is KernelKind.COMM:
            order = ((0, subset0_kernels), (1, subset1_kernels))
        else:
            order = ((1, subset1_kernels), (0, subset0_kernels))

        host = self.host
        end_events: EndEvents = {}
        pre_kick_event: Optional[CudaEvent] = None

        for i, group in enumerate(self.machine.groups):
            g = group[0]
            s0, s1 = self._s0[g], self._s1[g]
            # Cross-stream gating: round k+1 starts only after BOTH streams
            # finished round k (each stream's own FIFO covers itself).
            if hybrid:
                prev1 = self._prev_end1.get(g)
                if prev1 is not None:
                    host.wait_event(s0, prev1)
                prev0 = self._prev_end0.get(g)
                if prev0 is not None and round_.subset1:
                    host.wait_event(s1, prev0)

            # Each subset's launches on this group go out as one run.
            for which, op_kernels in order:
                if not op_kernels:
                    continue
                kernels = [per_group[i] for per_group in op_kernels]
                if which == 1:
                    host.launch_kernels(s1, kernels)
                elif hybrid:
                    # HYBRID pre-kick: every rank's, before the last primary
                    # kernel; GPU 0's drives the chain.
                    if len(kernels) > 1:
                        host.launch_kernels(s0, kernels[:-1])
                    event = CudaEvent(f"prekick_r{round_.index}@g{g}")
                    host.record_event(s0, event)
                    if pre_kick_event is None:
                        pre_kick_event = event
                    host.launch_kernel(s0, kernels[-1])
                else:
                    host.launch_kernels(s0, kernels)

            e0 = CudaEvent(f"r{round_.index}_end0@g{g}")
            host.record_event(s0, e0)
            e1: Optional[CudaEvent] = None
            if round_.subset1:
                e1 = CudaEvent(f"r{round_.index}_end1@g{g}")
                host.record_event(s1, e1)
            self._prev_end0[g] = e0
            if e1 is not None:
                self._prev_end1[g] = e1
            end_events[g] = (e0, e1)

        if hybrid:
            assert pre_kick_event is not None
            host.when_event(pre_kick_event, self._advance)
        if self.on_round_launched is not None:
            self.on_round_launched(round_.index, round_.window, end_events)

        ranks = len(self._gpus)
        self.stats.rounds_launched += 1
        self.stats.kernels_launched += (
            len(round_.subset0) + len(round_.subset1)
        ) * ranks
        # Every planned round is launched, so the scheduler's count is the
        # launched rounds' count.
        self.stats.decomposed_pieces = self.scheduler.decomposed_pieces
        self.stats.total_window += round_.window
        self.stats.total_fill += round_.secondary_fill
        return end_events

    def _account_launches(self, round_: Round) -> None:
        """Count each launched op once per rank that runs it (a p2p's two
        endpoints), against the batch it came from."""
        ranks = len(self._gpus)
        launched = self._on_batch_launched
        n = 0
        for f in round_.subset0:
            n += ranks if f.op.op != "p2p" else 2
        launched(round_.primary_batch, n)
        for f, bid in zip(round_.subset1, round_.secondary_batches):
            launched(bid, ranks if f.op.op != "p2p" else 2)


class PrincipleMonitor:
    """Counts executed rounds whose secondary subset outlived the primary.

    When the last of a round's end events records, a latest secondary end
    beyond the latest primary end by more than ``max(MIN_MARGIN_US,
    MARGIN_FRAC × window)`` is one violation; a round without a secondary
    subset is observed and cannot violate.  ``on_violation(round_index,
    overshoot_us, time_us)``, if given, fires per violation.

    Passive: its callbacks only read record times and touch no stream,
    kernel or launcher cursor, so an attached monitor leaves the timeline
    as it is.  That is why it registers with :meth:`CudaEvent.on_host`, not
    :meth:`Host.when_event`, which advances the launcher cursors.
    """

    def __init__(
        self, *, on_violation: Optional[Callable[[int, float, float], None]] = None
    ) -> None:
        self.on_violation = on_violation
        self.rounds_observed = 0
        self.violations = 0

    def attach(self, runtime: LigerRuntime) -> None:
        """Hook a runtime's round launches."""
        runtime.on_round_launched = self.on_round_launched

    def on_round_launched(self, index: int, window: float, end_events: EndEvents) -> None:
        """Judge round ``index`` once every one of its end events records."""
        events = [e for pair in end_events.values() for e in pair if e is not None]
        pending = len(events)

        def _recorded() -> None:
            nonlocal pending
            pending -= 1
            if not pending:
                self._judge(index, window, end_events)

        for event in events:
            event.on_host(_recorded)

    def _judge(self, index: int, window: float, end_events: EndEvents) -> None:
        self.rounds_observed += 1
        ends1 = [e1.recorded_at for _, e1 in end_events.values() if e1 is not None]
        if not ends1:
            return  # nothing was interleaved: Principle 1 is vacuous
        end0 = max(e0.recorded_at for e0, _ in end_events.values())
        end1 = max(ends1)
        overshoot = end1 - end0
        if overshoot > max(MIN_MARGIN_US, MARGIN_FRAC * window):
            self.violations += 1
            if self.on_violation is not None:
                self.on_violation(index, overshoot, end1)
