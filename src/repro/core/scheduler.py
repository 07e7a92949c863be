"""The multi-GPU multi-stream scheduler — Algorithm 1 (§3.3–§3.4).

The scheduler manages a *waiting queue* of assembled batches and a
fixed-size *processing list* of batches currently being interleaved.  Each
planning step produces one :class:`Round`:

1. **Primary subset** (``SubSet0``): pop kernels from the primary batch
   (the oldest in the processing list) until the kernel type switches from
   computation to communication or vice versa — a maximal same-type run,
   whose accumulated no-load duration defines the overlap window.
2. **Secondary subset** (``SubSet1``): walk the *subsequent* batches in
   arrival order and pop kernels of the *opposite* type while their
   contention-anticipated durations (§3.5) fit in the remaining window.  A
   kernel too long for the residual window is split by runtime kernel
   decomposition (§3.6) and its remainder pushed back.

"Type" is the scheduling policy's key (:mod:`repro.core.policy`): compute
vs communication for the paper's dichotomy, the resource class for
expert_overlap.

The two subsets are launched onto two streams per GPU and run concurrently;
design Principles 1–3 (§3.3) map to: the primary batch's kernels are never
delayed by same-type interlopers (1), any mix of input sizes schedules
because fitting is by measured duration (2), and the window is packed as
full as anticipation allows (3).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, List, Optional

from repro.core.assembly import FuncVec, KernelFunc
from repro.core.decomposition import DecompositionPlanner
from repro.core.policy import (
    LigerDichotomyPolicy,
    SchedulingPolicy,
    default_resource_class,
)
from repro.errors import ConfigError, SchedulingError
from repro.profiling.contention_profiler import ContentionFactors
from repro.sim.kernel import KernelKind

__all__ = ["Round", "LigerScheduler"]


@dataclass
class Round:
    """One scheduling step: two duration-matched kernel subsets."""

    index: int
    primary_kind: KernelKind
    subset0: List[KernelFunc]
    subset1: List[KernelFunc]
    window: float              # accumulated no-load duration of subset0
    secondary_fill: float      # anticipated duration packed into subset1
    primary_class: str = ""    # resource class of the primary run's head
    primary_batch: int = -1    # the batch every subset0 kernel came from
    #: The batch each subset1 kernel came from, index for index.
    secondary_batches: List[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.subset0:
            # A scheduling invariant, not a configuration mistake: Algorithm 1
            # only produces a round after popping at least one primary kernel.
            raise SchedulingError("a round requires a non-empty primary subset")

    @property
    def fill_fraction(self) -> float:
        """How much of the window the secondary subset occupies (≤ 1)."""
        return self.secondary_fill / self.window if self.window > 0 else 0.0

    def validate_principle1(self) -> None:
        """Assert the secondary subset cannot outlive the primary window."""
        if self.secondary_fill > self.window * (1 + 1e-9):
            raise SchedulingError(
                f"round {self.index}: secondary fill {self.secondary_fill:.1f}us "
                f"exceeds primary window {self.window:.1f}us"
            )


class LigerScheduler:
    """Waiting queue + processing list + Algorithm 1."""

    def __init__(
        self,
        *,
        factors: ContentionFactors,
        decomposer: Optional[DecompositionPlanner] = None,
        max_inflight: int = 4,
        policy: Optional[SchedulingPolicy] = None,
    ) -> None:
        if max_inflight < 1:
            raise ConfigError("max_inflight must be >= 1")
        #: The programmable half of Algorithm 1 (repro.core.policy): its key
        #: delimits the primary run and gates the secondary subset.  Defaults
        #: to the paper's dichotomy.
        self.policy = policy or LigerDichotomyPolicy()
        #: §3.5 contention factors: a secondary kernel's anticipated
        #: duration is its no-load duration times ``factors.for_kind``.
        self.factors = factors
        self.decomposer = decomposer
        if decomposer is not None:
            self.policy.configure_decomposer(decomposer)
        self.max_inflight = max_inflight
        #: Optional memory-aware admission gate: called with a FuncVec before
        #: it moves from the waiting queue to the processing list; returning
        #: False keeps it (and everything behind it) waiting.  Lets the
        #: runtime bound interleaving depth by *available HBM*, not just the
        #: configured processing-list size.
        self.admission_check = lambda fv: True
        self.waiting: Deque[FuncVec] = deque()
        self.processing: List[FuncVec] = []
        self.rounds_planned = 0
        #: §3.6 pieces split off so far, counted where the policy splits.
        self.decomposed_pieces = 0
        #: FuncVecs fully consumed in the last planning call (batch drained
        #: from the scheduler's perspective; kernels may still be running).
        self.drained: List[FuncVec] = []

    # ------------------------------------------------------------------
    # Queue management (§3.3: "As tasks are completed and removed from the
    # processing list, a new task is fetched from the waiting queue").
    # ------------------------------------------------------------------
    def enqueue(self, funcvec: FuncVec) -> None:
        """Add an assembled batch to the waiting queue (refills processing)."""
        self.waiting.append(funcvec)
        self._refill()

    def _refill(self) -> None:
        while self.waiting and len(self.processing) < self.max_inflight:
            if not self.admission_check(self.waiting[0]):
                if not self.processing:
                    # Nothing is draining, so the resource can never free:
                    # admit anyway and let the resource owner raise.
                    self.processing.append(self.waiting.popleft())
                    continue
                break  # wait for an in-flight batch to release resources
            self.processing.append(self.waiting.popleft())

    def _sweep_drained(self) -> None:
        kept: List[FuncVec] = []
        for fv in self.processing:
            if fv.empty:
                self.drained.append(fv)
            else:
                kept.append(fv)
        self.processing = kept
        self._refill()

    @property
    def has_work(self) -> bool:
        return bool(self.processing) or bool(self.waiting)

    def take_drained(self) -> List[FuncVec]:
        """Pop-and-clear the list of fully-consumed FuncVecs."""
        out, self.drained = self.drained, []
        return out

    # ------------------------------------------------------------------
    # Algorithm 1
    # ------------------------------------------------------------------
    def plan_round(self) -> Optional[Round]:
        """Produce the next round, or None when no work is available."""
        self._sweep_drained()
        if not self.processing:
            return None
        primary = self.processing[0]

        # --- collect kernels from the primary batch (lines 3–9) ---------
        policy = self.policy
        subset0, window = policy.collect_primary(primary)

        # --- collect eligible kernels from subsequent batches -----------
        # (lines 10–20, plus §3.5 anticipation and §3.6 decomposition)
        subset1, secondary_batches, fill = policy.pack_secondary(
            self, policy.key(subset0[0]), window
        )

        round_ = Round(
            index=self.rounds_planned,
            primary_kind=subset0[-1].kind,
            subset0=subset0,
            subset1=subset1,
            window=window,
            secondary_fill=fill,
            primary_class=default_resource_class(subset0[0]),
            primary_batch=primary.batch_id,
            secondary_batches=secondary_batches,
        )
        round_.validate_principle1()
        self.rounds_planned += 1
        self._sweep_drained()
        return round_
