"""Schedule-plan memoization: replay Algorithm 1 for recurring inputs.

Under steady-state serving — continuous batching decoding token after token —
the scheduler sees the *same* input over and over: a processing list of
identically-shaped FuncVecs, the same contention scales, the same
decomposition config.  Algorithm 1 is deterministic, so its output is a pure
function of that input.  :class:`SchedulePlanCache` exploits this:

* **Fingerprint** — a hashable key over everything the planner reads: each
  processing-list entry's consumption signature
  (:attr:`~repro.core.assembly.FuncVec.sig` — assembly-cache content key +
  pop count + pushed-back remainder tags), the anticipator's
  ``fingerprint()`` (contention scales, §3.5), the decomposition division
  factor (§3.6), and the packing policy.  Anything unfingerprintable (a
  FuncVec built without a content key, an anticipator without
  ``fingerprint``) makes the call uncacheable — counted, never guessed.
* **Record** — on a miss the scheduler plans normally while recording its
  secondary-subset actions (pops and splits); the entry stores those
  actions and the round's window/fill floats — nothing else.
* **Replay** — on a hit the cached actions are applied to the live
  processing list (real pops, so batch draining and accounting are
  untouched), skipping the planner and the decomposer.  The runtime then
  instantiates the replayed round's kernels through
  :func:`~repro.parallel.base.instantiate_op`, the same path a miss takes.

The contract is **bit-identity**: a replayed round launches kernels with the
same names, durations, footprints, and ordering as planning from scratch
would have — the golden-trace suite asserts cache-on and cache-off timelines
hash identically.  The planner's floats (window, fill, piece durations) are
stored, so there is no room for ulp drift.

Invalidation is structural, not temporal: contention scales live *in* the
key (an :class:`~repro.core.contention.AdaptiveAnticipator` that learned a
new factor simply stops matching).  Fault effects sit outside the entries:
the machine applies slowdowns at execution time, and collectives are costed
at instantiation, so a link fault applies to replayed rounds too.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from repro.core.assembly import KernelFunc, rebind
from repro.core.scheduler import LigerScheduler, Round

__all__ = ["SchedulePlanCache"]


class _PlanEntry:
    """One memoized round: the primary run length, the secondary actions,
    and the round's floats."""

    __slots__ = (
        "n_primary",
        "primary_kind",
        "primary_class",
        "window",
        "fill",
        "actions",
    )

    def __init__(
        self, n_primary, primary_kind, primary_class, window, fill, actions
    ) -> None:
        self.n_primary = n_primary
        self.primary_kind = primary_kind
        self.primary_class = primary_class
        self.window = window
        self.fill = fill
        self.actions = actions


class SchedulePlanCache:
    """LRU memo of planned rounds, keyed by the scheduler's full input state."""

    def __init__(
        self, *, max_entries: int = 256, policy_id: str = "dichotomy"
    ) -> None:
        self.max_entries = max_entries
        #: The scheduling-policy id this cache serves; per-policy counter
        #: rows are keyed by it so the cache-key dimension is observable.
        self.policy_id = policy_id
        self._entries: "OrderedDict[Tuple, _PlanEntry]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        #: Planning calls whose input could not be fingerprinted (assembly
        #: cache off, foreign FuncVec, anticipator without a fingerprint).
        self.uncacheable = 0
        #: Wall seconds spent planning on misses — the cost a hit avoids
        #: (exported as a perf gauge).
        self.build_seconds = 0.0
        #: Per-policy split of hits/misses/evictions/uncacheable.
        self.per_policy: Dict[str, Dict[str, int]] = {}

    def _bump(self, counter: str) -> None:
        row = self.per_policy.setdefault(
            self.policy_id,
            {"hits": 0, "misses": 0, "evictions": 0, "uncacheable": 0},
        )
        row[counter] += 1

    # ------------------------------------------------------------------
    # Fingerprinting
    # ------------------------------------------------------------------
    def fingerprint(self, scheduler: LigerScheduler) -> Optional[Tuple]:
        """Key over everything :meth:`LigerScheduler.plan_swept` reads.

        Call *after* the drain sweep (the sweep mutates the processing
        list).  Returns None when the state is not cacheable.
        """
        processing = scheduler.processing
        if not processing:
            return None  # nothing to plan — not a cacheability failure
        sigs = []
        for fv in processing:
            sig = fv.sig
            if sig is None:
                self.uncacheable += 1
                self._bump("uncacheable")
                return None
            sigs.append(sig)
        anticipator_fp = getattr(scheduler.anticipator, "fingerprint", None)
        if anticipator_fp is None:
            self.uncacheable += 1
            self._bump("uncacheable")
            return None
        decomposer = scheduler.decomposer
        division = None if decomposer is None else decomposer.division_factor
        # The policy fingerprint joins the key so memoized plans never leak
        # across policies (stubs without a policy fall back to the legacy
        # packing string under the default dichotomy id).
        policy = getattr(scheduler, "policy", None)
        policy_fp = (
            policy.fingerprint()
            if policy is not None
            else ("dichotomy", scheduler.packing)
        )
        return (anticipator_fp(), division, policy_fp, tuple(sigs))

    # ------------------------------------------------------------------
    # LRU plumbing
    # ------------------------------------------------------------------
    def get(self, key: Tuple) -> Optional[_PlanEntry]:
        """Look up a memoized round; counts the hit/miss and bumps LRU age."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            self._bump("misses")
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        self._bump("hits")
        return entry

    def put(self, key: Tuple, round_: Round, actions: List) -> None:
        """Memoize a freshly-planned round's decisions."""
        self._entries[key] = _PlanEntry(
            n_primary=len(round_.subset0),
            primary_kind=round_.primary_kind,
            primary_class=getattr(round_, "primary_class", ""),
            window=round_.window,
            fill=round_.secondary_fill,
            actions=tuple(actions),
        )
        if len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.evictions += 1
            self._bump("evictions")

    def __len__(self) -> int:
        return len(self._entries)

    # ------------------------------------------------------------------
    # Replay
    # ------------------------------------------------------------------
    def replay(self, scheduler: LigerScheduler, entry: _PlanEntry) -> Round:
        """Re-apply a memoized round to the live scheduler state.

        Pops are performed on the real FuncVecs, so drain bookkeeping and
        downstream accounting see exactly what planning would have done.
        ``validate_principle1`` is skipped: the round passed it when it was
        recorded, and every float here is the recorded value.
        """
        processing = scheduler.processing
        primary = processing[0]
        subset0 = [primary.pop() for _ in range(entry.n_primary)]
        subset1: List[KernelFunc] = []
        for idx, split in entry.actions:
            fv = processing[idx]
            popped = fv.pop()
            if split is None:
                subset1.append(popped)
                continue
            piece_t, rest_t = split
            bid, size, seq = popped.batch_id, popped.batch_size, popped.seq_len
            piece = rebind(piece_t, batch_id=bid, batch_size=size, seq_len=seq)
            rest = rebind(rest_t, batch_id=bid, batch_size=size, seq_len=seq)
            fv.push_front(rest)
            subset1.append(piece)
        round_ = Round(
            index=scheduler.rounds_planned,
            primary_kind=entry.primary_kind,
            subset0=subset0,
            subset1=subset1,
            window=entry.window,
            secondary_fill=entry.fill,
            primary_class=entry.primary_class,
        )
        scheduler.rounds_planned += 1
        scheduler._sweep_drained()
        return round_
