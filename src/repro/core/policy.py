"""Pluggable scheduling policies — programmable Algorithm 1.

Historically :class:`~repro.core.scheduler.LigerScheduler` hard-coded the
paper's compute/communication dichotomy: the primary subset was a maximal
same-:class:`~repro.sim.kernel.KernelKind` run and the secondary subset was
packed from the *opposite* kind.  That bakes one workload family into the
core — any new kernel mix (all-to-all expert dispatch, draft/verify decode)
would have to fork the scheduler.

This module extracts the three decisions Algorithm 1 makes into a
:class:`SchedulingPolicy`:

(a) **resource classification** — map each :class:`KernelFunc` onto a
    *resource class* (compute / NVLink collective / all-to-all / p2p),
    generalizing the binary ``is_comm`` check;
(b) **primary delimitation** — where the primary run ends and how large the
    overlap window is;
(c) **secondary selection + packing** — which kernels are eligible for the
    window and how they are packed (first-fit / best-fit live here now).

The stock behavior is rebased verbatim as :class:`LigerDichotomyPolicy` and
is pinned bit-identical against the golden traces.  The first new policy is
:class:`ExpertOverlapPolicy`, which interleaves MoE expert GEMMs against
all-to-all dispatch/combine by blocking only the *same resource class* as
the primary run (Principle 1 per resource class instead of per kind).
"""

from __future__ import annotations

from typing import List, Tuple

from repro.core.assembly import FuncVec, KernelFunc
from repro.errors import ConfigError
from repro.sim.kernel import KernelKind

__all__ = [
    "RC_COMPUTE",
    "RC_NVLINK",
    "RC_ALL_TO_ALL",
    "RC_P2P",
    "RESOURCE_CLASSES",
    "default_resource_class",
    "SchedulingPolicy",
    "LigerDichotomyPolicy",
    "ExpertOverlapPolicy",
    "POLICIES",
    "make_policy",
    "policy_names",
]

# ----------------------------------------------------------------------
# Resource classes
# ----------------------------------------------------------------------
#: Compute-like kernels (GEMMs, attention, elementwise, memory traffic).
RC_COMPUTE = "compute"
#: Ring collectives over NVLink (all-reduce / all-gather / reduce-scatter).
RC_NVLINK = "nvlink_collective"
#: All-to-all personalized exchange (MoE expert dispatch/combine).
RC_ALL_TO_ALL = "all_to_all"
#: Point-to-point transfers (pipeline activation handoff).
RC_P2P = "p2p"

RESOURCE_CLASSES = (RC_COMPUTE, RC_NVLINK, RC_ALL_TO_ALL, RC_P2P)


def default_resource_class(func: KernelFunc) -> str:
    """Classify a kernel function onto the resource it contends for."""
    flavour = func.op.op
    if flavour == "all_to_all":
        return RC_ALL_TO_ALL
    if flavour == "p2p":
        return RC_P2P
    if func.is_comm:
        return RC_NVLINK
    return RC_COMPUTE


# ----------------------------------------------------------------------
# The policy protocol
# ----------------------------------------------------------------------
class SchedulingPolicy:
    """Owns the three programmable decisions of Algorithm 1.

    Subclasses override :meth:`collect_primary` (decision b) and
    :meth:`blocks` (the eligibility half of decision c); resource
    classification (decision a) defaults to :func:`default_resource_class`.
    The packing machinery itself — first-fit in arrival order or greedy
    best-fit over batch heads, with §3.6 decomposition fallback — is shared
    on the base class so every policy gets both packers for free.
    """

    #: Registry identity.  Subclasses must override.
    name = "abstract"

    def __init__(self, *, packing: str = "first_fit") -> None:
        if packing not in ("first_fit", "best_fit"):
            raise ConfigError(
                f"packing must be 'first_fit' or 'best_fit', got {packing!r}"
            )
        self.packing = packing

    # -- decision (a): resource classification --------------------------
    def resource_class(self, func: KernelFunc) -> str:
        """Name the contended resource ``func`` occupies (RESOURCE_CLASSES)."""
        return default_resource_class(func)

    # -- decision (b): primary run + window ------------------------------
    def collect_primary(
        self, primary: FuncVec
    ) -> Tuple[List[KernelFunc], float, KernelKind]:
        """Pop the primary run off ``primary``; return (subset0, window, kind).

        The window is the run's summed no-load duration — the overlap
        budget ``pack_secondary`` may fill.
        """
        raise NotImplementedError

    # -- decision (c): secondary eligibility + packing -------------------
    def blocks(
        self, func: KernelFunc, primary_class: str, kind: KernelKind
    ) -> bool:
        """True when ``func`` must NOT share the window (Principle 1)."""
        raise NotImplementedError

    def pack_secondary(
        self,
        scheduler,
        primary_class: str,
        kind: KernelKind,
        window: float,
    ) -> Tuple[List[KernelFunc], float]:
        """Select and pack secondary kernels into the window.

        Walks subsequent batches for heads ``blocks`` does not veto,
        packing by the configured discipline (first-fit pops greedily in
        arrival order; best-fit takes the largest fitting head each
        pass).  Returns ``(subset1, fill)`` with ``fill`` in anticipated
        (contention-scaled) time.
        """
        if self.packing == "best_fit":
            return self._pack_best_fit(scheduler, primary_class, kind, window)
        return self._pack_first_fit(scheduler, primary_class, kind, window)

    # -- validation ------------------------------------------------------
    def validate_round(self, round_) -> None:
        """Per-round invariant check; default is Principle 1."""
        round_.validate_principle1()

    # -- decomposition hooks ---------------------------------------------
    def configure_decomposer(self, planner) -> None:
        """Register policy-specific split rules on a DecompositionPlanner."""

    # ------------------------------------------------------------------
    # Shared packing machinery (moved verbatim from LigerScheduler; the
    # only change is that eligibility goes through :meth:`blocks`).
    # ------------------------------------------------------------------
    def _take_whole(self, scheduler, fv, subset1) -> float:
        """Pop an eligible head whole into ``subset1``; returns its
        anticipated duration (the shared half of both packers' accept path).
        """
        func = fv.pop()
        subset1.append(func)
        return scheduler.anticipator.anticipated(func.duration, func.kind)

    def _take_split(self, scheduler, fv, split, subset1) -> float:
        """Apply a §3.6 decomposition: pop, push the remainder back, collect
        the piece.  Returns the piece's anticipated duration.
        """
        piece, rest = split
        fv.pop()
        fv.push_front(rest)
        subset1.append(piece)
        scheduler.decomposed_pieces += 1
        return scheduler.anticipator.anticipated(piece.duration, piece.kind)

    def _pack_first_fit(self, scheduler, primary_class, kind, window):
        """The paper's policy: walk subsequent batches in arrival order."""
        subset1: List[KernelFunc] = []
        fill = 0.0
        remaining = window
        for fv in scheduler.processing[1:]:
            while remaining > 0 and not fv.empty:
                nxt = fv.peek()
                if self.blocks(nxt, primary_class, kind):
                    # Principle 1: kernels contending for the primary run's
                    # resource must not interfere with it; this batch is
                    # stuck until a later round of a different class.
                    break
                anticipated = scheduler.anticipator.anticipated(
                    nxt.duration, nxt.kind
                )
                if anticipated <= remaining:
                    taken = self._take_whole(scheduler, fv, subset1)
                    fill += taken
                    remaining -= taken
                    continue
                # Too long: try runtime decomposition (§3.6).
                split = None
                if scheduler.decomposer is not None:
                    split = scheduler.decomposer.split_to_fit(
                        nxt,
                        remaining,
                        scale=scheduler.anticipator.scale(nxt.kind),
                    )
                if split is None:
                    remaining = 0.0  # window effectively unusable (line 15)
                    break
                taken = self._take_split(scheduler, fv, split, subset1)
                fill += taken
                remaining -= taken
                break  # residual window is below the smallest division
        return subset1, fill

    def _pack_best_fit(self, scheduler, primary_class, kind, window):
        """Extension: greedy best-fit over eligible batch heads.

        Only the *head* kernel of each subsequent batch is eligible (batch
        order is a data dependency), so this is an online greedy: at each
        step take the largest eligible head whose anticipated duration fits
        the residual window; fall back to decomposing the largest head when
        nothing fits whole.  Trades the paper's arrival-order fairness for
        higher window fill.
        """
        subset1: List[KernelFunc] = []
        fill = 0.0
        remaining = window
        while remaining > 0:
            eligible = [
                fv
                for fv in scheduler.processing[1:]
                if not fv.empty
                and not self.blocks(fv.peek(), primary_class, kind)
            ]
            if not eligible:
                break
            fitting = [
                fv
                for fv in eligible
                if scheduler.anticipator.anticipated(
                    fv.peek().duration, fv.peek().kind
                )
                <= remaining
            ]
            if fitting:
                fv = max(
                    fitting,
                    key=lambda v: scheduler.anticipator.anticipated(
                        v.peek().duration, v.peek().kind
                    ),
                )
                taken = self._take_whole(scheduler, fv, subset1)
                fill += taken
                remaining -= taken
                continue
            # Nothing fits whole: decompose the largest eligible head.
            if scheduler.decomposer is None:
                break
            best_split = None
            best_fv = None
            for fv in eligible:
                split = scheduler.decomposer.split_to_fit(
                    fv.peek(),
                    remaining,
                    scale=scheduler.anticipator.scale(fv.peek().kind),
                )
                if split is None:
                    continue
                if (
                    best_split is None
                    or split[0].duration > best_split[0].duration
                ):
                    best_split = split
                    best_fv = fv
            if best_split is None:
                break
            assert best_fv is not None
            taken = self._take_split(scheduler, best_fv, best_split, subset1)
            fill += taken
            remaining -= taken
            break  # residual window is below the smallest division
        return subset1, fill


# ----------------------------------------------------------------------
# Built-in policies
# ----------------------------------------------------------------------
class LigerDichotomyPolicy(SchedulingPolicy):
    """The paper's Algorithm 1, verbatim: compute vs communication.

    Primary run = maximal same-``KernelKind`` prefix of the oldest batch;
    the window is its summed no-load duration; secondary candidates are
    blocked exactly when they are the *same* kind as the run.  This policy
    is the default and is pinned bit-identical to the golden traces.
    """

    name = "dichotomy"

    def collect_primary(self, primary):
        # Algorithm 1 lines 3–9: pop until the kernel type switches.
        subset0: List[KernelFunc] = []
        window = 0.0
        kind = primary.head_kind()
        while not primary.empty:
            switches = primary.next_switches()
            func = primary.pop()
            window += func.duration
            subset0.append(func)
            if switches:
                kind = func.kind
                break
        return subset0, window, kind

    def blocks(self, func, primary_class, kind):
        return func.same_type_as(kind)


class ExpertOverlapPolicy(SchedulingPolicy):
    """MoE expert parallelism: overlap expert GEMMs with all-to-all.

    Generalizes the dichotomy to resource classes: the primary run is a
    maximal same-*resource-class* prefix, and a secondary candidate is
    blocked only when it contends for the **same resource class** as the
    run.  Under an all-to-all dispatch/combine window this admits both
    expert GEMMs *and* NVLink collectives; under a compute window it
    admits either collective flavour — the interleaving the MoE
    communication-characterization literature calls for.

    Also registers the all-to-all byte splitter on the decomposition
    planner so oversized dispatch/combine kernels can be window-fitted.
    """

    name = "expert_overlap"

    def collect_primary(self, primary):
        subset0: List[KernelFunc] = []
        window = 0.0
        kind = primary.head_kind()
        while not primary.empty:
            switches = primary.next_switches_class(self.resource_class)
            func = primary.pop()
            window += func.duration
            subset0.append(func)
            if switches:
                kind = func.kind
                break
        return subset0, window, kind

    def blocks(self, func, primary_class, kind):
        return self.resource_class(func) == primary_class

    def configure_decomposer(self, planner) -> None:
        from repro.core.decomposition import split_all_to_all

        planner.register_split_rule("all_to_all", split_all_to_all)


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
POLICIES = {
    LigerDichotomyPolicy.name: LigerDichotomyPolicy,
    ExpertOverlapPolicy.name: ExpertOverlapPolicy,
}


def policy_names() -> Tuple[str, ...]:
    """Registered policy names, sorted (the ``--policy`` choice list)."""
    return tuple(sorted(POLICIES))


def make_policy(name: str, *, packing: str = "first_fit") -> SchedulingPolicy:
    """Construct a registered policy by name."""
    try:
        cls = POLICIES[name]
    except KeyError:
        raise ConfigError(
            f"unknown scheduling policy {name!r}; "
            f"available: {', '.join(policy_names())}"
        ) from None
    return cls(packing=packing)
