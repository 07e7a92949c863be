"""Pluggable scheduling policies — programmable Algorithm 1.

The paper's Algorithm 1 judges Principle 1 by compute vs communication.
A new kernel mix (all-to-all expert dispatch, draft/verify decode) needs a
finer judgement, and should not have to fork the scheduler to get it.

A :class:`SchedulingPolicy` reduces Algorithm 1's one programmable
decision to a **key**: the class of a kernel that Principle 1 is judged by.
One packer on the base class does the rest for every policy:

* the primary subset is the maximal run of the oldest batch's head kernels
  that share a key, and its summed no-load duration is the overlap window;
* the secondary subset is packed first-fit, walking subsequent batches in
  arrival order and blocking any head whose key is the primary run's.

:class:`LigerDichotomyPolicy` keys on ``is_comm`` (the paper's compute vs
communication) and is pinned bit-identical against the golden traces.
:class:`ExpertOverlapPolicy` keys on the resource class
(:func:`default_resource_class`), so MoE expert GEMMs interleave against
all-to-all dispatch/combine and Principle 1 holds per resource class.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.core.assembly import FuncVec, KernelFunc
from repro.errors import ConfigError

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
    """Algorithm 1 with its Principle-1 judgement behind one function.

    A subclass overrides :meth:`key`, the class of a kernel that Principle 1
    is judged by; expert_overlap also overrides :meth:`configure_decomposer`.
    The primary run and the first-fit secondary packer are shared.
    """

    #: Registry identity.  Subclasses must override.
    name = "abstract"

    def key(self, func: KernelFunc):
        """The class of ``func``: a primary run is a maximal same-key run,
        and a secondary head with the run's key must not share its window."""
        raise NotImplementedError

    def collect_primary(self, primary: FuncVec) -> Tuple[List[KernelFunc], float]:
        """Pop the primary run off ``primary``; return ``(subset0, window)``.

        Algorithm 1 lines 3–9: pop while the next head has the popped
        kernel's key.  The window is the run's summed no-load duration, the
        overlap budget :meth:`pack_secondary` may fill.
        """
        key = self.key
        subset0 = [primary.pop()]
        run_key = key(subset0[0])
        while not primary.empty and key(primary.peek()) == run_key:
            subset0.append(primary.pop())
        return subset0, sum(func.duration for func in subset0)

    def pack_secondary(
        self, scheduler, primary_key, window: float
    ) -> Tuple[List[KernelFunc], List[int], float]:
        """Pack the window first-fit (Algorithm 1 lines 10–20).

        Walks subsequent batches in arrival order, popping heads whose
        anticipated duration fits the residual window; a head too long for
        it is split by §3.6 decomposition.  Returns ``(subset1, batch_ids,
        fill)``: ``batch_ids[i]`` is the batch ``subset1[i]`` came from, and
        ``fill`` is in anticipated (contention-scaled) time.
        """
        key = self.key
        factors = scheduler.factors
        decomposer = scheduler.decomposer
        subset1: List[KernelFunc] = []
        batch_ids: List[int] = []
        fill = 0.0
        remaining = window
        for fv in scheduler.processing[1:]:
            if remaining <= 0:
                break
            bid = fv.batch_id
            while remaining > 0 and not fv.empty:
                nxt = fv.peek()
                if key(nxt) == primary_key:
                    # Principle 1: kernels contending for the primary run's
                    # resource must not interfere with it; this batch is
                    # stuck until a later round of a different class.
                    break
                scale = factors.for_kind(nxt.kind)
                taken = nxt.duration * scale
                if taken <= remaining:
                    subset1.append(fv.pop())
                    batch_ids.append(bid)
                    fill += taken
                    remaining -= taken
                    continue
                # Too long: try runtime decomposition (§3.6).
                split = None
                if decomposer is not None:
                    split = decomposer.split_to_fit(nxt, remaining, scale=scale)
                if split is None:
                    remaining = 0.0  # window effectively unusable (line 15)
                    break
                taken = self._take_split(scheduler, fv, split, subset1)
                batch_ids.append(bid)
                fill += taken
                remaining -= taken
                break  # residual window is below the smallest division
        return subset1, batch_ids, fill

    def _take_split(self, scheduler, fv, split, subset1) -> float:
        """Apply a §3.6 decomposition: pop, push the remainder back, collect
        the piece.  Returns the piece's anticipated duration.
        """
        piece, rest = split
        fv.pop()
        fv.push_front(rest)
        subset1.append(piece)
        scheduler.decomposed_pieces += 1
        return piece.duration * scheduler.factors.for_kind(piece.kind)

    def configure_decomposer(self, planner) -> None:
        """Register policy-specific split rules on a DecompositionPlanner."""


# ----------------------------------------------------------------------
# Built-in policies
# ----------------------------------------------------------------------
class LigerDichotomyPolicy(SchedulingPolicy):
    """The paper's Algorithm 1, verbatim: compute vs communication.

    The key is ``is_comm``, so a primary run is a maximal same-type prefix
    and a secondary head is blocked exactly when it is the run's type.
    This policy is the default and is pinned bit-identical to the goldens.
    """

    name = "dichotomy"

    def key(self, func):
        return func.is_comm


class ExpertOverlapPolicy(SchedulingPolicy):
    """MoE expert parallelism: overlap expert GEMMs with all-to-all.

    The key is the kernel's resource class, so a primary run is a maximal
    same-class prefix and a secondary head is blocked only when it contends
    for the **same resource class** as the run.  Under an all-to-all
    dispatch/combine window this admits both expert GEMMs *and* NVLink
    collectives; under a compute window it admits either collective
    flavour, the interleaving the MoE communication-characterization
    literature calls for.

    Also registers the all-to-all byte splitter on the decomposition
    planner so oversized dispatch/combine kernels can be window-fitted.
    """

    name = "expert_overlap"

    def key(self, func):
        return default_resource_class(func)

    def configure_decomposer(self, planner) -> None:
        from repro.core.decomposition import split_comm_bytes

        planner.register_split_rule("all_to_all", split_comm_bytes)


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


def make_policy(name: str) -> SchedulingPolicy:
    """Construct a registered policy by name."""
    try:
        cls = POLICIES[name]
    except KeyError:
        raise ConfigError(
            f"unknown scheduling policy {name!r}; "
            f"available: {', '.join(policy_names())}"
        ) from None
    return cls()
