"""Property tests for the engine's O(1) liveness bookkeeping.

The engine tracks ``_live`` (entries on the heap whose handle can still
fire) and ``_tombstones`` (cancelled entries not yet swallowed by a pop)
incrementally, because ``pending`` is consulted on hot paths — heartbeat
liveness above all — where an O(heap) recount would be felt.  Incremental counters are exactly the kind of
state that drifts under adversarial interleavings of schedule / cancel /
bounded run / compaction, so these tests drive randomized interleavings and
compare against a brute-force recount of the real heap after every
operation.

The second property pins compaction's observable contract: filtering
tombstones and re-heapifying must never change the order in which the
surviving events fire.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sim.engine as engine_mod
from repro.sim.engine import Engine

# An op is one of:
#   ("schedule", delay, priority)      — schedule a new event
#   ("cancel", index)                  — cancel the index-th handle (mod len)
#   ("run", dt)                        — run until dt µs past now
_OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("schedule"),
            st.floats(min_value=0.0, max_value=100.0),
            st.integers(min_value=0, max_value=9),
        ),
        st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=200)),
        st.tuples(st.just("run"), st.floats(min_value=0.0, max_value=50.0)),
    ),
    min_size=1,
    max_size=120,
)


def _recount(eng: Engine):
    """Brute-force ground truth straight off the heap entries."""
    live = sum(1 for e in eng._heap if not e[3].cancelled)
    dead = len(eng._heap) - live
    return live, dead


@given(_OPS)
@settings(max_examples=120, deadline=None)
def test_live_and_tombstone_counters_never_desync(ops):
    eng = Engine()
    handles = []
    for op in ops:
        if op[0] == "schedule":
            handles.append(eng.schedule(op[1], lambda: None, priority=op[2]))
        elif op[0] == "cancel" and handles:
            handles[op[1] % len(handles)].cancel()
        elif op[0] == "run":
            eng.run(until=eng.now + op[1])
        live, dead = _recount(eng)
        assert eng._live == live, (op, eng._live, live)
        assert eng._tombstones == dead, (op, eng._tombstones, dead)
        assert eng.pending == live


@given(_OPS)
@settings(max_examples=100, deadline=None)
def test_callbacks_scheduling_and_cancelling_keep_counters_exact(ops):
    """Same invariant when the mutations happen *inside* callbacks."""
    eng = Engine()
    handles = []

    def make_cb(op):
        def cb():
            if op[0] == "schedule":
                handles.append(
                    eng.schedule(op[1], lambda: None, priority=op[2])
                )
            elif op[0] == "cancel" and handles:
                handles[op[1] % len(handles)].cancel()

        return cb

    for i, op in enumerate(ops):
        handles.append(eng.schedule(float(i % 5), make_cb(op)))
    eng.run()
    live, dead = _recount(eng)
    assert eng._live == live == 0
    assert eng._tombstones == dead


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=50.0),
            st.integers(min_value=0, max_value=3),
            st.booleans(),
        ),
        min_size=1,
        max_size=150,
    )
)
@settings(max_examples=100, deadline=None)
def test_compaction_preserves_pop_order(entries):
    """Aggressive compaction must not reorder the surviving events.

    One engine runs with compaction forced after every cancel (threshold
    0), the model engine with compaction effectively off; both must fire
    the surviving events in the identical sequence.  The threshold is a
    module global read at cancel time, so each arm runs fully under its
    own setting.
    """

    def _run_with_threshold(threshold):
        saved = engine_mod._COMPACT_MIN_TOMBSTONES
        engine_mod._COMPACT_MIN_TOMBSTONES = threshold
        try:
            eng = Engine()
            fired = []
            handles = []
            for i, (delay, priority, cancel) in enumerate(entries):
                handles.append(
                    eng.schedule(
                        delay, lambda i=i: fired.append(i), priority=priority
                    )
                )
            for h, (_, _, cancel) in zip(handles, entries):
                if cancel:
                    h.cancel()
            eng.run()
            return fired
        finally:
            engine_mod._COMPACT_MIN_TOMBSTONES = saved

    assert _run_with_threshold(0) == _run_with_threshold(1 << 60)


def test_forced_compaction_drops_only_tombstones():
    """Direct check: compaction removes exactly the cancelled entries."""
    eng = Engine()
    handles = [eng.schedule(float(i), lambda: None) for i in range(100)]
    for h in handles[::2]:
        h.cancel()
    # A burst of schedule+cancel pairs pushes tombstones past the majority
    # condition, forcing at least one compaction pass.
    for _ in range(200):
        eng.schedule(1.0, lambda: None).cancel()
    live, dead = _recount(eng)
    assert eng._live == live == 50
    assert eng._tombstones == dead
    assert dead < 200  # compaction actually ran and swept tombstones
    # The compacted heap still pops in correct order.
    assert eng._heap[0] == min(eng._heap)
