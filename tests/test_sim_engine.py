"""Unit tests for the discrete-event engine."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim.engine import Engine


def test_schedule_and_run_executes_in_time_order():
    eng = Engine()
    order = []
    eng.schedule(5.0, lambda: order.append("b"))
    eng.schedule(1.0, lambda: order.append("a"))
    eng.schedule(9.0, lambda: order.append("c"))
    end = eng.run()
    assert order == ["a", "b", "c"]
    assert end == 9.0
    assert eng.now == 9.0


def test_same_time_ties_broken_by_priority_then_insertion():
    eng = Engine()
    order = []
    eng.schedule(1.0, lambda: order.append("late"), priority=9)
    eng.schedule(1.0, lambda: order.append("first"), priority=0)
    eng.schedule(1.0, lambda: order.append("second"), priority=0)
    eng.run()
    assert order == ["first", "second", "late"]


def test_cancelled_events_do_not_fire():
    eng = Engine()
    fired = []
    handle = eng.schedule(1.0, lambda: fired.append("x"))
    eng.schedule(0.5, lambda: handle.cancel())
    eng.run()
    assert fired == []


def test_cancel_is_idempotent_and_safe_after_fire():
    eng = Engine()
    handle = eng.schedule(0.0, lambda: None)
    eng.run()
    handle.cancel()
    handle.cancel()


def test_negative_delay_rejected():
    eng = Engine()
    with pytest.raises(SimulationError):
        eng.schedule(-1.0, lambda: None)


def test_schedule_at_in_past_rejected():
    eng = Engine()
    eng.schedule(5.0, lambda: None)
    eng.run()
    with pytest.raises(SimulationError):
        eng.schedule_at(1.0, lambda: None)


def test_nonfinite_time_rejected():
    eng = Engine()
    with pytest.raises(SimulationError):
        eng.schedule(float("nan"), lambda: None)
    with pytest.raises(SimulationError):
        eng.schedule(float("inf"), lambda: None)


def test_callbacks_can_schedule_more_events():
    eng = Engine()
    seen = []

    def chain(n):
        seen.append(n)
        if n < 5:
            eng.schedule(1.0, lambda: chain(n + 1))

    eng.schedule(0.0, lambda: chain(0))
    end = eng.run()
    assert seen == [0, 1, 2, 3, 4, 5]
    assert end == 5.0


def test_run_until_stops_without_executing_later_events():
    eng = Engine()
    seen = []
    eng.schedule(1.0, lambda: seen.append(1))
    eng.schedule(10.0, lambda: seen.append(10))
    end = eng.run(until=5.0)
    assert seen == [1]
    assert end == 5.0
    # The later event survives and can be run afterwards.
    eng.run()
    assert seen == [1, 10]


def test_step_executes_single_event():
    eng = Engine()
    seen = []
    eng.schedule(1.0, lambda: seen.append("a"))
    eng.schedule(2.0, lambda: seen.append("b"))
    assert eng.step() is True
    assert seen == ["a"]
    assert eng.step() is True
    assert eng.step() is False
    assert seen == ["a", "b"]


def test_pending_count_excludes_cancelled():
    eng = Engine()
    h1 = eng.schedule(1.0, lambda: None)
    eng.schedule(2.0, lambda: None)
    assert eng.pending == 2
    h1.cancel()
    assert eng.pending == 1


def test_peek_time_skips_cancelled():
    eng = Engine()
    h1 = eng.schedule(1.0, lambda: None)
    eng.schedule(2.0, lambda: None)
    h1.cancel()
    assert eng.peek_time() == 2.0


def test_max_events_guard():
    eng = Engine()

    def loop():
        eng.schedule(0.0, loop)

    eng.schedule(0.0, loop)
    with pytest.raises(SimulationError):
        eng.run(max_events=100)


def test_run_is_not_reentrant():
    eng = Engine()
    errors = []

    def reenter():
        try:
            eng.run()
        except SimulationError as exc:
            errors.append(exc)

    eng.schedule(0.0, reenter)
    eng.run()
    assert len(errors) == 1


@given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=60))
@settings(max_examples=60, deadline=None)
def test_events_always_fire_in_nondecreasing_time_order(delays):
    eng = Engine()
    fired = []
    for d in delays:
        eng.schedule(d, lambda d=d: fired.append(eng.now))
    eng.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)


@given(
    st.lists(
        st.tuples(st.floats(min_value=0, max_value=1e4), st.booleans()),
        min_size=1,
        max_size=40,
    )
)
@settings(max_examples=50, deadline=None)
def test_cancelled_subset_never_fires(items):
    eng = Engine()
    fired = []
    handles = []
    for i, (d, cancel) in enumerate(items):
        handles.append((eng.schedule(d, lambda i=i: fired.append(i)), cancel))
    for h, cancel in handles:
        if cancel:
            h.cancel()
    eng.run()
    expected = {i for i, (_, cancel) in enumerate(items) if not cancel}
    assert set(fired) == expected

def test_negative_epsilon_delay_clamps_to_now():
    """schedule() and schedule_at() tolerate the same float-skew epsilon.

    Round boundaries accumulate float error; a delay an epsilon short of
    zero (or an absolute time an epsilon short of now) must land *at* now
    rather than raise — and both entry points must agree about the same
    instant.
    """
    eng = Engine()
    eng.schedule(5.0, lambda: None)
    eng.run()
    assert eng.now == 5.0
    fired = []
    h1 = eng.schedule(-1e-12, lambda: fired.append("delay"))
    h2 = eng.schedule_at(eng.now - 5e-10, lambda: fired.append("abs"))
    assert h1.time == eng.now
    assert h2.time == eng.now
    eng.run()
    assert fired == ["delay", "abs"]
    # Beyond the tolerance both still reject.
    with pytest.raises(SimulationError):
        eng.schedule(-1e-8, lambda: None)
    with pytest.raises(SimulationError):
        eng.schedule_at(eng.now - 1e-8, lambda: None)


def test_step_consumes_tombstones_like_run():
    """step() shares run()'s pop path: tombstones swallowed, peek consistent."""
    eng = Engine()
    h1 = eng.schedule(1.0, lambda: None)
    eng.schedule(2.0, lambda: pytest.fail("never advanced this far"))
    fired = []
    eng.schedule(1.5, lambda: fired.append("mid"))
    h1.cancel()
    assert eng.peek_time() == 1.5
    assert eng.step() is True
    assert fired == ["mid"]
    assert eng.now == 1.5
    assert eng.peek_time() == 2.0
