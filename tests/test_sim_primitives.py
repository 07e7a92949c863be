"""Unit tests for the small simulator primitives: kernels, collectives,
streams, events, and the error hierarchy."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import errors
from repro.sim.contention import (
    DefaultContention,
    NullContention,
    default_contention_for,
)
from repro.sim.events import CudaEvent
from repro.sim.kernel import CollectiveKind, CollectiveOp, Kernel, KernelKind
from repro.sim.stream import Command, CommandKind, Stream


class TestErrorHierarchy:
    def test_all_derive_from_repro_error(self):
        for name in errors.__all__:
            exc = getattr(errors, name)
            assert issubclass(exc, errors.ReproError)

    def test_config_error_is_value_error(self):
        assert issubclass(errors.ConfigError, ValueError)

    def test_oom_is_simulation_error(self):
        assert issubclass(errors.OutOfMemoryError, errors.SimulationError)

    def test_profile_missing_is_key_error(self):
        assert issubclass(errors.ProfileMissingError, KeyError)


class TestKernel:
    def test_kind_taxonomy(self):
        assert KernelKind.COMM.is_comm
        assert not KernelKind.COMPUTE.is_comm
        assert KernelKind.MEMORY.is_compute_like
        assert KernelKind.AUX.is_compute_like
        assert not KernelKind.COMM.is_compute_like

    def test_validation(self):
        with pytest.raises(errors.ConfigError):
            Kernel(name="bad", kind=KernelKind.COMPUTE, duration=-1.0)
        with pytest.raises(errors.ConfigError):
            Kernel(name="bad", kind=KernelKind.COMPUTE, duration=1.0, occupancy=0.0)
        with pytest.raises(errors.ConfigError):
            Kernel(name="bad", kind=KernelKind.COMPUTE, duration=1.0, occupancy=1.5)
        with pytest.raises(errors.ConfigError):
            Kernel(
                name="bad", kind=KernelKind.COMPUTE, duration=1.0,
                memory_intensity=2.0,
            )


class TestCollectiveOp:
    def _op(self):
        return CollectiveOp(
            kind=CollectiveKind.ALL_REDUCE, bytes=1e6,
            participants=[0, 1, 2], duration=10.0,
        )

    def test_membership_lifecycle(self):
        op = self._op()
        assert not op.complete_membership
        for g in (0, 1, 2):
            op.make_member(g, occupancy=0.05)
        assert op.complete_membership
        assert all(m.collective is op for m in op.members.values())

    def test_nonparticipant_rejected(self):
        with pytest.raises(errors.ConfigError):
            self._op().make_member(9, occupancy=0.05)

    def test_duplicate_member_rejected(self):
        op = self._op()
        op.make_member(0, occupancy=0.05)
        with pytest.raises(errors.ConfigError):
            op.make_member(0, occupancy=0.05)

    def test_duplicate_participants_rejected(self):
        with pytest.raises(errors.ConfigError):
            CollectiveOp(
                kind=CollectiveKind.P2P, bytes=1.0,
                participants=[0, 0], duration=1.0,
            )

    def test_default_name(self):
        op = self._op()
        assert "all_reduce" in op.name


class TestStreamAndCommands:
    def test_command_validation(self):
        for kind in CommandKind:
            with pytest.raises(TypeError):
                Command(kind, available_at=0.0)  # no event

    def test_stream_fifo_and_counters(self):
        s = Stream(gpu_id=0, name="s", priority=2)
        ev = CudaEvent()
        s.queue.append(Command(CommandKind.RECORD_EVENT, available_at=0.0, event=ev))
        k = Kernel(name="k", kind=KernelKind.COMPUTE, duration=1.0)
        s.queue.append(k)  # a launch is the kernel itself
        assert len(s.queue) == 2
        assert not s.idle
        first = s.queue.popleft()
        assert first.kind is CommandKind.RECORD_EVENT
        assert first.available_at == 0.0
        assert s.queue.popleft() is k
        assert s.idle


class TestCudaEvent:
    def test_single_shot_record(self):
        ev = CudaEvent("e")
        fired = []
        ev.record(5.0, lambda d, cb: fired.append((d, cb)))
        assert ev.is_recorded and ev.recorded_at == 5.0
        with pytest.raises(errors.StreamProtocolError):
            ev.record(6.0, lambda d, cb: None)

    def test_waiters_released_through_scheduler_hook(self):
        ev = CudaEvent("e")
        scheduled = []
        ev.add_stream_waiter(lambda: scheduled.append("stream"))
        ev.on_host(lambda: scheduled.append("host"), delay=3.0)
        calls = []
        ev.record(1.0, lambda d, cb: calls.append((d, cb)))
        assert len(calls) == 2
        delays = sorted(d for d, _ in calls)
        assert delays == [0.0, 3.0]

    def test_local_waiter_is_not_scheduled(self):
        ev = CudaEvent("e")
        local, remote = (lambda: None), (lambda: None)
        ev.add_stream_waiter(local)
        ev.add_stream_waiter(remote)
        ev.add_stream_waiter(local)
        calls = []
        ev.record(1.0, lambda d, cb: calls.append(cb), local)
        assert calls == [remote]

    def test_late_registration_rejected(self):
        ev = CudaEvent("e")
        ev.record(0.0, lambda d, cb: None)
        with pytest.raises(errors.StreamProtocolError):
            ev.add_stream_waiter(lambda: None)
        with pytest.raises(errors.StreamProtocolError):
            ev.on_host(lambda: None)


class TestLoneKernelContention:
    """The machine gives a lone resident kernel exactly 1.0 without asking
    its contention model; every built-in model must agree."""

    @settings(max_examples=100, deadline=None)
    @given(
        kind=st.sampled_from(list(KernelKind)),
        occupancy=st.floats(min_value=1e-3, max_value=1.0),
        memory=st.floats(min_value=0.0, max_value=1.0),
        duration=st.floats(min_value=0.0, max_value=1e6),
    )
    def test_builtin_models_give_a_lone_kernel_exactly_one(
        self, kind, occupancy, memory, duration
    ):
        kern = Kernel(
            name="solo",
            kind=kind,
            duration=duration,
            occupancy=occupancy,
            memory_intensity=memory,
        )
        for model in (
            DefaultContention(),
            default_contention_for("a100"),
            NullContention(),
        ):
            assert model.slowdowns([kern]) == [1.0]
