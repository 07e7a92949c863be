"""Tests for device-memory accounting (weights / activations / KV cache)."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError, OutOfMemoryError
from repro.hw import GpuSpec, NodeSpec, a100_pcie_node, v100_nvlink_node
from repro.hw.topology import nvlink_mesh
from repro.models import GLM_130B, OPT_30B
from repro.parallel import IntraOpStrategy
from repro.serving import Server
from repro.serving.workload import general_trace
from repro.sim import Engine, Host, Machine
from repro.sim.memory import DeviceMemory, NodeMemoryModel, activation_bytes
from repro.units import GB, GBps, TFLOPS


class TestDeviceMemory:
    def test_reserve_and_release(self):
        mem = DeviceMemory(GB(16))
        mem.reserve("weights", GB(15))
        assert mem.available == pytest.approx(GB(1))
        assert mem.utilization() == pytest.approx(15 / 16)
        freed = mem.release("weights")
        assert freed == GB(15)
        assert mem.used == 0

    def test_oom_raises(self):
        mem = DeviceMemory(GB(16))
        mem.reserve("weights", GB(15))
        with pytest.raises(OutOfMemoryError):
            mem.reserve("batch0", GB(2))

    def test_duplicate_tag_rejected(self):
        mem = DeviceMemory(GB(16))
        mem.reserve("a", 1.0)
        with pytest.raises(ConfigError):
            mem.reserve("a", 1.0)

    def test_release_unknown_tag_rejected(self):
        with pytest.raises(ConfigError):
            DeviceMemory(GB(1)).release("ghost")

    def test_invalid_capacity(self):
        with pytest.raises(ConfigError):
            DeviceMemory(0)


class TestActivationBytes:
    def test_scales_with_batch_and_seq(self):
        small = activation_bytes(OPT_30B, 2, 16, 4)
        big = activation_bytes(OPT_30B, 8, 128, 4)
        assert big > 10 * small

    def test_tp_shrinks_per_device_workspace(self):
        full = activation_bytes(OPT_30B, 2, 64, 1)
        quarter = activation_bytes(OPT_30B, 2, 64, 4)
        assert quarter < full

    def test_magnitude_sane(self):
        # batch 2 × seq 64 on OPT-30B / tp 4: tens of MB, not GB.
        b = activation_bytes(OPT_30B, 2, 64, 4)
        assert 1e6 < b < 5e8


class TestNodeMemoryModel:
    def test_weights_reserved_at_init(self):
        mm = NodeMemoryModel(OPT_30B, v100_nvlink_node(4))
        for dev in mm.devices:
            assert dev.holds("weights")
            assert dev.used == pytest.approx(GB(15))

    def test_batch_cycle(self):
        mm = NodeMemoryModel(OPT_30B, a100_pcie_node(4))
        base = mm.devices[0].used
        mm.reserve_batch(7, batch=2, seq=64)
        assert mm.devices[0].used > base
        mm.release_batch(7)
        assert mm.devices[0].used == pytest.approx(base)

    def test_kv_cache_added_for_decode(self):
        mm = NodeMemoryModel(GLM_130B, a100_pcie_node(4))
        mm.reserve_batch(1, batch=32, seq=1, context=16)
        with_kv = mm.devices[0].used
        mm.release_batch(1)
        mm.reserve_batch(2, batch=32, seq=1)
        without_kv = mm.devices[0].used
        assert with_kv > without_kv

    def test_peak_utilization_tracked(self):
        mm = NodeMemoryModel(OPT_30B, a100_pcie_node(4))
        mm.reserve_batch(1, batch=8, seq=128)
        peak_with = mm.peak_utilization
        mm.release_batch(1)
        assert mm.peak_utilization == peak_with  # peak is sticky

    def test_oom_rolls_back_partial_reservations(self):
        tiny_gpu = GpuSpec(
            name="tiny", fp16_flops=TFLOPS(10), memory_bandwidth=GBps(100),
            memory_capacity=GB(0.2), num_sms=10,
        )
        node = NodeSpec(name="tiny-node", gpu=tiny_gpu, topology=nvlink_mesh(2))
        model = OPT_30B.scaled_layers(1)
        small = type(model)(
            name="mini", num_layers=1, num_heads=8, hidden_size=1024,
            weight_bytes=GB(0.1),
        )
        mm = NodeMemoryModel(small, node)
        with pytest.raises(OutOfMemoryError):
            mm.reserve_batch(1, batch=256, seq=2048)
        # Nothing should remain reserved for the failed batch.
        assert not any(d.holds("batch1") for d in mm.devices)


class TestMemoryShare:
    def test_share_scales_reservation(self):
        full = NodeMemoryModel(OPT_30B, a100_pcie_node(4))
        quarter = NodeMemoryModel(OPT_30B, a100_pcie_node(4))
        full.reserve_batch(1, batch=32, seq=1, context=16)
        quarter.reserve_batch(1, batch=32, seq=1, context=16, share=0.25)
        weights = OPT_30B.weight_bytes_per_device(4)
        full_extra = full.devices[0].used - weights
        quarter_extra = quarter.devices[0].used - weights
        assert quarter_extra == pytest.approx(full_extra / 4)

    def test_invalid_share_rejected(self):
        mm = NodeMemoryModel(OPT_30B, a100_pcie_node(4))
        with pytest.raises(ConfigError):
            mm.reserve_batch(1, batch=2, seq=8, share=0.0)
        with pytest.raises(ConfigError):
            mm.reserve_batch(1, batch=2, seq=8, share=1.5)

    def test_pipeline_strategy_uses_stage_share(self):
        from repro.parallel import InterOpStrategy, IntraOpStrategy

        model = OPT_30B.scaled_layers(8)
        node = v100_nvlink_node(4)
        assert IntraOpStrategy(model, node).memory_share == 1.0
        assert InterOpStrategy(model, node).memory_share == pytest.approx(0.25)


class TestStrategyIntegration:
    def test_serving_tracks_and_frees_memory(self):
        model = OPT_30B.scaled_layers(6)
        node = v100_nvlink_node(4)
        strat = IntraOpStrategy(model, node)
        server = Server(model, node, strat, check_memory=False)
        server.run(general_trace(8, 20.0, 2, seed=0))
        assert strat.memory is not None
        # All batch workspaces were released; only weights remain.
        for dev in strat.memory.devices:
            assert dev.used == pytest.approx(
                model.weight_bytes_per_device(4)
            )
        assert strat.memory.peak_used > model.weight_bytes_per_device(4)

    def test_memory_tracking_optional(self):
        model = OPT_30B.scaled_layers(6)
        node = v100_nvlink_node(4)
        strat = IntraOpStrategy(model, node)
        machine = Machine(node, Engine())
        strat.bind(machine, Host(machine), track_memory=False)
        batches = general_trace(4, 20.0, 2, seed=0)
        for bid, batch in enumerate(batches):
            batch.number(bid)
            strat.submit_batch(batch)
        machine.run()
        assert strat.batches_completed == len(batches)
        assert strat.memory is None
