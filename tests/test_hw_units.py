"""Tests for hardware specs, testbed nodes, and unit helpers."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.hw import (
    A100_80GB_PCIE,
    TESTBEDS,
    V100_16GB,
    GpuSpec,
    InterconnectKind,
    a100_pcie_node,
    v100_nvlink_node,
)
from repro.units import (
    FP16_BYTES,
    GB,
    GBps,
    KB,
    MB,
    TFLOPS,
    GFLOPS,
    ms,
    seconds,
    us,
    us_to_s,
)


class TestUnits:
    def test_time_conversions(self):
        assert ms(1.5) == 1500.0
        assert seconds(2.0) == 2e6
        assert us(7) == 7.0
        assert us_to_s(1e6) == 1.0

    def test_size_conversions(self):
        assert KB(1) == 1e3
        assert MB(1) == 1e6
        assert GB(1) == 1e9
        assert GBps(2) == 2e9

    def test_rate_conversions(self):
        assert TFLOPS(1) == 1e12
        assert GFLOPS(1) == 1e9

    def test_fp16_bytes(self):
        assert FP16_BYTES == 2


class TestGpuSpecs:
    def test_paper_testbed_devices(self):
        assert V100_16GB.memory_capacity == GB(16)
        assert A100_80GB_PCIE.memory_capacity == GB(80)
        assert A100_80GB_PCIE.fp16_flops > V100_16GB.fp16_flops

    def test_invalid_spec_rejected(self):
        with pytest.raises(ConfigError):
            GpuSpec(name="bad", fp16_flops=0, memory_bandwidth=1,
                    memory_capacity=1, num_sms=1)
        with pytest.raises(ConfigError):
            GpuSpec(name="bad", fp16_flops=1, memory_bandwidth=1,
                    memory_capacity=1, num_sms=1, kernel_launch_overhead=-1)


class TestNodes:
    def test_paper_testbeds(self):
        v = v100_nvlink_node(4)
        a = a100_pcie_node(4)
        assert v.num_gpus == 4 and a.num_gpus == 4
        # The measured all-reduce bandwidths from §4.1.
        assert v.topology.allreduce_bus_bandwidth == GBps(32.75)
        assert a.topology.allreduce_bus_bandwidth == GBps(14.88)
        assert v.total_memory == GB(64)
        assert a.total_memory == GB(320)

    def test_paper_testbed_links(self):
        v = v100_nvlink_node(4).topology
        a = a100_pcie_node(4).topology
        assert v.kind is InterconnectKind.NVLINK
        assert a.kind is InterconnectKind.PCIE_SWITCH
        assert v.p2p_bandwidth(0, 3) == GBps(25.0)
        assert v.p2p_latency(0, 3) == 1.5
        assert a.p2p_bandwidth(0, 3) == GBps(16.0)
        assert a.p2p_latency(0, 3) == 6.0

    def test_testbed_registry(self):
        assert set(TESTBEDS) == {"v100", "a100"}
        assert TESTBEDS["v100"]().gpu is V100_16GB
