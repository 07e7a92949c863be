"""Hardware descriptions: GPU device specs, node testbeds, and topologies.

This subpackage is pure data + geometry.  The behavioural model of the
hardware (streams, contention, collectives) lives in :mod:`repro.sim`; here we
only describe *what* the hardware is, mirroring the paper's two testbeds:

* a 4× NVIDIA V100 (16 GB) node with NVLink (peak all-reduce bus bandwidth
  32.75 GB/s per the paper's NCCL-tests), and
* a 4× NVIDIA A100 (80 GB) node communicating over a PCIe switch (peak
  all-reduce bus bandwidth 14.88 GB/s).
"""

from repro import _lazy_exports

#: Every public name of the package, by the submodule that defines it.
_EXPORTS = {
    "GpuSpec": "devices",
    "NodeSpec": "devices",
    "V100_16GB": "devices",
    "A100_80GB_PCIE": "devices",
    "v100_nvlink_node": "devices",
    "a100_pcie_node": "devices",
    "TESTBEDS": "devices",
    "InterconnectKind": "topology",
    "Topology": "topology",
    "nvlink_mesh": "topology",
    "pcie_switch": "topology",
}

__all__ = list(_EXPORTS)
__getattr__ = _lazy_exports(__name__, _EXPORTS)
