"""VirtualDevice memory, transfer, and profile model tests."""

from __future__ import annotations

import pytest

from repro import DeviceOutOfMemory, LobsterEngine, OptimizationConfig, VirtualDevice
from repro.gpu.device import DeviceProfile

TC = "rel path(x, y) :- edge(x, y) or (path(x, z) and edge(z, y))."


class TestAllocation:
    """The device holds no buffers: its allocator setting and capacity are
    read by the interpreter, so they are tested through an engine run."""

    @staticmethod
    def run_tc(device, n_edges=30):
        engine = LobsterEngine(
            TC, device=device, optimizations=OptimizationConfig(static_indices=False)
        )
        db = engine.create_database()
        db.add_facts("edge", [(i, i + 1) for i in range(n_edges)])
        return engine.run(db)

    def test_capacity_enforced(self):
        with pytest.raises(DeviceOutOfMemory):
            self.run_tc(VirtualDevice(capacity_bytes=1000))

    def test_no_reuse_when_disabled(self):
        reused = self.run_tc(VirtualDevice()).profile
        fresh = self.run_tc(VirtualDevice(reuse_buffers=False)).profile
        assert reused.reused_allocations > 0
        assert fresh.reused_allocations == 0
        assert fresh.alloc_seconds > reused.alloc_seconds

    def test_peak_tracking(self):
        profile = self.run_tc(VirtualDevice(capacity_bytes=10_000_000)).profile
        assert profile.peak_arena_bytes >= 8 * 2 * 30  # the stored edges


class TestStatics:
    def test_static_roundtrip(self):
        device = VirtualDevice()
        device.set_static("k", 42)
        assert device.get_static("k") == 42
        device.clear_statics()
        assert device.get_static("k") is None


class TestTransferModel:
    def test_cost_is_latency_plus_bandwidth(self):
        device = VirtualDevice(
            bandwidth_bytes_per_s=1e9, transfer_latency_s=1e-5
        )
        assert device.transfer_cost(1e9) == pytest.approx(1.0 + 1e-5)

    def test_record_transfer_accumulates(self):
        device = VirtualDevice()
        device.record_transfer(1000, to_device=True)
        device.record_transfer(2000, to_device=False)
        assert device.profile.host_to_device_transfers == 1
        assert device.profile.device_to_host_transfers == 1
        assert device.profile.transfer_bytes == 3000
        assert device.profile.transfer_seconds > 0


class TestProfile:
    def test_record_instruction(self):
        profile = DeviceProfile()
        profile.record_instruction("Probe")
        profile.record_instruction("Probe")
        assert profile.instruction_counts["Probe"] == 2
        assert profile.kernel_launches == 2

    def test_reset(self):
        profile = DeviceProfile()
        profile.record_instruction("Load")
        profile.reset()
        assert profile.kernel_launches == 0
        assert profile.instruction_counts == {}
