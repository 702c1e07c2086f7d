"""The device pool (repro.dist): pooled sessions answer like a plain
session, and a drain's per-device profiles roll up into one."""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    DevicePool,
    DeviceProfile,
    LobsterEngine,
    LobsterSession,
    VirtualDevice,
)
from _helpers import TC_PROGRAM, random_digraph


class TestDevicePool:
    def test_round_robin(self):
        pool = DevicePool(3)
        order = [pool.acquire()[0] for _ in range(7)]
        assert order == [0, 1, 2, 0, 1, 2, 0]

    def test_pooled_session_matches_plain_session(self):
        rng = np.random.default_rng(17)
        datasets = [random_digraph(rng, 20, 50) for _ in range(5)]

        def fill(session):
            tickets = []
            for edges in datasets:
                db = session.create_database()
                db.add_facts("edge", edges)
                tickets.append(session.submit(db))
            return tickets

        engine = LobsterEngine(TC_PROGRAM, provenance="unit")
        plain = LobsterSession(engine)
        plain_tickets = fill(plain)
        plain.run_all()

        pooled = LobsterSession(engine, pool=DevicePool(3))
        pooled_tickets = fill(pooled)
        report = pooled.run_all()

        assert report.pool_size == 3
        for pt, qt in zip(plain_tickets, pooled_tickets):
            assert (
                pooled.database(qt).result("path").rows()
                == plain.database(pt).result("path").rows()
            )

    def test_pooled_report_merges_device_profiles(self):
        rng = np.random.default_rng(19)
        engine = LobsterEngine(TC_PROGRAM, provenance="unit")
        pool = DevicePool(2)
        session = LobsterSession(engine, pool=pool)
        for _ in range(4):
            db = session.create_database()
            db.add_facts("edge", random_digraph(rng, 15, 40))
            session.submit(db)
        report = session.run_all()
        assert len(report.device_profiles) == 2
        merged = DeviceProfile.merge(report.device_profiles)
        assert report.profile.kernel_launches == merged.kernel_launches
        # The pool's live rollup agrees (profiles were reset at drain start).
        assert pool.merged_profile().kernel_launches == merged.kernel_launches
        # Both devices served some queries (round-robin over 4 queries).
        assert all(p.kernel_launches > 0 for p in report.device_profiles)
        assert report.makespan_seconds <= report.profile.busy_seconds


class TestDeviceProfileMerge:
    def test_counters_sum_and_peak_maxes(self):
        a = DeviceProfile(kernel_launches=3, bytes_allocated=100, peak_arena_bytes=50)
        a.instruction_counts = {"Probe": 2, "Build": 1}
        b = DeviceProfile(kernel_launches=5, bytes_allocated=10, peak_arena_bytes=80)
        b.instruction_counts = {"Probe": 4}
        merged = DeviceProfile.merge([a, b])
        assert merged.kernel_launches == 8
        assert merged.bytes_allocated == 110
        assert merged.peak_arena_bytes == 80
        assert merged.instruction_counts == {"Probe": 6, "Build": 1}

    def test_merge_of_nothing_is_zero(self):
        merged = DeviceProfile.merge([])
        assert merged.kernel_launches == 0
        assert merged.busy_seconds == 0.0

    def test_merge_matches_since_decomposition(self):
        device = VirtualDevice()
        before = device.profile.snapshot()
        device.record_transfer(1000, to_device=True)
        mid = device.profile.snapshot()
        device.record_kernel(500)
        first = mid.since(before)
        second = device.profile.since(mid)
        merged = DeviceProfile.merge([first, second])
        assert merged.transfer_bytes == device.profile.transfer_bytes
        assert merged.transfer_seconds == pytest.approx(
            device.profile.transfer_seconds
        )
        assert merged.kernel_seconds == pytest.approx(device.profile.kernel_seconds)
