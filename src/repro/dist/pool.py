"""A pool of virtual devices for throughput serving.

A :class:`DevicePool` spreads *independent* queries across N devices
(throughput scaling) — the serving-fleet pattern for a :class:`~repro.runtime.session.
LobsterSession` draining many databases, and the dispatch substrate of
the :class:`~repro.serve.scheduler.Scheduler`.

Two acquisition policies are supported:

* ``"round-robin"`` — fair rotation, oblivious to load; right when
  queries are i.i.d. and the pool drains an offline batch.
* ``"least-loaded"`` — pick the device with the smallest modeled
  :attr:`~repro.gpu.device.DeviceProfile.busy_seconds`; right for
  online serving, where query cost varies and a hot device would
  otherwise keep receiving work it cannot start.

The pool is thread-safe: worker threads can interleave :meth:`acquire`
calls and still get a fair (or load-balanced) assignment.
"""

from __future__ import annotations

import threading

from ..gpu.device import DeviceProfile, VirtualDevice

#: Valid acquisition policies.
POLICIES = ("round-robin", "least-loaded")


class DevicePool:
    """Scheduler over a fixed set of virtual devices."""

    def __init__(
        self,
        n_devices: int = 2,
        devices: list[VirtualDevice] | None = None,
        policy: str = "round-robin",
        **device_kwargs,
    ):
        """Builds ``n_devices`` fresh :class:`VirtualDevice`\\ s (passing
        ``device_kwargs`` through) unless ``devices`` supplies the pool
        explicitly.  ``policy`` sets the default acquisition mode."""
        if devices is not None:
            self.devices = list(devices)
        else:
            self.devices = [VirtualDevice(**device_kwargs) for _ in range(n_devices)]
        if not self.devices:
            raise ValueError("DevicePool needs at least one device")
        if policy not in POLICIES:
            raise ValueError(f"unknown pool policy {policy!r}; pick from {POLICIES}")
        self.policy = policy
        self._next = 0
        self._lock = threading.Lock()
        #: Serializes session drains over this pool (see LobsterSession:
        #: sessions sharing a pool must not interleave on its devices).
        self._drain_lock = threading.Lock()

    def __len__(self) -> int:
        return len(self.devices)

    def acquire(
        self,
        policy: str | None = None,
        eligible: list[int] | None = None,
    ) -> tuple[int, VirtualDevice]:
        """Next ``(index, device)`` under ``policy`` (default: the
        pool's own), thread-safe.

        ``eligible`` restricts the choice to a subset of device indices
        — the serving scheduler passes the devices that are *free on
        the serve clock*, so least-loaded selection never lands a batch
        on a device that is still mid-batch in simulated time.
        """
        policy = policy or self.policy
        if policy not in POLICIES:
            raise ValueError(f"unknown pool policy {policy!r}; pick from {POLICIES}")
        if eligible is None:
            indices: list[int] | range = range(len(self.devices))
        else:
            bad = [i for i in eligible if not 0 <= i < len(self.devices)]
            if bad:
                raise ValueError(
                    f"eligible indices {bad} out of range for a "
                    f"{len(self.devices)}-device pool"
                )
            indices = eligible
        if not indices:
            raise ValueError("acquire() needs at least one eligible device")
        with self._lock:
            if policy == "round-robin":
                if eligible is None:
                    index = self._next
                    self._next = (self._next + 1) % len(self.devices)
                else:
                    # Rotate within the eligible subset, preserving the
                    # global cursor's fairness.
                    index = min(
                        indices,
                        key=lambda i: ((i - self._next) % len(self.devices), i),
                    )
                    self._next = (index + 1) % len(self.devices)
            else:  # least-loaded: smallest modeled busy time, ties -> lowest index
                index = min(
                    indices,
                    key=lambda i: (self.devices[i].profile.busy_seconds, i),
                )
        return index, self.devices[index]

    def merged_profile(self) -> DeviceProfile:
        """Counter-wise rollup of every device's live profile."""
        return DeviceProfile.merge([device.profile for device in self.devices])
