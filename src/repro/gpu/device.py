"""The virtual GPU device.

The paper executes APM on CUDA hardware.  This reproduction substitutes a
*virtual device*: numpy-vectorized kernels operating on whole columns, which
is the same SIMD computational model APM codifies (no per-row control flow,
contiguous columnar buffers).  The device additionally models the two
hardware resources the paper's experiments depend on:

* **memory capacity** — the interpreter charges live bytes against a byte
  budget; when they would exceed it,
  :class:`~repro.errors.DeviceOutOfMemory` is raised.  This reproduces the
  OOM rows of Table 3.
* **host<->device transfers** — moving a table on or off the device costs
  ``latency + bytes / bandwidth`` seconds of *simulated* time, accumulated in
  :attr:`DeviceProfile.transfer_seconds` at the edges of the stratum
  offload window (§5.3).

The device also keeps simple kernel-launch statistics used by tests and the
ablation benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Default PCIe-like transfer model (roughly a Gen3 x16 link).
DEFAULT_BANDWIDTH_BYTES_PER_S = 12e9
DEFAULT_TRANSFER_LATENCY_S = 10e-6
#: Simulated cost of a fresh device allocation (cudaMalloc-style latency);
#: buffer reuse (§4.1) avoids it after the first fix-point iteration.
ALLOC_LATENCY_S = 5e-6
#: Modeled kernel cost: a fixed launch overhead plus a per-row term.
#: This is the *simulated* compute clock — counter accounting, never
#: host wall time.
KERNEL_LAUNCH_S = 2e-6
KERNEL_ROW_COST_S = 5e-10


@dataclass
class DeviceProfile:
    """Counters accumulated while a device executes APM programs."""

    kernel_launches: int = 0
    bytes_allocated: int = 0
    peak_arena_bytes: int = 0
    allocation_count: int = 0
    reused_allocations: int = 0
    host_to_device_transfers: int = 0
    device_to_host_transfers: int = 0
    transfer_bytes: int = 0
    transfer_seconds: float = 0.0
    alloc_seconds: float = 0.0
    #: Modeled device compute time (launch overhead + per-row cost).
    kernel_seconds: float = 0.0
    instruction_counts: dict[str, int] = field(default_factory=dict)

    def record_instruction(self, name: str) -> None:
        self.kernel_launches += 1
        self.instruction_counts[name] = self.instruction_counts.get(name, 0) + 1

    def reset(self) -> None:
        self.__init__()

    def snapshot(self) -> "DeviceProfile":
        """An independent copy of the current counters, for computing
        per-run deltas on a device shared across runs (sessions)."""
        copy = DeviceProfile(
            **{
                key: value
                for key, value in self.__dict__.items()
                if key != "instruction_counts"
            }
        )
        copy.instruction_counts = dict(self.instruction_counts)
        return copy

    def restore(self, snapshot: "DeviceProfile") -> None:
        """Roll the counters back, in place, to ``snapshot`` (taken by
        :meth:`snapshot`): work abandoned since then leaves no charge."""
        self.__dict__.update(snapshot.snapshot().__dict__)

    @property
    def busy_seconds(self) -> float:
        """Modeled time this device spent occupied: kernels, host
        transfers and allocation latency.  The makespan of a device pool
        is the max of its devices' ``busy_seconds`` (devices run
        concurrently in the simulation)."""
        return self.kernel_seconds + self.transfer_seconds + self.alloc_seconds

    def busy_breakdown(self) -> "dict[str, float]":
        """The additive components of :attr:`busy_seconds`, keyed for
        metrics export — the serving layer publishes these as per-device
        gauges so operators can see *why* a device is the bottleneck
        (compute vs host transfers vs allocation)."""
        return {
            "kernel_seconds": self.kernel_seconds,
            "transfer_seconds": self.transfer_seconds,
            "alloc_seconds": self.alloc_seconds,
        }

    @classmethod
    def merge(cls, profiles: "list[DeviceProfile]") -> "DeviceProfile":
        """Counter-wise aggregation of several device profiles.

        Counters sum; ``peak_arena_bytes`` is a high-water mark, so the
        max is taken; ``instruction_counts`` merge per instruction.  Used
        to roll per-pool-device profiles up into one fleet-wide view.
        """
        merged = cls()
        for profile in profiles:
            for key, value in profile.__dict__.items():
                if key == "instruction_counts":
                    continue
                if key == "peak_arena_bytes":
                    merged.peak_arena_bytes = max(merged.peak_arena_bytes, value)
                else:
                    setattr(merged, key, getattr(merged, key) + value)
            for name, count in profile.instruction_counts.items():
                merged.instruction_counts[name] = (
                    merged.instruction_counts.get(name, 0) + count
                )
        return merged

    def since(self, before: "DeviceProfile") -> "DeviceProfile":
        """Counters accumulated after ``before`` was snapshotted.

        ``peak_arena_bytes`` is a high-water mark, not a counter, so the
        later absolute value is reported rather than a difference.
        """
        delta = DeviceProfile()
        for key, value in self.__dict__.items():
            if key == "instruction_counts":
                continue
            if key == "peak_arena_bytes":
                setattr(delta, key, value)
            else:
                setattr(delta, key, value - getattr(before, key))
        delta.instruction_counts = {
            name: count - before.instruction_counts.get(name, 0)
            for name, count in self.instruction_counts.items()
            if count - before.instruction_counts.get(name, 0)
        }
        return delta


class VirtualDevice:
    """Static-register store with a memory, allocation and transfer model.

    Parameters
    ----------
    capacity_bytes:
        Maximum number of live bytes — registers, stored relations and
        retained temporaries, as the interpreter counts them.  ``None``
        means unbounded.
    bandwidth_bytes_per_s, transfer_latency_s:
        Parameters of the host<->device transfer cost model.
    reuse_buffers:
        The allocator setting (the buffer-reuse optimization of §4.1), read
        by every interpreter running on this device.  When True, an
        allocation at an allocation site already seen is counted in
        :attr:`DeviceProfile.reused_allocations` and pays no simulated
        allocation latency, and an iteration's temporaries are recycled
        into the next.  When False, every allocation pays
        ``ALLOC_LATENCY_S`` (charged in
        ``ExecutionResult.simulated_overhead_seconds``) and a stratum's
        temporaries stay charged against ``capacity_bytes`` until it
        ends — the fragmentation that makes a no-reuse engine run out of
        memory first.
    """

    def __init__(
        self,
        capacity_bytes: int | None = None,
        bandwidth_bytes_per_s: float = DEFAULT_BANDWIDTH_BYTES_PER_S,
        transfer_latency_s: float = DEFAULT_TRANSFER_LATENCY_S,
        reuse_buffers: bool = True,
    ):
        self.capacity_bytes = capacity_bytes
        self.bandwidth_bytes_per_s = bandwidth_bytes_per_s
        self.transfer_latency_s = transfer_latency_s
        self.reuse_buffers = reuse_buffers
        self.profile = DeviceProfile()
        # Static registers (hash indices reused across iterations, §4.2).
        self._statics: dict[object, object] = {}

    # ------------------------------------------------------------------
    # Static registers (§4.2)

    def get_static(self, key: object) -> object | None:
        return self._statics.get(key)

    def set_static(self, key: object, value: object) -> None:
        self._statics[key] = value

    def clear_statics(self) -> None:
        self._statics.clear()

    # ------------------------------------------------------------------
    # Transfer model (§5.3)

    def transfer_cost(self, nbytes: int) -> float:
        return self.transfer_latency_s + nbytes / self.bandwidth_bytes_per_s

    def record_transfer(self, nbytes: int, to_device: bool) -> None:
        if to_device:
            self.profile.host_to_device_transfers += 1
        else:
            self.profile.device_to_host_transfers += 1
        self.profile.transfer_bytes += nbytes
        self.profile.transfer_seconds += self.transfer_cost(nbytes)

    # ------------------------------------------------------------------
    # Kernel cost model

    def record_kernel(self, n_rows: int) -> None:
        """Charge the modeled compute clock for one kernel producing
        ``n_rows`` output rows (launch overhead + per-row cost)."""
        self.profile.kernel_seconds += KERNEL_LAUNCH_S + n_rows * KERNEL_ROW_COST_S
