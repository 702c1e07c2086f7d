"""The FVLog baseline: GPU Datalog without an IR (§6.2, Fig. 13).

FVLog is the latest GPU-accelerated *discrete* Datalog engine.  It has no
IR, hence no IR-level optimizations — the Fig. 13/Table 3 comparison
attributes Lobster's edge to APM's optimization passes and runtime reuse.
This stand-in therefore runs Lobster's vectorized kernels on the same
Datalog source (so benchmarks hand both systems identical logic) with:

* no static hash-index cache — every ``Build`` re-hashes its side;
* no buffer reuse, through the device it runs on
  (``VirtualDevice(reuse_buffers=False)``, the default here): every
  allocation pays the simulated allocation latency, and an iteration's
  temporaries stay charged against the device's capacity, which is what
  makes FVLog run out of memory first in Table 3.

It does not model FVLog's per-stratum host<->device transfers: the
modeled transfer clock books Lobster's §5.3 offload window for both
engines.  Only the unit provenance is supported, matching FVLog's
discrete-only feature set.  The APM passes (DCE, projection fusion) run
here as everywhere; on the programs the stand-in is compared with (TC,
SameGen, CSPA) they change no instruction.
"""

from __future__ import annotations

from ..errors import LobsterError
from ..gpu.device import VirtualDevice
from ..runtime.engine import ExecutionResult, LobsterEngine, OptimizationConfig


class FVLogEngine(LobsterEngine):
    """Discrete-only vectorized engine with static indices and buffer reuse
    off."""

    def __init__(
        self,
        source: str,
        device: VirtualDevice | None = None,
        max_iterations: int = 100_000,
    ):
        device = device or VirtualDevice(reuse_buffers=False)
        super().__init__(
            source,
            provenance="unit",
            device=device,
            optimizations=OptimizationConfig(static_indices=False),
            max_iterations=max_iterations,
        )

    def run(self, database) -> ExecutionResult:
        if database.provenance.name != "unit":
            raise LobsterError("FVLog supports discrete reasoning only")
        return super().run(database)
