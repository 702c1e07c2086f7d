"""Virtual GPU substrate: device model, kernels, join index, bytecode VM.

The join index (:mod:`.hash_table`) looks groups up by binary search over
sorted keys; §5.1's open-addressing table is the device design its
modeled footprint follows."""

from .bytecode import BytecodeProgram, Instr, execute
from .device import DeviceProfile, VirtualDevice
from .hash_table import HashIndex

__all__ = [
    "BytecodeProgram",
    "DeviceProfile",
    "HashIndex",
    "Instr",
    "VirtualDevice",
    "execute",
]
