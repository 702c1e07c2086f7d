"""Device pools: many independent queries across several virtual devices.

:mod:`~repro.dist.pool` holds the :class:`DevicePool` — round-robin or
least-loaded dispatch of independent session queries onto a fixed set of
devices, the substrate the serving scheduler drains micro-batches over.
"""

from .pool import DevicePool

__all__ = ["DevicePool"]
