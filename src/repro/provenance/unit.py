"""The ``unit`` semiring: discrete reasoning with no tag information.

This is the boolean semiring collapsed to its support — every derived fact
carries the trivial tag, so evaluation degenerates to classic set-semantics
Datalog (the mode used for Transitive Closure, Same Generation, and CSPA).
"""

from __future__ import annotations

import numpy as np

from .base import Provenance

_DTYPE = np.dtype(np.int8)


class UnitProvenance(Provenance):
    """Discrete Datalog: all tags are the single unit value."""

    name = "unit"
    idempotent_oplus = True
    distributive = True

    def tag_dtype(self) -> np.dtype:
        return _DTYPE

    def input_tags(self, fact_ids: np.ndarray) -> np.ndarray:
        return np.ones(len(fact_ids), dtype=_DTYPE)

    def one_tags(self, n: int) -> np.ndarray:
        return np.ones(n, dtype=_DTYPE)

    def otimes(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.ones(len(a), dtype=_DTYPE)

    def oplus_reduce(self, tags, segment_ids, nseg) -> np.ndarray:
        return np.ones(nseg, dtype=_DTYPE)

    def merge_existing(self, old, new):
        # A rediscovered discrete fact never improves: no tag to refine.
        return old, np.zeros(len(old), dtype=bool)

    def prob(self, tags: np.ndarray) -> np.ndarray:
        return np.ones(len(tags), dtype=np.float64)
