"""The ``max-min-prob`` semiring (Fig. 5b).

Tags are probabilities in [0, 1]; conjunction takes the min (a chain is only
as likely as its weakest link), disjunction the max (the best derivation
wins).  This is the fuzzy-logic approximation used by the paper's
Probabilistic Static Analysis benchmark (``minmaxprob`` in Table 2).
"""

from __future__ import annotations

import numpy as np

from .base import SATURATION_EPS, Provenance
from ..gpu.kernels import segment_reduce_max

_DTYPE = np.dtype(np.float64)


class MinMaxProbProvenance(Provenance):
    """Probabilities with ⊗ = min and ⊕ = max."""

    name = "minmaxprob"
    idempotent_oplus = True  # ⊕ = max
    distributive = True  # min(max(a, b), c) = max(min(a, c), min(b, c))

    def tag_dtype(self) -> np.dtype:
        return _DTYPE

    def input_tags(self, fact_ids: np.ndarray) -> np.ndarray:
        fact_ids = np.asarray(fact_ids, dtype=np.int64)
        out = np.ones(len(fact_ids), dtype=_DTYPE)
        tagged = fact_ids >= 0
        out[tagged] = self.input_probs[fact_ids[tagged]]
        return out

    def one_tags(self, n: int) -> np.ndarray:
        return np.ones(n, dtype=_DTYPE)

    def otimes(self, a, b) -> np.ndarray:
        return np.minimum(a, b)

    def oplus_reduce(self, tags, segment_ids, nseg) -> np.ndarray:
        return segment_reduce_max(tags, segment_ids, nseg).astype(_DTYPE)

    def merge_existing(self, old, new):
        merged = np.maximum(old, new)
        improved = new > old + SATURATION_EPS
        return merged, improved

    def prob(self, tags) -> np.ndarray:
        return np.asarray(tags, dtype=np.float64)

    def is_absorbing_zero(self, tags) -> np.ndarray:
        return np.asarray(tags) <= 0.0
