"""The ``diff-max-min-prob`` semiring.

The differentiable counterpart of max-min-prob: each tag carries its
probability plus the id of the *witness* input fact whose probability
currently determines it (the arg-min along the conjunctions, arg-max across
disjunctions).  The gradient of the output w.r.t. that witness is exactly 1
and 0 for every other input, so backward is a scatter-add.
"""

from __future__ import annotations

import numpy as np

from .base import SATURATION_EPS, Provenance
from ..gpu.kernels import segment_argmax


class DiffMinMaxProbProvenance(Provenance):
    """Differentiable fuzzy reasoning: (prob, witness fact id) tags."""

    name = "diff-minmaxprob"
    is_differentiable = True
    idempotent_oplus = True  # ⊕ = max (witness rides along)
    names_facts = True  # the witness is a fact id

    _dtype = np.dtype([("prob", "f8"), ("fact", "i8")])

    def tag_dtype(self) -> np.dtype:
        return self._dtype

    def one_tags(self, n: int) -> np.ndarray:
        out = np.zeros(n, dtype=self._dtype)
        out["prob"] = 1.0
        out["fact"] = -1
        return out

    def input_tags(self, fact_ids: np.ndarray) -> np.ndarray:
        fact_ids = np.asarray(fact_ids, dtype=np.int64)
        out = self.one_tags(len(fact_ids))
        tagged = fact_ids >= 0
        out["prob"][tagged] = self.input_probs[fact_ids[tagged]]
        out["fact"][tagged] = fact_ids[tagged]
        return out

    def otimes(self, a, b) -> np.ndarray:
        take_a = a["prob"] <= b["prob"]
        out = b.copy()
        out[take_a] = a[take_a]
        return out

    def oplus_reduce(self, tags, segment_ids, nseg) -> np.ndarray:
        winners = segment_argmax(tags["prob"], segment_ids, nseg)
        return tags[winners]

    def merge_existing(self, old, new):
        improved = new["prob"] > old["prob"] + SATURATION_EPS
        merged = old.copy()
        merged[improved] = new[improved]
        return merged, improved

    def prob(self, tags) -> np.ndarray:
        return tags["prob"].astype(np.float64)

    def is_absorbing_zero(self, tags) -> np.ndarray:
        return tags["prob"] <= 0.0

    def backward(self, tags, grad_out, grad_in) -> None:
        facts = tags["fact"]
        has_witness = facts >= 0
        np.add.at(grad_in, facts[has_witness], grad_out[has_witness])
