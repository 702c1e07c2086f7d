"""The ``diff-add-mult-prob`` semiring.

The differentiable counterpart of add-mult-prob implemented with dual
numbers: each tag is a probability plus a **dense gradient vector** over
the run's probabilistic input facts.  Memory is O(#tags × #inputs), which
is why the paper prefers diff-top-1-proofs for large workloads; we provide
both, and the HWF workload (small per-sample fact counts) uses this one.

The tag dtype depends on the number of input facts, so it is finalized in
:meth:`setup` — semirings are bound to a run before compilation anyway.
"""

from __future__ import annotations

import numpy as np

from .base import SATURATION_EPS, Provenance
from ..gpu.kernels import segment_reduce_sum


class DiffAddMultProbProvenance(Provenance):
    """Differentiable sum-of-products via dense dual numbers."""

    name = "diff-addmultprob"
    is_differentiable = True
    names_facts = True  # the gradient vector is indexed by fact id

    def __init__(self) -> None:
        super().__init__()
        self._dtype: np.dtype | None = None

    def setup(self, input_probs, exclusion_groups=None) -> None:
        super().setup(input_probs, exclusion_groups)
        width = max(self.n_inputs, 1)
        self._dtype = np.dtype([("prob", "f8"), ("grad", "f8", (width,))])

    def tag_dtype(self) -> np.dtype:
        if self._dtype is None:
            raise RuntimeError("diff-addmultprob requires setup() before use")
        return self._dtype

    def one_tags(self, n: int) -> np.ndarray:
        out = np.zeros(n, dtype=self.tag_dtype())
        out["prob"] = 1.0
        return out

    def input_tags(self, fact_ids: np.ndarray) -> np.ndarray:
        fact_ids = np.asarray(fact_ids, dtype=np.int64)
        out = self.one_tags(len(fact_ids))
        tagged = np.flatnonzero(fact_ids >= 0)
        out["prob"][tagged] = self.input_probs[fact_ids[tagged]]
        out["grad"][tagged, fact_ids[tagged]] = 1.0
        return out

    def otimes(self, a, b) -> np.ndarray:
        out = np.zeros(len(a), dtype=self.tag_dtype())
        out["prob"] = a["prob"] * b["prob"]
        # Product rule on the dual part.
        out["grad"] = a["grad"] * b["prob"][:, None] + b["grad"] * a["prob"][:, None]
        return out

    def oplus_reduce(self, tags, segment_ids, nseg) -> np.ndarray:
        out = np.zeros(nseg, dtype=self.tag_dtype())
        out["prob"] = segment_reduce_sum(tags["prob"], segment_ids, nseg)
        np.add.at(out["grad"], segment_ids, tags["grad"])
        return out

    def merge_existing(self, old, new):
        merged = old.copy()
        merged["prob"] = old["prob"] + new["prob"]
        merged["grad"] = old["grad"] + new["grad"]
        improved = new["prob"] > SATURATION_EPS
        return merged, improved

    def prob(self, tags) -> np.ndarray:
        return np.clip(tags["prob"].astype(np.float64), 0.0, 1.0)

    def is_absorbing_zero(self, tags) -> np.ndarray:
        return tags["prob"] <= 0.0

    def backward(self, tags, grad_out, grad_in) -> None:
        if len(tags) == 0:
            return
        # Clip gradient is zero outside [0, 1]; inside it is the dual part.
        inside = (tags["prob"] > 0.0) & (tags["prob"] < 1.0)
        scale = np.where(inside, grad_out, 0.0)
        contribution = scale @ tags["grad"]
        grad_in[: len(contribution)] += contribution[: len(grad_in)]
