"""Provenance semiring interface (§3.1, §3.5).

A provenance semiring ``(T, 0, 1, ⊕, ⊗)`` dictates how tags combine when
facts are conjoined (joins, products) and disjoined (duplicate tuples
merging).  The device runtime calls the **vectorized** operations — whole
tag columns at a time, mirroring the paper's GPU-optimized tagged operators.
The CPU baselines (Scallop/ProbLog stand-ins) call the **scalar**
operations, which by default wrap the vectorized ones on length-1 arrays;
this shares one semantics definition between engines while preserving the
per-tuple vs per-column performance contrast the paper measures.

Concrete semirings register themselves in :mod:`repro.provenance.registry`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

#: Tag-improvement threshold for fix-point saturation.
SATURATION_EPS = 1e-9


class Provenance(ABC):
    """Base class for all provenance semirings."""

    #: Registry name, e.g. ``"minmaxprob"`` or ``"diff-top-1-proofs"``.
    name: str = ""
    #: Whether :meth:`backward` is implemented.
    is_differentiable: bool = False
    #: Whether the semiring has vectorized (device) operators.  The general
    #: top-k-proofs semiring is CPU-only, matching the paper's limitation.
    supports_device: bool = True
    #: Whether ⊕ is idempotent (x ⊕ x = x).  Semi-naive *incremental*
    #: re-evaluation re-derives overlapping facts from warm state, which
    #: only preserves semantics when repeated disjunction is absorbed;
    #: non-idempotent semirings (e.g. add-mult-prob's sum) fall back to a
    #: from-scratch rerun instead.
    idempotent_oplus: bool = False
    #: Whether ⊗ distributes over ⊕ *bitwise* on the tag representation:
    #: ``oplus_reduce`` over a segment followed by ``otimes`` with one tag
    #: equals ``otimes`` per member followed by ``oplus_reduce``, bit for
    #: bit.  The RAM lowering then projects join variables no later
    #: literal reads out of a rule body's intermediate and ⊕-deduplicates
    #: it before the next join (early aggregation).  Semirings whose ⊕
    #: picks a witness by position (diff-minmaxprob's earliest-row tie
    #: break) or whose ⊗ can merge two proofs into one (the proof
    #: semirings) stay ``False``.
    distributive: bool = False
    #: Whether a tag names input facts by id: a proof's fact ids, a
    #: witness fact, a gradient vector indexed by fact.  Such tags are
    #: only meaningful against their own database's fact ids, so
    #: ``LobsterSession.run_batch`` never folds several databases into
    #: one batched fix point (§4.3) under such a semiring.
    names_facts: bool = False

    def __init__(self) -> None:
        self.n_inputs = 0
        self.input_probs = np.zeros(0, dtype=np.float64)
        self.exclusion_groups = np.zeros(0, dtype=np.int64)

    # ------------------------------------------------------------------
    # Lifecycle

    def setup(
        self,
        input_probs: np.ndarray,
        exclusion_groups: np.ndarray | None = None,
    ) -> None:
        """Bind the semiring to this run's probabilistic input facts.

        ``input_probs[i]`` is the probability of input fact ``i``;
        ``exclusion_groups[i]`` is a mutual-exclusion group id (−1 for
        none).  Facts in the same group are alternative outcomes of one
        neural prediction (e.g. a softmax) and may not co-occur in a proof.
        """
        self.input_probs = np.asarray(input_probs, dtype=np.float64)
        self.n_inputs = len(self.input_probs)
        if exclusion_groups is None:
            exclusion_groups = np.full(self.n_inputs, -1, dtype=np.int64)
        self.exclusion_groups = np.asarray(exclusion_groups, dtype=np.int64)

    # ------------------------------------------------------------------
    # Vectorized (device) interface

    @abstractmethod
    def tag_dtype(self) -> np.dtype:
        """The numpy dtype of one tag (may be structured)."""

    @abstractmethod
    def input_tags(self, fact_ids: np.ndarray) -> np.ndarray:
        """Tags for EDB facts; ``fact_ids`` entries of −1 mean untagged
        (discrete) facts, which receive the semiring's ``1``."""

    @abstractmethod
    def one_tags(self, n: int) -> np.ndarray:
        """``n`` copies of the semiring's multiplicative identity."""

    @abstractmethod
    def otimes(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Elementwise conjunction of two tag columns."""

    @abstractmethod
    def oplus_reduce(
        self, tags: np.ndarray, segment_ids: np.ndarray, nseg: int
    ) -> np.ndarray:
        """Disjunction of duplicate tuples' tags.

        ``segment_ids`` (sorted, dense) maps each input tag to its output
        group; returns one combined tag per group.
        """

    @abstractmethod
    def merge_existing(
        self, old: np.ndarray, new: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """⊕ tags of facts rediscovered across iterations.

        Returns ``(merged_tags, improved)`` where ``improved`` marks facts
        whose tag strictly improved — those re-enter the semi-naive
        frontier (tag saturation, §3.4).
        """

    @abstractmethod
    def prob(self, tags: np.ndarray) -> np.ndarray:
        """Extract output probabilities (1.0 for discrete semirings)."""

    def is_absorbing_zero(self, tags: np.ndarray) -> np.ndarray:
        """Mask of tags equal to the semiring's 0 (droppable facts)."""
        return np.zeros(len(tags), dtype=bool)

    def backward(
        self, tags: np.ndarray, grad_out: np.ndarray, grad_in: np.ndarray
    ) -> None:
        """Accumulate d(loss)/d(input_probs) into ``grad_in``.

        ``grad_out[i]`` is the loss gradient w.r.t. ``prob(tags[i])``.
        Only differentiable semirings implement this.
        """
        raise NotImplementedError(f"{self.name} is not differentiable")

    # ------------------------------------------------------------------
    # Scalar interface (CPU baseline engines)

    def scalar_one(self):
        return self.one_tags(1)[0]

    def scalar_input(self, fact_id: int):
        return self.input_tags(np.array([fact_id], dtype=np.int64))[0]

    def scalar_otimes(self, a, b):
        return self.otimes(self._as1(a), self._as1(b))[0]

    def scalar_oplus(self, a, b):
        merged, _ = self.merge_existing(self._as1(a), self._as1(b))
        return merged[0]

    def scalar_improved(self, old, new) -> bool:
        _, improved = self.merge_existing(self._as1(old), self._as1(new))
        return bool(improved[0])

    def scalar_prob(self, tag) -> float:
        return float(self.prob(self._as1(tag))[0])

    def scalar_is_zero(self, tag) -> bool:
        return bool(self.is_absorbing_zero(self._as1(tag))[0])

    def _as1(self, tag) -> np.ndarray:
        out = np.empty(1, dtype=self.tag_dtype())
        out[0] = tag
        return out
