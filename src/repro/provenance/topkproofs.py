"""The general ``top-k-proofs`` semiring — CPU baseline only.

The paper explicitly does *not* port general top-k-proofs to the device
(§3.5 "Limitations"); Scallop supports it on the CPU.  We mirror that
split: this semiring implements only the scalar interface used by the
Scallop baseline engine, and ``supports_device`` is False.

Tags are tuples of proofs; a proof is a frozenset of input fact ids.  ⊗
takes pairwise unions (dropping exclusion conflicts), ⊕ unions the proof
sets; both keep the ``k`` most likely proofs.  Probabilities are computed
by inclusion–exclusion over the (at most ``k``) retained proofs, which is
exact under input-fact independence.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from .base import SATURATION_EPS, Provenance

Proof = frozenset
Tag = tuple  # tuple of Proof, sorted by descending probability


class TopKProofsProvenance(Provenance):
    """Scallop-style top-k proof tracking (scalar/CPU implementation)."""

    name = "top-k-proofs"
    supports_device = False
    is_differentiable = False
    names_facts = True  # proofs are sets of fact ids

    def __init__(self, k: int = 3):
        super().__init__()
        self.k = int(k)

    # -- scalar interface ------------------------------------------------

    def scalar_one(self) -> Tag:
        return (Proof(),)

    def scalar_zero(self) -> Tag:
        return ()

    def scalar_input(self, fact_id: int) -> Tag:
        if fact_id < 0:
            return self.scalar_one()
        return (Proof([int(fact_id)]),)

    def _proof_prob(self, proof: Proof) -> float:
        prob = 1.0
        for fact in proof:
            prob *= float(self.input_probs[fact])
        return prob

    def _conflicting(self, proof: Proof) -> bool:
        seen: dict[int, int] = {}
        for fact in proof:
            group = int(self.exclusion_groups[fact])
            if group < 0:
                continue
            if group in seen and seen[group] != fact:
                return True
            seen[group] = fact
        return False

    def _top_k(self, proofs: set[Proof]) -> Tag:
        ranked = sorted(proofs, key=lambda p: (-self._proof_prob(p), sorted(p)))
        return tuple(ranked[: self.k])

    def scalar_otimes(self, a: Tag, b: Tag) -> Tag:
        merged: set[Proof] = set()
        for pa in a:
            for pb in b:
                union = pa | pb
                if not self._conflicting(union):
                    merged.add(union)
        return self._top_k(merged)

    def scalar_oplus(self, a: Tag, b: Tag) -> Tag:
        return self._top_k(set(a) | set(b))

    def scalar_improved(self, old: Tag, new: Tag) -> bool:
        return self.scalar_oplus(old, new) != tuple(old)

    def scalar_prob(self, tag: Tag) -> float:
        """Inclusion–exclusion over the retained proofs."""
        proofs = list(tag)
        if not proofs:
            return 0.0
        total = 0.0
        for r in range(1, len(proofs) + 1):
            for subset in combinations(proofs, r):
                union = Proof().union(*subset)
                if self._conflicting(union):
                    continue
                term = self._proof_prob(union)
                total += term if r % 2 == 1 else -term
        return float(min(max(total, 0.0), 1.0))

    def scalar_is_zero(self, tag: Tag) -> bool:
        return len(tag) == 0

    # -- vectorized interface: unsupported on the device -----------------

    def tag_dtype(self) -> np.dtype:  # pragma: no cover - guarded by engine
        raise NotImplementedError("top-k-proofs has no device implementation")

    def input_tags(self, fact_ids):  # pragma: no cover
        raise NotImplementedError("top-k-proofs has no device implementation")

    def one_tags(self, n):  # pragma: no cover
        raise NotImplementedError("top-k-proofs has no device implementation")

    def otimes(self, a, b):  # pragma: no cover
        raise NotImplementedError("top-k-proofs has no device implementation")

    def oplus_reduce(self, tags, segment_ids, nseg):  # pragma: no cover
        raise NotImplementedError("top-k-proofs has no device implementation")

    def merge_existing(self, old, new):  # pragma: no cover
        raise NotImplementedError("top-k-proofs has no device implementation")

    def prob(self, tags):  # pragma: no cover
        raise NotImplementedError("top-k-proofs has no device implementation")
