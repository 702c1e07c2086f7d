"""Device (vectorized) top-k-proofs — the paper's §3.5 extension.

The paper ships top-1-proofs on the GPU and notes "Lobster could also
easily be extended to track larger k".  This module is that extension:
tags carry up to ``k`` proofs, each a fixed-capacity fact-id array, laid
out as flat per-slot vectors so they still fit APM's vector registers.

* ⊗ forms all k x k pairwise proof unions (through the same merge kernel
  as top-1), deduplicates by proof hash, and keeps the k most likely.
* ⊕ pools the proofs of duplicate tuples and keeps the k most likely
  distinct ones.
* ``prob`` is exact inclusion-exclusion over the retained proofs (2^k - 1
  terms; k is small), honouring exclusion-group conflicts.
* the differentiable variant backpropagates through the
  inclusion-exclusion formula with leave-one-out products per term.

Proof identity uses a 64-bit splitmix hash of the padded fact-id vector;
a collision would merge two distinct proofs, with probability ~2^-64 per
pair — the standard GPU trade (documented, not corrected).
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from .base import SATURATION_EPS, Provenance
from .top1proof import (
    DEFAULT_PROOF_CAPACITY,
    PAD,
    Top1ProofProvenance,
    leave_one_out_products,
    live_proofs,
    live_width,
    positive_int,
)

DEFAULT_K = 3


def _hash_proofs(proofs: np.ndarray) -> np.ndarray:
    """64-bit hash per proof row (..., cap) -> (...,)."""
    with np.errstate(over="ignore"):
        z = proofs.astype(np.uint64) + np.uint64(0x9E3779B97F4A7C15)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        z = z ^ (z >> np.uint64(31))
        acc = np.zeros(proofs.shape[:-1], dtype=np.uint64)
        for position in range(proofs.shape[-1]):
            acc = acc * np.uint64(0x100000001B3) + z[..., position]
    return acc


class TopKProofsDeviceProvenance(Provenance):
    """Vectorized top-k proof tracking (k >= 1)."""

    name = "top-k-proofs-device"
    idempotent_oplus = True  # ⊕ unions proof sets, deduped, keeps top k

    def __init__(self, k: int = DEFAULT_K, proof_capacity: int = DEFAULT_PROOF_CAPACITY):
        super().__init__()
        self.k = positive_int(self.name, "k", k)
        self.proof_capacity = positive_int(self.name, "proof_capacity", proof_capacity)
        # Reuse top-1's merge kernel for pairwise proof unions.
        self._merger = Top1ProofProvenance(self.proof_capacity)
        self._dtype = np.dtype(
            [
                ("prob", "f8", (self.k,)),
                ("size", "i8", (self.k,)),
                ("proof", "i8", (self.k, self.proof_capacity)),
            ]
        )

    def setup(self, input_probs, exclusion_groups=None) -> None:
        super().setup(input_probs, exclusion_groups)
        self._merger.setup(input_probs, exclusion_groups)

    # ------------------------------------------------------------------

    def tag_dtype(self) -> np.dtype:
        return self._dtype

    def one_tags(self, n: int) -> np.ndarray:
        out = np.zeros(n, dtype=self._dtype)
        out["proof"] = PAD
        out["size"] = -1
        out["size"][:, 0] = 0
        out["prob"][:, 0] = 1.0
        return out

    def input_tags(self, fact_ids: np.ndarray) -> np.ndarray:
        fact_ids = np.asarray(fact_ids, dtype=np.int64)
        out = self.one_tags(len(fact_ids))
        tagged = fact_ids >= 0
        out["prob"][tagged, 0] = self.input_probs[fact_ids[tagged]]
        out["size"][tagged, 0] = 1
        out["proof"][tagged, 0, 0] = fact_ids[tagged]
        return out

    # ------------------------------------------------------------------

    def otimes(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        n = len(a)
        k = self.k
        # All k x k pairwise unions, flattened to (n * k^2, live width).
        pa, pb = live_proofs(a), live_proofs(b)
        pa = np.repeat(pa, k, axis=1).reshape(n * k * k, pa.shape[-1])
        pb = np.tile(pb, (1, k, 1)).reshape(n * k * k, pb.shape[-1])
        dead = (
            np.repeat(a["size"] < 0, k, axis=1) | np.tile(b["size"] < 0, (1, k))
        ).reshape(n * k * k)
        merged, sizes, probs = self._merger.merge_proof_arrays(pa, pb, dead)
        return self._select_top_k(
            merged.reshape(n, k * k, merged.shape[-1]),
            sizes.reshape(n, k * k),
            probs.reshape(n, k * k),
        )

    def _select_top_k(
        self, proofs: np.ndarray, sizes: np.ndarray, probs: np.ndarray
    ) -> np.ndarray:
        """Per row: keep the k most likely *distinct* live proofs.

        ``proofs`` is (n, m, w) with m candidate proofs per row, at any
        width w <= capacity that holds every candidate.
        """
        n, m, width = proofs.shape
        alive = sizes >= 0
        scores = np.where(alive, probs, -1.0)
        order = np.argsort(-scores, axis=1, kind="stable")
        rows = np.arange(n)[:, None]
        proofs = proofs[rows, order]
        sizes = sizes[rows, order]
        probs = probs[rows, order]
        alive = alive[rows, order]

        hashes = _hash_proofs(proofs)
        # Mark duplicates of any earlier (more likely) candidate.
        duplicate = np.zeros((n, m), dtype=bool)
        for later in range(1, m):
            for earlier in range(later):
                duplicate[:, later] |= hashes[:, later] == hashes[:, earlier]
        keep = alive & ~duplicate
        # Rank kept candidates; those with rank < k land in the output.
        rank = np.cumsum(keep, axis=1) - 1
        out = np.zeros(n, dtype=self._dtype)
        out["proof"] = PAD
        out["size"] = -1
        slot_rows, slot_cols = np.nonzero(keep & (rank < self.k))
        dest = rank[slot_rows, slot_cols]
        out["proof"][slot_rows, dest, :width] = proofs[slot_rows, slot_cols]
        out["size"][slot_rows, dest] = sizes[slot_rows, slot_cols]
        out["prob"][slot_rows, dest] = probs[slot_rows, slot_cols]
        return out

    def oplus_reduce(self, tags, segment_ids, nseg) -> np.ndarray:
        # Pool every member's k proofs per segment, then re-select.  The
        # per-segment candidate count is unbounded, so segments are
        # processed through a padded gather: first order members by
        # probability, keep each segment's top (k * max_needed) slots.
        n = len(tags)
        if n == 0:
            return np.zeros(0, dtype=self._dtype)
        counts = np.bincount(segment_ids, minlength=nseg)
        max_members = int(counts.max()) if len(counts) else 0
        candidates = max_members * self.k
        live = live_proofs(tags)
        proofs = np.full((nseg, candidates, live.shape[-1]), PAD, dtype=np.int64)
        sizes = np.full((nseg, candidates), -1, dtype=np.int64)
        probs = np.zeros((nseg, candidates))
        # Slot of each member within its segment.
        firsts = np.zeros(n, dtype=np.int64)
        firsts[1:] = segment_ids[1:] != segment_ids[:-1]
        starts = np.flatnonzero(np.concatenate([[True], segment_ids[1:] != segment_ids[:-1]]))
        member_rank = np.arange(n) - starts[np.cumsum(firsts)]
        base = member_rank * self.k
        for slot in range(self.k):
            proofs[segment_ids, base + slot] = live[:, slot]
            sizes[segment_ids, base + slot] = tags["size"][:, slot]
            probs[segment_ids, base + slot] = tags["prob"][:, slot]
        return self._select_top_k(proofs, sizes, probs)

    def merge_existing(self, old, new):
        sizes = np.concatenate([old["size"], new["size"]], axis=1)
        probs = np.concatenate([old["prob"], new["prob"]], axis=1)
        # One width for both sides and the result (a selection of them),
        # so the hashes below compare like with like.
        width = live_width(sizes)
        old_proofs = old["proof"][:, :, :width]
        proofs = np.concatenate([old_proofs, new["proof"][:, :, :width]], axis=1)
        merged = self._select_top_k(proofs, sizes, probs)
        improved = ~np.all(
            (_hash_proofs(merged["proof"][:, :, :width]) == _hash_proofs(old_proofs))
            | (merged["size"] < 0) & (old["size"] < 0),
            axis=1,
        )
        return merged, improved

    # ------------------------------------------------------------------

    def prob(self, tags) -> np.ndarray:
        """Exact inclusion-exclusion over each tag's retained proofs."""
        n = len(tags)
        total = np.zeros(n)
        alive = tags["size"] >= 0
        live = live_proofs(tags)
        union_cache: dict[frozenset, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        for slot in range(self.k):
            union_cache[frozenset([slot])] = (
                live[:, slot],
                np.where(alive[:, slot], 0, 1).astype(bool),  # dead mask
                np.where(alive[:, slot], tags["prob"][:, slot], 0.0),
            )
        for r in range(1, self.k + 1):
            sign = 1.0 if r % 2 == 1 else -1.0
            for subset in combinations(range(self.k), r):
                key = frozenset(subset)
                if key not in union_cache:
                    prefix = union_cache[frozenset(subset[:-1])]
                    last = union_cache[frozenset([subset[-1]])]
                    dead = prefix[1] | last[1]
                    merged, sizes, probs = self._merger.merge_proof_arrays(
                        prefix[0], last[0], dead
                    )
                    union_cache[key] = (merged, sizes < 0, probs)
                member_alive = np.ones(n, dtype=bool)
                for slot in subset:
                    member_alive &= alive[:, slot]
                _, dead, probs = union_cache[key]
                total += sign * np.where(member_alive & ~dead, probs, 0.0)
        return np.clip(total, 0.0, 1.0)

    def is_absorbing_zero(self, tags) -> np.ndarray:
        return (tags["size"] < 0).all(axis=1)


class DiffTopKProofsDeviceProvenance(TopKProofsDeviceProvenance):
    """Differentiable device top-k: gradients through inclusion-exclusion."""

    name = "diff-top-k-proofs-device"
    is_differentiable = True

    def backward(self, tags, grad_out, grad_in) -> None:
        n = len(tags)
        if n == 0:
            return
        alive = tags["size"] >= 0
        live = live_proofs(tags)
        union_cache: dict[frozenset, tuple[np.ndarray, np.ndarray]] = {}
        for slot in range(self.k):
            union_cache[frozenset([slot])] = (
                live[:, slot],
                ~alive[:, slot],
            )
        for r in range(1, self.k + 1):
            sign = 1.0 if r % 2 == 1 else -1.0
            for subset in combinations(range(self.k), r):
                key = frozenset(subset)
                if key not in union_cache:
                    prefix = union_cache[frozenset(subset[:-1])]
                    last = union_cache[frozenset([subset[-1]])]
                    dead = prefix[1] | last[1]
                    merged, sizes, _ = self._merger.merge_proof_arrays(
                        prefix[0], last[0], dead
                    )
                    union_cache[key] = (merged, sizes < 0)
                proofs, dead = union_cache[key]
                member_alive = np.ones(n, dtype=bool)
                for slot in subset:
                    member_alive &= alive[:, slot]
                live = member_alive & ~dead
                if not live.any():
                    continue
                valid = (proofs != PAD) & live[:, None]
                safe = np.clip(proofs, 0, max(self.n_inputs - 1, 0))
                member_probs = np.where(valid, self.input_probs[safe], 1.0)
                partials = leave_one_out_products(member_probs, valid)
                weighted = partials * (sign * grad_out)[:, None]
                np.add.at(grad_in, safe[valid], weighted[valid])
