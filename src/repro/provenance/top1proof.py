"""The ``top-1-proof`` semiring (§3.5).

Each tag carries *one* conjunction of input-fact ids — the most likely
proof of the fact — plus its probability.  Disjunction keeps the more
likely proof; conjunction merges the two proofs, deduplicates, and zeroes
the result on a mutual-exclusion conflict or proof-capacity overflow.

The paper fixes the maximum proof size statically (they use 300; we default
to 64, configurable) so tags occupy fixed-size vector registers — the key
property that lets proofs live on the device.

``proof_capacity`` is that storage width and the overflow limit (a union
of more ids is the absorbing zero) — not the width the kernels run at.
Stored proofs are sorted and left-justified, so a batch's ids all sit in
its first ``max(size)`` columns, its *live width* (:func:`live_proofs`);
the kernels run on those columns and pad to capacity once, on output.
That is bit-identical to running at capacity: the dropped columns hold
only ``PAD``, which sorts last, is neither duplicate nor conflict, and
contributes an exact ``× 1.0``; products keep ascending fact-id order.

Exclusion-group conflict detection relies on the runtime's guarantee that
facts within one exclusion group receive *contiguous* fact ids, so after
sorting a proof by fact id, conflicting facts are adjacent.
"""

from __future__ import annotations

import operator

import numpy as np

from .base import SATURATION_EPS, Provenance
from ..errors import ProvenanceError
from ..gpu.kernels import segment_argmax

#: Sentinel for empty proof slots; sorts after any real fact id.
PAD = np.int64(2**62)

DEFAULT_PROOF_CAPACITY = 64


def positive_int(semiring: str, parameter: str, value) -> int:
    """``value`` as an ``int`` of at least 1 — a register dimension.
    Takes what :func:`operator.index` takes except ``bool``, so ``1.5``
    and ``"4"`` are refused rather than truncated or parsed; anything else
    raises :class:`~repro.errors.ProvenanceError` naming the semiring and
    the parameter."""
    try:
        number = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        number = None
    if number is None or number < 1:
        raise ProvenanceError(
            f"provenance {semiring!r}: {parameter} must be an integer >= 1, got {value!r}"
        )
    return number


class Top1ProofProvenance(Provenance):
    """Probabilistic reasoning tracking a single most-likely proof."""

    name = "prob-top-1-proofs"
    idempotent_oplus = True  # ⊕ keeps the single most likely proof
    names_facts = True  # a proof is a set of fact ids

    def __init__(self, proof_capacity: int = DEFAULT_PROOF_CAPACITY):
        super().__init__()
        self.proof_capacity = positive_int(self.name, "proof_capacity", proof_capacity)
        self._dtype = np.dtype(
            [("prob", "f8"), ("size", "i8"), ("proof", "i8", (self.proof_capacity,))]
        )

    # ------------------------------------------------------------------

    def tag_dtype(self) -> np.dtype:
        return self._dtype

    def one_tags(self, n: int) -> np.ndarray:
        out = np.zeros(n, dtype=self._dtype)
        out["prob"] = 1.0
        out["proof"] = PAD
        return out

    def zero_tags(self, n: int) -> np.ndarray:
        out = np.zeros(n, dtype=self._dtype)
        out["size"] = -1
        out["proof"] = PAD
        return out

    def input_tags(self, fact_ids: np.ndarray) -> np.ndarray:
        fact_ids = np.asarray(fact_ids, dtype=np.int64)
        out = self.one_tags(len(fact_ids))
        tagged = fact_ids >= 0
        out["prob"][tagged] = self.input_probs[fact_ids[tagged]]
        out["size"][tagged] = 1
        out["proof"][tagged, 0] = fact_ids[tagged]
        return out

    # ------------------------------------------------------------------

    def merge_proof_arrays(
        self, proofs_a: np.ndarray, proofs_b: np.ndarray, dead_in: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Union two batches of proofs: dedupe, conflict-check, score.

        ``proofs_a``/``proofs_b`` are (n, wa)/(n, wb) fact-id arrays padded
        with PAD — any widths that hold every id, normally the operands'
        :func:`live_proofs`; ``dead_in`` marks rows already absorbed to 0.
        Returns ``(merged, sizes, probs)`` with dead rows zeroed and
        ``merged`` cut to the result's own live width (≤ capacity) — the
        kernel behind top-1 conjunction.
        """
        merged = np.concatenate([proofs_a, proofs_b], axis=1)
        merged.sort(axis=1)
        # Blank out duplicate fact ids, then re-sort to left-justify.
        dup = (merged[:, 1:] == merged[:, :-1]) & (merged[:, 1:] != PAD)
        if dup.any():
            merged[:, 1:][dup] = PAD
            merged.sort(axis=1)

        valid = merged != PAD
        sizes = valid.sum(axis=1)
        overflow = sizes > self.proof_capacity

        # Conflicts: adjacent distinct facts sharing an exclusion group
        # (group members hold contiguous fact ids, so sorting by fact id
        # makes conflicting facts adjacent).
        safe = np.clip(merged, 0, max(self.n_inputs - 1, 0))
        groups = np.where(valid, self.exclusion_groups[safe], -1)
        adjacent_conflict = (
            (groups[:, 1:] == groups[:, :-1])
            & (groups[:, 1:] != -1)
            & (merged[:, 1:] != merged[:, :-1])
            & valid[:, 1:]
        )
        conflict = adjacent_conflict.any(axis=1)

        probs = np.where(valid, self.input_probs[safe], 1.0).prod(axis=1)

        dead = overflow | conflict | dead_in
        if dead.any():
            probs = np.where(dead, 0.0, probs)
            sizes = np.where(dead, -1, sizes)
            merged[dead] = PAD
        return merged[:, : live_width(sizes)], sizes, probs

    def otimes(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        dead_in = (a["size"] < 0) | (b["size"] < 0)
        merged, sizes, probs = self.merge_proof_arrays(
            live_proofs(a), live_proofs(b), dead_in
        )
        out = self.zero_tags(len(a))
        out["proof"][:, : merged.shape[1]] = merged
        out["size"] = sizes
        out["prob"] = probs
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
        return tags["size"] < 0


def live_width(sizes: np.ndarray) -> int:
    """Columns a batch of proofs occupies: its longest proof (dead tags
    carry size −1 and an all-PAD proof, so they add nothing)."""
    return max(int(sizes.max()), 0) if sizes.size else 0


def live_proofs(tags: np.ndarray) -> np.ndarray:
    """The ``proof`` field cut to the batch's live width.  Proofs are
    sorted and left-justified, so every column past it is PAD."""
    return tags["proof"][..., : live_width(tags["size"])]


def leave_one_out_products(probs: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """For each row i and valid slot j: product of row i's other valid probs.

    Handles zeros exactly (division-free when a zero is present), which
    matters because neural predictions can be exactly 0 early in training.
    ``probs`` has invalid entries already replaced by 1.0.
    """
    zero = (probs == 0.0) & valid
    zero_count = zero.sum(axis=1)
    nonzero_probs = np.where(zero, 1.0, probs)
    prod_nonzero = nonzero_probs.prod(axis=1)

    out = np.zeros_like(probs)
    # No zeros in row: standard ratio.
    row_no_zero = zero_count == 0
    with np.errstate(divide="ignore", invalid="ignore"):
        out[row_no_zero] = (
            prod_nonzero[row_no_zero, None] / probs[row_no_zero]
        )
    # Exactly one zero: only that slot gets the product of the others.
    row_one_zero = zero_count == 1
    out[row_one_zero] = np.where(
        zero[row_one_zero], prod_nonzero[row_one_zero, None], 0.0
    )
    # Two or more zeros: every leave-one-out product is zero (already 0).
    return np.where(valid, out, 0.0)
