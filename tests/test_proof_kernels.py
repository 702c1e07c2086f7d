"""Proof kernels at live width, and the ⊕ that ``advance`` no longer runs.

Three facts the storage-width → live-width change rests on:

* the live-width merge kernel is **bitwise** the full-width one (kept
  here, verbatim, as the oracle) — ids, sizes and probabilities;
* ⊕ over singleton segments of a ⊕ output is the bitwise identity for
  every device semiring — what lets ``StoredRelation.advance`` use the
  deduplicated delta's tags as they stand;
* a database with no probabilistic fact (live width 0 everywhere) runs
  forward and backward under every proof semiring.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import LobsterEngine
from repro.provenance import available, create
from repro.provenance.top1proof import PAD, Top1ProofProvenance, live_proofs

from _helpers import TC_PROGRAM


def full_width_merge(provenance, proofs_a, proofs_b, dead_in):
    """``Top1ProofProvenance.merge_proof_arrays`` as it was when every
    kernel ran at ``proof_capacity``: the reference the live-width kernel
    must reproduce bit for bit."""
    cap = provenance.proof_capacity
    merged = np.concatenate([proofs_a, proofs_b], axis=1)
    merged.sort(axis=1)
    dup = np.zeros_like(merged, dtype=bool)
    dup[:, 1:] = (merged[:, 1:] == merged[:, :-1]) & (merged[:, 1:] != PAD)
    merged[dup] = PAD
    merged.sort(axis=1)

    valid = merged != PAD
    sizes = valid.sum(axis=1)
    overflow = sizes > cap

    safe = np.clip(merged, 0, max(provenance.n_inputs - 1, 0))
    groups = np.where(valid, provenance.exclusion_groups[safe], -1)
    adjacent_conflict = (
        (groups[:, 1:] == groups[:, :-1])
        & (groups[:, 1:] != -1)
        & (merged[:, 1:] != merged[:, :-1])
        & valid[:, 1:]
    )
    conflict = adjacent_conflict.any(axis=1)

    probs = np.where(valid, provenance.input_probs[safe], 1.0).prod(axis=1)

    dead = overflow | conflict | dead_in
    merged = merged[:, :cap]
    if dead.any():
        probs = np.where(dead, 0.0, probs)
        sizes = np.where(dead, -1, sizes)
        merged[dead] = PAD
    return merged, sizes, probs


@st.composite
def merge_batches(draw):
    """(provenance, tags_a, tags_b): one ⊗ batch over a small fact-id
    universe, so the two sides share ids, hit exclusion groups, and
    overflow the (small) capacity often.  Proofs are sorted and
    left-justified, dead rows all-PAD — the stored-tag invariant."""
    capacity = draw(st.integers(2, 8))
    # Exclusion groups own contiguous fact ids (the runtime's guarantee).
    blocks = draw(st.lists(st.tuples(st.integers(1, 3), st.booleans()), max_size=5))
    groups = [
        group if exclusive else -1
        for group, (length, exclusive) in enumerate(blocks)
        for _ in range(length)
    ]
    provenance = Top1ProofProvenance(capacity)
    provenance.setup(
        np.array(draw(st.lists(
            st.sampled_from([0.0, 0.25, 0.5, 0.9, 1.0]),
            min_size=len(groups), max_size=len(groups),
        ))),
        np.array(groups, dtype=np.int64),
    )
    proof = st.sets(
        st.integers(0, max(len(groups) - 1, 0)),
        max_size=capacity if groups else 0,
    )
    # One tag in four is dead (the absorbing zero: size −1, all PAD).
    tag = st.tuples(st.integers(0, 3), proof)
    n = draw(st.integers(0, 6))

    def side():
        tags = provenance.zero_tags(n)
        for row, (alive, ids) in enumerate(draw(st.lists(tag, min_size=n, max_size=n))):
            if alive:
                ids = np.array(sorted(ids), dtype=np.int64)
                tags["size"][row] = len(ids)
                tags["proof"][row, : len(ids)] = ids
                tags["prob"][row] = provenance.input_probs[ids].prod()
        return tags

    return provenance, side(), side()


class TestLiveWidthMerge:
    @settings(max_examples=300, deadline=None)
    @given(batch=merge_batches())
    def test_bitwise_equal_to_full_width_kernel(self, batch):
        provenance, a, b = batch
        dead_in = (a["size"] < 0) | (b["size"] < 0)
        if provenance.n_inputs or not len(a):
            want_ids, want_sizes, want_probs = full_width_merge(
                provenance, a["proof"].copy(), b["proof"], dead_in
            )
        else:
            # The full-width kernel indexes empty arrays here (the crash
            # this PR removes); every proof is empty, so: 1 unless dead.
            want_ids = np.full_like(a["proof"], PAD)
            want_sizes = np.where(dead_in, -1, 0)
            want_probs = np.where(dead_in, 0.0, 1.0)

        out = provenance.otimes(a, b)
        assert np.array_equal(out["proof"], want_ids)
        assert np.array_equal(out["size"], want_sizes)
        assert out["prob"].tobytes() == want_probs.astype("f8").tobytes()

        # The kernel itself, at live width: same rows, cut to the result's
        # own live width, everything past it PAD in the oracle.
        ids, sizes, probs = provenance.merge_proof_arrays(
            live_proofs(a), live_proofs(b), dead_in
        )
        assert ids.shape[1] == max(int(want_sizes.max(initial=0)), 0)
        assert np.array_equal(ids, want_ids[:, : ids.shape[1]])
        assert (want_ids[:, ids.shape[1]:] == PAD).all()
        assert np.array_equal(sizes, want_sizes)
        assert probs.tobytes() == want_probs.astype("f8").tobytes()

    def test_one_side_all_pad_keeps_the_other(self):
        provenance = Top1ProofProvenance(4)
        provenance.setup(np.array([0.5, 0.25, 0.125]))
        a = provenance.input_tags(np.array([2, 0, -1]))
        out = provenance.otimes(a, provenance.one_tags(3))
        assert out.tobytes() == a.tobytes()

    def test_overflow_is_decided_at_capacity_not_at_live_width(self):
        provenance = Top1ProofProvenance(2)
        provenance.setup(np.full(4, 0.5))
        pair = provenance.otimes(
            provenance.input_tags(np.array([0, 0])),
            provenance.input_tags(np.array([1, 0])),
        )
        assert pair["size"].tolist() == [2, 1]
        out = provenance.otimes(pair, provenance.input_tags(np.array([2, 2])))
        # {0,1}⊗{2} needs 3 > capacity slots: absorbing zero; {0}⊗{2} fits.
        assert out["size"].tolist() == [-1, 2]
        assert out["prob"].tolist() == [0.0, 0.25]
        assert (out["proof"][0] == PAD).all()


DEVICE_SEMIRINGS = [name for name in available() if create(name).supports_device]


@pytest.mark.parametrize("name", DEVICE_SEMIRINGS)
@settings(max_examples=40, deadline=None)
@given(
    pairs=st.lists(st.tuples(st.integers(-1, 5), st.integers(-1, 5)), min_size=1, max_size=12),
    cuts=st.sets(st.integers(1, 11)),
)
def test_oplus_of_singleton_segments_is_identity(name, pairs, cuts):
    """``advance`` ⊕-reduces the delta once (``dedup_table``) and then
    takes each surviving row's tag as its segment's combined tag: that is
    only right if a second ⊕ over one-row segments changes no bit."""
    provenance = create(name)
    provenance.setup(
        np.array([0.5, 0.3, 0.3, 0.9, 0.0, 1.0]), np.array([-1, 7, 7, -1, -1, -1])
    )
    left, right = (np.array(side, dtype=np.int64) for side in zip(*pairs))
    tags = provenance.otimes(provenance.input_tags(left), provenance.input_tags(right))
    is_first = np.zeros(len(tags), dtype=bool)
    is_first[[0, *(cut for cut in cuts if cut < len(tags))]] = True
    segment_ids = np.cumsum(is_first) - 1
    nseg = int(segment_ids[-1]) + 1

    reduced = provenance.oplus_reduce(tags, segment_ids, nseg)
    again = provenance.oplus_reduce(reduced, np.arange(nseg), nseg)
    assert again.dtype == reduced.dtype
    assert again.tobytes() == reduced.tobytes()


@pytest.mark.parametrize("name", ["prob-top-1-proofs", "diff-top-1-proofs"])
def test_runs_without_probabilistic_facts(name):
    """No tagged fact ⇒ ``n_inputs == 0``: the proof kernels used to index
    the empty ``input_probs``/``exclusion_groups`` arrays and crash."""
    engine = LobsterEngine(TC_PROGRAM, provenance=name)
    database = engine.create_database()
    database.add_facts("edge", [(0, 1), (1, 2), (2, 3), (1, 0)])
    engine.run(database)
    probs = engine.query_probs(database, "path")
    assert len(probs) == 9  # {0, 1} × {0, 1, 2, 3}, and (2, 3)
    assert set(probs.values()) == {1.0}
    if database.provenance.is_differentiable:
        grad = engine.backward(database, "path", dict.fromkeys(probs, 1.0))
        assert grad.shape == (0,)
