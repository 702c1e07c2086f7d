"""``Provenance.distributive`` against the law it declares.

A semiring may set ``distributive`` only if ⊗ distributes over ⊕ *bit
for bit* on its tag representation: ⊕-reducing a segment and then
conjoining one tag gives the same bytes as conjoining each member first
and reducing after.  The RAM lowering relies on exactly that when it
⊕-deduplicates a rule body's intermediate before the next join.

Generated cases cover ties, the absorbing zero, 1.0 and untagged facts,
with the conjoined tag on either side of ⊗.  Two pinned counterexamples
say why semirings that look distributive keep the flag off.
"""

from __future__ import annotations

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

from repro.provenance import available, create

DECLARED = [name for name in available() if create(name).distributive]


def tags_of(provenance, ids: list[list[int]]) -> np.ndarray:
    """One tag per entry: the ⊗ of the listed input facts' tags (−1 is
    an untagged fact, the semiring's 1)."""
    tags = provenance.input_tags(np.array([group[0] for group in ids], dtype=np.int64))
    for position in range(1, max(len(group) for group in ids)):
        more = np.array([group[position] if position < len(group) else -1 for group in ids])
        tags = provenance.otimes(tags, provenance.input_tags(more))
    return tags


def law_holds(name, probs, sizes, members, factors) -> bool:
    provenance = create(name)
    provenance.setup(np.array(probs, dtype=np.float64))
    tags = tags_of(provenance, members)
    factor = tags_of(provenance, factors)
    segments = np.repeat(np.arange(len(sizes)), sizes)
    reduced = provenance.oplus_reduce(tags, segments, len(sizes))
    spread = factor[segments]
    return (
        provenance.otimes(reduced, factor).tobytes()
        == provenance.oplus_reduce(provenance.otimes(tags, spread), segments, len(sizes)).tobytes()
        and provenance.otimes(factor, reduced).tobytes()
        == provenance.oplus_reduce(provenance.otimes(spread, tags), segments, len(sizes)).tobytes()
    )


PROBS = st.sampled_from([0.0, 0.25, 0.5, 1.0]) | st.floats(0.0, 1.0).map(abs)


@st.composite
def law_cases(draw):
    name = draw(st.sampled_from(DECLARED))
    n_facts = draw(st.integers(1, 5))
    probs = draw(st.lists(PROBS, min_size=n_facts, max_size=n_facts))
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    ids = st.lists(st.integers(-1, n_facts - 1), min_size=1, max_size=2)
    members = [draw(ids) for _ in range(sum(sizes))]
    factors = [draw(ids) for _ in sizes]
    return name, probs, sizes, members, factors


def test_declared_semirings():
    assert {"unit", "minmaxprob"} <= set(DECLARED)


@given(case=law_cases())
# diff-minmaxprob: ⊕ keeps the earliest of tied probabilities as witness.
# Reduced first, fact 1 (0.8) wins and ⊗ fact 2 (0.5) leaves witness 2;
# conjoined first, both members tie at 0.5 and witness 0 wins.
@example(case=("diff-minmaxprob", [0.5, 0.8, 0.5], [2], [[0], [1]], [[2]])).via("tie witness")
# prob-top-1-proofs: ⊗ unions proofs, so a proof sharing a fact with the
# conjoined tag loses nothing.  Reduced first, {1} (0.7) wins and ⊗ {0}
# gives 0.42; conjoined first, {0} ⊗ {0} keeps 0.6 and wins.
@example(case=("prob-top-1-proofs", [0.6, 0.7], [2], [[0], [1]], [[0]])).via("proof overlap")
def test_distributive_flag_is_the_law(case):
    holds = law_holds(*case)
    if create(case[0]).distributive:
        assert holds
    else:
        # Reached by the pinned counterexamples only.
        assert not holds
