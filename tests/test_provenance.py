"""Semiring law + behaviour tests for every provenance."""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _helpers import TC_PROGRAM

from repro import LobsterEngine
from repro.errors import ProvenanceError
from repro.provenance import available, create
from repro.provenance.top1proof import PAD, leave_one_out_products

DEVICE_SEMIRINGS = [
    "unit",
    "minmaxprob",
    "addmultprob",
    "prob-top-1-proofs",
    "diff-minmaxprob",
    "diff-addmultprob",
    "diff-top-1-proofs",
]

probs_strategy = st.lists(
    st.floats(min_value=0.01, max_value=0.99), min_size=2, max_size=8
)


def make(name, n=4, seed=0, groups=None):
    rng = np.random.default_rng(seed)
    provenance = create(name)
    probs = rng.uniform(0.1, 0.9, size=n)
    provenance.setup(probs, groups)
    return provenance, probs


def test_registry_lists_paper_semirings():
    names = available()
    # The paper's seven device semirings...
    assert set(DEVICE_SEMIRINGS) <= set(names)
    # ...and the CPU-only general top-k of the Scallop baseline.
    assert "top-k-proofs" in names


def test_architecture_doc_lists_the_registered_semirings():
    """docs/architecture.md's semiring table has exactly the registry's
    names, each with where it runs and whether it differentiates."""
    text = (Path(__file__).parent.parent / "docs" / "architecture.md").read_text()
    section = text.split("### Registered semirings", 1)[1].split("\n#", 1)[0]
    rows = [
        [cell.strip().strip("`") for cell in line.strip().strip("|").split("|")]
        for line in section.splitlines()
        if line.lstrip().startswith("|")
    ]
    header, body = rows[0], rows[2:]  # rows[1] is the |---| rule
    assert header == ["name", "runs on", "differentiable"]
    documented = {name: (runs_on, differentiable) for name, runs_on, differentiable in body}
    assert len(documented) == len(body)
    assert sorted(documented) == available()
    for name in available():
        provenance = create(name)
        assert documented[name] == (
            "device" if provenance.supports_device else "CPU",
            "yes" if provenance.is_differentiable else "–",
        ), name


def test_registry_unknown_name():
    with pytest.raises(KeyError, match="unknown provenance"):
        create("nope")


PROOF_SIZES = [
    ("prob-top-1-proofs", "proof_capacity"),
    ("diff-top-1-proofs", "proof_capacity"),
]


@pytest.mark.parametrize("name, parameter", PROOF_SIZES)
@pytest.mark.parametrize("value", [0, -1, 1.5, True, "4"])
def test_proof_sizes_must_be_positive_integers(name, parameter, value):
    """``proof_capacity`` sizes tag registers: a value the engine would
    truncate, or one that fails only at run time, is a typed error at
    construction naming the semiring and the parameter."""
    with pytest.raises(ProvenanceError, match=f"'{name}': {parameter} must be"):
        LobsterEngine(TC_PROGRAM, provenance=name, **{parameter: value})


@pytest.mark.parametrize("name, parameter", PROOF_SIZES)
def test_proof_sizes_take_integer_like_values(name, parameter):
    provenance = create(name, **{parameter: np.int64(2)})
    assert getattr(provenance, parameter) == 2 and type(getattr(provenance, parameter)) is int


@pytest.mark.parametrize("name", DEVICE_SEMIRINGS)
class TestDeviceSemiringBasics:
    def test_one_is_multiplicative_identity(self, name):
        provenance, probs = make(name)
        tags = provenance.input_tags(np.array([0, 1, 2]))
        ones = provenance.one_tags(3)
        combined = provenance.otimes(tags, ones)
        assert np.allclose(provenance.prob(combined), provenance.prob(tags))

    def test_otimes_commutes_on_prob(self, name):
        provenance, probs = make(name)
        a = provenance.input_tags(np.array([0, 1]))
        b = provenance.input_tags(np.array([2, 3]))
        ab = provenance.prob(provenance.otimes(a, b))
        ba = provenance.prob(provenance.otimes(b, a))
        assert np.allclose(ab, ba)

    def test_input_tags_untagged_facts(self, name):
        provenance, _ = make(name)
        tags = provenance.input_tags(np.array([-1, -1]))
        assert np.allclose(provenance.prob(tags), 1.0)

    def test_oplus_reduce_shape(self, name):
        provenance, _ = make(name)
        tags = provenance.input_tags(np.array([0, 1, 2, 3]))
        seg = np.array([0, 0, 1, 1])
        reduced = provenance.oplus_reduce(tags, seg, 2)
        assert len(reduced) == 2

    def test_scalar_ops_consistent_with_vector(self, name):
        provenance, probs = make(name)
        a = provenance.scalar_input(0)
        b = provenance.scalar_input(1)
        conj = provenance.scalar_otimes(a, b)
        assert 0.0 <= provenance.scalar_prob(conj) <= 1.0


class TestMinMaxProb:
    def test_semantics(self):
        provenance, probs = make("minmaxprob")
        a = provenance.input_tags(np.array([0]))
        b = provenance.input_tags(np.array([1]))
        assert provenance.otimes(a, b)[0] == pytest.approx(min(probs[0], probs[1]))
        merged, improved = provenance.merge_existing(a, b)
        assert merged[0] == pytest.approx(max(probs[0], probs[1]))
        assert improved[0] == (probs[1] > probs[0])

    @given(probs_strategy)
    @settings(max_examples=30, deadline=None)
    def test_oplus_reduce_is_max(self, values):
        provenance = create("minmaxprob")
        provenance.setup(np.array(values))
        tags = provenance.input_tags(np.arange(len(values)))
        seg = np.zeros(len(values), dtype=np.int64)
        assert provenance.oplus_reduce(tags, seg, 1)[0] == pytest.approx(max(values))


class TestAddMultProb:
    def test_sum_of_products(self):
        provenance, probs = make("addmultprob")
        a = provenance.input_tags(np.array([0]))
        b = provenance.input_tags(np.array([1]))
        conj = provenance.otimes(a, b)
        assert conj[0] == pytest.approx(probs[0] * probs[1])
        seg = np.zeros(2, dtype=np.int64)
        both = np.concatenate([a, b])
        assert provenance.oplus_reduce(both, seg, 1)[0] == pytest.approx(
            probs[0] + probs[1]
        )

    def test_prob_clamped(self):
        provenance, _ = make("addmultprob")
        tags = np.array([1.7, -0.5, 0.3])
        assert provenance.prob(tags).tolist() == [1.0, 0.0, 0.3]


class TestTop1Proof:
    def test_proof_merging_and_dedup(self):
        provenance = create("prob-top-1-proofs", proof_capacity=8)
        provenance.setup(np.array([0.5, 0.25]))
        a = provenance.input_tags(np.array([0]))
        conj = provenance.otimes(a, a)  # {0} x {0} = {0}, not {0,0}
        assert conj["size"][0] == 1
        assert conj["prob"][0] == pytest.approx(0.5)

    def test_exclusion_conflict_zeroes(self):
        provenance = create("prob-top-1-proofs", proof_capacity=8)
        provenance.setup(np.array([0.5, 0.5]), np.array([7, 7]))
        a = provenance.input_tags(np.array([0]))
        b = provenance.input_tags(np.array([1]))
        conj = provenance.otimes(a, b)
        assert provenance.is_absorbing_zero(conj)[0]
        assert conj["prob"][0] == 0.0

    def test_capacity_overflow_zeroes(self):
        provenance = create("prob-top-1-proofs", proof_capacity=2)
        provenance.setup(np.array([0.9, 0.9, 0.9]))
        a = provenance.input_tags(np.array([0]))
        b = provenance.input_tags(np.array([1]))
        c = provenance.input_tags(np.array([2]))
        conj = provenance.otimes(provenance.otimes(a, b), c)
        assert provenance.is_absorbing_zero(conj)[0]

    def test_oplus_picks_more_likely_proof(self):
        provenance = create("prob-top-1-proofs", proof_capacity=8)
        provenance.setup(np.array([0.3, 0.8]))
        tags = provenance.input_tags(np.array([0, 1]))
        reduced = provenance.oplus_reduce(tags, np.array([0, 0]), 1)
        assert reduced["prob"][0] == pytest.approx(0.8)
        assert reduced["proof"][0][0] == 1

    def test_zero_propagates_through_otimes(self):
        provenance = create("prob-top-1-proofs", proof_capacity=4)
        provenance.setup(np.array([0.5]))
        zero = provenance.zero_tags(1)
        a = provenance.input_tags(np.array([0]))
        assert provenance.is_absorbing_zero(provenance.otimes(zero, a))[0]


class TestLeaveOneOut:
    def test_no_zeros(self):
        probs = np.array([[0.5, 0.25, 1.0]])
        valid = np.array([[True, True, False]])
        out = leave_one_out_products(probs, valid)
        assert out[0, 0] == pytest.approx(0.25)
        assert out[0, 1] == pytest.approx(0.5)
        assert out[0, 2] == 0.0

    def test_single_zero_exact(self):
        probs = np.array([[0.0, 0.25, 0.5]])
        valid = np.array([[True, True, True]])
        out = leave_one_out_products(probs, valid)
        assert out[0, 0] == pytest.approx(0.125)
        assert out[0, 1] == 0.0
        assert out[0, 2] == 0.0

    def test_double_zero_all_zero(self):
        probs = np.array([[0.0, 0.0, 0.5]])
        valid = np.array([[True, True, True]])
        assert leave_one_out_products(probs, valid).sum() == 0.0


class TestDifferentiableBackward:
    def test_diff_top1_gradient_is_leave_one_out(self):
        provenance = create("diff-top-1-proofs", proof_capacity=8)
        probs = np.array([0.5, 0.25, 0.8])
        provenance.setup(probs)
        a, b, c = (provenance.input_tags(np.array([i])) for i in range(3))
        conj = provenance.otimes(provenance.otimes(a, b), c)
        grad = np.zeros(3)
        provenance.backward(conj, np.array([1.0]), grad)
        assert grad[0] == pytest.approx(0.25 * 0.8)
        assert grad[1] == pytest.approx(0.5 * 0.8)
        assert grad[2] == pytest.approx(0.5 * 0.25)

    def test_diff_minmaxprob_routes_to_witness(self):
        provenance = create("diff-minmaxprob")
        provenance.setup(np.array([0.3, 0.7]))
        a = provenance.input_tags(np.array([0]))
        b = provenance.input_tags(np.array([1]))
        conj = provenance.otimes(a, b)  # min -> witness fact 0
        grad = np.zeros(2)
        provenance.backward(conj, np.array([2.0]), grad)
        assert grad.tolist() == [2.0, 0.0]

    def test_diff_addmultprob_product_rule(self):
        provenance = create("diff-addmultprob")
        provenance.setup(np.array([0.5, 0.25]))
        a = provenance.input_tags(np.array([0]))
        b = provenance.input_tags(np.array([1]))
        conj = provenance.otimes(a, b)
        grad = np.zeros(2)
        provenance.backward(conj, np.array([1.0]), grad)
        assert grad[0] == pytest.approx(0.25)
        assert grad[1] == pytest.approx(0.5)

    def test_finite_difference_check_top1(self):
        """Gradients match numeric differentiation of the best-proof prob."""
        provenance = create("diff-top-1-proofs", proof_capacity=8)
        probs = np.array([0.5, 0.25, 0.8])
        provenance.setup(probs)
        tags = provenance.otimes(
            provenance.input_tags(np.array([0])), provenance.input_tags(np.array([1]))
        )
        grad = np.zeros(3)
        provenance.backward(tags, np.array([1.0]), grad)
        eps = 1e-6
        for i in (0, 1):
            perturbed = probs.copy()
            perturbed[i] += eps
            numeric = (perturbed[0] * perturbed[1] - probs[0] * probs[1]) / eps
            assert grad[i] == pytest.approx(numeric, rel=1e-3)


class TestTopKProofs:
    def test_inclusion_exclusion(self):
        provenance = create("top-k-proofs", k=3)
        provenance.setup(np.array([0.5, 0.5]))
        a = provenance.scalar_input(0)
        b = provenance.scalar_input(1)
        both = provenance.scalar_oplus(a, b)
        assert provenance.scalar_prob(both) == pytest.approx(0.75)

    def test_k_truncation(self):
        provenance = create("top-k-proofs", k=1)
        provenance.setup(np.array([0.9, 0.2]))
        merged = provenance.scalar_oplus(
            provenance.scalar_input(0), provenance.scalar_input(1)
        )
        assert len(merged) == 1
        assert provenance.scalar_prob(merged) == pytest.approx(0.9)

    def test_exclusion_conflict(self):
        provenance = create("top-k-proofs", k=3)
        provenance.setup(np.array([0.5, 0.5]), np.array([1, 1]))
        conj = provenance.scalar_otimes(
            provenance.scalar_input(0), provenance.scalar_input(1)
        )
        assert provenance.scalar_is_zero(conj)

    def test_no_device_support(self):
        provenance = create("top-k-proofs")
        assert not provenance.supports_device


class TestUnitProvenance:
    def test_never_improves(self):
        provenance = create("unit")
        provenance.setup(np.zeros(0))
        old = provenance.one_tags(3)
        new = provenance.one_tags(3)
        _, improved = provenance.merge_existing(old, new)
        assert not improved.any()
