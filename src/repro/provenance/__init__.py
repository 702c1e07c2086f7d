"""Provenance semiring framework.

The paper's seven device semirings (unit, minmaxprob, addmultprob,
prob-top-1-proofs, and the three differentiable variants) and the
CPU-only general top-k-proofs used by the Scallop baseline.
"""

from .addmultprob import AddMultProbProvenance
from .base import SATURATION_EPS, Provenance
from .diff_addmultprob import DiffAddMultProbProvenance
from .diff_minmaxprob import DiffMinMaxProbProvenance
from .diff_top1proof import DiffTop1ProofProvenance
from .minmaxprob import MinMaxProbProvenance
from .registry import available, create, register
from .top1proof import Top1ProofProvenance
from .topkproofs import TopKProofsProvenance
from .unit import UnitProvenance

__all__ = [
    "AddMultProbProvenance",
    "DiffAddMultProbProvenance",
    "DiffMinMaxProbProvenance",
    "DiffTop1ProofProvenance",
    "MinMaxProbProvenance",
    "Provenance",
    "SATURATION_EPS",
    "Top1ProofProvenance",
    "TopKProofsProvenance",
    "UnitProvenance",
    "available",
    "create",
    "register",
]
