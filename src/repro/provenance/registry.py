"""Name-based provenance registry (§3.5).

Lobster supports a library of semirings so users pick a reasoning mode by
name — e.g. ``provenance="diff-top-1-proofs"`` — without touching the
program.  The seven device semirings of the paper plus the CPU-only
general top-k of the Scallop baseline are registered here.
"""

from __future__ import annotations

import inspect
from typing import Callable

from .addmultprob import AddMultProbProvenance
from .base import Provenance
from ..errors import ProvenanceError, UnknownProvenanceError
from .diff_addmultprob import DiffAddMultProbProvenance
from .diff_minmaxprob import DiffMinMaxProbProvenance
from .diff_top1proof import DiffTop1ProofProvenance
from .minmaxprob import MinMaxProbProvenance
from .top1proof import Top1ProofProvenance
from .topkproofs import TopKProofsProvenance
from .unit import UnitProvenance

_REGISTRY: dict[str, Callable[..., Provenance]] = {}


def register(name: str, factory: Callable[..., Provenance]) -> None:
    _REGISTRY[name] = factory


def create(name: str, **kwargs) -> Provenance:
    """Instantiate a provenance semiring by registry name.

    Raises :class:`~repro.errors.UnknownProvenanceError` for a name
    nobody registered and :class:`~repro.errors.ProvenanceError` for
    keywords the semiring does not take — ``LobsterEngine`` forwards its
    unrecognized keywords here, so a misspelt engine option lands on
    this message rather than a bare ``TypeError``."""
    factory = _REGISTRY.get(name)
    if factory is None:
        known = ", ".join(sorted(_REGISTRY))
        raise UnknownProvenanceError(f"unknown provenance {name!r}; known: {known}")
    try:
        return factory(**kwargs)
    except TypeError:
        signature = inspect.signature(factory)
        try:
            signature.bind(**kwargs)
        except TypeError as mismatch:
            accepted = ", ".join(signature.parameters) or "none"
            raise ProvenanceError(
                f"provenance {name!r}: {mismatch}; it accepts: {accepted}"
            ) from None
        raise  # a TypeError from inside the constructor, not its signature


def is_distributive(name: str) -> bool:
    """Whether the semiring registered as ``name`` declares
    :attr:`~repro.provenance.base.Provenance.distributive` (False for a
    name nobody registered) — read off the factory, never instantiated."""
    return bool(getattr(_REGISTRY.get(name), "distributive", False))


def available() -> list[str]:
    return sorted(_REGISTRY)


register("unit", UnitProvenance)
register("minmaxprob", MinMaxProbProvenance)
register("addmultprob", AddMultProbProvenance)
register("prob-top-1-proofs", Top1ProofProvenance)
register("diff-minmaxprob", DiffMinMaxProbProvenance)
register("diff-addmultprob", DiffAddMultProbProvenance)
register("diff-top-1-proofs", DiffTop1ProofProvenance)
register("top-k-proofs", TopKProofsProvenance)
