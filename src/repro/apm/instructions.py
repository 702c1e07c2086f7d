"""The APM instruction set (Table 1), in executable form.

APM is assembly-style: SSA vector registers, explicit allocation, no
control flow.  Every instruction below corresponds to one row of Table 1
or to a short fixed pipeline of them (documented per class); each maps to
a fixed sequence of data-parallel kernels, so a compiled program is
guaranteed massively parallel execution.

Fusions relative to Table 1 (the interpreter executes the same kernels the
paper's discrete instructions would):

* :class:`Probe` fuses ``count``/``scan``/``join`` — the three-step hash
  join expansion of Fig. 6 — because the intermediate histogram registers
  are never observable by other instructions.
* :class:`EvalFilter` fuses ``eval`` (producing a selection mask) with the
  ``scan``+``gather`` compaction of the surviving rows.
* :class:`Dedup` is the ``sort``/``unique⟨⊕⟩`` pair that Appendix A's
  "Stratum" rule runs at the stratum boundary, placed inside a rule body:
  after an ``EvalProject`` that drops dead join variables it collapses
  the intermediate's duplicate rows with ⊕ before the next
  ``Build``/``Probe``.  The RAM lowering emits it only for semirings
  whose ⊗ distributes over ⊕ bitwise, where it leaves every result
  unchanged.

A table at the register level is a *pack*: one register per column plus a
tag register.  The tag register always exists, so arity-0 relations still
carry a row count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..gpu.bytecode import BytecodeProgram

#: Database partitions used by semi-naive evaluation (§3.4).
FULL = "full"
RECENT = "recent"
STABLE = "stable"
#: Rows added or improved since delta tracking began — the partition
#: incremental re-evaluation seeds its variants from.
DELTA = "delta"


@dataclass(frozen=True)
class Pack:
    """A register-level table: column registers + a tag register."""

    cols: tuple[str, ...]
    tags: str
    dtypes: tuple[np.dtype, ...]


@dataclass(frozen=True)
class Load:
    """``[s_n, s_t] = load⟨ρ⟩()`` from a database partition."""

    dst: Pack
    predicate: str
    partition: str


@dataclass(frozen=True)
class StoreDelta:
    """``store⟨ρ⟩(s_n, s_t)`` into the target relation's delta set."""

    predicate: str
    src: Pack


@dataclass(frozen=True)
class EvalProject:
    """``d_m <- eval⟨α⟩(s_n)``: row-parallel projection.

    ``programs[j]`` is either an ``int`` (plain columnar copy of source
    column j — the §5.2 fast path) or a :class:`BytecodeProgram`.  Tags are
    copied through unchanged (projection is provenance-preserving).
    """

    dst: Pack
    src: Pack
    programs: tuple[object, ...]


@dataclass(frozen=True)
class EvalFilter:
    """Selection: evaluate a boolean bytecode program, compact survivors."""

    dst: Pack
    src: Pack
    program: BytecodeProgram


@dataclass(frozen=True)
class Dedup:
    """``d <- unique⟨⊕⟩(sort(s))``: one row per distinct source row, its
    tag the ⊕ of the duplicates'; rows keep their first-occurrence order.
    Only rows identical bit for bit are duplicates: ``-0.0`` and ``0.0``
    stay apart, since a later ``/`` in the rule can tell them apart."""

    dst: Pack
    src: Pack


@dataclass(frozen=True)
class Build:
    """``d <- build(s_n)``: hash index over the first ``width`` columns.

    ``static_key`` marks the §4.2 optimization: when not None, the index is
    iteration-invariant and cached on the device across fix-point
    iterations (the ``static`` register qualifier).
    """

    dst: str
    src: Pack
    width: int
    static_key: str | None = None


@dataclass(frozen=True)
class Probe:
    """Hash join: fused count/scan/join of Fig. 6.

    Writes two index registers: ``dst_build`` (rows of the build-side
    table) and ``dst_probe`` (rows of the probe-side table), one entry per
    matching pair.
    """

    dst_build: str
    dst_probe: str
    index: str
    probe: Pack
    width: int


@dataclass(frozen=True)
class AntiProbe:
    """Indices of probe rows with *no* match (stratified negation)."""

    dst: str
    index: str
    probe: Pack
    width: int


@dataclass(frozen=True)
class Gather:
    """``d_n <- gather(i, s_n)``: row gather of selected columns."""

    dst_cols: tuple[str, ...]
    index: str
    src_cols: tuple[str, ...]


@dataclass(frozen=True)
class GatherTags:
    """``d <- gather⟨⊗⟩([i_l, i_r], [a_t, b_t])``: gather both side's tags
    and conjoin them with the provenance's ⊗."""

    dst: str
    left_index: str
    right_index: str
    left_tags: str
    right_tags: str


@dataclass(frozen=True)
class CopyTags:
    """Tag pass-through for projections (``copy`` on the tag register)."""

    dst: str
    src: str


@dataclass(frozen=True)
class CrossIndices:
    """Index pair enumeration for a cartesian product (×)."""

    dst_left: str
    dst_right: str
    left_tags: str
    right_tags: str


@dataclass(frozen=True)
class PassIfEmpty:
    """Keep all source rows iff the guard table is empty (width-0 negation)."""

    dst: Pack
    src: Pack
    guard_tags: str


Instruction = (
    Load
    | StoreDelta
    | EvalProject
    | EvalFilter
    | Dedup
    | Build
    | Probe
    | AntiProbe
    | Gather
    | GatherTags
    | CopyTags
    | CrossIndices
    | PassIfEmpty
)
