"""RAM -> APM lowering (§3.3, Appendix A).

Implements the ``compile :: RAM -> [instr] x [reg]`` function: each RAM
operator becomes a short, fixed sequence of APM instructions, and the
translation returns the register pack holding the operator's result.

Semi-naive evaluation is encoded at compile time (the "Join" rule of
Appendix A): every recursive rule is expanded into one *variant* per
recursive body atom, with that atom's scan loading the ``recent``
partition and all others loading ``full``.  Deduplication at the stratum
boundary (the "Stratum" rule's sort/unique/merge sequence) makes the
slight overlap between variants harmless.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import instructions as I
from ..errors import CompileError
from ..ram import exprs as E
from ..ram import ir
from ..ram.ir import (
    column_origins,
    output_dtypes,
    replace_scan_partition,
    scans_of,
)


@dataclass
class Variant:
    """One semi-naive variant of a rule: a straight-line APM program."""

    instructions: list[I.Instruction]
    result: I.Pack
    #: Index of the scan loading RECENT, or None for the all-full variant.
    recent_scan: int | None
    #: ``(predicate, partition)`` of the variant's frontier scan (the one
    #: atom loading RECENT or DELTA), or None for the all-full variant.
    #: The DRed over-delete loop keys on this to execute only variants
    #: whose frontier relation actually gained doomed rows.
    frontier: tuple[str, str] | None = None
    #: Owning rule's key (``s<i>r<j>``, stratum and rule index) — the
    #: label variant spans carry in traces.
    rule_key: str | None = None


@dataclass
class CompiledRule:
    target: str
    variants: list[Variant]
    edb_only: bool
    #: Incremental-only variants: one per non-recursive body atom, with
    #: that atom's scan loading the DELTA partition (rows added or
    #: improved since the last run).  Executed only in iteration 1 of an
    #: incremental pass, where they seed the fix point from the deltas —
    #: the Δ(A ⋈ B) = ΔA ⋈ B ∪ A ⋈ ΔB expansion over non-recursive atoms
    #: (recursive atoms are already covered by the RECENT variants).
    delta_variants: list[Variant] = field(default_factory=list)
    #: All-FULL variant for DRed re-derivation (None under negation).
    #: For flat rules this aliases ``variants[0]``; recursive rules get
    #: an extra compile, since their normal variants all scan RECENT.
    rederive_variant: Variant | None = None
    #: ``scan_index -> [(scan_column, head_column), ...]``: which leaf
    #: columns copy into which head columns (from
    #: :func:`~repro.ram.ir.column_origins`).  Re-derivation pushes the
    #: doomed-head restriction down to each leaf as per-column value
    #: semijoins against the removed rows' projections.
    rederive_filters: dict[int, list[tuple[int, int]]] = field(default_factory=dict)


@dataclass
class CompiledStratum:
    predicates: list[str]
    rules: list[CompiledRule]
    recursive: bool
    #: Recursive-join count — the §5.3 offload-scheduling heuristic score.
    score: int = 0


@dataclass(eq=False)
class ApmProgram:
    """A compiled program.  ``eq=False`` keeps identity hashing so shared
    artifacts can key weak caches (e.g. the transfer-plan memo)."""

    strata: list[CompiledStratum]
    schemas: dict[str, tuple[np.dtype, ...]]
    queries: list[str] = field(default_factory=list)
    #: Whether any rule negates (AntiProbe / arity-0 PassIfEmpty).  Adding
    #: EDB facts can *retract* conclusions of such programs, so incremental
    #: re-evaluation falls back to a from-scratch rerun.
    has_negation: bool = False

    def instruction_count(self) -> int:
        return sum(
            len(variant.instructions)
            for stratum in self.strata
            for rule in stratum.rules
            for variant in rule.variants
        )


class ApmCompiler:
    """Compiles a RAM program to APM."""

    def __init__(self, ram: ir.RamProgram):
        self.ram = ram
        self._fresh = 0

    # ------------------------------------------------------------------

    def compile(self) -> ApmProgram:
        strata: list[CompiledStratum] = []
        # Negation anywhere disables incremental evaluation program-wide,
        # so delta variants would be dead weight — skip compiling them.
        has_negation = any(
            _has_antijoin(rule.expr)
            for stratum in self.ram.strata
            for rule in stratum.rules
        )
        for stratum_index, stratum in enumerate(self.ram.strata):
            pred_set = set(stratum.predicates)
            rules: list[CompiledRule] = []
            score = 0
            for rule_index, rule in enumerate(stratum.rules):
                variants: list[Variant] = []
                if rule.recursive_atoms:
                    score += len(rule.recursive_atoms)
                    for scan_index in rule.recursive_atoms:
                        expr = replace_scan_partition(rule.expr, scan_index, I.RECENT)
                        variants.append(
                            self._compile_variant(
                                expr, rule.target, pred_set,
                                key=f"s{stratum_index}r{rule_index}v{scan_index}",
                                recent_scan=scan_index,
                            )
                        )
                else:
                    variants.append(
                        self._compile_variant(
                            rule.expr, rule.target, pred_set,
                            key=f"s{stratum_index}r{rule_index}",
                            recent_scan=None,
                        )
                    )
                recursive = set(rule.recursive_atoms)
                delta_variants = [
                    self._compile_variant(
                        replace_scan_partition(rule.expr, scan_index, I.DELTA),
                        rule.target, pred_set,
                        key=f"s{stratum_index}r{rule_index}d{scan_index}",
                        recent_scan=None,
                    )
                    for scan_index in range(len(scans_of(rule.expr)))
                    if scan_index not in recursive
                ] if not has_negation else []
                rederive_variant = None
                rederive_filters: dict[int, list[tuple[int, int]]] = {}
                if not has_negation:
                    rederive_variant = (
                        variants[0]
                        if not rule.recursive_atoms
                        else self._compile_variant(
                            rule.expr, rule.target, pred_set,
                            key=f"s{stratum_index}r{rule_index}f",
                            recent_scan=None,
                        )
                    )
                    origins = column_origins(rule.expr, self.ram.schemas)
                    for head_col, sources in enumerate(origins):
                        for scan_index, scan_col in sources:
                            rederive_filters.setdefault(scan_index, []).append(
                                (scan_col, head_col)
                            )
                plan_key = f"s{stratum_index}r{rule_index}"
                for variant in variants + delta_variants:
                    variant.rule_key = plan_key
                if rederive_variant is not None:
                    rederive_variant.rule_key = plan_key
                rules.append(
                    CompiledRule(
                        rule.target,
                        variants,
                        edb_only=not rule.recursive_atoms,
                        delta_variants=delta_variants,
                        rederive_variant=rederive_variant,
                        rederive_filters=rederive_filters,
                    )
                )
            strata.append(
                CompiledStratum(stratum.predicates, rules, stratum.recursive, score)
            )
        program = ApmProgram(strata, dict(self.ram.schemas), list(self.ram.queries))
        program.has_negation = has_negation
        return program

    # ------------------------------------------------------------------

    def _compile_variant(
        self,
        expr: ir.RamExpr,
        target: str,
        stratum_preds: set[str],
        key: str,
        recent_scan: int | None,
    ) -> Variant:
        instrs: list[I.Instruction] = []
        pack = self._compile_expr(expr, instrs, stratum_preds, key)
        instrs.append(I.StoreDelta(target, pack))
        frontier = next(
            (
                (scan.predicate, scan.partition)
                for scan in scans_of(expr)
                if scan.partition in (I.RECENT, I.DELTA)
            ),
            None,
        )
        return Variant(instrs, pack, recent_scan, frontier)

    def _reg(self, hint: str) -> str:
        self._fresh += 1
        return f"r{self._fresh}_{hint}"

    def _pack(self, hint: str, dtypes: tuple[np.dtype, ...]) -> I.Pack:
        cols = tuple(self._reg(f"{hint}c{j}") for j in range(len(dtypes)))
        return I.Pack(cols, self._reg(f"{hint}t"), dtypes)

    def _compile_expr(
        self,
        expr: ir.RamExpr,
        instrs: list[I.Instruction],
        stratum_preds: set[str],
        key: str,
    ) -> I.Pack:
        schemas = self.ram.schemas

        if isinstance(expr, ir.Scan):
            pack = self._pack("ld", schemas[expr.predicate])
            instrs.append(I.Load(pack, expr.predicate, expr.partition))
            return pack

        if isinstance(expr, ir.Select):
            src = self._compile_expr(expr.source, instrs, stratum_preds, key)
            program = E.to_bytecode(expr.predicate, src.dtypes)
            dst = self._pack("sel", src.dtypes)
            instrs.append(I.EvalFilter(dst, src, program))
            return dst

        if isinstance(expr, ir.Project):
            src = self._compile_expr(expr.source, instrs, stratum_preds, key)
            dtypes = tuple(E.expr_dtype(e, src.dtypes) for e in expr.exprs)
            programs: list[object] = []
            for e in expr.exprs:
                if isinstance(e, E.Col):
                    programs.append(e.index)  # columnar-copy fast path
                else:
                    programs.append(E.to_bytecode(e, src.dtypes))
            dst = self._pack("prj", dtypes)
            instrs.append(I.EvalProject(dst, src, tuple(programs)))
            return dst

        if isinstance(expr, ir.Join):
            return self._compile_join(expr, instrs, stratum_preds, key)

        if isinstance(expr, ir.Antijoin):
            left = self._compile_expr(expr.left, instrs, stratum_preds, key)
            right = self._compile_expr(expr.right, instrs, stratum_preds, key)
            if expr.width == 0:
                dst = self._pack("neg0", left.dtypes)
                instrs.append(I.PassIfEmpty(dst, left, right.tags))
                return dst
            index = self._reg("hneg")
            instrs.append(I.Build(index, right, expr.width, None))
            keep = self._reg("ikeep")
            instrs.append(I.AntiProbe(keep, index, left, expr.width))
            dst = self._pack("neg", left.dtypes)
            instrs.append(I.Gather(dst.cols, keep, left.cols))
            instrs.append(I.Gather((dst.tags,), keep, (left.tags,)))
            return dst

        if isinstance(expr, ir.Product):
            left = self._compile_expr(expr.left, instrs, stratum_preds, key)
            right = self._compile_expr(expr.right, instrs, stratum_preds, key)
            il, ir_ = self._reg("xl"), self._reg("xr")
            instrs.append(I.CrossIndices(il, ir_, left.tags, right.tags))
            dst = self._pack("prod", left.dtypes + right.dtypes)
            instrs.append(I.Gather(dst.cols[: len(left.cols)], il, left.cols))
            instrs.append(I.Gather(dst.cols[len(left.cols) :], ir_, right.cols))
            instrs.append(I.GatherTags(dst.tags, il, ir_, left.tags, right.tags))
            return dst

        if isinstance(expr, ir.Intersect):
            # a ∩ b  ≡  project-left(a ⊲⊳_arity b) with ⊗-combined tags.
            width = len(output_dtypes(expr.left, schemas))
            return self._compile_join(
                ir.Join(expr.left, expr.right, width), instrs, stratum_preds, key
            )

        if isinstance(expr, ir.Union):
            raise CompileError(
                "Union nodes are expanded into separate rules before APM "
                "lowering; the stratum-level store/merge realizes them"
            )

        raise CompileError(f"cannot lower RAM node {expr!r}")

    # ------------------------------------------------------------------

    def _compile_join(
        self,
        expr: ir.Join,
        instrs: list[I.Instruction],
        stratum_preds: set[str],
        key: str,
    ) -> I.Pack:
        """The Fig. 6 join pipeline, with build-side selection.

        The hash index is built over the side that is iteration-invariant
        (no recursive or recent scans) whenever possible, so the §4.2
        static-register optimization can cache it across iterations —
        the "linear recursion" case the paper highlights.
        """
        left = self._compile_expr(expr.left, instrs, stratum_preds, key)
        right = self._compile_expr(expr.right, instrs, stratum_preds, key)
        width = expr.width

        left_static = self._static_eligible(expr.left, stratum_preds)
        right_static = self._static_eligible(expr.right, stratum_preds)
        build_on_left = left_static or not right_static

        node_id = len(instrs)
        if build_on_left:
            build, probe = left, right
            static_key = f"{key}n{node_id}" if left_static else None
        else:
            build, probe = right, left
            static_key = f"{key}n{node_id}"

        index = self._reg("h")
        instrs.append(I.Build(index, build, width, static_key))
        i_build, i_probe = self._reg("ib"), self._reg("ip")
        instrs.append(I.Probe(i_build, i_probe, index, probe, width))

        # Output layout: all left columns, then right's non-key columns.
        i_left = i_build if build_on_left else i_probe
        i_right = i_probe if build_on_left else i_build
        dst_dtypes = left.dtypes + right.dtypes[width:]
        dst = self._pack("jn", dst_dtypes)
        n_left = len(left.cols)
        instrs.append(I.Gather(dst.cols[:n_left], i_left, left.cols))
        instrs.append(I.Gather(dst.cols[n_left:], i_right, right.cols[width:]))
        instrs.append(I.GatherTags(dst.tags, i_left, i_right, left.tags, right.tags))
        return dst

    @staticmethod
    def _static_eligible(expr: ir.RamExpr, stratum_preds: set[str]) -> bool:
        """True when the subtree's value cannot change across iterations."""
        return all(
            scan.predicate not in stratum_preds and scan.partition == I.FULL
            for scan in scans_of(expr)
        )


def _has_antijoin(expr: ir.RamExpr) -> bool:
    """Whether a RAM tree negates (lowers to AntiProbe / PassIfEmpty)."""
    if isinstance(expr, ir.Antijoin):
        return True
    if isinstance(expr, (ir.Project, ir.Select)):
        return _has_antijoin(expr.source)
    if isinstance(expr, (ir.Join, ir.Product, ir.Intersect)):
        return _has_antijoin(expr.left) or _has_antijoin(expr.right)
    if isinstance(expr, ir.Union):
        return any(_has_antijoin(item) for item in expr.items)
    return False


def compile_ram(ram: ir.RamProgram) -> ApmProgram:
    return ApmCompiler(ram).compile()
