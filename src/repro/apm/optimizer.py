"""APM-level optimization passes (§4).

APM's SSA, straight-line form makes passes trivial to state:

* **dead code elimination** — instructions whose outputs are never read
  (e.g. projections introduced by the planner and then subsumed) are
  dropped;
* **projection fusion** — two consecutive pure-permutation
  ``EvalProject`` instructions collapse into one columnar copy.

Buffer reuse (§4.1) and static hash-index reuse (§4.2) are *runtime*
behaviours keyed on structures the compiler marks (allocation sites and
``static_key``), not passes: buffer reuse follows the device's
``reuse_buffers`` setting, and static reuse the engine's
``OptimizationConfig.static_indices``.
"""

from __future__ import annotations

from . import instructions as I
from .compiler import ApmProgram, Variant


def optimize(program: ApmProgram) -> ApmProgram:
    """Run all passes in place and return the program."""
    for stratum in program.strata:
        for rule in stratum.rules:
            for index, variant in enumerate(rule.variants):
                rule.variants[index] = _optimize_variant(variant)
            for index, variant in enumerate(rule.delta_variants):
                rule.delta_variants[index] = _optimize_variant(variant)
            # rule.rederive_variant is deliberately left unoptimized: the
            # maintain path substitutes filtered tables by Load position,
            # which must stay aligned with the RAM scans_of order — DCE
            # may drop a Load whose columns are all projected away.
    return program


def _optimize_variant(variant: Variant) -> Variant:
    instructions = _fuse_projections(list(variant.instructions))
    instructions = _eliminate_dead(instructions)
    return Variant(
        instructions,
        variant.result,
        variant.recent_scan,
        variant.frontier,
        rule_key=variant.rule_key,
    )


def _fuse_projections(instructions: list[I.Instruction]) -> list[I.Instruction]:
    """Collapse EvalProject chains that are pure column permutations."""
    producer: dict[str, I.EvalProject] = {}
    out: list[I.Instruction] = []
    for instruction in instructions:
        if isinstance(instruction, I.EvalProject) and all(
            isinstance(p, int) for p in instruction.programs
        ):
            upstream = producer.get(instruction.src.cols[0] if instruction.src.cols else "")
            if (
                upstream is not None
                and upstream.dst.cols == instruction.src.cols
                and all(isinstance(p, int) for p in upstream.programs)
            ):
                fused_programs = tuple(
                    upstream.programs[p] for p in instruction.programs
                )
                instruction = I.EvalProject(
                    instruction.dst, upstream.src, fused_programs
                )
            for col in instruction.dst.cols:
                producer[col] = instruction
        out.append(instruction)
    return out


def _eliminate_dead(instructions: list[I.Instruction]) -> list[I.Instruction]:
    """Drop instructions whose outputs are never consumed.

    A single backward pass suffices because APM is SSA and straight-line:
    liveness flows strictly from later instructions to earlier ones.
    """
    live: set[str] = set()
    kept_reversed: list[I.Instruction] = []
    for instruction in reversed(instructions):
        writes = _writes(instruction)
        if isinstance(instruction, I.StoreDelta) or not writes or (writes & live):
            kept_reversed.append(instruction)
            live |= _reads(instruction)
    return list(reversed(kept_reversed))


def _reads(instruction: I.Instruction) -> set[str]:
    if isinstance(instruction, I.StoreDelta):
        return set(instruction.src.cols) | {instruction.src.tags}
    if isinstance(instruction, (I.EvalProject, I.EvalFilter, I.Dedup)):
        return set(instruction.src.cols) | {instruction.src.tags}
    if isinstance(instruction, I.Build):
        return set(instruction.src.cols[: instruction.width])
    if isinstance(instruction, (I.Probe, I.AntiProbe)):
        return set(instruction.probe.cols[: instruction.width]) | {
            instruction.index,
            instruction.probe.tags,
        }
    if isinstance(instruction, I.Gather):
        return set(instruction.src_cols) | {instruction.index}
    if isinstance(instruction, I.GatherTags):
        return {
            instruction.left_index,
            instruction.right_index,
            instruction.left_tags,
            instruction.right_tags,
        }
    if isinstance(instruction, I.CopyTags):
        return {instruction.src}
    if isinstance(instruction, I.CrossIndices):
        return {instruction.left_tags, instruction.right_tags}
    if isinstance(instruction, I.PassIfEmpty):
        return set(instruction.src.cols) | {instruction.src.tags, instruction.guard_tags}
    return set()


def _writes(instruction: I.Instruction) -> set[str]:
    if isinstance(instruction, I.Load):
        return set(instruction.dst.cols) | {instruction.dst.tags}
    if isinstance(instruction, (I.EvalProject, I.EvalFilter, I.Dedup, I.PassIfEmpty)):
        return set(instruction.dst.cols) | {instruction.dst.tags}
    if isinstance(instruction, I.Build):
        return {instruction.dst}
    if isinstance(instruction, I.Probe):
        return {instruction.dst_build, instruction.dst_probe}
    if isinstance(instruction, I.AntiProbe):
        return {instruction.dst}
    if isinstance(instruction, I.Gather):
        return set(instruction.dst_cols)
    if isinstance(instruction, I.GatherTags):
        return {instruction.dst}
    if isinstance(instruction, I.CopyTags):
        return {instruction.dst}
    if isinstance(instruction, I.CrossIndices):
        return {instruction.dst_left, instruction.dst_right}
    return set()
