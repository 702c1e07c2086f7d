"""The compile-once program cache.

``LobsterEngine`` historically re-parsed, re-lowered, and re-optimized its
Datalog source on every construction.  For a serving workload — many
engines over the same program, or one benchmark constructing an engine per
sample — that front-end cost dominates; the SPEC CPU2026 methodology of
separating one-time compilation from steady-state throughput demands the
two be measurable independently.

This module provides that separation:

* :func:`compile_source` runs the full front-end pipeline
  (parse -> resolve -> RAM -> APM -> optimize) once and returns an
  immutable :class:`CompiledProgram` artifact;
* :class:`ProgramCache` is a content-addressed, thread-safe LRU cache of
  those artifacts, keyed by the *normalized* Datalog source, the
  provenance name, the :class:`OptimizationConfig`, and the batched flag;
* a process-wide default cache (:func:`default_cache`) makes every engine
  construction a warm path after the first.

Compiled artifacts are safe to share: nothing in the pipeline's output is
mutated at run time (the optimizer runs inside :func:`compile_source`, and
databases receive copies of the schema map).
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field

from ..apm.compiler import ApmProgram, compile_ram
from ..apm.optimizer import optimize
from ..datalog.parser import parse
from ..datalog.resolver import ResolvedProgram, _resolve_fact_blocks, resolve
from ..interning import SymbolTable
from ..ram.compile_datalog import compile_program
from ..ram.ir import RamProgram
from ..stats.estimate import CostModel
from ..stats.relation_stats import StatsCatalog
from .batching import batch_transform

#: Bump when the compiled artifact's layout changes incompatibly.
CACHE_SCHEMA_VERSION = 1


@dataclass
class OptimizationConfig:
    """Toggles for the paper's optimizations (the Fig. 10 ablation arms).

    ``apm_passes`` changes the compiled program (it gates the APM-level
    DCE/fusion passes); the other three are runtime toggles.  All four are
    part of the program-cache key so an ablation arm never sees another
    arm's artifact.
    """

    buffer_reuse: bool = True
    static_indices: bool = True
    stratum_scheduling: bool = True
    apm_passes: bool = True
    #: Whether a supplied :class:`~repro.stats.StatsCatalog` may drive
    #: atom ordering (this repo's cost-based planner).  With no catalog
    #: the planner always falls back to the syntactic heuristic, so the
    #: flag only matters for adaptive engines and explicit stats
    #: compiles — but it is part of the cache key like every other arm.
    cost_based: bool = True

    @classmethod
    def none(cls) -> "OptimizationConfig":
        return cls(False, False, False, False, False)

    def key_fields(self) -> tuple[bool, ...]:
        return (
            self.buffer_reuse,
            self.static_indices,
            self.stratum_scheduling,
            self.apm_passes,
            self.cost_based,
        )


@dataclass
class CompiledProgram:
    """The immutable output of the compilation pipeline, shareable across
    engines, databases, and runs."""

    #: Content-addressed cache key (hex digest).
    key: str
    resolved: ResolvedProgram
    ram: RamProgram
    apm: ApmProgram
    #: Inline fact blocks of a batched program, replicated per sample at
    #: load time (empty for non-batched programs).
    batch_fact_rows: dict[str, list[tuple]]
    #: One-time front-end cost of producing this artifact.
    compile_seconds: float
    #: Bucket key of the statistics catalog this artifact was planned
    #: under; None for the zero-statistics (syntactic heuristic) plan.
    stats_bucket: str | None = None
    #: Planner cardinality estimates per rule (``s<i>r<j>`` keys, the
    #: interpreter's feedback keys); empty for heuristic plans.
    rule_estimates: dict[str, float] = field(default_factory=dict)


def normalize_source(source: str) -> str:
    """Canonicalize Datalog source for content addressing.

    Strips per-line leading/trailing whitespace, blank lines, and
    whole-line ``//`` comments.  Intentionally conservative: whitespace
    *inside* a line is preserved so string literals can never make two
    distinct programs collide.
    """
    lines = []
    for line in source.splitlines():
        stripped = line.strip()
        if not stripped or stripped.startswith("//"):
            continue
        lines.append(stripped)
    return "\n".join(lines)


def cache_key(
    source: str,
    provenance_name: str,
    optimizations: OptimizationConfig,
    batched: bool,
    stats_bucket: str | None = None,
) -> str:
    """Content-addressed key for one compiled program.

    ``stats_bucket`` (a :meth:`~repro.stats.StatsCatalog.bucket_key`)
    keys *plans* rather than just programs: the same source compiled
    under different data shapes yields different join orders, and each
    lives in the cache under its own (program, stats-bucket) identity.
    """
    hasher = hashlib.sha256()
    hasher.update(f"v{CACHE_SCHEMA_VERSION}\x00".encode())
    hasher.update(normalize_source(source).encode())
    hasher.update(b"\x00")
    hasher.update(provenance_name.encode())
    hasher.update(b"\x00")
    hasher.update(repr(optimizations.key_fields()).encode())
    hasher.update(b"\x00")
    hasher.update(b"batched" if batched else b"single")
    if stats_bucket is not None:
        hasher.update(b"\x00stats\x00")
        hasher.update(stats_bucket.encode())
    return hasher.hexdigest()


def plan_bucket(
    stats: StatsCatalog | None, cost_model: CostModel | None
) -> str | None:
    """The plan-identity fragment of a cache key: the catalog's bucket
    plus the cost model's pricing — both shape the chosen join orders,
    so both must separate cached artifacts."""
    if stats is None or not stats:
        return None
    model = cost_model or CostModel()
    return f"{stats.bucket_key()}|{model.key()}"


def rule_estimates_of(ram: RamProgram) -> dict[str, float]:
    """Planner estimates keyed the way the interpreter reports actuals
    (``s<i>r<j>`` — stratum and rule index)."""
    estimates: dict[str, float] = {}
    for i, stratum in enumerate(ram.strata):
        for j, rule in enumerate(stratum.rules):
            if rule.estimated_rows is not None:
                estimates[f"s{i}r{j}"] = rule.estimated_rows
    return estimates


def compile_source(
    source: str,
    provenance_name: str,
    optimizations: OptimizationConfig,
    batched: bool = False,
    stats: StatsCatalog | None = None,
    cost_model: CostModel | None = None,
    bucket: str | None = None,
) -> CompiledProgram:
    """Run the full pipeline once: parse -> resolve -> RAM -> APM.

    ``stats`` routes atom ordering through the cost-based planner
    (gated on ``optimizations.cost_based``); the resulting artifact
    records the catalog's bucket and per-rule cardinality estimates so
    executions can be checked against the plan's expectations.

    ``bucket`` lets :meth:`ProgramCache.get_or_compile` pin the plan
    bucket it keyed the cache slot under; computed here otherwise.  The
    catalog is *live* (other runs may advance relations while this
    compile proceeds outside the cache lock), so the bucket is fixed
    once, up front — slot key and artifact key must never diverge, or
    drift invalidation would target a key the cache never held.
    """
    start = time.perf_counter()
    if not optimizations.cost_based:
        stats = None
    if bucket is None:
        bucket = plan_bucket(stats, cost_model)
    ast_program = parse(source)
    batch_fact_rows: dict[str, list[tuple]] = {}
    if batched:
        ast_program = batch_transform(ast_program)
        # Fact blocks stay sample-relative: pull them out before
        # resolution (their arity predates the sample column) and
        # replicate them per sample at load time.
        symbols = SymbolTable()
        batch_fact_rows = _resolve_fact_blocks(ast_program.fact_blocks, symbols)
        ast_program.fact_blocks = []
        resolved = resolve(ast_program, symbols)
    else:
        resolved = resolve(ast_program)
    ram = compile_program(resolved, stats=stats, cost_model=cost_model)
    apm = compile_ram(ram)
    if optimizations.apm_passes:
        apm = optimize(apm)
    return CompiledProgram(
        key=cache_key(source, provenance_name, optimizations, batched, bucket),
        resolved=resolved,
        ram=ram,
        apm=apm,
        batch_fact_rows=batch_fact_rows,
        compile_seconds=time.perf_counter() - start,
        stats_bucket=bucket,
        rule_estimates=rule_estimates_of(ram),
    )


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    #: Artifacts dropped by drift-triggered invalidation.
    invalidations: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


class ProgramCache:
    """Thread-safe LRU cache of :class:`CompiledProgram` artifacts.

    Parameters
    ----------
    capacity:
        Maximum number of compiled programs retained; ``None`` means
        unbounded.  Eviction is least-recently-used.
    """

    def __init__(self, capacity: int | None = 256):
        self.capacity = capacity
        self.stats = CacheStats()
        self._entries: OrderedDict[str, CompiledProgram] = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.stats = CacheStats()

    def get(self, key: str) -> CompiledProgram | None:
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
            return entry

    def invalidate(self, key: str) -> bool:
        """Drop one cached artifact (the adaptive planner's drift path:
        observed cardinalities strayed too far from the plan's estimates,
        so the next lookup for this (program, stats-bucket) identity must
        re-plan against fresh statistics).  Returns whether it was held.
        """
        with self._lock:
            if key in self._entries:
                del self._entries[key]
                self.stats.invalidations += 1
                return True
            return False

    def get_or_compile(
        self,
        source: str,
        provenance_name: str,
        optimizations: OptimizationConfig,
        batched: bool = False,
        stats: StatsCatalog | None = None,
        cost_model: CostModel | None = None,
    ) -> tuple[CompiledProgram, bool]:
        """Return ``(artifact, was_hit)`` for the given program identity.

        ``stats`` adds the catalog's bucket to the identity, giving each
        observed data shape its own compiled plan (a serving fleet's
        same-shape requests all hit one artifact).

        The compile itself runs outside the lock, so a rare race can
        compile the same program twice; last-writer-wins is harmless
        because artifacts for one key are interchangeable.
        """
        bucket = (
            plan_bucket(stats, cost_model) if optimizations.cost_based else None
        )
        key = cache_key(source, provenance_name, optimizations, batched, bucket)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self.stats.hits += 1
                return entry, True
            self.stats.misses += 1
        compiled = compile_source(
            source, provenance_name, optimizations, batched, stats, cost_model,
            bucket=bucket,
        )
        with self._lock:
            self._entries[key] = compiled
            self._entries.move_to_end(key)
            if self.capacity is not None:
                while len(self._entries) > self.capacity:
                    self._entries.popitem(last=False)
                    self.stats.evictions += 1
        return compiled, False


#: Process-wide cache used by every engine unless told otherwise.
_DEFAULT_CACHE = ProgramCache()


def default_cache() -> ProgramCache:
    return _DEFAULT_CACHE
