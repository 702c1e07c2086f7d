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
  provenance name, the :class:`OptimizationConfig`, and the batched flag
  — nothing data-dependent, so there is one plan per program and every
  database runs the same artifact;
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
from dataclasses import dataclass

from ..apm.compiler import ApmProgram, compile_ram
from ..apm.optimizer import optimize
from ..datalog.parser import parse
from ..datalog.resolver import ResolvedProgram, _resolve_fact_blocks, resolve
from ..provenance import registry
from ..ram.compile_datalog import compile_program
from ..ram.ir import RamProgram
from .batching import batch_transform

#: Bump when the compiled artifact's layout changes incompatibly.
CACHE_SCHEMA_VERSION = 2


@dataclass
class OptimizationConfig:
    """Toggles for the paper's optimizations that change host work.

    ``static_indices`` reuses the hash indices of iteration-invariant
    join sides across iterations (§4.2).  It is part of the program-cache
    key so an ablation arm never sees another arm's artifact.  The APM
    passes (DCE, projection fusion) always run, buffer reuse (§4.1) is
    the device's allocator setting
    (:attr:`~repro.gpu.device.VirtualDevice.reuse_buffers`), and stratum
    offload scheduling (§5.3) always plans one device window.
    """

    static_indices: bool = True

    @classmethod
    def none(cls) -> "OptimizationConfig":
        return cls(False)

    def key_fields(self) -> tuple[bool, ...]:
        return (self.static_indices,)


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
) -> str:
    """Content-addressed key for one compiled program."""
    hasher = hashlib.sha256()
    hasher.update(f"v{CACHE_SCHEMA_VERSION}\x00".encode())
    hasher.update(normalize_source(source).encode())
    hasher.update(b"\x00")
    hasher.update(provenance_name.encode())
    hasher.update(b"\x00")
    hasher.update(repr(optimizations.key_fields()).encode())
    hasher.update(b"\x00")
    hasher.update(b"batched" if batched else b"single")
    return hasher.hexdigest()


def compile_source(
    source: str,
    provenance_name: str,
    optimizations: OptimizationConfig,
    batched: bool = False,
) -> CompiledProgram:
    """Run the full pipeline once: parse -> resolve -> RAM -> APM."""
    start = time.perf_counter()
    ast_program = parse(source)
    batch_fact_rows: dict[str, list[tuple]] = {}
    if batched:
        ast_program = batch_transform(ast_program)
        # Fact blocks stay sample-relative: pull them out before
        # resolution (their arity predates the sample column) and
        # replicate them per sample at load time.  They are interned
        # after the rules, as the plain program interns them, so both
        # artifacts give every string the same id.
        fact_blocks, ast_program.fact_blocks = ast_program.fact_blocks, []
        resolved = resolve(ast_program)
        batch_fact_rows = _resolve_fact_blocks(fact_blocks, resolved.symbols)
    else:
        resolved = resolve(ast_program)
    ram = compile_program(resolved, registry.is_distributive(provenance_name))
    apm = optimize(compile_ram(ram))
    return CompiledProgram(
        key=cache_key(source, provenance_name, optimizations, batched),
        resolved=resolved,
        ram=ram,
        apm=apm,
        batch_fact_rows=batch_fact_rows,
        compile_seconds=time.perf_counter() - start,
    )


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    evictions: int = 0

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

    def get_or_compile(
        self,
        source: str,
        provenance_name: str,
        optimizations: OptimizationConfig,
        batched: bool = False,
    ) -> tuple[CompiledProgram, bool]:
        """Return ``(artifact, was_hit)`` for the given program identity.

        The compile itself runs outside the lock, so a rare race can
        compile the same program twice; last-writer-wins is harmless
        because artifacts for one key are interchangeable.
        """
        key = cache_key(source, provenance_name, optimizations, batched)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self.stats.hits += 1
                return entry, True
            self.stats.misses += 1
        compiled = compile_source(source, provenance_name, optimizations, batched)
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
