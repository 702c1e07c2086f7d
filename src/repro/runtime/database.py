"""The fact database: EDB input facts + IDB derived relations.

Facts are registered through :meth:`Database.add_facts`; probabilistic
facts additionally carry probabilities and optional mutual-exclusion
groups.  Input facts receive globally contiguous ids (returned to the
caller, which is how the neural bridge routes gradients back), and
exclusion groups occupy contiguous id ranges — the invariant top-1-proof
conflict detection relies on.

A database may keep receiving facts *after* it has been evaluated: the
new rows accumulate as a pending delta, and the next :meth:`finalize`
folds them into the stored relations (marking them recent/changed) so an
incremental re-run can seed the semi-naive frontier from them instead of
recomputing the full fix point.  When incremental evaluation is unsound
for the program or provenance, :meth:`rebuild` replays every fact ever
added through a fresh cold load — re-running then matches a from-scratch
evaluation by construction.

Deltas are *signed*: :meth:`retract_facts` stages the removal of input
facts the same way :meth:`add_facts` stages additions.  The engine's
maintain path consumes the staged retractions through
:meth:`retraction_seeds` / :meth:`apply_retractions` (the DRed
over-delete/re-derive protocol); the fallback path simply drops the
retracted instances from the input-fact log and rebuilds, so a cold
rerun evaluates exactly the surviving multiset.  Fact ids are *never*
reused: a retracted probabilistic fact keeps its slot in the
probability/group arrays (its gradient just stops receiving mass), so
ids handed to the neural bridge stay stable across any mix of inserts
and retractions.
"""

from __future__ import annotations

from array import array
from typing import Callable

import numpy as np

from .relation import StoredRelation
from .table import NAN_CELL, Table, row_key
from ..errors import FactError, ResolutionError
from ..gpu.hash_table import RowLocator
from ..provenance.base import Provenance

_INT64_MIN = int(np.iinfo(np.int64).min)
_INT64_MAX = int(np.iinfo(np.int64).max)


def _matcher(rows) -> Callable[[tuple], bool]:
    """Membership in ``rows`` under the engine's row equality (a fresh
    ``float('nan')`` never equals a stored one, so plain tuple keys
    could never match a NaN fact).  When no row holds a NaN, that is a
    plain set lookup of the candidate."""
    keys = {row_key(tuple(row)) for row in rows}
    if not any(NAN_CELL in key for key in keys):
        return keys.__contains__
    return lambda row: row_key(row) in keys


def _cell_problem(cells: tuple, kinds: tuple[str, ...] | None) -> str | None:
    """Why one row's cells do not fit columns of dtype ``kinds`` (None:
    not declared yet — any numeric cell fits), or None if they do."""
    for column, cell in enumerate(cells):
        if isinstance(cell, (int, np.integer, np.bool_)):
            if not _INT64_MIN <= cell <= _INT64_MAX:
                return f"column {column} holds {cell!r}, outside int64"
        elif isinstance(cell, (float, np.floating)):
            if kinds is not None and kinds[column] == "i":
                return f"column {column} is an integer column but holds {cell!r}"
        else:
            return f"column {column} holds non-numeric {cell!r}"
    return None


def _checked_rows(name: str, rows, schema: tuple[np.dtype, ...] | None) -> list[tuple]:
    """``rows`` as tuples of numeric cells fitting ``schema`` (None: the
    first row's length, for a relation with no schema yet), or a
    :class:`FactError` naming the first row (and column) that is not:
    a wrong arity, a non-numeric cell, a float into an integer column,
    or an integer outside int64."""
    arity = None if schema is None else len(schema)
    kinds = None if schema is None else tuple(dt.kind for dt in schema)

    def misfit(index, row, problem=None):
        detail = f"row {index} is {row!r}" + (f": {problem}" if problem else "")
        return FactError(
            f"relation {name!r} takes rows of {arity} numeric cells; {detail}"
        )

    if isinstance(rows, np.ndarray) and rows.ndim == 2 and rows.dtype.kind in "biuf":
        # A numeric array: one shape and dtype-kind test covers every row.
        if len(rows) and arity is not None and rows.shape[1] != arity:
            raise misfit(0, tuple(rows[0]))
        if len(rows) and rows.dtype.kind == "f" and "i" in (kinds or ()):
            raise misfit(
                0, tuple(rows[0]), f"column {kinds.index('i')} is an integer "
                f"column but the array is {rows.dtype}"
            )
        if rows.dtype == np.uint64 and len(rows) and rows.max() > _INT64_MAX:
            index = int(np.argmax(rows.max(axis=1) > _INT64_MAX))
            raise misfit(index, tuple(rows[index]), "a cell is outside int64")
        return [tuple(row) for row in rows]
    checked = []
    for index, row in enumerate(rows):
        try:
            cells = tuple(row)
        except TypeError:
            raise misfit(index, row) from None
        if arity is None:
            arity = len(cells)
        if len(cells) != arity:
            raise misfit(index, row)
        try:
            # One C call: every cell an integer inside int64.
            array("q", cells)
        except (TypeError, OverflowError):
            problem = _cell_problem(cells, kinds)
            if problem is not None:
                raise misfit(index, row, problem) from None
        checked.append(cells)
    return checked


def _checked_probs(name: str, probs) -> list[float]:
    """``probs`` as floats, or a :class:`FactError` naming the first one
    that is not a number in [0, 1] (NaN and ±inf are not)."""

    def misfit(index):
        return FactError(
            f"relation {name!r}: prob {index} is {probs[index]!r}, "
            "not a number in [0, 1]"
        )

    if isinstance(probs, np.ndarray) and probs.ndim == 1 and probs.dtype.kind in "biuf":
        values = probs.astype(np.float64)
    else:
        try:
            # One C call: every prob a real number.
            values = np.frombuffer(array("d", probs), dtype=np.float64)
        except TypeError:
            for index, prob in enumerate(probs):
                try:
                    array("d", [prob])
                except TypeError:
                    raise misfit(index) from None
            raise
    outside = ~((values >= 0.0) & (values <= 1.0))
    if outside.any():
        raise misfit(int(np.argmax(outside)))
    return values.tolist()


class Database:
    """Named relations sharing one provenance semiring."""

    def __init__(self, schemas: dict[str, tuple[np.dtype, ...]], provenance: Provenance):
        self.provenance = provenance
        self.schemas = dict(schemas)
        self.relations: dict[str, StoredRelation] = {}
        #: Facts added but not yet loaded into relations (this round).
        self._pending: dict[str, tuple[list[tuple], list[int]]] = {}
        #: Every fact already loaded, kept for cold rebuilds.
        self._loaded: dict[str, tuple[list[tuple], list[int]]] = {}
        #: Rows staged for retraction against the loaded facts (this
        #: round); consumed by the engine's maintain path or by
        #: :meth:`discard_retractions` on the rebuild fallback.
        self._retractions: dict[str, list[tuple]] = {}
        #: Bumped on every mutation (add/retract/rebuild) so long-lived
        #: observers (e.g. a MaterializedView) can detect out-of-band
        #: writes and fail with StaleViewError instead of drifting.
        self.version = 0
        self._probs: list[float] = []
        self._groups: list[int] = []
        self._next_group = 0
        self.input_probs = np.zeros(0, dtype=np.float64)
        self.exclusion_groups = np.zeros(0, dtype=np.int64)
        self._finalized = False
        #: Set by the engine after a successful run; a later add_facts
        #: then makes the next run a warm (incremental or rebuilt) one.
        self.evaluated = False

    # ------------------------------------------------------------------

    @property
    def n_input_facts(self) -> int:
        return len(self._probs)

    @property
    def has_pending_facts(self) -> bool:
        """Whether facts were added since the last :meth:`finalize`."""
        return any(rows for rows, _ in self._pending.values())

    @property
    def has_pending_retractions(self) -> bool:
        """Whether retractions were staged since the last run."""
        return any(self._retractions.values())

    def relation(self, name: str) -> StoredRelation:
        rel = self.relations.get(name)
        if rel is None:
            if name not in self.schemas:
                raise ResolutionError(f"unknown relation {name!r}")
            rel = StoredRelation(name, self.schemas[name], self.provenance)
            self.relations[name] = rel
        return rel

    def new_exclusion_group(self) -> int:
        """Reserve a mutual-exclusion group id for use across several
        :meth:`add_facts` calls (e.g. op candidates spread over multiple
        relations).  Calls sharing a group must be issued back-to-back so
        the group's fact ids stay contiguous — top-1-proof conflict
        detection relies on that invariant."""
        group = self._next_group
        self._next_group += 1
        return group

    def add_facts(
        self,
        name: str,
        rows: list[tuple],
        probs: list[float] | np.ndarray | None = None,
        exclusive: bool = False,
        group: int | None = None,
    ) -> np.ndarray:
        """Register input facts for relation ``name``.

        ``probs`` attaches a probability per row (None = discrete facts).
        ``exclusive=True`` puts all rows of this call into one fresh
        mutual-exclusion group (e.g. the outcomes of one softmax);
        ``group`` joins an existing group from
        :meth:`new_exclusion_group` instead.
        Returns the assigned input-fact ids (−1 for discrete facts).

        Calling this after the database has been evaluated marks the rows
        as a pending delta; the next engine run folds them in.

        Rows that do not fit the relation (arity, non-numeric cells), a
        ``probs`` of another length, or a prob that is not a number in
        [0, 1] raise :class:`~repro.errors.FactError` before anything is
        stored.
        """
        if probs is not None:
            if len(probs) != len(rows):
                raise FactError(
                    f"relation {name!r}: {len(probs)} probs for {len(rows)} rows"
                )
            probs = _checked_probs(name, probs)
        schema = self.schemas.get(name)
        if schema is None and len(rows) == 0:
            # Undeclared and no row to infer a schema from: nothing to store.
            return np.full(0, -1, dtype=np.int64)
        rows = _checked_rows(name, rows, schema)
        if schema is None:
            self.schemas[name] = self._infer_schema(rows)
        self.version += 1
        pending_rows, pending_ids = self._pending.setdefault(name, ([], []))
        if probs is None:
            ids = np.full(len(rows), -1, dtype=np.int64)
            pending_rows.extend(rows)
            pending_ids.extend([-1] * len(rows))
            return ids
        if group is None:
            group = -1
            if exclusive:
                group = self.new_exclusion_group()
        start = len(self._probs)
        ids = np.arange(start, start + len(rows), dtype=np.int64)
        pending_rows.extend(rows)
        pending_ids.extend(range(start, start + len(rows)))
        self._probs.extend(probs)
        self._groups.extend([group] * len(rows))
        return ids

    @staticmethod
    def _infer_schema(rows: list[tuple]) -> tuple[np.dtype, ...]:
        arity = len(rows[0])
        return tuple(
            np.dtype(np.float64)
            if any(isinstance(row[j], float) for row in rows)
            else np.dtype(np.int64)
            for j in range(arity)
        )

    def finalize(self) -> None:
        """Bind the provenance to the input facts and load EDB tables.

        Idempotent; may be called again after more :meth:`add_facts` —
        fact ids are stable across rounds (the probability/group arrays
        only ever extend), so previously issued tags stay valid.  Rows
        landing in an already-populated relation are folded in through
        :meth:`~repro.runtime.relation.StoredRelation.advance`, which
        marks them recent/changed for incremental re-evaluation.
        """
        if self._finalized and not self.has_pending_facts:
            return
        self.input_probs = np.asarray(self._probs, dtype=np.float64)
        self.exclusion_groups = np.asarray(self._groups, dtype=np.int64)
        self.provenance.setup(self.input_probs, self.exclusion_groups)
        for name, (rows, ids) in self._pending.items():
            if not rows:
                continue
            tags = self.provenance.input_tags(np.asarray(ids, dtype=np.int64))
            table = Table.from_rows(rows, self.schemas[name], tags)
            rel = self.relation(name)
            if rel.n_facts():
                rel.advance(table)
            else:
                rel.set_facts(table)
            loaded_rows, loaded_ids = self._loaded.setdefault(name, ([], []))
            loaded_rows.extend(rows)
            loaded_ids.extend(ids)
        self._pending.clear()
        self._finalized = True

    # ------------------------------------------------------------------
    # Retraction support (signed deltas)

    def retract_facts(self, name: str, rows: list[tuple]) -> int:
        """Stage the removal of input facts: every instance of each given
        row — pending or already loaded, discrete or probabilistic — is
        withdrawn at the next engine run, exactly as if it had never been
        added (a cold evaluation of the surviving facts is the semantic
        reference).  Rows with no matching instance are ignored: they
        contribute nothing either way, so the equivalence holds trivially.

        Returns the number of fact instances the retraction matched.
        Fact ids are never reused; a retracted probabilistic fact keeps
        its probability-array slot and simply stops receiving gradient.
        """
        if name not in self.schemas:
            raise ResolutionError(f"unknown relation {name!r}")
        self.version += 1
        member = _matcher(rows)
        matched = 0
        # Pending inserts die immediately: add-then-retract in one round
        # means the fact never existed.
        pending = self._pending.get(name)
        if pending and pending[0]:
            kept = [
                (row, fid)
                for row, fid in zip(*pending)
                if not member(row)
            ]
            matched += len(pending[0]) - len(kept)
            self._pending[name] = (
                [row for row, _ in kept],
                [fid for _, fid in kept],
            )
        # Loaded instances are withdrawn at the next run (maintain or
        # rebuild); stage the rows that actually match something.
        loaded = self._loaded.get(name)
        if loaded:
            hits = [row for row in loaded[0] if member(row)]
            if hits:
                matched += len(hits)
                staged = self._retractions.setdefault(name, [])
                fresh = {row_key(row): row for row in hits}
                for row in staged:
                    fresh.pop(row_key(row), None)
                staged.extend(sorted(fresh.values()))
        return matched

    def retraction_seeds(self) -> dict[str, list[tuple]]:
        """Staged retracted rows per relation — the over-delete seeds."""
        return {
            name: list(rows)
            for name, rows in self._retractions.items()
            if rows
        }

    def discard_retractions(self) -> None:
        """Apply staged retractions to the input-fact log only (drop the
        matching ``_loaded`` instances).  Used by the rebuild fallback —
        a subsequent cold reload then evaluates exactly the surviving
        facts — and by :meth:`apply_retractions` after over-delete."""
        for name, rows in self._retractions.items():
            if not rows:
                continue
            loaded = self._loaded.get(name)
            if not loaded:
                continue
            member = _matcher(rows)
            kept = [
                (row, fid) for row, fid in zip(*loaded) if not member(row)
            ]
            self._loaded[name] = (
                [row for row, _ in kept],
                [fid for _, fid in kept],
            )
        self._retractions = {}

    def apply_retractions(self, doomed: dict[str, np.ndarray]) -> dict[str, Table]:
        """The removal + re-insertion half of a DRed maintain pass.

        ``doomed`` maps relation names to boolean masks over their
        ``full`` rows (retracted seeds plus everything transitively
        derivable from them, as computed by the interpreter's
        over-delete).  This method removes the doomed rows, drops the
        retracted instances from the input-fact log, and re-stages every
        *surviving* input-fact instance whose row was doomed — the next
        :meth:`finalize` folds those back in with their original tags and
        ids, and the re-derive phase recovers the derived facts.

        Returns the removed rows per relation (sorted tables, old tags)
        — the re-derive phase's head restriction.
        """
        removed: dict[str, Table] = {}
        for name, mask in doomed.items():
            if not mask.any():
                continue
            removed[name] = self.relations[name].remove_rows(mask)
        self.discard_retractions()
        for name, table in removed.items():
            loaded = self._loaded.get(name)
            if not loaded or not loaded[0]:
                continue
            # The loaded instances as a table (fact ids for tags), found
            # among the removed rows — which keep ``full``'s sorted order,
            # so they index as they are.
            instances = Table.from_rows(loaded[0], self.schemas[name], np.asarray(loaded[1]))
            doomed_rows = RowLocator(table.columns, table.n_rows)
            hit = doomed_rows.contains(instances.columns, instances.n_rows).tolist()
            kept: list[tuple[tuple, int]] = []
            restage: list[tuple[tuple, int]] = []
            for row, fid, doomed_row in zip(*loaded, hit):
                (restage if doomed_row else kept).append((row, fid))
            if restage:
                self._loaded[name] = (
                    [row for row, _ in kept],
                    [fid for _, fid in kept],
                )
                p_rows, p_ids = self._pending.setdefault(name, ([], []))
                p_rows.extend(row for row, _ in restage)
                p_ids.extend(fid for _, fid in restage)
        return removed

    # ------------------------------------------------------------------
    # Incremental-evaluation support

    def begin_delta_tracking(self) -> None:
        """Zero every relation's ``changed`` mask so the next finalize +
        run can identify exactly the rows this round added/improved."""
        for rel in self.relations.values():
            rel.begin_delta_tracking()

    def rebuild(self) -> None:
        """Drop all derived state and stage every fact ever added for a
        cold reload (the sound fallback when incremental re-evaluation is
        unavailable).  Fact ids, probabilities, and exclusion groups are
        preserved, so gradients and returned ids remain meaningful.
        Staged retractions are applied to the fact log first, so the
        reload stages exactly the surviving facts."""
        self.discard_retractions()
        self.version += 1
        merged: dict[str, tuple[list[tuple], list[int]]] = {}
        for name, (rows, ids) in self._loaded.items():
            merged[name] = (list(rows), list(ids))
        for name, (rows, ids) in self._pending.items():
            rows_acc, ids_acc = merged.setdefault(name, ([], []))
            rows_acc.extend(rows)
            ids_acc.extend(ids)
        self._pending = merged
        self._loaded = {}
        self.relations = {}
        self._finalized = False
        self.evaluated = False

    # ------------------------------------------------------------------
    # Durability (checkpoint / export interchange)

    def state_dict(self) -> dict:
        """Full serializable state: the input-fact log (rows, ids,
        probabilities, exclusion groups), every stored relation's tables
        + masks, staged deltas, and the mutation counter.  Everything the constructor plus the add/retract history
        would have produced — restoring via :meth:`from_state` yields a
        database indistinguishable from the original, including fact-id
        allocation (ids are never reused, so the log is the allocator).
        """
        return {
            "schemas": {
                name: tuple(dtype.str for dtype in dtypes)
                for name, dtypes in self.schemas.items()
            },
            "relations": {
                name: {
                    "columns": list(rel.full.columns),
                    "tags": rel.full.tags,
                    "n_rows": rel.full.n_rows,
                    "recent_mask": rel.recent_mask,
                    "changed_mask": rel.changed_mask,
                }
                for name, rel in self.relations.items()
            },
            "pending": {
                name: (list(rows), list(ids))
                for name, (rows, ids) in self._pending.items()
            },
            "loaded": {
                name: (list(rows), list(ids))
                for name, (rows, ids) in self._loaded.items()
            },
            "retractions": {
                name: list(rows) for name, rows in self._retractions.items()
            },
            "version": self.version,
            "probs": list(self._probs),
            "groups": list(self._groups),
            "next_group": self._next_group,
            "finalized": self._finalized,
            "evaluated": self.evaluated,
        }

    @classmethod
    def from_state(cls, state: dict, provenance: Provenance) -> "Database":
        """Reconstruct a database from :meth:`state_dict` output onto a
        *fresh* provenance instance (the caller supplies one matching the
        semiring the state was written under; tags are data, so a fresh
        instance set up on the restored input facts reads them)."""
        schemas = {
            name: tuple(np.dtype(spec) for spec in dtypes)
            for name, dtypes in state["schemas"].items()
        }
        database = cls(schemas, provenance)
        database._pending = {
            name: (list(rows), list(ids))
            for name, (rows, ids) in state["pending"].items()
        }
        database._loaded = {
            name: (list(rows), list(ids))
            for name, (rows, ids) in state["loaded"].items()
        }
        database._retractions = {
            name: list(rows) for name, rows in state["retractions"].items()
        }
        database.version = int(state["version"])
        database._probs = [float(p) for p in state["probs"]]
        database._groups = [int(g) for g in state["groups"]]
        database._next_group = int(state["next_group"])
        database._finalized = bool(state["finalized"])
        database.evaluated = bool(state["evaluated"])
        database.input_probs = np.asarray(database._probs, dtype=np.float64)
        database.exclusion_groups = np.asarray(database._groups, dtype=np.int64)
        if database._finalized:
            provenance.setup(database.input_probs, database.exclusion_groups)
        for name, rel_state in state["relations"].items():
            rel = StoredRelation(name, schemas[name], provenance)
            rel.full = Table(
                [np.asarray(column) for column in rel_state["columns"]],
                np.asarray(rel_state["tags"]),
                int(rel_state["n_rows"]),
            )
            rel.recent_mask = np.asarray(rel_state["recent_mask"], dtype=bool)
            rel.changed_mask = np.asarray(rel_state["changed_mask"], dtype=bool)
            database.relations[name] = rel
        return database

    # ------------------------------------------------------------------

    def total_bytes(self) -> int:
        return sum(rel.nbytes() for rel in self.relations.values())

    def result(self, name: str) -> Table:
        """Final contents of a relation after execution."""
        return self.relation(name).snapshot("full")

    def result_probs(self, name: str) -> tuple[list[tuple], np.ndarray]:
        table = self.result(name)
        return table.rows(), self.provenance.prob(table.tags)
