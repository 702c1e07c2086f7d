"""Materialized views: query results kept continuously correct.

A :class:`MaterializedView` binds one compiled program (through its
engine — the ProgramCache key identifies the artifact) to one database
and keeps the program's query relations evaluated as signed input deltas
arrive.  Each :meth:`MaterializedView.apply` stages a
:class:`~repro.stream.window.TickDelta` (retractions first, then
inserts), runs the engine — the DRed maintain path when it is sound, the
checkpointed-recompute fallback otherwise, never a wrong answer — and
diffs the new results against the previous ones into a
:class:`ViewDelta`: the rows (with probabilities) that entered, left, or
changed.

The view's state is the engine's own arrays.  Per relation it keeps a
*snapshot*: a :class:`~repro.runtime.table.Table` holding the relation's
``full`` columns as of the last tick, by reference, with the rows'
probabilities (``float64``) in place of the tags.  Holding them by
reference is sound because the stored relation never writes into an
array it has handed out (``advance``, ``remove_rows`` and ``set_facts``
allocate fresh ones).  A tick diffs the previous snapshot against the
new table with the relation's cached
:class:`~repro.gpu.hash_table.RowLocator` (:func:`snapshot_diff`): one
``find`` of the old rows, O(|view|) numpy, and Python tuples only for
the rows that changed.  Rows compare under the engine's row equality
(NaN equals NaN, ``-0.0`` equals ``0.0``), so a NaN row that stays put
is not reported as retracted and re-inserted.

View deltas satisfy the conservation law by construction:
``state_before ⊎ inserted ∖ retracted == state_after`` per relation (a
changed row appears as a retract of the old value plus an insert of the
new), because each delta is the exact difference of two full states.
Replaying the retained history from tick 0 over the baseline therefore
reconstructs the current state — that is what
:meth:`~repro.stream.subscription.Subscription.replay` does, and what
the streaming tests verify.

A checkpoint (:meth:`MaterializedView.state_dict`) stores the baseline
and each retained delta's rows as typed column arrays.  It does not
store the current state: the database is checkpointed beside the view,
and the view constructed on the restored database snapshots it.

Staleness: the view records the database's mutation counter after every
apply.  If anything else mutates the database (a direct ``add_facts``,
another view, a rebuild), the next :meth:`apply` raises
:class:`~repro.errors.StaleViewError` instead of silently emitting
deltas relative to a state it never observed; :meth:`refresh`
re-baselines (and invalidates retained history, so stale subscriptions
also fail loudly rather than resume mid-stream).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

import numpy as np

from .subscription import Subscription
from .window import TickDelta
from ..errors import CheckpointMismatchError, LobsterError, ResolutionError, StaleViewError
from ..runtime.table import Table

if TYPE_CHECKING:  # circular-import guard
    from ..gpu.hash_table import RowLocator
    from ..runtime.database import Database
    from ..runtime.engine import ExecutionResult, LobsterEngine

__all__ = ["MaterializedView", "ViewDelta", "snapshot_diff"]

#: row -> probability, one relation's materialized state.
RelationState = dict[tuple, float]

#: (row, prob) pairs, sorted — one relation's side of a ViewDelta.
Pairs = list[tuple[tuple, float]]


def snapshot_diff(
    old_columns: list[np.ndarray],
    old_probs: np.ndarray,
    locator: "RowLocator",
    new_probs: np.ndarray,
) -> tuple[Pairs, Pairs]:
    """``(retracted, inserted)``: the sorted (row, prob) pairs that turn
    one snapshot of a relation into the next.

    ``old_columns`` and ``old_probs`` are the previous snapshot's rows
    and ``float64`` probabilities; ``locator`` indexes the new table and
    ``new_probs`` are its probabilities.  An old row is *kept* when the
    new table holds it (under the engine's row equality) with an equal
    probability.  Every other old row is retracted, and every new row
    that no kept old row maps to is inserted.  Only those rows become
    Python tuples."""
    at = locator.find(old_columns, len(old_probs))
    kept = at >= 0
    kept[kept] = new_probs[at[kept]] == old_probs[kept]
    mapped = np.zeros(locator.n_rows, dtype=bool)
    mapped[at[kept]] = True
    return (
        _pairs(Table(old_columns, old_probs, len(old_probs)), ~kept),
        _pairs(Table(locator.columns, new_probs, locator.n_rows), ~mapped),
    )


def _pairs(snapshot: Table, mask: np.ndarray) -> Pairs:
    """The masked rows of a snapshot as sorted (row, prob) pairs."""
    if not mask.any():
        return []
    return sorted(_zipped(snapshot.take(np.flatnonzero(mask))))


def _zipped(snapshot: Table):
    """A snapshot's (row, prob) pairs in table order, rows in bulk."""
    return zip(snapshot.rows(), snapshot.tags.tolist())


def _encode_rows(snapshot: Table) -> dict:
    """A snapshot's checkpoint form: typed columns, row count, probs."""
    return {"columns": list(snapshot.columns), "n": snapshot.n_rows, "probs": snapshot.tags}


def _decode_rows(state: dict) -> Table:
    return Table(
        list(state["columns"]),
        np.asarray(state["probs"], dtype=np.float64),
        int(state["n"]),
    )


def _encode_pairs(pairs: Pairs, dtypes: tuple[np.dtype, ...]) -> dict:
    probs = np.fromiter((prob for _, prob in pairs), dtype=np.float64, count=len(pairs))
    return _encode_rows(Table.from_rows([row for row, _ in pairs], dtypes, probs))


def _decode_pairs(state: dict) -> Pairs:
    return list(_zipped(_decode_rows(state)))


@dataclass
class ViewDelta:
    """The result-side delta of one applied tick."""

    tick: int
    #: Per relation: (row, prob) pairs that entered the view (including
    #: the new value of a row whose probability changed).
    inserted: dict[str, list[tuple[tuple, float]]] = field(default_factory=dict)
    #: Per relation: (row, prob) pairs that left the view (including the
    #: old value of a changed row).
    retracted: dict[str, list[tuple[tuple, float]]] = field(default_factory=dict)
    #: Whether the run maintained in place (DRed) vs fell back.
    maintained: bool = False
    #: The fallback reason when the run recomputed instead.
    fallback: str | None = None
    #: Modeled device occupancy of the tick's run (the serve clock's
    #: charge; what the update-latency histograms observe).
    service_seconds: float = 0.0
    #: Host wall seconds of the tick's run.
    wall_seconds: float = 0.0
    #: Source ticks covered (> 1 when the scheduler coalesced).
    ticks_covered: int = 1

    @property
    def is_empty(self) -> bool:
        return not any(self.inserted.values()) and not any(self.retracted.values())

    def change_count(self) -> int:
        return sum(len(rows) for rows in self.inserted.values()) + sum(
            len(rows) for rows in self.retracted.values()
        )

    def state_dict(self, schemas: dict[str, tuple[np.dtype, ...]]) -> dict:
        """Serializable form (checkpointed view history): each side's
        rows as columns typed by ``schemas`` (relation -> dtypes)."""
        return {
            "tick": self.tick,
            "inserted": {
                rel: _encode_pairs(pairs, schemas[rel]) for rel, pairs in self.inserted.items()
            },
            "retracted": {
                rel: _encode_pairs(pairs, schemas[rel]) for rel, pairs in self.retracted.items()
            },
            "maintained": self.maintained,
            "fallback": self.fallback,
            "service_seconds": self.service_seconds,
            "wall_seconds": self.wall_seconds,
            "ticks_covered": self.ticks_covered,
        }

    @classmethod
    def from_state(cls, state: dict) -> "ViewDelta":
        return cls(
            tick=int(state["tick"]),
            inserted={rel: _decode_pairs(rows) for rel, rows in state["inserted"].items()},
            retracted={rel: _decode_pairs(rows) for rel, rows in state["retracted"].items()},
            maintained=bool(state["maintained"]),
            fallback=state["fallback"],
            service_seconds=float(state["service_seconds"]),
            wall_seconds=float(state["wall_seconds"]),
            ticks_covered=int(state["ticks_covered"]),
        )


class MaterializedView:
    """One program's query results, maintained under signed deltas."""

    def __init__(
        self,
        engine: "LobsterEngine",
        relations: list[str] | None = None,
        database: "Database | None" = None,
        name: str = "view",
        max_history: int | None = None,
        metrics=None,
    ):
        """``relations`` defaults to the program's ``query`` declarations
        (every IDB relation when the program declares none).  ``database``
        may carry pre-loaded facts; if it was already evaluated, that
        state becomes the baseline deltas are measured against.
        ``max_history`` bounds the retained :class:`ViewDelta` log
        (``None`` = unbounded, which full replay requires); ``metrics``
        (a MetricsRegistry-shaped object) observes per-tick maintain
        latency and outcomes."""
        self.engine = engine
        self.name = name
        self.database = database or engine.create_database()
        if relations is None:
            relations = list(engine.apm.queries) or [
                predicate
                for stratum in engine.apm.strata
                for predicate in stratum.predicates
            ]
        if not relations:
            raise LobsterError(
                "a MaterializedView needs at least one result relation "
                "(declare `query <rel>` in the program or pass relations=)"
            )
        unknown = [r for r in relations if r not in self.database.schemas]
        if unknown:
            raise ResolutionError(f"unknown relation {unknown[0]!r}")
        self.relations = list(relations)
        self.max_history = max_history
        self.metrics = metrics
        self._history: list[ViewDelta] = []
        self._pruned = 0  # deltas dropped from the front of the history
        #: Bumped by refresh(): subscriptions from an earlier epoch fail
        #: loudly even when their cursor happens to equal the prune
        #: point (a caught-up reader still missed the re-baseline).
        self._epoch = 0
        self._subscribers: list[Subscription] = []
        #: Durability hook: called as ``(subscription_name, cursor,
        #: epoch)`` whenever a *named* subscription's cursor advances —
        #: a RecoveryManager logs these so consumers resume exactly-once.
        self.cursor_listener: Callable[[str, int, int], None] | None = None
        #: Cursors recovered from a checkpoint/WAL, waiting for their
        #: consumers to :meth:`resubscribe` by name.
        self._recovered_cursors: dict[str, tuple[int, int]] = {}
        #: Per relation: the snapshot deltas are measured from, and the
        #: one replay starts from (Tables whose tags are probabilities).
        self._current = self._capture()
        self._baseline = self._current
        self._db_version = self.database.version

    # ------------------------------------------------------------------

    @property
    def ticks_applied(self) -> int:
        return self._pruned + len(self._history)

    @property
    def history(self) -> list[ViewDelta]:
        """The retained delta log (oldest first; may be pruned)."""
        return list(self._history)

    @property
    def pruned_ticks(self) -> int:
        return self._pruned

    def result(self, relation: str) -> RelationState:
        """The view's current state for one relation (row -> prob)."""
        if relation not in self._current:
            raise LobsterError(
                f"relation {relation!r} is not part of this view; "
                f"tracked: {self.relations}"
            )
        return dict(_zipped(self._current[relation]))

    def baseline(self) -> dict[str, RelationState]:
        """The pre-stream state replay starts from."""
        return {relation: dict(_zipped(rows)) for relation, rows in self._baseline.items()}

    # ------------------------------------------------------------------

    def apply(
        self,
        delta: TickDelta,
        runner: "Callable[[Database], ExecutionResult] | None" = None,
    ) -> ViewDelta:
        """Stage ``delta``, run the engine, and emit the result delta.

        ``runner`` overrides how the evaluation executes (the stream
        scheduler passes a session step pinned to a pool device so
        maintenance shares devices with request traffic); the default is
        the engine's own device.  Raises
        :class:`~repro.errors.StaleViewError` if the database was
        mutated outside this view since the last apply.

        Cost note: the maintain pass itself is proportional to the
        delta's blast radius (that is what the latency histograms
        measure, on the modeled device clock).  The host-side diff that
        produces the :class:`ViewDelta` compares the tracked relations
        in full, but as arrays: one locator ``find`` of the previous
        snapshot's rows per relation, O(|view|) numpy, and Python work
        only for the rows that changed (:func:`snapshot_diff`).
        Diffing two full states is what makes the conservation law hold
        by construction."""
        if self.database.version != self._db_version:
            raise StaleViewError(
                f"view {self.name!r}: database was mutated outside the "
                "view's tick path (call refresh() to re-baseline)"
            )
        for relation, rows in delta.retracts.items():
            if rows:
                self.database.retract_facts(relation, rows)
        for relation, (rows, probs) in delta.inserts.items():
            if not rows:
                continue
            if probs is None:
                self.database.add_facts(relation, rows)
                continue
            # A per-row None marks a discrete (untagged) fact in an
            # otherwise probabilistic batch — stage it separately rather
            # than collapsing it to probability 0.
            discrete = [row for row, prob in zip(rows, probs) if prob is None]
            tagged = [
                (row, prob) for row, prob in zip(rows, probs) if prob is not None
            ]
            if discrete:
                self.database.add_facts(relation, discrete)
            if tagged:
                self.database.add_facts(
                    relation,
                    [row for row, _ in tagged],
                    probs=[prob for _, prob in tagged],
                )
        if runner is None:
            result = self.engine.run(self.database)
        else:
            result = runner(self.database)
        self._db_version = self.database.version

        view_delta = ViewDelta(
            tick=delta.tick,
            maintained=result.maintained,
            fallback=result.maintain_fallback,
            service_seconds=result.service_seconds,
            wall_seconds=result.wall_seconds,
            ticks_covered=delta.ticks_covered,
        )
        current = {}
        for relation in self.relations:
            old = self._current[relation]
            new = current[relation] = self._snapshot(relation)
            retracted, inserted = snapshot_diff(
                old.columns, old.tags, self.database.relation(relation).locator(), new.tags
            )
            if retracted:
                view_delta.retracted[relation] = retracted
            if inserted:
                view_delta.inserted[relation] = inserted
        self._current = current
        self._history.append(view_delta)
        if self.max_history is not None:
            while len(self._history) > self.max_history:
                self._history.pop(0)
                self._pruned += 1
        if self.metrics is not None:
            self.metrics.counter(f"stream.ticks.{self.name}").inc()
            if result.maintained:
                self.metrics.counter(f"stream.maintained.{self.name}").inc()
            elif result.maintain_fallback is not None:
                self.metrics.counter(f"stream.fallbacks.{self.name}").inc()
            self.metrics.histogram(
                f"stream.maintain_latency_s.{self.name}"
            ).observe(result.service_seconds)
            changed = view_delta.change_count()
            if changed:
                # Quiet ticks are visible through stream.ticks minus this
                # histogram's count; folding them in as 1-row ticks would
                # misstate the churn distribution.
                self.metrics.histogram(
                    f"stream.changed_rows.{self.name}", lo=1.0
                ).observe(changed)
        for subscription in self._subscribers:
            subscription._notify(view_delta)
        return view_delta

    def refresh(self) -> None:
        """Re-baseline after an out-of-band database mutation: run the
        engine, capture the current state as the new baseline, and drop
        the retained history (stale subscriptions then fail loudly on
        their next poll instead of resuming mid-stream)."""
        self.engine.run(self.database)
        self._db_version = self.database.version
        self._current = self._baseline = self._capture()
        self._pruned += len(self._history)
        self._history = []
        self._epoch += 1

    def subscribe(self, callback=None, *, name: str | None = None) -> Subscription:
        """A cursor over this view's delta stream from the current tick
        onward; ``callback`` additionally receives every future
        :class:`ViewDelta` as it is applied (push mode).  ``name`` makes
        the cursor *durable*: its position is reported through
        :attr:`cursor_listener` on every poll (a RecoveryManager logs it
        to the WAL) and survives a crash — reclaim it after recovery with
        :meth:`resubscribe`."""
        subscription = Subscription(self, self.ticks_applied, callback)
        subscription.epoch = self._epoch
        subscription.name = name
        self._subscribers.append(subscription)
        return subscription

    def resubscribe(self, name: str, callback=None) -> Subscription:
        """Reclaim a durable cursor after recovery: the subscription
        resumes at the last position the consumer *acknowledged* (polled
        and had durably logged) before the crash — deltas applied since
        are delivered on the next poll, deltas polled before are not
        re-delivered.  A name never seen before subscribes from tick 0
        of the retained history (cursor at the prune point), so a
        consumer that crashed before its first poll still sees every
        delta it missed."""
        cursor, epoch = self._recovered_cursors.pop(
            name, (self._pruned, self._epoch)
        )
        subscription = Subscription(self, cursor, callback)
        subscription.epoch = epoch
        subscription.name = name
        self._subscribers.append(subscription)
        return subscription

    def _cursor_moved(self, subscription: Subscription) -> None:
        """A named subscription advanced its cursor; report it to the
        durability layer (synchronously, *before* the consumer acts on
        the polled deltas, so the acknowledgement is on disk first)."""
        if subscription.name is not None and self.cursor_listener is not None:
            self.cursor_listener(
                subscription.name, subscription.cursor, subscription.epoch
            )

    # ------------------------------------------------------------------
    # Durability (checkpoint snapshot / restore)

    def state_dict(self) -> dict:
        """Serializable view-side state: the baseline, the retained delta
        history (rows as typed column arrays), epoch/prune bookkeeping,
        the database version the view last observed, and the durable
        cursors of named subscriptions.  The database is *not* included —
        it is checkpointed alongside (one database can back several
        views) — and neither is the current state, which the view
        constructed on the restored database snapshots from it."""
        cursors = dict(self._recovered_cursors)
        for subscription in self._subscribers:
            if subscription.name is not None:
                cursors[subscription.name] = (
                    subscription.cursor, subscription.epoch
                )
        return {
            "relations": list(self.relations),
            "max_history": self.max_history,
            "baseline": {rel: _encode_rows(rows) for rel, rows in self._baseline.items()},
            "history": [delta.state_dict(self.database.schemas) for delta in self._history],
            "pruned": self._pruned,
            "db_version": self._db_version,
            "epoch": self._epoch,
            "cursors": cursors,
        }

    def restore_state(self, state: dict) -> None:
        """Load :meth:`state_dict` output into this view, which must have
        been constructed on the database holding the matching restored
        state and have applied nothing since: its constructor's snapshot
        is kept as the current one.  A view that was stale when
        checkpointed stays stale.  The tracked relation list must agree
        — a different program checkpointed this state otherwise."""
        if list(state["relations"]) != list(self.relations):
            raise CheckpointMismatchError(
                f"view state tracks relations {list(state['relations'])!r} "
                f"but this view tracks {list(self.relations)!r} — the "
                "checkpoint was written by a different program"
            )
        self.max_history = state["max_history"]
        self._baseline = {
            rel: _decode_rows(rows) for rel, rows in state["baseline"].items()
        }
        self._history = [
            ViewDelta.from_state(delta) for delta in state["history"]
        ]
        self._pruned = int(state["pruned"])
        self._epoch = int(state["epoch"])
        self._recovered_cursors = {
            name: (int(cursor), int(epoch))
            for name, (cursor, epoch) in state["cursors"].items()
        }
        self._db_version = int(state["db_version"])

    # ------------------------------------------------------------------

    def _snapshot(self, relation: str) -> Table:
        """``relation``'s ``full`` table, columns by reference, with its
        probabilities as the tag column."""
        table = self.database.result(relation)
        probs = self.database.provenance.prob(table.tags)
        return Table(table.columns, np.asarray(probs, dtype=np.float64), table.n_rows)

    def _capture(self) -> dict[str, Table]:
        """Every tracked relation's snapshot; empty ones before the
        database's first evaluation."""
        if self.database.evaluated:
            return {relation: self._snapshot(relation) for relation in self.relations}
        return {
            relation: Table(
                [np.empty(0, dtype=dt) for dt in self.database.schemas[relation]],
                np.empty(0, dtype=np.float64),
                0,
            )
            for relation in self.relations
        }
