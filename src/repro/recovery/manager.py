"""Durable streaming views: checkpoint + WAL + replay orchestration.

A :class:`RecoveryManager` makes a set of registered streams — each a
(:class:`~repro.stream.view.MaterializedView`,
:class:`~repro.stream.window.Window`) pair — survive process death:

* every applied :class:`~repro.stream.window.TickDelta` is appended to
  the write-ahead log *before* the in-memory apply runs (WAL rule: a
  tick whose record is not durable never happened; a tick whose record
  is durable is replayable);
* every ``checkpoint_every`` applies, the full state — database
  (input-fact log, derived tables, tags, statistics), view (baseline,
  current state, delta history, durable cursors), window live-set —
  is snapshotted into an atomically swapped checkpoint file and the WAL
  rolls to a fresh segment;
* named subscription cursors are logged on every poll, so consumers
  resume exactly-once.

:func:`recover` inverts the process: load the newest checkpoint that
validates (falling back past corrupt ones), rebuild the views/databases
onto fresh provenance instances, then *maintain over the WAL tail* —
each logged delta is re-applied through the ordinary DRed maintain
path, after verifying the deterministic stream source regenerates the
identical delta (the WAL is a log of what was applied, and the source
is a pure function of the tick, so disagreement means corruption).

The checkpoint payload layout doubles as a compact database
export/import interchange (:func:`export_database` /
:func:`import_database`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .checkpoint import CheckpointStore, pack_payload, unpack_payload
from .storage import LocalStorage
from .wal import WriteAheadLog
from ..errors import CheckpointMismatchError, CorruptLogError, LobsterError
from ..obs import NULL_TRACER
from ..runtime.database import Database
from ..stream.view import MaterializedView, ViewDelta
from ..stream.window import TickDelta, Window

__all__ = [
    "RecoveryInfo",
    "RecoveryManager",
    "export_database",
    "import_database",
    "recover",
]


@dataclass
class StreamEntry:
    """One durable stream: its view and its (deterministic) feed."""

    view: MaterializedView
    feed: Window


class RecoveryManager:
    """Checkpoint + WAL writer for a set of registered streams."""

    def __init__(
        self,
        directory: str | Path | None = None,
        *,
        checkpoint_every: int = 8,
        keep_checkpoints: int = 2,
        storage: LocalStorage | None = None,
    ):
        """``checkpoint_every`` applied deltas trigger a checkpoint
        (higher = cheaper steady state, longer WAL tail to replay after
        a crash — ``benchmarks/bench_recovery.py`` measures the trade).
        ``keep_checkpoints`` older checkpoints (with their WAL segments)
        are retained so a checkpoint corrupted at rest still recovers.
        ``storage`` overrides the byte-level backend (the fault-injection
        harness substitutes a crashing one)."""
        if storage is None:
            if directory is None:
                raise LobsterError("pass a directory or a storage backend")
            storage = LocalStorage(directory)
        if checkpoint_every < 1:
            raise LobsterError("checkpoint_every must be >= 1 applied delta")
        if keep_checkpoints < 1:
            raise LobsterError("keep_checkpoints must be >= 1")
        self.storage = storage
        self.checkpoints = CheckpointStore(storage)
        self.wal = WriteAheadLog(storage)
        self.checkpoint_every = checkpoint_every
        self.keep_checkpoints = keep_checkpoints
        self.streams: dict[str, StreamEntry] = {}
        #: Tracing attachments (set by the stream scheduler around a
        #: durable tick): WAL appends and checkpoint swaps become
        #: instant events under ``trace_parent`` at the tracer's modeled
        #: cursor.  Durability has no modeled device cost, so instants —
        #: not duration spans — are the honest representation.
        self.tracer = NULL_TRACER
        self.trace_parent = None
        existing = self.checkpoints.sequences()
        #: Sequence of the newest durable checkpoint; None until the
        #: lazy baseline (checkpoint 0) is written.  WAL appends target
        #: segment ``_seq``.
        self._seq: int | None = existing[-1] if existing else None
        self._applies_since = 0

    # ------------------------------------------------------------------

    def register(self, name: str, view: MaterializedView, feed: Window) -> None:
        """Attach one stream.  The view's named-subscription cursors
        start flowing into the WAL from here on.  Register *before*
        advancing the feed: if no checkpoint exists yet, the baseline is
        cut here, and it must capture the feed at the same tick as the
        view (a baseline snapshotted mid-advance would silently skip the
        in-flight tick on recovery)."""
        if name in self.streams:
            raise LobsterError(f"stream {name!r} is already registered")
        self.streams[name] = StreamEntry(view, feed)
        view.cursor_listener = (
            lambda sub, cursor, epoch, _stream=name: self._log_cursor(
                _stream, sub, cursor, epoch
            )
        )
        self._ensure_baseline()

    def entry(self, name: str) -> StreamEntry:
        entry = self.streams.get(name)
        if entry is None:
            raise LobsterError(
                f"stream {name!r} is not registered with this manager"
            )
        return entry

    # ------------------------------------------------------------------

    def _ensure_baseline(self) -> None:
        """Write checkpoint 0 (pre-stream state) at first registration,
        so replay always has a floor to maintain from."""
        if self._seq is None:
            self._seq = 0
            self.checkpoints.save(0, self._payload())

    def _payload(self) -> dict:
        return {
            "streams": {
                name: {
                    "provenance": entry.view.engine.provenance_name,
                    "view": entry.view.state_dict(),
                    "feed": entry.feed.state_dict(),
                    "database": entry.view.database.state_dict(),
                }
                for name, entry in self.streams.items()
            }
        }

    def apply(self, name: str, delta: TickDelta, runner=None) -> ViewDelta:
        """Durably apply one tick delta to one stream's view: WAL-append
        first (the durability point), then the in-memory apply, then a
        checkpoint if the cadence is due.  A crash anywhere in between
        is recoverable: before the append the tick never happened (the
        live source regenerates it); after, replay re-applies it."""
        entry = self.entry(name)
        nbytes = self.wal.append(
            self._seq,
            {"kind": "delta", "stream": name, "delta": delta.state_dict()},
        )
        if self.tracer.enabled:
            self.tracer.event(
                "wal.append",
                parent=self.trace_parent,
                stream=name,
                segment=self._seq,
                bytes=nbytes,
            )
        view_delta = entry.view.apply(delta, runner=runner)
        self._applies_since += 1
        if self._applies_since >= self.checkpoint_every:
            self.checkpoint()
        return view_delta

    def _log_cursor(self, stream: str, sub: str, cursor: int, epoch: int) -> None:
        nbytes = self.wal.append(
            self._seq,
            {
                "kind": "cursor",
                "stream": stream,
                "sub": sub,
                "cursor": cursor,
                "epoch": epoch,
            },
        )
        if self.tracer.enabled:
            self.tracer.event(
                "wal.cursor",
                parent=self.trace_parent,
                stream=stream,
                sub=sub,
                bytes=nbytes,
            )

    def checkpoint(self) -> int:
        """Snapshot all streams now (atomic swap), roll the WAL to a
        fresh segment, and prune history past ``keep_checkpoints``.
        Returns the new checkpoint sequence."""
        self._ensure_baseline()
        self._seq += 1
        self.checkpoints.save(self._seq, self._payload())
        if self.tracer.enabled:
            self.tracer.event(
                "checkpoint.swap", parent=self.trace_parent, seq=self._seq
            )
        self._applies_since = 0
        retained = self.checkpoints.prune(self.keep_checkpoints)
        if retained:
            self.wal.prune_below(retained[0])
        return self._seq


@dataclass
class RecoveryInfo:
    """What :func:`recover` did, for logging and assertions."""

    #: No durable state existed; views started fresh at tick 0.
    cold_start: bool = False
    #: Sequence of the checkpoint restored from (None on cold start).
    checkpoint_seq: int | None = None
    #: Tick deltas re-applied from the WAL tail.
    replayed_deltas: int = 0
    #: Cursor records applied from the WAL tail.
    replayed_cursors: int = 0
    #: Torn-tail bytes silently truncated from the final WAL segment.
    truncated_bytes: int = 0
    #: WAL segments read, ascending.
    segments: list[int] = field(default_factory=list)


def recover(
    directory: str | Path | None,
    setups: dict,
    *,
    checkpoint_every: int = 8,
    keep_checkpoints: int = 2,
    runner=None,
    storage: LocalStorage | None = None,
) -> tuple[RecoveryManager, dict[str, MaterializedView], RecoveryInfo]:
    """Resume (or cold-start) durable streams from ``directory``.

    ``setups`` maps stream names to ``(engine, feed)`` pairs — the same
    program/semiring and window shape the writer used; mismatches raise
    :class:`~repro.errors.CheckpointMismatchError`.  A setup may carry a
    third element, ``init(database)``, which seeds static facts into a
    *cold-started* stream's database (warm recovery restores those facts
    from the checkpoint instead).  Returns the manager (resume applying
    through it), the restored views by name, and a :class:`RecoveryInfo`.

    Replay is *verified*: windows are deterministic functions of the
    tick, so each logged delta is regenerated by re-advancing the
    restored feed and compared to the log — a disagreement means the log
    (or checkpoint) is corrupt beyond the torn-tail case and raises
    :class:`~repro.errors.CorruptLogError` rather than applying bad
    data.  ``runner`` overrides how replayed maintain passes execute
    (e.g. a scheduler's pinned session step).
    """
    manager = RecoveryManager(
        directory,
        checkpoint_every=checkpoint_every,
        keep_checkpoints=keep_checkpoints,
        storage=storage,
    )
    info = RecoveryInfo()
    latest = manager.checkpoints.latest()
    views: dict[str, MaterializedView] = {}

    def cold_view(name: str, setup) -> MaterializedView:
        engine, feed = setup[0], setup[1]
        feed.reset()
        database = engine.create_database()
        if len(setup) > 2 and setup[2] is not None:
            setup[2](database)
        view = MaterializedView(engine, database=database, name=name)
        manager.register(name, view, feed)
        return view

    if latest is None:
        info.cold_start = True
        for name, setup in setups.items():
            views[name] = cold_view(name, setup)
        return manager, views, info

    seq, payload = latest
    info.checkpoint_seq = seq
    streams_state = payload["streams"]
    for name in streams_state:
        if name not in setups:
            raise CheckpointMismatchError(
                f"checkpoint holds stream {name!r} but no setup was "
                "registered for it — recovery cannot drop state silently"
            )
    for name, setup in setups.items():
        engine, feed = setup[0], setup[1]
        state = streams_state.get(name)
        if state is None:
            # A stream added since the checkpoint: starts cold.
            views[name] = cold_view(name, setup)
            continue
        if state["provenance"] != engine.provenance_name:
            raise CheckpointMismatchError(
                f"stream {name!r} was checkpointed under provenance "
                f"{state['provenance']!r} but the engine runs "
                f"{engine.provenance_name!r}"
            )
        database = Database.from_state(
            state["database"], engine._provenance_factory()
        )
        view = MaterializedView(engine, database=database, name=name)
        view.restore_state(state["view"])
        feed.load_state(state["feed"])
        manager.register(name, view, feed)
        views[name] = view
    manager._seq = seq

    tail = manager.wal.read_from(seq)
    info.truncated_bytes = tail.truncated_bytes
    if tail.truncated_bytes:
        # Appends land at the end of the file: behind a torn tail they
        # would be unreachable to the next replay, which stops there.
        manager.wal.drop_torn_tail(tail.segments[-1], tail.truncated_bytes)
    info.segments = tail.segments
    for record in tail.records:
        kind = record["kind"]
        if kind == "delta":
            entry = manager.streams.get(record["stream"])
            if entry is None:
                raise CheckpointMismatchError(
                    f"WAL names stream {record['stream']!r} with no setup"
                )
            logged = TickDelta.from_state(record["delta"])
            if logged.tick < entry.feed.next_tick:
                # Already inside the restored checkpoint (a stale-
                # checkpoint fallback replays an older segment whose
                # head the newer state has absorbed).
                continue
            regenerated = entry.feed.advance()
            for _ in range(logged.ticks_covered - 1):
                regenerated = regenerated.merged_with(entry.feed.advance())
            if regenerated != logged:
                raise CorruptLogError(
                    f"WAL delta for stream {record['stream']!r} tick "
                    f"{logged.tick} disagrees with the deterministic "
                    "stream source — the log does not describe this feed"
                )
            entry.view.apply(logged, runner=runner)
            info.replayed_deltas += 1
        elif kind == "cursor":
            entry = manager.streams.get(record["stream"])
            if entry is not None:
                entry.view._recovered_cursors[record["sub"]] = (
                    int(record["cursor"]),
                    int(record["epoch"]),
                )
            info.replayed_cursors += 1
        else:
            raise CorruptLogError(f"unknown WAL record kind {kind!r}")
    manager._applies_since = info.replayed_deltas
    if manager._applies_since >= manager.checkpoint_every:
        manager.checkpoint()
    return manager, views, info


# ----------------------------------------------------------------------
# Database export / import (the checkpoint format as an interchange)


def export_database(path: str | Path, database: Database) -> None:
    """Write one database's full state (facts, probabilities, derived
    tables, tags, statistics) to ``path`` as a CRC-framed, atomically
    swapped file — the checkpoint payload layout, usable as a compact
    interchange between processes."""
    path = Path(path)
    payload = {
        "provenance": database.provenance.name,
        "database": database.state_dict(),
    }
    storage = LocalStorage(path.parent)
    storage.write_atomic(path.name, pack_payload(payload, kind="database-export"))


def import_database(path: str | Path, engine) -> Database:
    """Load a database exported by :func:`export_database` onto
    ``engine``'s semiring.  The export's provenance must match the
    engine's (:class:`~repro.errors.CheckpointMismatchError` otherwise);
    CRC or structural failures raise
    :class:`~repro.errors.CorruptLogError`."""
    _, payload = unpack_payload(
        Path(path).read_bytes(), kind="database-export"
    )
    if payload["provenance"] != engine.provenance_name:
        raise CheckpointMismatchError(
            f"export was written under provenance {payload['provenance']!r} "
            f"but the engine runs {engine.provenance_name!r}"
        )
    return Database.from_state(payload["database"], engine._provenance_factory())
