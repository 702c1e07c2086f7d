"""Live subscriptions: cursors over a materialized view's delta stream.

A :class:`Subscription` is a durable read position into a
:class:`~repro.stream.view.MaterializedView`'s retained
:class:`~repro.stream.view.ViewDelta` log.  Consumers either *poll*
(:meth:`Subscription.poll` returns everything applied since the last
poll) or register a push callback at :meth:`MaterializedView.subscribe`
time and receive each delta as it is emitted — both see the identical,
ordered stream.

Because view deltas obey the conservation law, a subscription holding
the full history can :meth:`replay` the stream over the view's baseline
and land bit-for-bit on the current state.  If the view has pruned
history past a subscription's cursor (bounded ``max_history``, or a
:meth:`~repro.stream.view.MaterializedView.refresh`), the subscription
raises :class:`~repro.errors.StaleViewError` rather than silently
skipping deltas.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from ..errors import StaleViewError
from ..runtime.table import row_key

if TYPE_CHECKING:
    from .view import MaterializedView, RelationState, ViewDelta

__all__ = ["Subscription", "replay_deltas"]


def replay_deltas(
    baseline: "dict[str, RelationState]", deltas: "list[ViewDelta]"
) -> "dict[str, RelationState]":
    """Apply a delta sequence over a baseline state: for each relation,
    drop the retracted (row, prob) pairs and add the inserted ones.
    This is the conservation law as an executable definition — replaying
    a view's full history reconstructs its current state exactly.  Rows
    match under the engine's row equality, so a retracted NaN row leaves
    too."""
    state = {
        relation: {row_key(row): (row, prob) for row, prob in rows.items()}
        for relation, rows in baseline.items()
    }
    for delta in deltas:
        for relation, pairs in delta.retracted.items():
            rows = state.setdefault(relation, {})
            for row, prob in pairs:
                key = row_key(row)
                if key in rows and rows[key][1] == prob:
                    del rows[key]
        for relation, pairs in delta.inserted.items():
            rows = state.setdefault(relation, {})
            for row, prob in pairs:
                rows[row_key(row)] = (row, prob)
    return {relation: dict(rows.values()) for relation, rows in state.items()}


class Subscription:
    """A read cursor (plus optional push callback) on one view."""

    def __init__(
        self,
        view: "MaterializedView",
        cursor: int,
        callback: "Callable[[ViewDelta], None] | None" = None,
    ):
        self.view = view
        #: Absolute tick index of the next delta this subscription reads.
        self.cursor = cursor
        self.callback = callback
        self.delivered = 0
        #: Durable-cursor identity (``subscribe(name=...)``); None for an
        #: anonymous subscription whose position dies with the process.
        self.name: str | None = None
        #: The view epoch this subscription belongs to; a refresh()
        #: re-baselines the view into a new epoch, and older
        #: subscriptions must fail loudly even if fully caught up.
        self.epoch = 0

    # ------------------------------------------------------------------

    def _notify(self, delta: "ViewDelta") -> None:
        if self.callback is not None:
            self.callback(delta)
            self.delivered += 1

    @property
    def lag(self) -> int:
        """Ticks applied to the view but not yet polled here."""
        return self.view.ticks_applied - self.cursor

    def poll(self) -> "list[ViewDelta]":
        """All deltas applied since the last poll, oldest first.

        Raises :class:`~repro.errors.StaleViewError` when the view has
        pruned history past this cursor — the stream cannot be resumed
        without loss, so the consumer must re-baseline (re-subscribe or
        read the view's current state)."""
        if self.epoch != self.view._epoch:
            raise StaleViewError(
                f"subscription predates a refresh() of view "
                f"{self.view.name!r}: the baseline changed out-of-band, "
                "so the delta stream cannot resume — re-subscribe"
            )
        pruned = self.view.pruned_ticks
        if self.cursor < pruned:
            raise StaleViewError(
                f"subscription cursor at tick {self.cursor} but view "
                f"{self.view.name!r} has pruned history through tick "
                f"{pruned - 1}; re-subscribe (or raise max_history)"
            )
        deltas = self.view.history[self.cursor - pruned :]
        moved = self.view.ticks_applied != self.cursor
        self.cursor = self.view.ticks_applied
        if moved:
            # Durable cursors acknowledge *before* the consumer sees the
            # deltas: the poll's position is logged synchronously, so a
            # crash after this return never re-delivers these deltas.
            self.view._cursor_moved(self)
        return deltas

    def replay(self) -> "dict[str, RelationState]":
        """Reconstruct the view's current state from tick 0: baseline +
        full retained history.  Requires nothing to have been pruned."""
        if self.view.pruned_ticks:
            raise StaleViewError(
                f"view {self.view.name!r} pruned {self.view.pruned_ticks} "
                "tick(s); full replay from tick 0 is no longer possible"
            )
        return replay_deltas(self.view.baseline(), self.view.history)
