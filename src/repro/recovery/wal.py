"""The write-ahead log: signed input deltas between checkpoints.

The WAL is segmented: segment ``wal-<seq>.log`` holds every record
written *after* checkpoint ``seq`` and before checkpoint ``seq + 1``.
Starting a new checkpoint rolls the log to a fresh segment, so replay
after recovery is simply "read every segment with sequence >= the
recovered checkpoint, in ascending order".  Keeping segments for the
retained older checkpoints (not just the newest) is what makes the
stale-checkpoint scenario recoverable: if the newest checkpoint file is
corrupt at rest, recovery falls back one sequence and replays a longer
tail to the same final state.

Two record kinds share the log:

* ``delta`` — one :class:`~repro.stream.TickDelta` applied to one
  stream: the signed inserts/retracts plus the tick bookkeeping needed
  to resynchronize the deterministic stream source during replay.
* ``cursor`` — a durable subscription cursor advance, written when a
  named subscriber acknowledges deltas by polling them.  Replaying
  cursors is what gives consumers exactly-once delivery across a crash:
  a recovered subscription resumes at the last acknowledged tick, so
  nothing is lost and nothing is re-delivered.

Records are CRC-framed (:mod:`repro.recovery.framing`); reads are
tolerant — a torn tail is truncated silently because the record it lost
was never acknowledged as durable.  :meth:`WriteAheadLog.read_from` only
skips the torn bytes; :func:`~repro.recovery.manager.recover` then cuts
them off the file (:meth:`WriteAheadLog.drop_torn_tail`, an atomic
rewrite) before anything is appended, because a record written behind
garbage is one the next replay never reaches.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .codec import decode, encode
from .framing import frame, read_frames
from .storage import LocalStorage
from ..errors import CorruptLogError

__all__ = ["WalReadResult", "WriteAheadLog"]

_NAME = re.compile(r"^wal-(\d{8})\.log$")


@dataclass
class WalReadResult:
    """All valid records at or after one checkpoint sequence."""

    records: list[dict] = field(default_factory=list)
    #: Torn-tail bytes dropped from the final segment read.
    truncated_bytes: int = 0
    #: Segment sequences that contributed records.
    segments: list[int] = field(default_factory=list)


class WriteAheadLog:
    """Segmented, CRC-framed record log in one storage root."""

    def __init__(self, storage: LocalStorage):
        self.storage = storage

    @staticmethod
    def name(seq: int) -> str:
        return f"wal-{seq:08d}.log"

    def sequences(self) -> list[int]:
        out = []
        for file_name in self.storage.list():
            match = _NAME.match(file_name)
            if match:
                out.append(int(match.group(1)))
        return sorted(out)

    # -- writing -------------------------------------------------------

    def append(self, seq: int, record: dict) -> int:
        """Durably append one record to segment ``seq``; returns the
        framed byte length written (observability: the tracer's
        ``wal.append`` events carry it).  The record is only considered
        applied once this returns — a crash mid-append leaves a torn
        tail that replay drops, which is correct because the in-memory
        apply for that record never ran."""
        framed = frame(encode(record))
        self.storage.append(self.name(seq), framed)
        return len(framed)

    # -- reading -------------------------------------------------------

    def read_from(self, seq: int) -> WalReadResult:
        """Every record in segments ``>= seq``, ascending.

        Only the *final* segment may legitimately end in a torn tail (a
        crash mid-append); an earlier segment was sealed by the
        checkpoint that superseded it, so a tear there is corruption at
        rest and raises :class:`CorruptLogError`.
        """
        result = WalReadResult()
        chain = [s for s in self.sequences() if s >= seq]
        for index, segment in enumerate(chain):
            scan = read_frames(self.storage.read(self.name(segment)))
            if not scan.clean and index != len(chain) - 1:
                raise CorruptLogError(
                    f"WAL segment {segment} has {scan.truncated_bytes} torn "
                    "bytes but is not the final segment: corrupted at rest"
                )
            for payload in scan.payloads:
                record = decode(payload)
                if not isinstance(record, dict) or "kind" not in record:
                    raise CorruptLogError("WAL record is not a tagged mapping")
                result.records.append(record)
            result.segments.append(segment)
            result.truncated_bytes = scan.truncated_bytes
        return result

    def drop_torn_tail(self, seq: int, torn_bytes: int) -> None:
        """Cut the last ``torn_bytes`` off segment ``seq``, leaving the
        valid prefix :meth:`read_from` reported.  Swapped in atomically,
        so a crash mid-repair leaves the torn file for the next recovery
        to repair again."""
        data = self.storage.read(self.name(seq))
        self.storage.write_atomic(self.name(seq), data[: len(data) - torn_bytes])

    def prune_below(self, seq: int) -> None:
        """Drop segments older than ``seq`` (their records are covered
        by every retained checkpoint)."""
        for segment in self.sequences():
            if segment < seq:
                self.storage.remove(self.name(segment))
