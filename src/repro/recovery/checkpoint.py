"""Checkpoint files: atomically swapped, CRC-framed state snapshots.

A checkpoint file ``ckpt-<seq>.ckpt`` holds exactly two frames: a small
header (format version + sequence number) and the state payload.  Files
are written through :meth:`LocalStorage.write_atomic`, so a reader never
observes a half-written checkpoint at the destination name — a file
that *still* fails CRC framing was corrupted at rest, and
:meth:`CheckpointStore.latest` skips it and falls back to the previous
sequence (the "stale checkpoint" recovery scenario: older state plus a
longer WAL tail, same final answer).  A header whose format version is
from a different future raises
:class:`~repro.errors.CheckpointMismatchError` — silently recovering
across an incompatible layout would load wrong state, not old state.

The same two-frame file layout is the database export/import
interchange format (:func:`repro.recovery.export_database`).
"""

from __future__ import annotations

import re

from .codec import decode, encode
from .framing import frame, read_frames
from .storage import LocalStorage
from ..errors import CheckpointMismatchError, CorruptLogError

__all__ = ["CheckpointStore", "FORMAT_VERSION", "pack_payload", "unpack_payload"]

#: On-disk layout version; bump on incompatible state_dict changes.
FORMAT_VERSION = 3

_NAME = re.compile(r"^ckpt-(\d{8})\.ckpt$")


def pack_payload(payload: dict, *, seq: int = 0, kind: str = "checkpoint") -> bytes:
    """Frame a header + payload pair (the checkpoint/export file body)."""
    header = {"format": FORMAT_VERSION, "kind": kind, "seq": seq}
    return frame(encode(header)) + frame(encode(payload))


def unpack_payload(data: bytes, *, kind: str = "checkpoint") -> tuple[dict, dict]:
    """Validate and decode one checkpoint/export file; returns
    ``(header, payload)``.  CRC or structural failures raise
    :class:`CorruptLogError`; a foreign format version or record kind
    raises :class:`CheckpointMismatchError`."""
    scan = read_frames(data, strict=True)
    if len(scan.payloads) != 2:
        raise CorruptLogError(
            f"expected 2 frames (header + payload), found {len(scan.payloads)}"
        )
    header = decode(scan.payloads[0])
    if not isinstance(header, dict) or "format" not in header:
        raise CorruptLogError("first frame is not a checkpoint header")
    if header["format"] != FORMAT_VERSION:
        raise CheckpointMismatchError(
            f"checkpoint format {header['format']} != supported "
            f"{FORMAT_VERSION}; cannot load across layout versions"
        )
    if header.get("kind") != kind:
        raise CheckpointMismatchError(
            f"file holds a {header.get('kind')!r} record, expected {kind!r}"
        )
    payload = decode(scan.payloads[1])
    if not isinstance(payload, dict):
        raise CorruptLogError("checkpoint payload is not a mapping")
    return header, payload


class CheckpointStore:
    """Numbered checkpoints in one storage root."""

    def __init__(self, storage: LocalStorage):
        self.storage = storage

    @staticmethod
    def name(seq: int) -> str:
        return f"ckpt-{seq:08d}.ckpt"

    def sequences(self) -> list[int]:
        """Durable checkpoint sequence numbers, ascending."""
        out = []
        for file_name in self.storage.list():
            match = _NAME.match(file_name)
            if match:
                out.append(int(match.group(1)))
        return sorted(out)

    def save(self, seq: int, payload: dict) -> None:
        self.storage.write_atomic(self.name(seq), pack_payload(payload, seq=seq))

    def load(self, seq: int) -> dict:
        _, payload = unpack_payload(self.storage.read(self.name(seq)))
        return payload

    def latest(self) -> tuple[int, dict] | None:
        """The newest checkpoint that validates, or None.

        Corrupt files are skipped (fall back to the previous sequence);
        a :class:`CheckpointMismatchError` propagates — an incompatible
        checkpoint must never be silently ignored.
        """
        for seq in reversed(self.sequences()):
            try:
                return seq, self.load(seq)
            except CorruptLogError:
                continue
        return None

    def prune(self, keep: int) -> list[int]:
        """Drop all but the newest ``keep`` checkpoints; returns the
        sequences still retained (the WAL keeps segments back to the
        oldest of these, so a corrupt newest checkpoint stays
        recoverable)."""
        sequences = self.sequences()
        retained = sequences[-keep:] if keep > 0 else []
        for seq in sequences:
            if seq not in retained:
                self.storage.remove(self.name(seq))
        return retained
