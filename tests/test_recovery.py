"""Durable streaming views: checkpoint + WAL replay under fault injection.

The headline property (hypothesis-driven): for ANY schedule of injected
crashes — mid-WAL-append torn tails, fully-durable-record-then-die,
partial or unrenamed checkpoint temp files, post-swap deaths — a stream
that keeps crashing and recovering lands on state **bitwise equal** to
the same stream run uninterrupted.  Checked across the unit, minmaxprob,
and prob-top-1-proofs semirings on transitive closure and CSPA, on
sliding and tumbling windows.

Equality is over everything a consumer can observe: per-relation result
maps (bit-exact float probabilities), the view baseline, the retained
delta history (ticks, inserted/retracted rows — timing fields excluded:
device warm state legitimately differs across processes).  Alongside:
exactly-once subscription delivery across crash boundaries, torn-tail vs
corrupt-at-rest semantics, stale-checkpoint fallback, codec round-trips,
and the database export/import interchange.
"""

from __future__ import annotations

import shutil
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import (
    CheckpointMismatchError,
    CorruptLogError,
    LobsterEngine,
    MaterializedView,
    RecoveryManager,
    recover,
)
from repro.recovery import FORMAT_VERSION
from repro.recovery.codec import decode, encode
from repro.recovery.framing import frame, read_frames
from repro.recovery.storage import LocalStorage
from repro.stream import RelationStream, SlidingWindow, TumblingWindow
from repro.workloads.analytics import CSPA

from _faults import CrashingStorage, InjectedCrash

TC = "rel path(x, y) :- edge(x, y) or (path(x, z) and edge(z, y)). query path"
EDGES = [(i, i + 1) for i in range(12)] + [(0, 5), (3, 9), (2, 7), (6, 11)]

rng = np.random.default_rng(7)
ASSIGN = sorted(
    {
        (int(a), int(b))
        for a, b in zip(rng.integers(0, 14, 40), rng.integers(0, 14, 40))
        if a != b
    }
)
DEREF = sorted(
    {
        (int(a), int(b))
        for a, b in zip(rng.integers(0, 14, 20), rng.integers(0, 14, 20))
        if a != b
    }
)
del rng

SEMIRINGS = ["unit", "minmaxprob", "prob-top-1-proofs"]


def tc_setup(provenance: str, window_cls=SlidingWindow, size: int = 4):
    """(engine, feed) for the TC workload; deterministic per call."""
    engine = LobsterEngine(TC, provenance=provenance)
    stream = RelationStream(
        "edge",
        EDGES,
        per_tick=3,
        seed=7,
        prob_range=None if provenance == "unit" else (0.5, 0.95),
    )
    return engine, window_cls(stream, size=size)


def cspa_setup(provenance: str):
    """(engine, feed, init) for CSPA: assign churns through a tumbling
    window, dereference is static (seeded by ``init``)."""
    engine = LobsterEngine(CSPA, provenance=provenance)
    stream = RelationStream(
        "assign",
        ASSIGN,
        per_tick=4,
        seed=3,
        prob_range=None if provenance == "unit" else (0.3, 1.0),
    )

    def init(database):
        database.add_facts("dereference", DEREF)

    return engine, TumblingWindow(stream, size=3), init


def fingerprint(view: MaterializedView) -> dict:
    """Everything a consumer can observe, minus per-process timing."""
    return {
        "state": {rel: view.result(rel) for rel in view.relations},
        "baseline": view.baseline(),
        "history": [
            (
                d.tick,
                d.ticks_covered,
                {r: tuple(rows) for r, rows in d.inserted.items()},
                {r: tuple(rows) for r, rows in d.retracted.items()},
            )
            for d in view.history
        ],
        "ticks": view.ticks_applied,
        "pruned": view.pruned_ticks,
    }


def run_uninterrupted(make_setup, n_ticks: int) -> dict:
    """The reference: same stream, no durability, no crashes."""
    setup = make_setup()
    engine, feed = setup[0], setup[1]
    database = engine.create_database()
    if len(setup) > 2:
        setup[2](database)
    view = MaterializedView(engine, database=database, name="s")
    for _ in range(n_ticks):
        view.apply(feed.advance())
    return fingerprint(view)


def run_durable(
    root,
    make_setup,
    n_ticks: int,
    schedules,
    *,
    checkpoint_every: int = 3,
    poll_every: int | None = None,
):
    """Drive a durable stream to ``n_ticks`` applied, crashing per the
    given schedules (one ``{op_index: frac}`` dict per process
    incarnation) and recovering after each death.  Returns
    ``(view, delivered_deltas, crash_count)``."""
    schedules = list(schedules)
    delivered = []
    crashes = 0
    while True:
        schedule = schedules[crashes] if crashes < len(schedules) else {}
        storage = CrashingStorage(root, schedule)
        setup = make_setup()
        feed = setup[1]
        try:
            manager, views, _ = recover(
                None,
                {"s": setup},
                storage=storage,
                checkpoint_every=checkpoint_every,
            )
            view = views["s"]
            sub = view.resubscribe("consumer") if poll_every else None
            while view.ticks_applied < n_ticks:
                manager.apply("s", feed.advance())
                if sub is not None and view.ticks_applied % poll_every == 0:
                    # The consumer's poll-and-process step is atomic in
                    # the fault model (crashes target the tick path).
                    with storage.suspended():
                        delivered.extend(sub.poll())
            if sub is not None:
                with storage.suspended():
                    delivered.extend(sub.poll())
            return view, delivered, crashes
        except InjectedCrash:
            crashes += 1
            assert crashes <= len(schedules), "crash without a schedule"


# A write-op fraction: 0.0 = nothing persisted, 1.0 = everything
# persisted then die, in between = torn.
FRACTIONS = st.sampled_from([0.0, 0.2, 0.45, 0.6, 0.8, 0.97, 1.0])
SCHEDULES = st.lists(
    st.tuples(st.integers(0, 24), FRACTIONS), min_size=1, max_size=3
).map(lambda pairs: [{op: frac} for op, frac in pairs])
#: Found by hypothesis: incarnation 1 tears a WAL append, incarnation 2
#: dies right after appending *behind* the torn bytes — records there were
#: unreachable to every later replay until recovery cut the tear off.
APPEND_BEHIND_TORN_TAIL = [{1: 0.2}, {2: 0.0}]


class TestCrashSchedules:
    """The tentpole property: recovered == uninterrupted, anywhere."""

    @pytest.mark.parametrize("provenance", SEMIRINGS)
    @settings(max_examples=12, deadline=None)
    @example(schedules=APPEND_BEHIND_TORN_TAIL)
    @given(schedules=SCHEDULES)
    def test_tc_recovers_bitwise_equal(self, provenance, schedules):
        want = run_uninterrupted(lambda: tc_setup(provenance), 8)
        root = tempfile.mkdtemp()
        try:
            view, _, _ = run_durable(
                root, lambda: tc_setup(provenance), 8, schedules
            )
            assert fingerprint(view) == want
        finally:
            shutil.rmtree(root)

    @settings(max_examples=8, deadline=None)
    @example(schedules=APPEND_BEHIND_TORN_TAIL)
    @given(schedules=SCHEDULES)
    def test_cspa_recovers_bitwise_equal(self, schedules):
        want = run_uninterrupted(lambda: cspa_setup("minmaxprob"), 7)
        root = tempfile.mkdtemp()
        try:
            view, _, _ = run_durable(
                root, lambda: cspa_setup("minmaxprob"), 7, schedules
            )
            assert fingerprint(view) == want
        finally:
            shutil.rmtree(root)

    @settings(max_examples=10, deadline=None)
    @example(schedules=APPEND_BEHIND_TORN_TAIL)
    @given(schedules=SCHEDULES)
    def test_subscription_exactly_once(self, schedules):
        """No ViewDelta lost, none duplicated, across any crash point."""
        root = tempfile.mkdtemp()
        try:
            _, delivered, _ = run_durable(
                root,
                lambda: tc_setup("minmaxprob"),
                8,
                schedules,
                poll_every=2,
            )
            assert [d.tick for d in delivered] == list(range(8))
        finally:
            shutil.rmtree(root)

    def test_every_single_crash_point_deterministically(self, tmp_path):
        """Exhaustively kill EVERY write op at a torn and a post-write
        boundary (the hypothesis test samples this space; the sweep pins
        the boundaries down deterministically)."""
        want = run_uninterrupted(lambda: tc_setup("unit"), 6)
        # Count the write ops of an uninterrupted durable run first, so
        # the sweep covers each one exactly.
        probe = CrashingStorage(str(tmp_path / "probe"), {})
        setup = tc_setup("unit")
        manager, _, _ = recover(None, {"s": setup}, storage=probe,
                                checkpoint_every=3)
        for _ in range(6):
            manager.apply("s", setup[1].advance())
        n_ops = probe.op_index
        assert n_ops >= 8  # baseline + 6 WAL appends + cadence ckpts

        for op in range(n_ops):
            for frac in (0.0, 0.5, 1.0):
                root = tmp_path / f"op{op}-{frac}"
                view, _, crashes = run_durable(
                    str(root), lambda: tc_setup("unit"), 6, [{op: frac}]
                )
                assert crashes == 1, (op, frac)
                assert fingerprint(view) == want, (op, frac)


class TestLogSemantics:
    """Torn tails truncate silently; corruption at rest does not."""

    def test_torn_wal_tail_is_silent(self, tmp_path):
        engine, feed = tc_setup("unit")
        view = MaterializedView(engine, name="s")
        manager = RecoveryManager(tmp_path, checkpoint_every=10)
        manager.register("s", view, feed)
        for _ in range(4):
            manager.apply("s", feed.advance())
        wal = tmp_path / "wal-00000000.log"
        data = wal.read_bytes()
        wal.write_bytes(data[:-7])  # tear the final record

        engine2, feed2 = tc_setup("unit")
        manager2, views, info = recover(tmp_path, {"s": (engine2, feed2)})
        assert info.truncated_bytes > 0
        assert views["s"].ticks_applied == 3  # the torn tick is gone...
        manager2.apply("s", feed2.advance())  # ...and regenerates live
        assert views["s"].ticks_applied == 4
        assert fingerprint(views["s"]) == run_uninterrupted(
            lambda: tc_setup("unit"), 4
        )

    def test_torn_tail_is_cut_off_before_the_next_append(self, tmp_path):
        """Records appended after a torn-tail recovery must survive the
        *next* recovery: the tear is removed from the file, not merely
        skipped, or they sit behind garbage no replay reads past."""
        engine, feed = tc_setup("unit")
        view = MaterializedView(engine, name="s")
        manager = RecoveryManager(tmp_path, checkpoint_every=10)
        manager.register("s", view, feed)
        for _ in range(3):
            manager.apply("s", feed.advance())
        wal = tmp_path / "wal-00000000.log"
        wal.write_bytes(wal.read_bytes()[:-7])  # tear the third record

        engine2, feed2 = tc_setup("unit")
        manager2, _, info = recover(
            tmp_path, {"s": (engine2, feed2)}, checkpoint_every=10
        )
        assert info.truncated_bytes > 0
        assert read_frames(wal.read_bytes()).clean  # repaired on disk
        for _ in range(2):
            manager2.apply("s", feed2.advance())

        engine3, feed3 = tc_setup("unit")
        _, views, info = recover(
            tmp_path, {"s": (engine3, feed3)}, checkpoint_every=10
        )
        assert info.truncated_bytes == 0
        assert info.replayed_deltas == 4  # two from before the tear, two after
        assert fingerprint(views["s"]) == run_uninterrupted(
            lambda: tc_setup("unit"), 4
        )

    def test_corrupt_nonfinal_segment_raises(self, tmp_path):
        engine, feed = tc_setup("unit")
        view = MaterializedView(engine, name="s")
        manager = RecoveryManager(tmp_path, checkpoint_every=2, keep_checkpoints=3)
        manager.register("s", view, feed)
        for _ in range(5):
            manager.apply("s", feed.advance())
        # Corrupt the newest checkpoint so recovery must read the older
        # WAL segment chain — then tear a non-final segment: that tear
        # cannot be a crash artifact (the segment was sealed), so it is
        # corruption at rest and must raise, not silently drop ticks.
        ckpts = sorted(tmp_path.glob("ckpt-*.ckpt"))
        ckpts[-1].write_bytes(b"\x00" * 32)
        fallback_seq = int(ckpts[-2].stem.split("-")[1])
        sealed = tmp_path / f"wal-{fallback_seq:08d}.log"
        assert sealed.exists() and sealed != sorted(tmp_path.glob("wal-*.log"))[-1]
        sealed.write_bytes(sealed.read_bytes()[:-5])
        engine2, feed2 = tc_setup("unit")
        with pytest.raises(CorruptLogError):
            recover(tmp_path, {"s": (engine2, feed2)})

    def test_stale_checkpoint_falls_back(self, tmp_path):
        """A checkpoint corrupted at rest is skipped: recovery restores
        the previous one and replays a longer WAL tail to the identical
        state."""
        engine, feed = tc_setup("minmaxprob")
        view = MaterializedView(engine, name="s")
        manager = RecoveryManager(tmp_path, checkpoint_every=2, keep_checkpoints=3)
        manager.register("s", view, feed)
        for _ in range(7):
            manager.apply("s", feed.advance())
        newest = sorted(tmp_path.glob("ckpt-*.ckpt"))[-1]
        newest.write_bytes(newest.read_bytes()[:40])  # corrupt at rest

        engine2, feed2 = tc_setup("minmaxprob")
        manager2, views, info = recover(tmp_path, {"s": (engine2, feed2)})
        assert info.checkpoint_seq is not None
        assert info.replayed_deltas >= 2  # the stale gap came from the WAL
        for _ in range(2):
            manager2.apply("s", feed2.advance())
        assert fingerprint(views["s"]) == run_uninterrupted(
            lambda: tc_setup("minmaxprob"), 9
        )

    def test_wal_disagreeing_with_source_raises(self, tmp_path):
        engine, feed = tc_setup("unit")
        view = MaterializedView(engine, name="s")
        manager = RecoveryManager(tmp_path, checkpoint_every=10)
        manager.register("s", view, feed)
        for _ in range(3):
            manager.apply("s", feed.advance())
        # Recover against a *different* stream (other seed): the log no
        # longer describes the feed, which verified replay must catch.
        engine2 = LobsterEngine(TC, provenance="unit")
        other = SlidingWindow(
            RelationStream("edge", EDGES, per_tick=3, seed=99), size=4
        )
        with pytest.raises(CorruptLogError):
            recover(tmp_path, {"s": (engine2, other)})

    def test_coalesced_delta_replays(self, tmp_path):
        """A WAL record covering several source ticks re-advances the
        feed that many times during verified replay."""
        want_setup = lambda: tc_setup("unit")  # noqa: E731
        engine, feed = want_setup()
        database = engine.create_database()
        reference = MaterializedView(engine, database=database, name="s")
        e2, f2 = want_setup()
        view = MaterializedView(e2, name="s")
        manager = RecoveryManager(tmp_path, checkpoint_every=100)
        manager.register("s", view, f2)
        manager.apply("s", f2.advance())
        reference.apply(feed.advance())
        merged = f2.advance().merged_with(f2.advance())
        manager.apply("s", merged)
        reference.apply(feed.advance().merged_with(feed.advance()))

        e3, f3 = want_setup()
        _, views, info = recover(tmp_path, {"s": (e3, f3)})
        assert info.replayed_deltas == 2
        assert f3.next_tick == 3
        assert fingerprint(views["s"]) == fingerprint(reference)


class TestMismatches:
    """Structural incompatibility stops recovery; it never guesses."""

    def _checkpointed_dir(self, tmp_path, provenance="minmaxprob"):
        engine, feed = tc_setup(provenance)
        view = MaterializedView(engine, name="s")
        manager = RecoveryManager(tmp_path, checkpoint_every=2)
        manager.register("s", view, feed)
        for _ in range(4):
            manager.apply("s", feed.advance())
        return tmp_path

    def test_semiring_mismatch(self, tmp_path):
        root = self._checkpointed_dir(tmp_path, "minmaxprob")
        engine, feed = tc_setup("unit")
        with pytest.raises(CheckpointMismatchError):
            recover(root, {"s": (engine, feed)})

    def test_window_shape_mismatch(self, tmp_path):
        root = self._checkpointed_dir(tmp_path)
        engine, _ = tc_setup("minmaxprob")
        wrong_size = SlidingWindow(
            RelationStream("edge", EDGES, per_tick=3, seed=7,
                           prob_range=(0.5, 0.95)),
            size=9,
        )
        with pytest.raises(CheckpointMismatchError):
            recover(root, {"s": (engine, wrong_size)})
        tumbling = TumblingWindow(
            RelationStream("edge", EDGES, per_tick=3, seed=7,
                           prob_range=(0.5, 0.95)),
            size=4,
        )
        with pytest.raises(CheckpointMismatchError):
            recover(root, {"s": (engine, tumbling)})

    def test_unknown_stream_in_checkpoint(self, tmp_path):
        root = self._checkpointed_dir(tmp_path)
        engine, feed = tc_setup("minmaxprob")
        with pytest.raises(CheckpointMismatchError):
            recover(root, {"renamed": (engine, feed)})

    def test_format_version_mismatch(self, tmp_path):
        root = self._checkpointed_dir(tmp_path)
        newest = sorted(root.glob("ckpt-*.ckpt"))[-1]
        header = frame(encode({"format": 999, "kind": "checkpoint", "seq": 1}))
        payload = frame(encode({"streams": {}}))
        newest.write_bytes(header + payload)
        # Corrupt the *older* checkpoints too, so latest() cannot fall
        # back past the incompatible one: the mismatch must surface.
        for stale in sorted(root.glob("ckpt-*.ckpt"))[:-1]:
            stale.unlink()
        engine, feed = tc_setup("minmaxprob")
        with pytest.raises(CheckpointMismatchError):
            recover(root, {"s": (engine, feed)})

    def test_format_1_checkpoint_is_refused(self, tmp_path):
        """Format 1 carried a per-relation ``"stats"`` slot; a format-1
        file on disk must be refused, not decoded into format-2 state."""
        root = self._checkpointed_dir(tmp_path)
        checkpoints = sorted(root.glob("ckpt-*.ckpt"))
        for path in checkpoints:
            header_bytes, payload_bytes = read_frames(
                path.read_bytes(), strict=True
            ).payloads
            header, payload = decode(header_bytes), decode(payload_bytes)
            assert header["format"] == FORMAT_VERSION == 3
            for relation in payload["streams"]["s"]["database"]["relations"].values():
                assert "stats" not in relation
                relation["stats"] = None
            header["format"] = 1
            path.write_bytes(frame(encode(header)) + frame(encode(payload)))
        engine, feed = tc_setup("minmaxprob")
        with pytest.raises(CheckpointMismatchError, match="format 1"):
            recover(root, {"s": (engine, feed)})


    def test_format_2_checkpoint_is_refused(self, tmp_path):
        """Format 2 stored the view's baseline, current state and history
        as tuple-keyed dicts; such a file must be refused, not read as
        format-3 arrays."""
        root = self._checkpointed_dir(tmp_path)

        def as_dict(rows):
            n, columns = rows["n"], [c.tolist() for c in rows["columns"]]
            return dict(zip(list(zip(*columns)) if columns else [()] * n, rows["probs"].tolist()))

        for path in sorted(root.glob("ckpt-*.ckpt")):
            header_bytes, payload_bytes = read_frames(
                path.read_bytes(), strict=True
            ).payloads
            header, payload = decode(header_bytes), decode(payload_bytes)
            view = payload["streams"]["s"]["view"]
            view["baseline"] = {rel: as_dict(rows) for rel, rows in view["baseline"].items()}
            view["state"] = dict(view["baseline"])
            for delta in view["history"]:
                for side in ("inserted", "retracted"):
                    delta[side] = {
                        rel: sorted(as_dict(rows).items()) for rel, rows in delta[side].items()
                    }
            del view["db_version"]
            header["format"] = 2
            path.write_bytes(frame(encode(header)) + frame(encode(payload)))
        engine, feed = tc_setup("minmaxprob")
        with pytest.raises(CheckpointMismatchError, match="format 2"):
            recover(root, {"s": (engine, feed)})


def test_float_history_round_trips_through_a_checkpoint(tmp_path):
    """Float rows (``-0.0`` next to ``0.0``, ``inf``) in the view's
    baseline and history come back from a checkpoint with the same types
    and values: the checkpoint stores them as typed columns."""
    source = "type e(f64, i64)\nrel p(x, y) = e(x, y)\nquery p"
    rows = [(-0.0, 1), (0.0, 2), (1.5, 3), (float("inf"), 4), (-2.5, 5), (0.0, 6)]

    def setup():
        stream = RelationStream("e", rows, per_tick=2, seed=5, prob_range=(0.5, 0.95))
        return LobsterEngine(source, provenance="minmaxprob"), SlidingWindow(stream, size=2)

    engine, feed = setup()
    database = engine.create_database()
    database.add_facts("e", [(-0.0, 9), (7.25, 9)], probs=[0.5, 0.75])
    engine.run(database)
    view = MaterializedView(engine, database=database, name="s")
    manager = RecoveryManager(tmp_path, checkpoint_every=3)
    manager.register("s", view, feed)
    for _ in range(6):
        manager.apply("s", feed.advance())
    _, views, info = recover(tmp_path, {"s": setup()}, checkpoint_every=3)
    assert info.replayed_deltas == 0  # everything came from the checkpoint
    assert any(
        repr(row[0]) == "-0.0"
        for delta in view.history
        for pairs in (*delta.inserted.values(), *delta.retracted.values())
        for row, _ in pairs
    )
    assert repr(fingerprint(views["s"])) == repr(fingerprint(view))


class TestCodec:
    @settings(max_examples=50, deadline=None)
    @given(
        value=st.recursive(
            st.none()
            | st.booleans()
            | st.integers(min_value=-(2**80), max_value=2**80)
            | st.floats(allow_nan=False)
            | st.text(max_size=8)
            | st.binary(max_size=8),
            lambda children: st.lists(children, max_size=4)
            | st.tuples(children, children)
            | st.dictionaries(
                st.text(max_size=4) | st.tuples(st.integers(), st.integers()),
                children,
                max_size=4,
            ),
            max_leaves=12,
        )
    )
    def test_roundtrip_identity(self, value):
        assert decode(encode(value)) == value

    def test_tuple_list_distinction_survives(self):
        value = {"t": (1, 2), "l": [1, 2], (3, 4): "key"}
        out = decode(encode(value))
        assert isinstance(out["t"], tuple) and isinstance(out["l"], list)
        assert out[(3, 4)] == "key"

    def test_float_bits_exact(self):
        values = [0.1, -0.0, 1e-300, float(np.nextafter(1.0, 2.0))]
        for v in values:
            out = decode(encode(v))
            assert np.float64(out).tobytes() == np.float64(v).tobytes()

    def test_structured_tag_arrays(self):
        dtype = np.dtype([("prob", np.float64), ("ids", np.int64, (3,))])
        arr = np.zeros(4, dtype=dtype)
        arr["prob"] = [0.1, 0.2, 0.3, 0.4]
        arr["ids"][:, 0] = [1, 2, 3, 4]
        out = decode(encode(arr))
        assert out.dtype == dtype
        assert np.array_equal(out, arr)

    def test_truncated_payload_raises(self):
        data = encode({"a": [1, 2, 3]})
        with pytest.raises(CorruptLogError):
            decode(data[:-3])
        with pytest.raises(CorruptLogError):
            decode(data + b"xx")

    def test_frames_detect_torn_tail(self):
        data = frame(b"one") + frame(b"two")
        scan = read_frames(data[:-2])
        assert scan.payloads == [b"one"] and not scan.clean
        with pytest.raises(CorruptLogError):
            read_frames(data[:-2], strict=True)


class TestExportImport:
    """The checkpoint format as a database interchange."""

    @pytest.mark.parametrize("provenance", SEMIRINGS)
    def test_roundtrip(self, tmp_path, provenance):
        engine, feed = tc_setup(provenance)
        view = MaterializedView(engine, name="s")
        for _ in range(5):
            view.apply(feed.advance())
        path = tmp_path / "tc.lobsterdb"
        engine.export_database(view.database, path)

        engine2 = LobsterEngine(TC, provenance=provenance)
        restored = engine2.import_database(path)
        assert engine2.query_probs(restored, "path") == engine.query_probs(
            view.database, "path"
        )
        # The import is live, not a dead snapshot: keep streaming on it.
        restored.add_facts("edge", [(40, 41)])
        engine2.run(restored)
        assert (40, 41) in engine2.query_probs(restored, "path")

    def test_semiring_mismatch_raises(self, tmp_path):
        engine, feed = tc_setup("minmaxprob")
        view = MaterializedView(engine, name="s")
        view.apply(feed.advance())
        path = tmp_path / "db.lobsterdb"
        engine.export_database(view.database, path)
        with pytest.raises(CheckpointMismatchError):
            LobsterEngine(TC, provenance="unit").import_database(path)

    def test_corrupt_export_raises(self, tmp_path):
        engine, feed = tc_setup("unit")
        view = MaterializedView(engine, name="s")
        view.apply(feed.advance())
        path = tmp_path / "db.lobsterdb"
        engine.export_database(view.database, path)
        path.write_bytes(path.read_bytes()[:-9])
        with pytest.raises(CorruptLogError):
            engine.import_database(path)

    def test_checkpoint_is_not_an_export(self, tmp_path):
        engine, feed = tc_setup("unit")
        view = MaterializedView(engine, name="s")
        manager = RecoveryManager(tmp_path, checkpoint_every=1)
        manager.register("s", view, feed)
        manager.apply("s", feed.advance())
        ckpt = sorted(tmp_path.glob("ckpt-*.ckpt"))[-1]
        with pytest.raises(CheckpointMismatchError):
            engine.import_database(ckpt)


class TestStorage:
    def test_tmp_debris_invisible(self, tmp_path):
        storage = LocalStorage(tmp_path)
        storage.write_atomic("a.bin", b"data")
        (tmp_path / "b.bin.tmp").write_bytes(b"debris")
        assert storage.list() == ["a.bin"]

    def test_atomic_swap_replaces(self, tmp_path):
        storage = LocalStorage(tmp_path)
        storage.write_atomic("a.bin", b"old")
        storage.write_atomic("a.bin", b"new-longer")
        assert storage.read("a.bin") == b"new-longer"
        assert storage.list() == ["a.bin"]


class TestSchedulerDurability:
    def test_stream_scheduler_routes_through_manager(self, tmp_path):
        from repro import StreamScheduler

        engine, feed = tc_setup("minmaxprob")
        view = MaterializedView(engine, name="tc")
        manager = RecoveryManager(tmp_path, checkpoint_every=3)
        scheduler = StreamScheduler(n_devices=1, durability=manager)
        scheduler.register(view, feed, period_s=1e-3, name="tc")
        report = scheduler.run(5)
        assert report.ticks == 5
        assert sorted(tmp_path.glob("wal-*.log"))  # WAL written
        assert sorted(tmp_path.glob("ckpt-*.ckpt"))  # checkpoints cut

        engine2, feed2 = tc_setup("minmaxprob")
        _, views, info = recover(tmp_path, {"tc": (engine2, feed2)})
        assert not info.cold_start
        assert views["tc"].ticks_applied == 5
        assert views["tc"].result("path") == view.result("path")


def test_recover_captures_the_view_snapshot_once(tmp_path, monkeypatch):
    """The restored view's constructor snapshots the restored database;
    ``restore_state`` reads the same, unchanged database and keeps that
    snapshot, so each tracked relation's probabilities are computed once."""
    from repro.provenance.minmaxprob import MinMaxProbProvenance

    engine, feed = tc_setup("minmaxprob")
    view = MaterializedView(engine, name="s")
    manager = RecoveryManager(tmp_path, checkpoint_every=2)
    manager.register("s", view, feed)
    for _ in range(4):
        manager.apply("s", feed.advance())

    calls = []
    prob = MinMaxProbProvenance.prob
    monkeypatch.setattr(
        MinMaxProbProvenance, "prob", lambda self, tags: calls.append(1) or prob(self, tags)
    )
    engine2, feed2 = tc_setup("minmaxprob")
    _, views, info = recover(tmp_path, {"s": (engine2, feed2)})
    assert info.checkpoint_seq is not None and info.replayed_deltas == 0
    assert len(calls) == len(views["s"].relations)
    assert fingerprint(views["s"]) == run_uninterrupted(lambda: tc_setup("minmaxprob"), 4)
