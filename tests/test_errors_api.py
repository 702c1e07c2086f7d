"""Error hierarchy and public API surface tests."""

from __future__ import annotations

import dataclasses
import inspect
import re
from pathlib import Path

import pytest

import repro
from repro import errors
from repro.gpu.hash_table import HashIndex


class TestErrorHierarchy:
    def test_all_derive_from_lobster_error(self):
        for name in (
            "ParseError",
            "ResolutionError",
            "StratificationError",
            "CompileError",
            "ExecutionError",
            "DeviceOutOfMemory",
            "EvaluationTimeout",
            "ProvenanceError",
            "FactError",
            "RetractionUnsupportedError",
            "SessionError",
            "StaleViewError",
            "CorruptLogError",
            "CheckpointMismatchError",
            "UnknownTicketError",
            "TicketNotRunError",
        ):
            assert issubclass(getattr(errors, name), errors.LobsterError), name

    def test_oom_is_execution_error(self):
        assert issubclass(errors.DeviceOutOfMemory, errors.ExecutionError)

    def test_ticket_errors_are_session_errors(self):
        assert issubclass(errors.UnknownTicketError, errors.SessionError)
        assert issubclass(errors.TicketNotRunError, errors.SessionError)
        assert errors.UnknownTicketError(3).ticket == 3
        assert errors.TicketNotRunError(4).ticket == 4

    def test_retraction_unsupported_carries_reason(self):
        error = errors.RetractionUnsupportedError("negation in stratum 2")
        assert error.reason == "negation in stratum 2"
        assert "negation in stratum 2" in str(error)

    def test_streaming_errors_importable_from_top_level(self):
        import repro

        assert repro.RetractionUnsupportedError is errors.RetractionUnsupportedError
        assert repro.StaleViewError is errors.StaleViewError

    def test_durability_errors_importable_from_top_level(self):
        import repro

        assert repro.CorruptLogError is errors.CorruptLogError
        assert repro.CheckpointMismatchError is errors.CheckpointMismatchError

    def test_durability_errors_are_not_each_other(self):
        # Torn-at-rest corruption and structural incompatibility are
        # different conditions: one falls back to older state, the other
        # must stop recovery.  Keep them catchable separately.
        assert not issubclass(errors.CorruptLogError, errors.CheckpointMismatchError)
        assert not issubclass(errors.CheckpointMismatchError, errors.CorruptLogError)

    def test_parse_error_location_prefix(self):
        error = errors.ParseError("bad token", line=3, column=7)
        assert str(error).startswith("3:7:")
        assert error.line == 3 and error.column == 7

    def test_parse_error_without_location(self):
        assert str(errors.ParseError("oops")) == "oops"

    def test_single_except_clause_catches_everything(self):
        caught = []
        for exc_type in (errors.ParseError, errors.DeviceOutOfMemory):
            try:
                raise exc_type("boom")
            except errors.LobsterError as exc:
                caught.append(exc)
        assert len(caught) == 2


class TestPublicApi:
    def test_top_level_exports(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        assert repro.__version__

    def test_engine_importable_from_top_level(self):
        assert repro.LobsterEngine is not None
        assert repro.VirtualDevice is not None

    @pytest.mark.parametrize("provenance", ["unit", "prob-top-1-proofs"])
    @pytest.mark.parametrize("knob", [{"jit": True}, {"jit": None, "hot_runs": 1}])
    def test_removed_jit_knob_is_a_typed_error(self, provenance, knob):
        """The trace-JIT is gone: its keywords fall into the semiring's
        ``**provenance_kwargs``, which names what it does not accept."""
        with pytest.raises(errors.ProvenanceError, match="'jit'"):
            repro.LobsterEngine("rel p(x) :- q(x).", provenance=provenance, **knob)

    @pytest.mark.parametrize(
        "knob", [{"shards": 2}, {"shard_devices": []}, {"shard_map": None}]
    )
    def test_removed_shard_knobs_are_a_typed_error(self, knob):
        """Sharding is gone: its keywords fall into the semiring's
        ``**provenance_kwargs``, which names what it does not accept."""
        (name,) = knob
        with pytest.raises(errors.ProvenanceError, match=f"'{name}'"):
            repro.LobsterEngine("rel p(x) :- q(x).", **knob)

    @pytest.mark.parametrize("knob", [{"adaptive": True}, {"replan_drift": 8.0}])
    def test_removed_adaptive_knobs_are_a_typed_error(self, knob):
        """Statistics-driven re-planning is gone: its keywords fall into
        the semiring's ``**provenance_kwargs``, which names what it does
        not accept."""
        (name,) = knob
        with pytest.raises(errors.ProvenanceError, match=f"'{name}'"):
            repro.LobsterEngine("rel p(x) :- q(x).", **knob)

    def test_removed_scale_out_exports_are_gone(self):
        for name in (
            "ElasticController",
            "HashPartitioner",
            "ReshardPlan",
            "ReshardPlanner",
            "ShardMap",
            "ShardedExecutor",
        ):
            assert name not in repro.__all__ and not hasattr(repro, name), name
        assert len(repro.__all__) == 54

    def test_removed_bench_record_error_is_gone(self):
        assert "BenchRecordError" not in repro.__all__
        assert not hasattr(errors, "BenchRecordError")

    def test_removed_planner_statistics_exports_are_gone(self):
        for name in (
            "CostModel",
            "PlanFeedback",
            "RelationStats",
            "StatsCatalog",
            "explain_run",
        ):
            assert name not in repro.__all__ and not hasattr(repro, name), name

    def test_engine_constructor_takes_exactly_the_documented_parameters(self):
        """docs/architecture.md's table is the knob count ROADMAP tracks."""
        text = (Path(__file__).parent.parent / "docs" / "architecture.md").read_text()
        section = text.split("### Constructor parameters", 1)[1].split("\n#", 1)[0]
        documented = re.findall(r"^\| `(\w+)` \|", section, flags=re.MULTILINE)
        signature = inspect.signature(repro.LobsterEngine.__init__)
        named = [
            name
            for name, parameter in signature.parameters.items()
            if name != "self" and parameter.kind is not parameter.VAR_KEYWORD
        ]
        assert documented == named
        assert len(named) == 8

    def test_optimization_config_fields_are_the_documented_ones(self):
        """The ``optimizations`` row names every OptimizationConfig field:
        the Fig. 10 arms that change host work, the knob count ROADMAP
        tracks."""
        text = (Path(__file__).parent.parent / "docs" / "architecture.md").read_text()
        (row,) = re.findall(r"^\| `optimizations` \|(.*)\|$", text, flags=re.MULTILINE)
        documented = re.findall(r"`(\w+)`", row.split(":", 1)[1])
        fields = [field.name for field in dataclasses.fields(repro.OptimizationConfig)]
        assert documented == fields == ["static_indices"]

    def test_join_index_takes_exactly_columns_and_width(self):
        """The join index has no table-sizing knob: it looks groups up in
        its sorted keys, and §5.1's load factor only sizes the modeled
        footprint."""
        assert list(inspect.signature(HashIndex).parameters) == ["columns", "width"]
