"""Tests for trace serialization."""

from __future__ import annotations

import json

import pytest

from repro.graph import pipeline
from repro.perfmodel import laptop
from repro.runtime import (
    ProcessingElement,
    RuntimeConfig,
    load_trace,
    save_trace,
    trace_from_dict,
    trace_to_dict,
)
from repro.runtime.executor import run_elastic


@pytest.fixture
def trace(small_machine, fast_config):
    pe = ProcessingElement(
        pipeline(10, cost_flops=2000.0), small_machine, fast_config
    )
    return run_elastic(pe, 600).trace


class TestRoundTrip:
    def test_dict_round_trip(self, trace):
        rebuilt = trace_from_dict(trace_to_dict(trace))
        assert rebuilt.observations == trace.observations
        assert rebuilt.thread_changes == trace.thread_changes
        assert rebuilt.placement_changes == trace.placement_changes

    def test_file_round_trip(self, trace, tmp_path):
        path = tmp_path / "trace.json"
        save_trace(trace, path)
        rebuilt = load_trace(path)
        assert rebuilt.observations == trace.observations

    def test_json_is_plain(self, trace, tmp_path):
        path = tmp_path / "trace.json"
        save_trace(trace, path)
        data = json.loads(path.read_text())
        assert data["version"] == 1
        assert isinstance(data["observations"], list)

    def test_aggregates_preserved(self, trace, tmp_path):
        path = tmp_path / "trace.json"
        save_trace(trace, path)
        rebuilt = load_trace(path)
        assert rebuilt.final_throughput() == trace.final_throughput()
        assert rebuilt.settling_time() == trace.settling_time()
        assert rebuilt.last_change_time() == trace.last_change_time()


class TestVersioning:
    def test_unknown_version_rejected(self, trace):
        data = trace_to_dict(trace)
        data["version"] = 99
        with pytest.raises(ValueError, match="version"):
            trace_from_dict(data)

    def test_missing_version_rejected(self, trace):
        data = trace_to_dict(trace)
        del data["version"]
        with pytest.raises(ValueError, match="version"):
            trace_from_dict(data)


class TestSasoOnLoadedTrace:
    def test_analysis_works_after_round_trip(self, trace, tmp_path):
        from repro.core import analyze

        path = tmp_path / "trace.json"
        save_trace(trace, path)
        report = analyze(load_trace(path))
        assert report.settling_time_s >= 0
