"""Tests for the ASCII adaptation-timeline renderer."""

from __future__ import annotations

import pytest

from repro.bench.timeline import render_timeline
from repro.graph import pipeline
from repro.perfmodel import laptop
from repro.runtime import (
    AdaptationTrace,
    Observation,
    ProcessingElement,
    RuntimeConfig,
)
from repro.runtime.executor import run_elastic


@pytest.fixture
def trace(small_machine, fast_config):
    pe = ProcessingElement(
        pipeline(10, cost_flops=2000.0), small_machine, fast_config
    )
    return run_elastic(pe, 800).trace


class TestRenderTimeline:
    def test_contains_three_series(self, trace):
        out = render_timeline(trace, title="T")
        assert out.startswith("T")
        assert "threads" in out
        assert "throughput" in out
        assert "queues" in out
        assert "settling" in out

    def test_empty_trace(self):
        out = render_timeline(AdaptationTrace.empty())
        assert "empty trace" in out

    def test_width_respected(self, trace):
        out = render_timeline(trace, width=40)
        for line in out.splitlines():
            if line.startswith("throughput"):
                # "throughput " prefix + <=40 chars + suffix annotation
                bar = line.split("  ")[0][len("throughput "):]
                assert len(bar) <= 40

    def test_peak_annotations(self, trace):
        out = render_timeline(trace)
        assert "peak" in out

    def test_thread_labels_present(self, trace):
        out = render_timeline(trace)
        threads_line = next(
            l for l in out.splitlines() if l.startswith("threads")
        )
        # The initial thread count (1) must be labelled.
        assert "1" in threads_line

    def test_long_trace_downsampled(self, small_machine, fast_config):
        pe = ProcessingElement(
            pipeline(10, cost_flops=2000.0), small_machine, fast_config
        )
        long_trace = run_elastic(pe, 50_000).trace
        out = render_timeline(long_trace, width=60)
        for line in out.splitlines():
            assert len(line) < 130
