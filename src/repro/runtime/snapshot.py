"""Serialization of adaptation traces to/from JSON.

Long elastic runs are expensive to regenerate; persisting their traces
lets the SASO analysis, the reporting layer and external plotting tools
work offline.  The format is a plain versioned JSON document — no
pickling, so traces are portable across library versions and safe to
share.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import asdict, fields
from typing import Union

from .events import (
    AdaptationTrace,
    Observation,
    PlacementChange,
    ThreadCountChange,
)

FORMAT_VERSION = 1

PathLike = Union[str, pathlib.Path]


#: The trace's event lists and the record type each one holds.
_SECTIONS = (
    ("observations", Observation),
    ("thread_changes", ThreadCountChange),
    ("placement_changes", PlacementChange),
)


def trace_to_dict(trace: AdaptationTrace) -> dict:
    """Convert a trace to a JSON-serializable dictionary."""
    return {"version": FORMAT_VERSION, **asdict(trace)}


def trace_from_dict(data: dict) -> AdaptationTrace:
    """Rebuild a trace from :func:`trace_to_dict` output."""
    version = data.get("version")
    if version != FORMAT_VERSION:
        raise ValueError(
            f"unsupported trace format version {version!r} "
            f"(expected {FORMAT_VERSION})"
        )
    trace = AdaptationTrace.empty()
    for section, event_type in _SECTIONS:
        names = [f.name for f in fields(event_type)]
        getattr(trace, section).extend(
            event_type(**{name: record[name] for name in names})
            for record in data[section]
        )
    return trace


def save_trace(trace: AdaptationTrace, path: PathLike) -> None:
    """Write a trace to ``path`` as JSON."""
    payload = json.dumps(trace_to_dict(trace), indent=1)
    pathlib.Path(path).write_text(payload)


def load_trace(path: PathLike) -> AdaptationTrace:
    """Read a trace previously written by :func:`save_trace`."""
    data = json.loads(pathlib.Path(path).read_text())
    return trace_from_dict(data)
