"""The benchmark command against its declaration in BENCHMARK.json."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
RUN = os.path.join(ROOT, "perfbench", "run.py")


def _declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _run(cwd, *args, timeout=170):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=timeout,
    )


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_result_line_carries_every_declared_metric(trace, section):
    declared = _declared()
    out = _run(
        ROOT,
        "--workload", "open-loop-varying",
        "--seed", "5",
        "--seconds", "0",
        "--trace", trace,
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] > 0 and result["failed"] == 0
    assert {
        name: m["unit"] for name, m in result["metrics"].items()
    } == {m["name"]: m["unit"] for m in declared[section]}
    # Every output records its host, nproc, Python, commit and seed.
    for key in ("host", "nproc", "python", "commit", "seed"):
        assert any(line.startswith(f"{key}: ") for line in out.stdout.splitlines())


def test_workloads_match_the_declaration():
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    from workloads import WORKLOADS

    assert [w["name"] for w in _declared()["workloads"]] == list(WORKLOADS)


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "perfbench"),
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    out = _run(
        tmp_path,
        "--workload", "open-loop-varying",
        "--seed", "1",
        "--seconds", "1",
        "--trace", "0",
        timeout=60,
    )
    assert out.returncode != 0
    assert "{" not in out.stdout
