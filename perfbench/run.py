"""The repository benchmark: one command, four workloads.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout.  With ``--trace 0`` it
measures the workload for ``--seconds`` seconds and prints the
end-to-end metrics; with ``--trace 1`` it also runs the workload once
more under the per-layer tracer (``tracer.py``) and prints the
per-layer metrics instead.  Every run checks the program's outputs.
The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it
are a readable report.  Metric definitions, the workload choices and
the baseline findings are in ``perfbench/README.md``.

The workload seed fixes the order in which the workload's scenarios
or points run in each repetition; the simulated inputs themselves are
the pinned zoo configurations, so every simulated metric must repeat
exactly whatever the seed.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

from layers import PER_LAYER_UNITS, per_layer
from metrics import Tally, geomean, settling_periods
from speed import SpeedSampler, calibrated
from tracer import Tracer

# ``workloads`` imports the program, so it is imported only after
# main() has put src/ on the path.
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# The environment every run pins instead of inheriting: memo on, no
# disk tier (REPRO_MEMO_DIR unset), sequential by default, warm start
# off, small grids.  Every other REPRO_* variable is removed.
PINNED_ENV = {
    "REPRO_MEMO": "1",
    "REPRO_JOB_WORKERS": "1",
    "REPRO_WARM_START": "off",
    "REPRO_PARALLEL": "0",
    "REPRO_FULL": "0",
}
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120.0
READY = "PERFBENCH-FIRST-PERIOD"

E2E_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "sink_tuples_per_wall_s_per_core": "1/s",
    "converged_tuples_per_s": "1/s",
    "settling_periods": "count",
}
# Printed in the report; not in the JSON result (both are 0 on healthy
# runs of most workloads, so neither can carry a relative bound):
# failures travel as the result's "attempted"/"failed" pair.
REPORT_ONLY_UNITS = {"dropped_tuples": "count", "failed_frac": "ratio"}


def pin_env() -> None:
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    os.environ.update(PINNED_ENV)


def unit_order(n: int, seed: int, rep: int) -> List[int]:
    """The seed's order of a workload's units in repetition ``rep``."""
    order = list(range(n))
    random.Random(f"{seed}:{rep}").shuffle(order)
    return order


# ----------------------------------------------------------------------
# metadata
# ----------------------------------------------------------------------
def nproc() -> int:
    return len(os.sched_getaffinity(0))


def commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def source_digest() -> str:
    """blake2b over src/ and scenarios/: identifies the code measured
    even in a checkout that is not a git repository."""
    h = hashlib.blake2b(digest_size=12)
    for top in ("src", "scenarios"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                if name.endswith((".py", ".yaml", ".json")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as fh:
                        h.update(fh.read())
    return h.hexdigest()


def metadata(args) -> Dict[str, object]:
    return {
        "host": platform.node(),
        "nproc": nproc(),
        "python": platform.python_version(),
        "commit": commit(),
        "source_digest": source_digest(),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# ----------------------------------------------------------------------
# memory
# ----------------------------------------------------------------------
def _vm_hwm_kib(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _child_pids() -> List[int]:
    pids: List[int] = []
    me = os.getpid()
    for tid in os.listdir(f"/proc/{me}/task"):
        try:
            with open(f"/proc/{me}/task/{tid}/children") as fh:
                pids.extend(int(p) for p in fh.read().split())
        except OSError:
            continue
    return pids


class PeakRss:
    """Peak resident memory of one repetition: this process plus the
    pool workers it started.

    The process's peak (VmHWM) is reset when a repetition starts.
    Workers live for one job run; just before a pool closes, their own
    peaks are summed.  Forked workers share pages with the parent,
    which each process's figure counts again, so the result bounds the
    true peak from above.
    """

    def __init__(self) -> None:
        self.children_kib = 0
        self._original = None

    def __enter__(self) -> "PeakRss":
        from repro.runtime.pool import WorkerPool

        original = self._original = WorkerPool.close
        watch = self

        def close(pool):
            total = sum(_vm_hwm_kib(pid) for pid in _child_pids())
            watch.children_kib = max(watch.children_kib, total)
            return original(pool)

        WorkerPool.close = close
        return self

    def __exit__(self, *exc_info) -> None:
        from repro.runtime.pool import WorkerPool

        WorkerPool.close = self._original

    def reset(self) -> None:
        self.children_kib = 0
        try:
            # "5" resets the peak RSS to the current RSS (Linux >= 4.0).
            with open(f"/proc/{os.getpid()}/clear_refs", "w") as fh:
                fh.write("5")
        except OSError:
            pass  # the peak then covers the whole process lifetime

    def mib(self) -> float:
        return (_vm_hwm_kib(os.getpid()) + self.children_kib) / 1024.0


# ----------------------------------------------------------------------
# set-up probes
# ----------------------------------------------------------------------
def probe_first_period(workload_name: str, seed: int) -> int:
    """Probe mode: prepare the workload and run its first unit up to
    its first period, announce it on stdout, then stop."""
    from workloads import WORKLOADS, FirstPeriod

    workload = WORKLOADS[workload_name]
    units, _ = workload.prepare()
    first = units[unit_order(len(units), seed, 0)[0]]

    def hook():
        print(READY, flush=True)
        raise FirstPeriod

    try:
        first.run(workload.jobs, hook)
    except FirstPeriod:
        return 0
    print("first period never started", file=sys.stderr)
    return 1


def _probe_once(cmd: List[str]) -> float:
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=PROBE_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != READY or code != 0:
        raise RuntimeError(f"set-up probe failed (exit code {code})")
    return elapsed


def measure_setup(workload: str, seed: int) -> Tuple[float, float]:
    """Seconds from starting a fresh interpreter until the workload's
    first adaptation period starts: (raw, reference-speed) medians of
    SETUP_PROBES probes."""
    cmd = [
        sys.executable,
        os.path.abspath(__file__),
        "--probe-setup",
        "--workload",
        workload,
        "--seed",
        str(seed),
    ]
    samples = [calibrated(lambda: _probe_once(cmd)) for _ in range(SETUP_PROBES)]
    return (
        statistics.median(raw for raw, _ in samples),
        statistics.median(scaled for _, scaled in samples),
    )


# ----------------------------------------------------------------------
# running units
# ----------------------------------------------------------------------
class Session:
    """Runs a workload's units and checks their outputs.

    The first complete repetition is the reference: every later one —
    other unit orders, jobs=1 against jobs=2, traced against untraced
    — must reproduce each unit's decision-log digest, final
    configuration, converged throughput and dropped tuples exactly.
    """

    def __init__(self, workload, units, seed: int) -> None:
        self.workload = workload
        self.units = units
        self.seed = seed
        self.tally = Tally()
        # Each unit's first output: the reference the checks compare to.
        self.outputs: Dict[str, object] = {}
        # Optional instruments of the timed loop: a speed.SpeedSampler
        # (wall time at reference speed) and a PeakRss.
        self.sampler = None
        self.rss: Optional[PeakRss] = None

    def repetition(self, rep: int, jobs: int) -> Dict[str, object]:
        """Run every unit once in the seed's order.

        Returns ``raw`` (summed wall seconds of the unit runs),
        ``scaled`` (the same at reference speed, or raw again without a
        sampler), ``peak_mib`` (with a PeakRss) and ``outputs`` (each
        unit's :class:`~workloads.UnitOutput`).
        """
        from workloads import deadlocked_cells

        raw = scaled = 0.0
        outputs = {}
        if self.rss is not None:
            gc.collect()
            self.rss.reset()
        for i in unit_order(len(self.units), self.seed, rep):
            unit = self.units[i]
            # A fresh session inherits no garbage from the last one.
            gc.collect()
            t0 = time.perf_counter()
            try:
                finish = unit.run(jobs, None)
                failure = None
            except Exception as exc:  # a failed period, not a crash
                failure = exc
            t1 = time.perf_counter()
            if self.sampler is not None:
                r, s = self.sampler.scale(t0, t1)
            else:
                r = s = t1 - t0
            raw += r
            scaled += s
            if failure is not None:
                self.tally.fail(1, f"{unit.name}: {failure!r}")
                continue
            out = outputs[unit.name] = finish()
            self.tally.ok(out.periods)
            dead = deadlocked_cells()
            if dead:
                self.tally.reclassify(
                    dead, f"{unit.name}: {dead} deadlocked periods"
                )
            self.check(unit.name, out, f"rep {rep} jobs={jobs}")
        return {
            "raw": raw,
            "scaled": scaled,
            "peak_mib": self.rss.mib() if self.rss is not None else 0.0,
            "outputs": outputs,
        }

    def check(self, name: str, out, label: str) -> None:
        ref = self.outputs.setdefault(name, out)
        if out.check_key() != ref.check_key():
            self.tally.reclassify(
                out.periods, f"{name}: outputs differ ({label})"
            )

    def timed_loop(self, seconds: float, jobs: int) -> List[Dict]:
        """Repeat the workload until ``seconds`` have passed (at least
        once); returns each repetition's record."""
        reps: List[Dict] = []
        start = time.perf_counter()
        while not reps or time.perf_counter() - start < seconds:
            reps.append(self.repetition(len(reps), jobs))
        return reps

    # ------------------------------------------------------------------
    def end_to_end(
        self, wall_s: float, setup_s: float, peak_mib: float
    ) -> Dict[str, float]:
        outs = [self.outputs[u.name] for u in self.units if u.name in self.outputs]
        converged = [v for o in outs for v in o.converged]
        cores = max(1, min(self.workload.jobs, nproc()))
        sink = sum(o.sink_tuples for o in outs)
        return {
            "wall_s": wall_s,
            "setup_s": setup_s,
            "peak_rss_mib": peak_mib,
            "sink_tuples_per_wall_s_per_core": sink / wall_s / cores,
            "converged_tuples_per_s": geomean(converged) if converged else 0.0,
            "settling_periods": float(
                sum(settling_periods(o.throughputs) for o in outs)
            ),
            "dropped_tuples": sum(o.dropped for o in outs),
            "failed_frac": self.tally.failed_frac,
        }


# ----------------------------------------------------------------------
# report
# ----------------------------------------------------------------------
def print_units(session: Session) -> None:
    print(
        f"  {'unit':<26} {'periods':>7} {'converged/s':>14} "
        f"{'settle':>6} {'dropped':>9}  final / decision digest"
    )
    for unit in session.units:
        out = session.outputs.get(unit.name)
        if out is None:
            print(f"  {unit.name:<26} (no output)")
            continue
        conv = " ".join(f"{v:,.0f}" for v in out.converged)
        print(
            f"  {unit.name:<26} {out.periods:>7} {conv:>14} "
            f"{settling_periods(out.throughputs):>6} {out.dropped:>9,.0f}"
            f"  {out.final} {out.digest[:16]}"
        )


def print_metrics(title: str, values: Dict[str, float], units: Dict[str, str]) -> None:
    print(title)
    for name, value in values.items():
        print(f"  {name:<36} {value:>16.6g} {units[name]}")


def result_line(session: Session, metrics: Dict[str, Tuple[float, str]]) -> str:
    tally = session.tally
    return json.dumps(
        {
            "correct": tally.failed == 0,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in metrics.items()
            },
        }
    )


# ----------------------------------------------------------------------
# the two modes
# ----------------------------------------------------------------------
def run_untraced(args, workload) -> int:
    setup_raw, setup_s = measure_setup(workload.name, args.seed)
    units, _ = workload.prepare()
    session = Session(workload, units, args.seed)
    jobs1 = None
    with PeakRss() as session.rss, SpeedSampler() as session.sampler:
        reps = session.timed_loop(args.seconds, workload.jobs)
        if workload.jobs > 1:
            # jobs=1 must reproduce jobs=N byte for byte; its wall time
            # is the single-worker baseline.
            jobs1 = session.repetition(len(reps), 1)
    wall_s = statistics.median(r["scaled"] for r in reps)
    values = session.end_to_end(
        wall_s, setup_s, statistics.median(r["peak_mib"] for r in reps)
    )

    print(f"workload {workload.name}")
    print(
        f"  repetitions {len(reps)}; wall seconds raw -> at reference "
        "speed, peak MiB:"
    )
    for r in reps:
        print(f"    {r['raw']:.4f} -> {r['scaled']:.4f}  {r['peak_mib']:.1f}")
    print(
        f"  raw medians: wall {statistics.median(r['raw'] for r in reps):.4f}"
        f" s, set-up {setup_raw:.4f} s"
    )
    if jobs1 is not None:
        print(
            f"  jobs={workload.jobs} median {wall_s:.4f} s; jobs=1 "
            f"baseline {jobs1['scaled']:.4f} s (raw {jobs1['raw']:.4f} s), "
            "outputs checked identical"
        )
    print_units(session)
    print_metrics("end-to-end", values, {**E2E_UNITS, **REPORT_ONLY_UNITS})
    report_failures(session)
    print(
        result_line(
            session, {k: (values[k], u) for k, u in E2E_UNITS.items()}
        )
    )
    return 0


def run_traced(args, workload) -> int:
    units, compile_s = workload.prepare()
    session = Session(workload, units, args.seed)
    reps = session.timed_loop(args.seconds, workload.jobs)
    untraced = statistics.median(r["raw"] for r in reps)
    rep = len(reps)
    notes = []
    # Call counting is a pass of its own: counted calls are the
    # hottest ones, and their cost would inflate the spans' self times.
    with Tracer(counts=()) as in_pe:
        first = session.repetition(rep, 1)
    traced, outputs = first["raw"], first["outputs"]
    with Tracer(spans=()) as counted:
        session.repetition(rep + 1, 1)
    parent_side = in_pe
    if workload.jobs > 1:
        # In-PE layers run in forked workers, whose spans stay there:
        # they were traced at jobs=1 above; the parent-side pool and
        # job layers, and the overhead, at the workload's own width.
        with Tracer(counts=()) as parent_side:
            traced = session.repetition(rep + 2, workload.jobs)["raw"]
        notes.append(
            "in-PE layers traced at jobs=1; job.* and runtime.pool.* "
            f"and the overhead at jobs={workload.jobs}"
        )
    values = per_layer(
        in_pe,
        parent_side,
        counted,
        outputs.values(),
        compile_s,
        traced,
        untraced,
    )

    print(f"workload {workload.name} (traced)")
    for note in notes:
        print(f"  note: {note}")
    print(
        f"  untraced repetitions {len(reps)}, median {untraced:.4f} s; "
        f"traced {traced:.4f} s"
    )
    print_units(session)
    print_metrics("per-layer", values, PER_LAYER_UNITS)
    report_failures(session)
    print(
        result_line(
            session,
            {k: (values[k], PER_LAYER_UNITS[k]) for k in PER_LAYER_UNITS},
        )
    )
    return 0


def report_failures(session: Session) -> None:
    for reason in session.tally.reasons:
        print(f"  FAILED: {reason}")


def parse_args(argv: Optional[Sequence[str]]):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    pin_env()
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    if args.probe_setup:
        return probe_first_period(args.workload, args.seed)

    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(
            f"unknown workload {args.workload!r}; "
            f"choose from {', '.join(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    for key, value in metadata(args).items():
        print(f"{key}: {value}")
    if args.trace:
        return run_traced(args, workload)
    return run_untraced(args, workload)


if __name__ == "__main__":
    sys.exit(main())
