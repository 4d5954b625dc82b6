"""Adaptation loop driven by the discrete-event simulator.

Everything in :mod:`repro.core` is substrate-agnostic; this module
closes the loop on the *tuple-level* substrate: each adaptation period
is measured by actually executing the configured PE in the DES engine,
and the coordinator's configuration changes apply to the next period.

Reconfiguration semantics: the real runtime migrates queues in place;
here each period runs a freshly instantiated engine (with a short
warm-up excluded from measurement), which models the paper's
observation that measurements right after a change are transient —
the warm-up plays the role of the settling the adaptation period
allows before the throughput is read.

Profiling from execution follows §3.1's continuous sampling: with
``profile_from_execution=True`` and ``sampled_profiling=True`` (the
default) the measurement engine itself carries the profiler thread,
which snapshots every executing thread's per-thread state variable
during the period — the profile falls out of the run the coordinator
was measuring anyway, no dedicated profiling run needed.  This is only
sound because sampled accounting is *non-intrusive*: the engine keeps
its coalesced fast path, so the profiled run measures exactly what an
unprofiled run would.  ``sampled_profiling=False`` keeps the previous
design — measurements run unprofiled, and each profile request launches
a dedicated engine with fine-grained per-operator time advancement —
because a fine-grained profiler *inside* the measurement run would
perturb the very throughput it is measuring.

Measurement memoization: a period's outcome is deterministic in
``(graph, placement, threads, machine, seed, windows)``, and the
coordinator re-measures the same configuration every period it holds
one (and across Fig. 6/7 variants on the same scenario), so measured
periods are cached through :mod:`repro.bench.cache`.  ``sim_events``
counts only the DES kernel events actually executed (cache hits add
none), which is what the perf benchmarks report.

Because tuple-level simulation is orders of magnitude more expensive
than the analytical model, this runner is meant for small graphs
(tens of operators) — validation and demonstration, not the
large-scale figure sweeps.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..bench import cache
from ..core.binning import ProfilingGroup, build_groups
from ..core.profiler import CostProfile, SamplingProfiler
from ..core.warmstart import quantize_rate
from ..graph.model import StreamGraph
from ..obs.hub import Obs
from ..perfmodel.machine import MachineProfile
from ..runtime.config import RuntimeConfig
from ..runtime.loop import ElasticLoop
from ..runtime.queues import QueuePlacement
from .channels import DEFAULT_CHANNEL, ChannelConfig
from .engine import DesEngine, DesResult

# Profiler wake-ups per measured window: enough samples that every
# non-negligible operator is caught, few enough that the profiler
# process stays a rounding error next to the tuple events.
_PROFILER_SAMPLES_PER_WINDOW = 400.0


class DesAdaptationRunner(ElasticLoop):
    """The :class:`~repro.runtime.loop.ElasticLoop` substrate over the
    DES engine: each period's throughput is a simulated execution."""

    def __init__(
        self,
        graph: StreamGraph,
        machine: MachineProfile,
        config: Optional[RuntimeConfig] = None,
        warmup_s: float = 0.002,
        measure_s: float = 0.01,
        queue_capacity: int = 16,
        workload_events: Optional[
            List[tuple]
        ] = None,  # [(time_s, StreamGraph)]
        profile_from_execution: bool = False,
        sampled_profiling: bool = True,
        obs: Optional[Obs] = None,
        arrivals_factory=None,  # t0 -> {source_index: Iterator[float]}
        arrivals_key: Optional[Tuple] = None,
        overflow: str = "block",
        channel: Optional[ChannelConfig] = None,
    ) -> None:
        """``arrivals_factory`` makes measurement periods *open-loop*:
        each period's engine gets fresh arrival streams starting at the
        period's wall-clock offset, so time-varying envelopes (diurnal,
        flash crowds) actually advance across the adaptation run.
        ``arrivals_key`` is the process's hashable identity for the
        measurement cache — without it open-loop periods are never
        memoized (two factories cannot be proven equivalent).
        ``overflow`` is the ingress policy and ``channel`` the batched
        channel configuration every period's engine runs under (see
        :class:`DesEngine`); the channel is part of the measurement
        cache key, so differently-batched runs never share cells.
        """
        self.graph = graph
        self.profile_from_execution = profile_from_execution
        self.sampled_profiling = sampled_profiling
        self.machine = machine
        self.config = config if config is not None else RuntimeConfig()
        self.warmup_s = warmup_s
        self.measure_s = measure_s
        self.queue_capacity = queue_capacity
        self._profiler = SamplingProfiler(
            machine,
            n_samples=self.config.elasticity.profiling_samples,
            seed=self.config.seed + 1,
        )
        super().__init__(self.config, obs, workload_events)
        self.placement = QueuePlacement.empty()
        self.threads = self.config.elasticity.initial_threads
        # Execution profile of the most recently measured period (only
        # with profile_from_execution); the coordinator's
        # profile_provider reads it instead of launching a run.
        self._last_profile: Optional[CostProfile] = None
        # DES kernel events actually executed across the whole run —
        # memo hits contribute nothing (that is the point).
        self.sim_events = 0
        self._arrivals_factory = arrivals_factory
        self._arrivals_key = arrivals_key
        self._overflow = overflow
        self._channel = channel if channel is not None else DEFAULT_CHANNEL
        # Simulated start time of the period being measured; drives the
        # arrival envelope under open-loop workloads.
        self._period_t0 = 0.0
        # The last measured period's DesResult (None before the first):
        # its offered and mean utilization and its admitted source rate
        # are what the scenario report and the job layer read.
        self.last_result: Optional[DesResult] = None
        self._m_offered_util = self._hub.registry.gauge(
            "des.offered_utilization",
            "fraction of the offered open-loop load the PE admitted "
            "in the last measured period",
        )

    @property
    def _profiler_period_s(self) -> float:
        return self.measure_s / _PROFILER_SAMPLES_PER_WINDOW

    @property
    def _continuous_profiling(self) -> bool:
        """Whether measurement runs carry the profiler thread."""
        return self.profile_from_execution and self.sampled_profiling

    @property
    def _open_loop(self) -> bool:
        return self._arrivals_factory is not None

    @property
    def _cacheable(self) -> bool:
        """Open-loop periods are memoizable only when the arrival
        process declared a hashable identity."""
        return not self._open_loop or self._arrivals_key is not None

    def _measure_key(self, kind: str, profiled: bool) -> Tuple:
        queued = tuple(sorted(self.placement.queued))
        key = (
            kind,
            cache.graph_fingerprint(self.graph),
            queued,
            # Without a scheduler queue the engine spawns no scheduler
            # thread, so the thread count cannot change the outcome.
            self.threads if queued else 0,
            cache.machine_fingerprint(self.machine),
            self.config.seed,
            self.warmup_s,
            self.measure_s,
            self.queue_capacity,
            profiled,
            self.sampled_profiling if profiled else None,
            self._profiler_period_s if profiled else None,
            self._channel.key(),
        )
        if self._open_loop:
            # The same configuration under a different envelope phase
            # (or drop policy) is a different measurement.
            key += (self._arrivals_key, self._period_t0, self._overflow)
        return key

    def _execute(
        self, kind: str, profiled: bool
    ) -> Tuple[DesResult, Optional[CostProfile]]:
        """Execute the current configuration once, memoized.

        Returns the period's result and, when ``profiled``, the
        execution profile its profiler thread collected (sampled or
        fine-grained per ``sampled_profiling``, which the memo key
        records).  A memo hit returns the stored pair without
        simulating a single event.
        """
        key = self._measure_key(kind, profiled) if self._cacheable else None
        if key is not None:
            hit, cached = cache.lookup(key, obs=self._hub)
            if hit:
                return cached
        arrivals = None
        if self._arrivals_factory is not None:
            arrivals = self._arrivals_factory(self._period_t0)
        engine = DesEngine(
            self.graph,
            self.machine,
            self.placement,
            self.threads,
            queue_capacity=self.queue_capacity,
            obs=self._hub,
            arrivals=arrivals,
            overflow=self._overflow,
            channel=self._channel,
        )
        profiler = None
        if profiled:
            profiler = engine.attach_profiler(
                period_s=self._profiler_period_s,
                sampled=self.sampled_profiling,
            )
        result = engine.run(warmup_s=self.warmup_s, measure_s=self.measure_s)
        self.sim_events += engine.sim.events_processed
        value = (
            result,
            None if profiler is None else profiler.profile(len(self.graph)),
        )
        if key is not None:
            cache.store(key, value)
        return value

    def _profile_groups(self) -> List[ProfilingGroup]:
        if not self.profile_from_execution:
            return build_groups(
                self.graph, self._profiler.profile(self.graph)
            )
        if self._continuous_profiling and self._last_profile is not None:
            # The paper's actual mechanism (§3.1): the profiler thread
            # snapshots the per-thread state variables *during normal
            # execution* — the measurement run the coordinator just
            # observed already carried it, so reuse that profile.
            return build_groups(self.graph, self._last_profile)
        # Dedicated profiling run: fine-grained profiling cannot ride
        # inside the measurement (it would perturb it), and a sampled
        # run may be asked for a profile before any period was measured.
        profile = self._execute("des.profile", True)[1]
        if self._continuous_profiling:
            self._last_profile = profile
        return build_groups(self.graph, profile)

    # ------------------------------------------------------------------
    def measure(self) -> Tuple[float, float]:
        """One adaptation period: execute the current configuration and
        return its ``(observed, true)`` sink throughput — the same
        figure twice, as the simulation has no measurement noise.

        Memoized: the DES is deterministic in the cell key, so a
        configuration the run (or a sibling variant) has already
        measured returns the cached result — and, under
        ``profile_from_execution``, the cached execution profile —
        without simulating a single event.
        """
        profiled = self._continuous_profiling
        result, profile = self._execute("des.measure", profiled)
        if profiled:
            self._last_profile = profile
        self.last_result = result
        # Open-loop honesty: an underloaded PE reports its offered-load
        # utilization rather than letting a low absolute throughput be
        # mistaken for contention by whoever reads the trace.
        if result.open_loop:
            self._m_offered_util.set(result.offered_utilization)
        return result.sink_tuples_per_s, result.sink_tuples_per_s

    def _phase_token(self):
        """Workload-phase component of the warm-start store key.

        Closed-loop runs have exactly one phase ("saturated").  Open-
        loop runs key on the envelope rate at the current period's
        start, quantized so a phase revisited at a near-identical
        offered rate (the next diurnal cycle, the next ON burst)
        shares its store entry; without a rate oracle the arrival
        key's full identity is the conservative fallback.
        """
        if not self._open_loop:
            return "saturated"
        spec = self._warm_spec
        if spec is not None and spec.phase_rate is not None:
            return ("rate", quantize_rate(spec.phase_rate(self._period_t0)))
        return ("open", self._arrivals_key)

    def set_arrivals(self, factory, key: Optional[Tuple]) -> None:
        """Swap the arrival schedule between periods.

        The job layer couples a downstream PE's offered load to its
        upstream's *measured* emission: before each period it derives a
        fresh constant-rate schedule and installs it here.  ``key``
        must identify the schedule for the measurement cache (pass
        None to disable memoization for unidentifiable schedules).
        """
        self._arrivals_factory = factory
        self._arrivals_key = key

    def _set_graph(self, graph: StreamGraph) -> None:
        self.placement.validate(graph)
        self.graph = graph

    def _set_threads(self, n: int) -> None:
        self.threads = n

    def _set_placement(self, placement: QueuePlacement) -> None:
        self.placement = placement

    def step_period(self, k: int) -> float:
        """Execute adaptation period ``k`` (1-based) through the loop.

        ``run`` drives this in a loop; the multi-PE job executor
        drives several runners' periods in lockstep instead, injecting
        fresh arrival schedules between calls (:meth:`set_arrivals`).
        """
        # Arrival envelopes advance with the adaptation clock: the
        # k-th period's engine sees the schedule from (k-1)·T on.
        self._period_t0 = (k - 1) * self.period_s
        return super().step_period(k)
