"""Lockstep multi-PE adaptation on either substrate.

The :class:`JobAdaptationRunner` drives one PE runner per PE of a
:class:`~repro.job.graph.JobGraph` through the *same* sequence of
adaptation periods, coupling them through the job's channels.  The
``backend`` picks the substrate every PE runs on:

- ``des`` — a :class:`DesPe`, the tuple-level
  :class:`~repro.des.adaptation.DesAdaptationRunner`, whose ingress
  pseudo-sources get a derived *constant-rate* arrival schedule;
- ``perfmodel`` — a :class:`PerfmodelPe`, the analytical
  :class:`~repro.runtime.executor.AdaptationExecutor`, whose ingress
  pseudo-sources are capped at the derived rate through their
  ``max_rate``.

Either way:

- every PE keeps its own multi-level coordinator (its own seed,
  derived as ``config.seed + 17*i`` in PE topological order, so PEs
  never share random decisions) and publishes into the shared hub
  through a ``pe.<name>`` scope.  ``machine`` is one host profile or
  a PE-name -> profile mapping (heterogeneous hosts);
- each period runs in PE-topological order: before a PE's period, its
  ingress rate is the upstream PE's *true* emission (noise-free on
  the model) split by the channel's partition routing — the hottest
  replica's share, since the simulated replica stands in for the
  hottest one;
- ``forward`` channels do no rate shaping at all: the downstream PE
  runs saturated, byte-identical to a standalone run of its extracted
  subgraph (the multi-PE equivalence tests pin this);
- after all PEs step, the :class:`~repro.job.coordinator.
  JobCoordinator` scales elastic PEs' replica counts out/in from
  their offered-load utilization, under an optional job-wide thread
  budget.

Replication model: one **representative replica** per PE is actually
simulated — the hottest one, offered ``channel_rate * max_share``.
The PE's aggregate emission is the replica's measured emission times
the channel's ``effective_replicas`` (``sum(shares)/max(shares)``):
when every replica keeps up emission is proportional to share, and
when the hottest saturates the cooler replicas still keep up, so the
hottest is the binding constraint either way.  This keeps a job with
8-way replication as cheap to simulate as its single-replica version
while preserving the skew effects that make partitioning interesting
(a key-hash hot spot caps effective parallelism below R).

PEs step in topological order inside each period, so an upstream
emission is already measured by the time its consumer's schedule is
derived — shaped channels couple from the very first period.  Derived
rates are quantized to 4 significant digits so the measurement
memoizer sees stable keys across periods that converged to the same
coupling.

Parallel execution (``jobs > 1``): PEs whose ingress schedules are
mutually independent this period — the same channel-topology wave,
i.e. every shaped upstream already measured in an earlier wave —
dispatch concurrently to a sticky :class:`~repro.runtime.pool.
WorkerPool`.  Each worker owns its PEs' runners for the whole run
(simulator and coordinator state never pickle between periods; only
ingress rates out and small report records back), and the parent
re-homes every worker-side decision, metric and memo cell in
deterministic PE order at the end of the period, so a parallel run is
byte-identical to a sequential one.  ``forward`` jobs have no
coupling at all, so every PE lands in one wave.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Mapping, Optional, Tuple, Union

from ..bench import cache
from ..core.warmstart import PhaseRecord, PhaseStore, WarmStartSpec
from ..des.adaptation import DesAdaptationRunner
from ..des.channels import ChannelConfig
from ..obs.hub import Obs, ensure_hub
from ..obs.scope import scoped
from ..perfmodel.machine import MachineProfile
from ..runtime.config import RuntimeConfig
from ..runtime.events import AdaptationTrace, Observation
from ..runtime.executor import AdaptationExecutor
from ..runtime.loop import ElasticLoop, ExecutionResult
from ..runtime.pe import ProcessingElement
from ..runtime.pool import POOL_START_ERRORS, WorkerPoolError, job_workers
from ..scenarios.arrivals import ArrivalProcess
from ..scenarios.schema import (
    ArrivalKind,
    ArrivalSpec,
    Backend,
    PartitionStrategy,
)
from .coordinator import JobCoordinator, PeSummary
from .graph import JobGraph, PeSubgraph
from .partition import Router, make_router

# Seed stride between PE coordinators: PE i runs on seed + 17*i.
_PE_SEED_STRIDE = 17
# Seed stride between channel routers.
_CHANNEL_SEED_STRIDE = 1_000_003


# One host profile for every PE, or a PE-name -> profile mapping.
Machines = Union[MachineProfile, Mapping[str, MachineProfile]]


def _quantize(rate: float) -> float:
    """4 significant digits: stable cache keys, sub-SENS rate error."""
    return float(f"{rate:.4g}")


# ----------------------------------------------------------------------
# Per-PE construction and arrival plumbing, shared with the pool
# workers (repro.job.parallel): a worker must build *exactly* the
# runner the parent would, from the same picklable ingredients, or the
# byte-identity guarantee breaks.
# ----------------------------------------------------------------------
def pe_seed(config: RuntimeConfig, index: int) -> int:
    """Seed of the ``index``-th PE (topological order)."""
    return config.seed + _PE_SEED_STRIDE * index


def real_arrivals(
    job: JobGraph,
    arrivals_factory,
    arrivals_key: Optional[Tuple],
    pe: PeSubgraph,
) -> Tuple:
    """Scenario open-loop arrivals for this PE's real sources, re-keyed
    from full-graph source indices to this PE's subgraph indices.

    Returns ``(factory, cache_key)``; both are None when the scenario
    is closed-loop or the PE has only ingress pseudo-sources, and the
    key is None when the scenario's arrivals carry no identity.
    """
    if arrivals_factory is None:
        return None, None
    full = job.full_graph
    mapping = []  # (full_index, sub_index)
    for op in pe.graph.sources:
        if op.name.startswith("in:"):
            continue
        mapping.append((full.by_name(op.name).index, op.index))
    if not mapping:
        return None, None

    def pe_factory(t0: float):
        streams = arrivals_factory(t0)
        return {
            sub_idx: streams[full_idx]
            for full_idx, sub_idx in mapping
            if full_idx in streams
        }

    if arrivals_key is None:
        return pe_factory, None
    return pe_factory, ("job-real", pe.name, arrivals_key)


def derived_arrivals(
    pe_name: str,
    seed: int,
    rates: Optional[Dict[int, float]],
    real: Tuple,
):
    """This period's arrival schedule for one PE: derived constant-rate
    streams on the ingress pseudo-sources, merged with the PE's
    real-source scenario arrivals ``real`` (see :func:`real_arrivals`).
    Returns ``(factory, cache_key)``."""
    if rates is None:
        return real
    real_factory, real_key = real
    procs = {
        idx: ArrivalProcess(
            ArrivalSpec(kind=ArrivalKind.DETERMINISTIC, rate=rate),
            seed=seed + idx,
        )
        for idx, rate in rates.items()
        if rate > 0.0
    }

    def factory(t0: float):
        streams = {
            idx: proc.arrival_stream(t0)
            for idx, proc in procs.items()
        }
        if real_factory is not None:
            streams.update(real_factory(t0))
        return streams

    key: Tuple = (
        "job-ingress",
        pe_name,
        tuple(sorted(rates.items())),
    )
    if real_key is not None:
        key += (real_key,)
    return factory, key


class DesPe(DesAdaptationRunner):
    """A job PE on the tuple-level DES: before each period its ingress
    pseudo-sources get the derived constant-rate schedule
    (:func:`derived_arrivals`), merged with its real-source arrivals
    ``real`` (:func:`real_arrivals`)."""

    def __init__(
        self, pe: PeSubgraph, real: Tuple, machine, config, obs, **kwargs
    ) -> None:
        super().__init__(
            pe.graph,
            machine,
            config,
            obs=obs,
            arrivals_factory=real[0],
            arrivals_key=real[1],
            **kwargs,
        )
        self._pe_name = pe.name
        self._real = real

    def install_ingress(self, rates: Optional[Dict[int, float]]) -> None:
        self.set_arrivals(
            *derived_arrivals(
                self._pe_name, self.config.seed, rates, self._real
            )
        )

    def utilization(
        self, rates: Optional[Dict[int, float]]
    ) -> Tuple[float, float]:
        """``(offered, mean)`` utilization of the last period.

        Under a derived ingress rate, admitted over installed is
        authoritative: the engine's own offered figure is blind under
        ``block`` overflow (a backpressured source stops pulling the
        schedule, so offered ≈ admitted ≈ 1.0), but the executor
        *chose* the offered rate.
        """
        result = self.last_result
        util = result.offered_utilization
        installed = sum(rates.values()) if rates else None
        if installed is not None and installed > 0.0:
            util = min(util, result.source_tuples_per_s / installed)
        return min(1.0, util), result.mean_utilization


class PerfmodelPe(AdaptationExecutor):
    """A job PE on the analytical model: its ingress pseudo-sources
    are capped at the derived channel rate through their ``max_rate``
    (a zero or missing rate lifts the cap, as an unscheduled DES
    source runs saturated)."""

    def __init__(self, pe: PeSubgraph, machine, config, obs) -> None:
        super().__init__(
            ProcessingElement(pe.graph, machine, config), obs=obs
        )
        self._caps = {pe.ingress_index(name): None for name in pe.ingress}

    def install_ingress(self, rates: Optional[Dict[int, float]]) -> None:
        caps = {idx: (rates or {}).get(idx) or None for idx in self._caps}
        if caps != self._caps:
            self._caps = caps
            self.pe.set_graph(self.pe.graph.with_source_rates(caps))

    def utilization(
        self, rates: Optional[Dict[int, float]]
    ) -> Tuple[float, float]:
        """``(offered, mean)``: admitted over installed ingress rate,
        and throughput over the tightest bound other than the source
        rate (how busy the binding resource is)."""
        est = self.pe.estimate()
        installed = sum(rates.values()) if rates else 0.0
        offered = est.throughput / installed if installed > 0.0 else 1.0
        capacity = min(
            est.serial_bound,
            est.source_class_bound,
            est.scheduler_class_bound,
            est.memory_bound,
        )
        mean = est.throughput / capacity if capacity > 0.0 else 1.0
        return min(1.0, offered), mean


def build_pe_runner(
    job: JobGraph,
    index: int,
    backend: Backend,
    machine: Machines,
    config: RuntimeConfig,
    des_kwargs: Dict,
    obs: Optional[Obs],
    warm_spec: Optional[WarmStartSpec],
):
    """The ``index``-th PE's runner on ``backend``, identical whether
    built in the parent or in a pool worker (given the same picklable
    arguments).  Its config carries the PE's own seed
    (:func:`pe_seed`) and, when ``machine`` maps PE names to hosts,
    its host's core count.  ``des_kwargs`` are the DES runner's
    keywords, with the full-graph ``arrivals_factory``/``arrivals_key``
    re-keyed per PE (:func:`real_arrivals`)."""
    pe = job.pes[index]
    config = replace(config, seed=pe_seed(config, index))
    if not isinstance(machine, MachineProfile):
        machine = machine[pe.name]
        config = replace(config, cores=machine.logical_cores)
    obs = scoped(obs, f"pe.{pe.name}")
    if backend is Backend.PERFMODEL:
        runner = PerfmodelPe(pe, machine, config, obs)
    else:
        kwargs = dict(des_kwargs)
        real = real_arrivals(
            job,
            kwargs.pop("arrivals_factory"),
            kwargs.pop("arrivals_key"),
            pe,
        )
        runner = DesPe(pe, real, machine, config, obs, **kwargs)
    if warm_spec is not None:
        runner.set_warm_start(warm_spec)
    return runner


def step_pe(runner, k: int, rates: Optional[Dict[int, float]]) -> Dict:
    """Adaptation period ``k`` of one PE (a :class:`DesPe` or a
    :class:`PerfmodelPe`) under this period's ingress ``rates`` (None:
    the PE runs on its real sources alone).

    The one per-PE step of both execution paths: the sequential loop
    calls it in-process, a pool worker calls it and adds what the
    parent must re-home.  ``true`` is the period's noise-free sink
    throughput, which the channels couple on.
    """
    runner.install_ingress(rates)
    observed = runner.step_period(k)
    offered, mean = runner.utilization(rates)
    return {
        "observed": observed,
        "true": runner.trace.observations[-1].true_throughput,
        "threads": runner.threads,
        "n_queues": runner.placement.n_queues,
        "stable": runner.coordinator.is_stable,
        "offered_utilization": offered,
        "mean_utilization": mean,
    }


@dataclass(frozen=True)
class JobAdaptationResult:
    """Outcome of a multi-PE elastic run.

    Carries the loop's result shape: ``final_threads``/
    ``final_n_queues`` aggregate over PEs (replica-weighted),
    ``converged_throughput`` is the job's real-sink emission.
    """

    trace: AdaptationTrace
    pe_results: Dict[str, ExecutionResult]
    final_replicas: Dict[str, int]
    final_threads: int
    final_n_queues: int
    converged_throughput: float


class JobAdaptationRunner(ElasticLoop):
    """Runs a job graph's PEs in lockstep adaptation periods.

    An :class:`~repro.runtime.loop.ElasticLoop` with its own
    ``step_period``: one period steps every PE, then the job
    coordinator; the loop supplies ``run`` and the stable-streak stop.
    Every PE runs on ``backend``; the DES keywords (``warmup_s`` to
    ``channel``) only reach DES PEs.
    """

    def __init__(
        self,
        job: JobGraph,
        machine: Machines,
        config: Optional[RuntimeConfig] = None,
        warmup_s: float = 0.002,
        measure_s: float = 0.01,
        queue_capacity: int = 16,
        profile_from_execution: bool = False,
        sampled_profiling: bool = True,
        obs: Optional[Obs] = None,
        arrivals_factory=None,  # full-graph t0 -> {source_index: iter}
        arrivals_key: Optional[Tuple] = None,
        overflow: str = "block",
        channel: Optional[ChannelConfig] = None,
        thread_budget: Optional[int] = None,
        jobs: Optional[int] = None,
        backend: Backend = Backend.DES,
    ) -> None:
        self.job = job
        self.machine = machine
        self.backend = backend
        config = config if config is not None else RuntimeConfig()
        super().__init__(
            config,
            obs,
            coordinator=JobCoordinator(
                obs=ensure_hub(obs), thread_budget=thread_budget
            ),
        )
        # Worker-pool width: the ``jobs`` argument (e.g. the CLI's
        # ``--jobs``) wins, then REPRO_JOB_WORKERS, then 1 (sequential).
        self.jobs = job_workers(jobs)
        # DES PE keywords (the perfmodel substrate takes none).
        self._des_kwargs = dict(
            warmup_s=warmup_s,
            measure_s=measure_s,
            queue_capacity=queue_capacity,
            profile_from_execution=profile_from_execution,
            sampled_profiling=sampled_profiling,
            arrivals_factory=arrivals_factory,
            arrivals_key=arrivals_key,
            overflow=overflow,
            channel=channel,
        )
        # JOB-level posterior: converged replica counts per phase.
        self._job_store = self._make_job_store()
        self._job_recorded = False
        self.replicas: Dict[str, int] = {
            pe.name: pe.replicas for pe in job.pes
        }
        self.runners = {
            pe.name: build_pe_runner(
                job,
                i,
                backend,
                machine,
                self.config,
                self._des_kwargs,
                self._hub,
                self._warm_spec,
            )
            for i, pe in enumerate(job.pes)
        }
        self._routers: Dict[int, Router] = {}
        self._rebuild_routers()
        # Aggregate emission (tuples/s over all sinks x all replicas)
        # per PE, from the most recent period; None = not yet measured.
        self._emission: Dict[str, Optional[float]] = {
            pe.name: None for pe in job.pes
        }
        # Each PE's report from the last completed period (see
        # step_pe), whether it stepped in-process or in a worker.
        self._reports: Dict[str, Dict] = {}
        # Live parallel session while run() drives a worker pool, and
        # the per-PE results it fetched at the end of the run.
        self._session = None
        self._pe_results: Optional[Dict[str, ExecutionResult]] = None

    # ------------------------------------------------------------------
    # warm start
    # ------------------------------------------------------------------
    def set_warm_start(self, spec: Optional[WarmStartSpec]) -> None:
        """Install (or clear) warm-start on every per-PE runner and on
        the job-level replica posterior.  Pool workers spawned later
        receive the same spec, so they build identically-seeded
        runners (the spec is picklable by design)."""
        self._warm_spec = spec
        for runner in self.runners.values():
            runner.set_warm_start(spec)
        self._job_store = self._make_job_store()

    def _make_job_store(self) -> Optional[PhaseStore]:
        spec = self._warm_spec
        if spec is None or spec.mode not in ("history", "auto"):
            return None
        return PhaseStore(spec.store_dir)

    def _job_phase_key(self) -> str:
        """Fingerprint of (job topology, machine, config): the key the
        converged replica assignment is remembered under.  Replica
        counts are a coarse knob, so the job-level phase token is
        constant — per-PE stores carry the workload-phase dimension."""
        pes = tuple(
            (
                pe.name,
                cache.graph_fingerprint(pe.graph),
                pe.replicas,
                pe.max_replicas,
                pe.elastic,
            )
            for pe in self.job.pes
        )
        channels = tuple(
            (c.src_pe, c.dst_pe, c.dst_source, c.weight)
            for c in self.job.channels
        )
        return cache.fingerprint(
            "warm-job",
            pes,
            channels,
            self.job.partition.strategy.value,
            cache.machine_fingerprint(self.machine),
            cache.config_fingerprint(self.config),
        )

    def _maybe_warm_replicas(self) -> None:
        """Posterior snap-back at the JOB level: restore the converged
        replica assignment recorded for this (job, machine, config)."""
        if self._job_store is None:
            return
        record = self._job_store.lookup(self._job_phase_key())
        if record is None or not record.replicas:
            return
        by_name = {pe.name: pe for pe in self.job.pes}
        changed = False
        for name, count in record.replicas:
            pe = by_name.get(name)
            if pe is None or not pe.elastic:
                continue
            count = max(1, min(pe.max_replicas, int(count)))
            if self.replicas[name] != count:
                self.replicas[name] = count
                changed = True
        if changed:
            self._rebuild_routers()
            self._hub.registry.counter(
                "warmstart.job_replica_hits",
                "job-level warm replica restores",
            ).inc()

    def _record_job_point(self, job_throughput: float) -> None:
        self._job_recorded = True
        total = self._total_threads()
        self._job_store.record(
            self._job_phase_key(),
            PhaseRecord(
                threads=total,
                queued=(),
                throughput=job_throughput,
                thread_range=(total, total),
                replicas=tuple(sorted(self.replicas.items())),
            ),
        )

    # ------------------------------------------------------------------
    # arrival plumbing
    # ------------------------------------------------------------------
    def _router_seed(self, channel_index: int) -> int:
        base = self.job.partition.seed
        if base is None:
            base = self.config.seed
        return base + _CHANNEL_SEED_STRIDE * channel_index

    def _rebuild_routers(self) -> None:
        """(Re)build one router per channel against the destination
        PE's *current* replica count."""
        for i, c in enumerate(self.job.channels):
            self._routers[i] = make_router(
                self.job.partition.strategy,
                self.replicas[c.dst_pe],
                seed=self._router_seed(i),
                key_space=self.job.partition.key_space,
            )

    def _ingress_schedule(
        self, pe: PeSubgraph
    ) -> Tuple[Optional[Dict[int, float]], float]:
        """Per-ingress offered rates for the representative replica.

        Returns ``(rates, effective_replicas)``.  ``rates`` is None
        when the PE runs saturated this period: pass-through
        (forward) channels never shape, and shaped channels cannot
        before their upstream has been measured once.
        """
        effective = float(self.replicas[pe.name])
        if self.job.partition.strategy is PartitionStrategy.FORWARD:
            return None, effective
        rates: Dict[int, float] = {}
        for i, c in enumerate(self.job.channels):
            if c.dst_pe != pe.name:
                continue
            upstream = self._emission[c.src_pe]
            if upstream is None:
                return None, effective
            router = self._routers[i]
            effective = min(effective, router.effective_replicas)
            idx = pe.ingress_index(c.dst_source)
            rate = _quantize(upstream * c.weight * router.max_share)
            rates[idx] = rates.get(idx, 0.0) + rate
        if not rates:
            return None, effective
        return rates, effective

    # ------------------------------------------------------------------
    # parallel dispatch topology
    # ------------------------------------------------------------------
    def _waves(self) -> Tuple[Tuple[PeSubgraph, ...], ...]:
        """PEs grouped into concurrently-dispatchable waves.

        A PE's ingress schedule for period ``k`` is fixed as soon as
        every shaped upstream has been measured *this* period, so a
        wave is one channel-topology layer: all its members' derived
        rates are already quantized and installed by the time it
        dispatches.  ``forward`` jobs never shape, so every PE's
        schedule is fixed a priori — one wave, maximal parallelism.
        """
        if (
            self.job.partition.strategy is PartitionStrategy.FORWARD
            or not self.job.channels
        ):
            return (tuple(self.job.pes),)
        depth: Dict[str, int] = {}
        for pe in self.job.pes:  # topological order
            incoming = self.job.channels_into(pe.name)
            depth[pe.name] = 1 + max(
                (depth[c.src_pe] for c in incoming), default=-1
            )
        waves: List[Tuple[PeSubgraph, ...]] = []
        for level in range(max(depth.values()) + 1):
            wave = tuple(
                pe for pe in self.job.pes if depth[pe.name] == level
            )
            if wave:
                waves.append(wave)
        return tuple(waves)

    def _start_session(self):
        """Spin up the sticky worker pool, or None for the sequential
        path (requested width < 2, or pool infrastructure unavailable
        in this environment — same graceful degradation as
        :func:`repro.runtime.pool.run_cells`)."""
        n_workers = min(self.jobs, len(self.job.pes))
        if n_workers < 2:
            return None
        from .parallel import JobWorkerSession

        try:
            return JobWorkerSession(
                job=self.job,
                backend=self.backend,
                machine=self.machine,
                config=self.config,
                des_kwargs=self._des_kwargs,
                warm_spec=self._warm_spec,
                detached=not self._hub.enabled,
                n_workers=n_workers,
            )
        except POOL_START_ERRORS + (WorkerPoolError,):
            # A worker that cannot even construct its runners points
            # at the environment, not the workload: the sequential
            # path re-runs the same construction in-process, so a
            # genuine bug resurfaces there with a plain traceback.
            return None

    # ------------------------------------------------------------------
    # the lockstep loop
    # ------------------------------------------------------------------
    def step_period(self, k: int) -> float:
        """Run adaptation period ``k`` across every PE, couple the
        channels, then take one job-coordinator step.  Returns the
        job throughput observed this period."""
        time_s = k * self.period_s
        self._hub.tick(time_s)
        reports = self._period(k)
        # Ordered pass: re-home worker-side effects and build the
        # coordinator's view in deterministic PE order, so the merged
        # decision log is identical however the period executed.
        job_throughput = 0.0
        job_true = 0.0
        summaries: List[PeSummary] = []
        for pe in self.job.pes:
            rep = reports[pe.name]
            if self._session is not None:
                self._absorb_report(rep)
            weight = pe.real_sink_weight()
            job_throughput += rep["observed"] * rep["effective"] * weight
            job_true += rep["true"] * rep["effective"] * weight
            summaries.append(
                PeSummary(
                    name=pe.name,
                    replicas=self.replicas[pe.name],
                    max_replicas=pe.max_replicas,
                    elastic=pe.elastic,
                    offered_utilization=rep["offered_utilization"],
                    mean_utilization=rep["mean_utilization"],
                    threads=rep["threads"],
                    stable=rep["stable"],
                )
            )
        self._reports = reports
        action = self.coordinator.step(summaries, job_throughput)
        if action.changed:
            self.replicas.update(action.set_replicas)
            self._rebuild_routers()
        self._job_changed = action.changed
        if (
            self._job_store is not None
            and not self._job_recorded
            and self.is_stable
        ):
            self._record_job_point(job_throughput)
        self.trace.observations.append(
            Observation(
                time_s=time_s,
                throughput=job_throughput,
                true_throughput=job_true,
                threads=self._total_threads(),
                n_queues=self._total_queues(),
                mode="job",
            )
        )
        return job_throughput

    def _period(self, k: int) -> Dict[str, Dict]:
        """One period, wave by wave (:meth:`_waves`).

        Every PE of a wave gets its ingress rates and steps, in-process
        or fanned across the worker pool; only then does the wave
        publish its emission, so the next wave's derived rates see
        what the sequential loop (one PE per wave, in topological
        order) would have.  Everything hub-visible inside worker
        reports is deferred to the ordered pass in
        :meth:`step_period`.
        """
        session = self._session
        reports: Dict[str, Dict] = {}
        for wave in self._wave_list:
            stepped = []
            for pe in wave:
                rates, effective = self._ingress_schedule(pe)
                if session is None:
                    reports[pe.name] = step_pe(
                        self.runners[pe.name], k, rates
                    )
                else:
                    session.submit_step(pe.name, k, rates)
                stepped.append((pe, effective))
            for pe, effective in stepped:
                if session is not None:
                    reports[pe.name] = session.collect_step(pe.name)
                rep = reports[pe.name]
                rep["effective"] = effective
                self._emission[pe.name] = rep["true"] * effective
        return reports

    def _absorb_report(self, rep: Dict) -> None:
        """Re-home one worker report into the parent: replay decisions
        (the parent hub's clock assigns seq/period), merge scoped
        metric states and install fresh memo cells."""
        for fields in rep["decisions"]:
            self._hub.decision(**fields)
        if rep["metrics"] and self._hub.enabled:
            self._hub.registry.merge_state(rep["metrics"])
        if rep["cache"]:
            cache.install(rep["cache"])

    @property
    def offered_utilization(self) -> float:
        """The lowest offered-load utilization any PE reported in the
        last period (1.0 before the first)."""
        return min(
            (rep["offered_utilization"] for rep in self._reports.values()),
            default=1.0,
        )

    def _total_threads(self) -> int:
        return sum(
            rep["threads"] * self.replicas[name]
            for name, rep in self._reports.items()
        )

    def _total_queues(self) -> int:
        return sum(
            rep["n_queues"] * self.replicas[name]
            for name, rep in self._reports.items()
        )

    @property
    def is_stable(self) -> bool:
        """All PE coordinators settled and the job loop held still."""
        if len(self._reports) < len(self.job.pes):
            return False
        settled = all(rep["stable"] for rep in self._reports.values())
        return settled and not getattr(self, "_job_changed", False)

    def begin_run(self) -> None:
        """Reset per-run state, restore any warm replica counts and
        start the worker pool (or begin every PE runner in-process)."""
        super().begin_run()
        self._pe_results = None
        self._job_recorded = False
        self._reports = {}
        self._maybe_warm_replicas()
        self._session = self._start_session()
        if self._session is None:
            self._wave_list = tuple((pe,) for pe in self.job.pes)
            for runner in self.runners.values():
                runner.begin_run()
        else:
            self._wave_list = self._waves()
            self._session.begin()

    def end_run(self) -> None:
        if self._session is not None:
            self._session.close()
            self._session = None

    def result(self) -> JobAdaptationResult:
        if self._session is not None:
            self._pe_results = self._session.finish()
        if self._pe_results is not None:
            pe_results = dict(self._pe_results)
        else:
            pe_results = {
                name: runner.result()
                for name, runner in self.runners.items()
            }
        return JobAdaptationResult(
            trace=self.trace,
            pe_results=pe_results,
            final_replicas=dict(self.replicas),
            final_threads=self._total_threads(),
            final_n_queues=self._total_queues(),
            converged_throughput=self.trace.final_throughput(
                window=self.converged_window
            ),
        )
