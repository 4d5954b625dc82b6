"""Ablation experiments for the paper's design choices (§3.2, §3.1.1).

The paper argues for several design decisions qualitatively; these
ablations make each argument measurable:

- :func:`ablate_start_direction` — "adjustment direction": start from
  minimum parallelism (the paper's choice) vs. fully dynamic.  Starting
  fully dynamic removes queues from the *least* expensive operators
  first, a signal "often indistinguishable from system noise", so the
  search terminates early at a worse configuration.
- :func:`ablate_coordination` — iterative refinement vs. a one-shot
  sequence (one threading-model pass, then thread count alone).  Shows
  why the components must keep triggering each other.
- :func:`ablate_binning` — logarithmic group binning (O2) vs.
  per-operator groups: same destination, far longer settling.
- :func:`ablate_primary_order` — the paper's §3.2 "primary adjustment"
  decision: thread count primary (adopted) vs. threading model primary
  (rejected).  The rejected ordering re-runs a full thread-count climb
  to degradation for every threading-model trial, oversubscribing the
  system far more often during adaptation.
- :func:`ablate_sens` — the SENS threshold: too small chases noise
  (stability suffers), too large under-explores (accuracy suffers).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..core.binning import ProfilingGroup
from ..core.coordinator import MultiLevelCoordinator
from ..core.history import Direction
from ..core.saso import SasoReport, analyze
from ..graph.analysis import queueable_indices
from ..graph.model import StreamGraph
from ..perfmodel.machine import MachineProfile
from ..runtime.config import ElasticityConfig, RuntimeConfig
from ..runtime.events import AdaptationTrace
from ..runtime.executor import AdaptationExecutor
from ..runtime.pe import ProcessingElement
from ..runtime.queues import QueuePlacement


@dataclass(frozen=True)
class AblationResult:
    """Outcome of one ablation arm."""

    arm: str
    converged_throughput: float
    settling_time_s: float
    final_threads: int
    final_n_queues: int
    saso: SasoReport
    mean_threads: float = 0.0
    periods_at_max_threads: int = 0


def _run(
    graph: StreamGraph,
    machine: MachineProfile,
    config: RuntimeConfig,
    arm: str,
    initial_placement: Optional[QueuePlacement] = None,
    coordinator: Optional[MultiLevelCoordinator] = None,
    duration_s: float = 30_000.0,
) -> AblationResult:
    pe = ProcessingElement(graph, machine, config)
    if initial_placement is not None:
        pe.set_placement(initial_placement)
    executor = AdaptationExecutor(pe, coordinator=coordinator)
    if coordinator is not None and initial_placement is not None:
        # Seed the coordinator's threading-model state with the actual
        # starting placement so DOWN phases see the queues.
        groups = pe.profiling_groups()
        executor.coordinator.threading_model.set_groups(
            groups, initial_placement
        )
    result = executor.run(
        executor.periods_for(duration_s), stop_after_stable_periods=24
    )
    trace = result.trace
    return AblationResult(
        arm=arm,
        converged_throughput=result.converged_throughput,
        settling_time_s=trace.last_change_time(),
        final_threads=result.final_threads,
        final_n_queues=result.final_n_queues,
        saso=analyze(trace),
    )


# ----------------------------------------------------------------------
def ablate_start_direction(
    graph: StreamGraph,
    machine: MachineProfile,
    seed: int = 0,
) -> List[AblationResult]:
    """Start from no parallelism (paper) vs. full parallelism."""
    config = RuntimeConfig(cores=machine.logical_cores, seed=seed)
    minimum = _run(graph, machine, config, arm="start-minimum")

    # Fully dynamic start: every queue placed, maximum threads.
    full = QueuePlacement.full(graph)
    elasticity = ElasticityConfig(
        initial_threads=machine.logical_cores,
    )
    config_full = RuntimeConfig(
        cores=machine.logical_cores, seed=seed, elasticity=elasticity
    )
    pe = ProcessingElement(graph, machine, config_full)
    pe.set_placement(full)
    coordinator = MultiLevelCoordinator(
        config=elasticity,
        max_threads=machine.logical_cores,
        profile_provider=pe.profiling_groups,
        seed=seed,
    )
    coordinator.threading_model.set_groups(pe.profiling_groups(), full)
    executor = AdaptationExecutor(pe, coordinator=coordinator)
    result = executor.run(
        executor.periods_for(30_000.0), stop_after_stable_periods=24
    )
    maximum = AblationResult(
        arm="start-maximum",
        converged_throughput=result.converged_throughput,
        settling_time_s=result.trace.last_change_time(),
        final_threads=result.final_threads,
        final_n_queues=result.final_n_queues,
        saso=analyze(result.trace),
    )
    return [minimum, maximum]


# ----------------------------------------------------------------------
def ablate_coordination(
    graph: StreamGraph,
    machine: MachineProfile,
    seed: int = 0,
) -> List[AblationResult]:
    """Iterative refinement vs. one-shot (no re-triggering).

    The one-shot arm runs a single threading-model phase at the minimum
    thread count and then lets thread count elasticity run alone — the
    naive way to combine the two components.
    """
    config = RuntimeConfig(cores=machine.logical_cores, seed=seed)
    iterative = _run(graph, machine, config, arm="iterative")

    # One-shot: drive the components manually.
    from ..core.thread_count import ThreadCountElasticity
    from ..core.threading_model import ThreadingModelElasticity
    from ..perfmodel.noise import NoiseModel
    from ..perfmodel.throughput import PerformanceModel

    pe = ProcessingElement(graph, machine, config)
    model = PerformanceModel(graph, machine)
    noise = NoiseModel(std=config.noise_std, seed=seed)
    tm = ThreadingModelElasticity(
        seed=seed, sens=config.elasticity.sens
    )
    tm.set_groups(pe.profiling_groups())
    threads = config.elasticity.initial_threads
    periods = 0

    def observe(placement):
        return noise.observe(model.sink_throughput(placement, threads))

    placement = QueuePlacement.empty()
    step = tm.begin_phase(Direction.UP, observe(placement))
    while not step.done and periods < 500:
        periods += 1
        placement = step.placement
        step = tm.step(observe(placement))
    placement = step.placement

    tc = ThreadCountElasticity(
        min_threads=config.elasticity.min_threads,
        max_threads=machine.logical_cores,
        initial_threads=threads,
        sens=config.elasticity.sens,
    )
    while not tc.settled and periods < 1000:
        periods += 1
        proposal = tc.propose(
            noise.observe(model.sink_throughput(placement, tc.current))
        )
        if proposal is not None:
            threads = proposal
    one_shot_throughput = model.sink_throughput(placement, tc.current)
    one_shot = AblationResult(
        arm="one-shot",
        converged_throughput=one_shot_throughput,
        settling_time_s=periods * config.elasticity.adaptation_period_s,
        final_threads=tc.current,
        final_n_queues=placement.n_queues,
        # Driven outside the executor: no trace to analyze.
        saso=analyze(AdaptationTrace.empty()),
    )
    return [iterative, one_shot]


# ----------------------------------------------------------------------
def ablate_primary_order(
    graph: StreamGraph,
    machine: MachineProfile,
    seed: int = 0,
) -> List[AblationResult]:
    """Thread count primary (paper) vs. threading model primary."""
    from ..core.alt_coordinator import ThreadingPrimaryCoordinator

    config = RuntimeConfig(cores=machine.logical_cores, seed=seed)

    def _stats(result) -> AblationResult:
        trace = result.trace
        threads = [o.threads for o in trace.observations]
        at_max = sum(
            1 for t in threads if t >= machine.logical_cores
        )
        return AblationResult(
            arm="",
            converged_throughput=result.converged_throughput,
            settling_time_s=trace.last_change_time(),
            final_threads=result.final_threads,
            final_n_queues=result.final_n_queues,
            saso=analyze(trace),
            mean_threads=sum(threads) / len(threads) if threads else 0.0,
            periods_at_max_threads=at_max,
        )

    from dataclasses import replace as _replace

    pe = ProcessingElement(graph, machine, config)
    executor = AdaptationExecutor(pe)
    primary_threads = _replace(
        _stats(
            executor.run(
                executor.periods_for(30_000.0),
                stop_after_stable_periods=24,
            )
        ),
        arm="thread-count-primary",
    )

    pe2 = ProcessingElement(graph, machine, config)
    alt = ThreadingPrimaryCoordinator(
        config=config.elasticity,
        max_threads=machine.logical_cores,
        profile_provider=pe2.profiling_groups,
        seed=seed,
    )
    executor2 = AdaptationExecutor(pe2, coordinator=alt)
    primary_model = _replace(
        _stats(
            executor2.run(
                executor2.periods_for(30_000.0),
                stop_after_stable_periods=24,
            )
        ),
        arm="threading-model-primary",
    )
    return [primary_threads, primary_model]


# ----------------------------------------------------------------------
def ablate_binning(
    graph: StreamGraph,
    machine: MachineProfile,
    seed: int = 0,
) -> List[AblationResult]:
    """Logarithmic groups (O2) vs. one group per operator."""
    config = RuntimeConfig(cores=machine.logical_cores, seed=seed)
    grouped = _run(graph, machine, config, arm="log-binning")

    pe = ProcessingElement(graph, machine, config)

    def per_operator_groups() -> Sequence[ProfilingGroup]:
        profile = pe.profile()
        metrics = profile.as_dict()
        singles = [
            ProfilingGroup(
                members=(idx,),
                representative_metric=float(metrics.get(idx, 0)),
            )
            for idx in queueable_indices(graph)
        ]
        singles.sort(
            key=lambda g: g.representative_metric, reverse=True
        )
        return singles

    coordinator = MultiLevelCoordinator(
        config=config.elasticity,
        max_threads=machine.logical_cores,
        profile_provider=per_operator_groups,
        seed=seed,
    )
    executor = AdaptationExecutor(pe, coordinator=coordinator)
    result = executor.run(
        executor.periods_for(60_000.0), stop_after_stable_periods=24
    )
    per_op = AblationResult(
        arm="per-operator",
        converged_throughput=result.converged_throughput,
        settling_time_s=result.trace.last_change_time(),
        final_threads=result.final_threads,
        final_n_queues=result.final_n_queues,
        saso=analyze(result.trace),
    )
    return [grouped, per_op]


# ----------------------------------------------------------------------
def ablate_sens(
    graph: StreamGraph,
    machine: MachineProfile,
    sens_values: Sequence[float] = (0.01, 0.05, 0.20),
    noise_std: float = 0.03,
    seed: int = 0,
) -> Dict[float, AblationResult]:
    """Sweep the sensitivity threshold under elevated noise."""
    out: Dict[float, AblationResult] = {}
    for sens in sens_values:
        config = RuntimeConfig(
            cores=machine.logical_cores,
            seed=seed,
            noise_std=noise_std,
            elasticity=ElasticityConfig(sens=sens),
        )
        out[sens] = _run(graph, machine, config, arm=f"sens={sens}")
    return out
