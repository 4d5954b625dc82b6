"""Multi-PE jobs: independent elasticity per PE, coupled by dataflow.

The paper scopes its mechanism to a single PE but notes that "all PEs
in a job independently use the proposed work to maximize their
performance" (§2).  This module models exactly that setting for a chain
of PEs on separate hosts:

- each PE runs its *own* multi-level coordinator on its *own* machine —
  no cross-PE coordination, as in the paper;
- PEs are coupled only through dataflow: downstream PE *i*'s source
  cannot ingest faster than upstream PE *i-1* currently emits, modeled
  by capping the downstream source's ``max_rate`` at the upstream's
  converged throughput (network backpressure);
- the job adapts in *rounds*: every PE runs its adaptation loop to
  stability, then the inter-PE rate caps are refreshed and any PE whose
  input rate changed materially re-adapts (its workload-change detector
  would fire on exactly this signal in a live system).

Job throughput is the sink PE's converged throughput.  The fixed point
exists because throughput caps are monotone (a PE's converged
throughput is non-decreasing in its input cap) and bounded.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..graph.model import StreamGraph
from ..perfmodel.machine import MachineProfile
from .config import RuntimeConfig
from .executor import AdaptationExecutor
from .pe import ProcessingElement


@dataclass(frozen=True)
class PeStageResult:
    """Converged state of one PE in the chain."""

    name: str
    throughput: float
    input_cap: Optional[float]
    threads: int
    n_queues: int


@dataclass(frozen=True)
class JobResult:
    """Outcome of a multi-PE adaptation."""

    stages: Tuple[PeStageResult, ...]
    job_throughput: float
    rounds: int

    @property
    def bottleneck_stage(self) -> str:
        return min(self.stages, key=lambda s: s.throughput).name


def _cap_sources(graph: StreamGraph, cap: Optional[float]) -> StreamGraph:
    """Return a copy of ``graph`` with every source capped at ``cap``.

    A ``None`` cap removes any existing cap.  Uses the operator table
    rebuild path (graphs are immutable).
    """
    from ..graph.model import Operator

    new_ops: List[Operator] = []
    for op in graph:
        if op.is_source:
            new_ops.append(
                Operator(
                    index=op.index,
                    name=op.name,
                    cost_flops=op.cost_flops,
                    kind=op.kind,
                    selectivity=op.selectivity,
                    uses_lock=op.uses_lock,
                    fanout=op.fanout,
                    max_rate=cap,
                )
            )
        else:
            new_ops.append(op)
    return StreamGraph(
        new_ops,
        graph.edges,
        tuple_spec=graph.tuple_spec,
        name=graph.name,
    )


class Job:
    """A chain of PEs, each elastically adapting on its own host."""

    def __init__(
        self,
        stages: Sequence[Tuple[StreamGraph, MachineProfile]],
        config: Optional[RuntimeConfig] = None,
        rate_change_tolerance: float = 0.10,
    ) -> None:
        if not stages:
            raise ValueError("a job needs at least one PE stage")
        self.stages = list(stages)
        self.config = config if config is not None else RuntimeConfig()
        self.rate_change_tolerance = rate_change_tolerance

    # ------------------------------------------------------------------
    def _adapt_stage(
        self,
        graph: StreamGraph,
        machine: MachineProfile,
        input_cap: Optional[float],
        seed_offset: int,
        duration_s: float,
    ) -> Tuple[float, int, int]:
        capped = (
            _cap_sources(graph, input_cap)
            if input_cap is not None
            else graph
        )
        config = RuntimeConfig(
            cores=machine.logical_cores,
            seed=self.config.seed + seed_offset,
            noise_std=self.config.noise_std,
            elasticity=self.config.elasticity,
        )
        pe = ProcessingElement(capped, machine, config)
        executor = AdaptationExecutor(pe)
        result = executor.run(
            executor.periods_for(duration_s), stop_after_stable_periods=16
        )
        return (
            result.converged_throughput,
            result.final_threads,
            result.final_n_queues,
        )

    def run(
        self,
        duration_s_per_stage: float = 20_000.0,
        max_rounds: int = 5,
    ) -> JobResult:
        """Adapt every PE, propagating inter-PE rate caps to a fixed
        point (at most ``max_rounds`` sweeps)."""
        n = len(self.stages)
        caps: List[Optional[float]] = [None] * n
        throughputs: List[float] = [0.0] * n
        threads: List[int] = [0] * n
        queues: List[int] = [0] * n
        rounds = 0
        for round_idx in range(max_rounds):
            rounds = round_idx + 1
            changed = False
            for i, (graph, machine) in enumerate(self.stages):
                # Seed per stage, NOT per round: re-adapting an
                # unchanged stage must reproduce the same result or the
                # fixed-point detection never terminates early.
                t, thr, q = self._adapt_stage(
                    graph,
                    machine,
                    caps[i],
                    seed_offset=17 * i,
                    duration_s=duration_s_per_stage,
                )
                if throughputs[i] == 0.0 or (
                    abs(t - throughputs[i])
                    > self.rate_change_tolerance * max(throughputs[i], 1e-9)
                ):
                    changed = True
                throughputs[i], threads[i], queues[i] = t, thr, q
                # The downstream PE's ingest is bounded by what this
                # stage emits (per downstream source).
                if i + 1 < n:
                    downstream_sources = max(
                        1, len(self.stages[i + 1][0].sources)
                    )
                    caps[i + 1] = t / downstream_sources
            if not changed:
                break
        stage_results = tuple(
            PeStageResult(
                name=graph.name,
                throughput=throughputs[i],
                input_cap=caps[i],
                threads=threads[i],
                n_queues=queues[i],
            )
            for i, (graph, _machine) in enumerate(self.stages)
        )
        return JobResult(
            stages=stage_results,
            job_throughput=throughputs[-1],
            rounds=rounds,
        )
