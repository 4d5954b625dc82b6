"""repro.job — multi-PE job graphs on either substrate.

The paper scopes its elasticity mechanism to one PE and notes that
"all PEs in a job independently use the proposed work" (§2).  This
package models that setting once, for the tuple-level DES and the
analytical model alike:

- :mod:`repro.job.graph` partitions one scenario topology into a DAG
  of PE subgraphs with materialized inter-PE channels
  (:class:`JobGraph`);
- :mod:`repro.job.partition` routes tuples across downstream replicas
  (forward / round-robin / shuffle / key-hash / broadcast, all
  deterministic under a seed);
- :mod:`repro.job.coordinator` is the job-level control loop that
  scales elastic PEs out/in and arbitrates a shared thread budget —
  while every PE keeps its *own* §3.1–3.3 multi-level coordinator;
- :mod:`repro.job.executor` runs one adaptation loop per PE (a DES
  runner or a perfmodel executor, per ``backend``) in lockstep
  periods, coupling downstream offered load to upstream emission.

Import direction: this package imports :mod:`repro.scenarios.schema`
(for the partition and backend vocabulary), :mod:`repro.des` and
:mod:`repro.runtime`; the scenario *runner* imports us lazily.
Nothing here imports
:mod:`repro.scenarios.run` or :mod:`repro.scenarios.compile`.
"""

from .coordinator import JobCoordinator, PeSummary
from .executor import JobAdaptationResult, JobAdaptationRunner
from .graph import JobChannel, JobGraph, JobGraphError, PeSubgraph
from .partition import (
    BroadcastRouter,
    ForwardRouter,
    KeyHashRouter,
    Router,
    RoundRobinRouter,
    ShuffleRouter,
    make_router,
)

__all__ = [
    "JobCoordinator",
    "PeSummary",
    "JobAdaptationResult",
    "JobAdaptationRunner",
    "JobChannel",
    "JobGraph",
    "JobGraphError",
    "PeSubgraph",
    "Router",
    "ForwardRouter",
    "RoundRobinRouter",
    "ShuffleRouter",
    "KeyHashRouter",
    "BroadcastRouter",
    "make_router",
]
