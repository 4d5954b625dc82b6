"""Declarative scenario schema: the validated vocabulary of the zoo.

A *scenario* is everything needed to reproduce one elastic run: a graph
shape, an operator cost profile, a machine profile, a time-varying
open-loop workload and the run settings.  Scenarios are plain data —
stdlib dataclasses with enum-controlled vocabularies — so they travel
as YAML/JSON documents, round-trip losslessly and fail loudly with
errors that *name the offending field* ("workload.arrivals.rate: must
be > 0, got -5.0").

The schema deliberately mirrors the shape of AsyncFlow's Pydantic
``SimulationPayload`` (workload profile / topology graph / settings)
without the dependency.  A field's rules live on the dataclass that
owns it: its type annotation, its default (no default = required),
its bounds as :func:`_field` metadata and, for rules that span several
fields, the dataclass's ``_check(path)``.  :func:`scenario_from_dict`
applies them all through one generic decoder that rejects unknown
keys; every error names a dotted, indexed path
(``topology.edges[0][1]``) and every enum error lists the accepted
values.

Layers
------
- :class:`TopologySpec` — graph shape (pipeline / data-parallel fan /
  mixed / tree / diamond / custom node list) + cost profile + payload.
- :class:`WorkloadSpec` — the open-loop arrival process
  (:class:`ArrivalSpec` — saturated / deterministic / Poisson, with a
  :class:`ModulationSpec` rate envelope: diurnal, ON/OFF bursts, flash
  crowds, ramps) and the payload-size mix.
- :class:`MachineSpec` — named machine profile + core count.
- :class:`RunSpec` — backend, seed, measurement windows, queue
  capacity and overflow policy.
- :class:`ChannelSpec` — DES batched-channel knobs (batch size, flush
  timeout, prefetch, analytic fast-forward).
"""

from __future__ import annotations

import enum
import functools
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from typing import (
    Any,
    Dict,
    Mapping,
    Optional,
    Tuple,
    Union,
    get_args,
    get_origin,
    get_type_hints,
)

from ..core.warmstart import VALID_MODES
from ..graph.model import FanoutPolicy, OperatorKind


class ScenarioError(ValueError):
    """A scenario document violates the schema.

    Carries the dotted path of the offending field so tooling (and
    humans) can jump straight to it.
    """

    def __init__(self, path: str, message: str) -> None:
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}" if path else message)


def _field(
    default: Any = MISSING,
    *,
    positive: bool = False,
    nonnegative: bool = False,
    minimum: Optional[float] = None,
    choices: Tuple[str, ...] = (),
    nonempty: bool = False,
) -> Any:
    """A dataclass field carrying the bounds :func:`_decode` enforces.

    ``positive`` / ``nonnegative`` / ``minimum`` bound a number,
    ``choices`` closes a string vocabulary and ``nonempty`` rejects an
    empty string or list.  On a tuple field the rules also apply to
    every item.
    """
    return field(
        default=default,
        metadata=dict(
            positive=positive,
            nonnegative=nonnegative,
            minimum=minimum,
            choices=choices,
            nonempty=nonempty,
        ),
    )


# ----------------------------------------------------------------------
# enum vocabulary
# ----------------------------------------------------------------------
class TopologyShape(enum.Enum):
    PIPELINE = "pipeline"
    DATA_PARALLEL = "data_parallel"
    MIXED = "mixed"
    TREE = "tree"
    DIAMOND = "diamond"
    CUSTOM = "custom"


class CostKind(enum.Enum):
    BALANCED = "balanced"
    SKEWED = "skewed"


class ArrivalKind(enum.Enum):
    """How tuples enter the PE.

    ``SATURATED`` is the paper's implicit closed-loop assumption: the
    source always has a next tuple, so measured throughput equals
    capacity.  The other kinds are *open-loop*: tuples arrive on an
    external schedule, the source admits them when due, and throughput
    is bounded by offered load.
    """

    SATURATED = "saturated"
    DETERMINISTIC = "deterministic"
    POISSON = "poisson"


class ModulationKind(enum.Enum):
    """Time-varying shape applied to the base arrival rate."""

    NONE = "none"
    DIURNAL = "diurnal"
    ONOFF = "onoff"
    FLASH_CROWD = "flash_crowd"
    RAMP = "ramp"


class PayloadKind(enum.Enum):
    FIXED = "fixed"
    MIX = "mix"


class OverflowPolicy(enum.Enum):
    """What an open-loop source does when its ingress queue is full.

    ``BLOCK`` keeps the closed-loop backpressure semantics (the source
    stalls, helping drain downstream).  ``DROP`` is ingress load
    shedding: the tuple is discarded and counted
    (``des.dropped_tuples``), which is what lets bounded queues
    actually overflow under a burst instead of silently throttling the
    arrival process.
    """

    BLOCK = "block"
    DROP = "drop"


class Backend(enum.Enum):
    DES = "des"
    PERFMODEL = "perfmodel"
    BOTH = "both"


class MachineName(enum.Enum):
    XEON = "xeon"
    POWER8 = "power8"
    LAPTOP = "laptop"


class PartitionStrategy(enum.Enum):
    """How tuples route across the replicas of a downstream PE.

    Mirrors the partition-strategy vocabulary of streaming dataflow
    systems (Ray streaming's ``PStrategy``, Flink's partitioners):

    - ``forward``: pass-through to a single replica — the strategy a
      1:1 inter-PE edge uses; requires ``replicas == 1`` downstream.
    - ``round_robin``: tuple ``i`` goes to replica ``i mod R``.
    - ``shuffle``: seeded-hash of the tuple sequence number — a
      deterministic stand-in for random spraying.
    - ``key_hash``: seeded-hash of the tuple key over a synthetic
      ``key_space``; replica shares follow the key-popularity split.
    - ``broadcast``: every replica receives every tuple.

    Defined here (not in :mod:`repro.job`) so the scenario schema has
    no import edge into the job layer — the job layer imports *us*.
    """

    FORWARD = "forward"
    ROUND_ROBIN = "round_robin"
    SHUFFLE = "shuffle"
    KEY_HASH = "key_hash"
    BROADCAST = "broadcast"


# ----------------------------------------------------------------------
# topology
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CostSpec:
    """Per-operator cost profile for generated shapes."""

    kind: CostKind = CostKind.BALANCED
    flops: float = _field(100.0, nonnegative=True)
    heavy_fraction: float = _field(0.10, nonnegative=True)
    medium_fraction: float = _field(0.30, nonnegative=True)
    heavy_flops: float = _field(10_000.0, nonnegative=True)
    medium_flops: float = _field(100.0, nonnegative=True)
    light_flops: float = _field(1.0, nonnegative=True)
    seed: Optional[int] = None

    def _check(self, path: str) -> None:
        total = self.heavy_fraction + self.medium_fraction
        if total > 1.0:
            raise ScenarioError(
                f"{path}.heavy_fraction",
                "heavy_fraction + medium_fraction must be <= 1, got "
                f"{total}",
            )


_NODE_KINDS = tuple(k.value for k in OperatorKind)
_FANOUTS = tuple(f.value for f in FanoutPolicy)


@dataclass(frozen=True)
class NodeSpec:
    """One operator of a custom topology."""

    name: str = _field(nonempty=True)
    kind: str = _field("functional", choices=_NODE_KINDS)
    cost_flops: float = _field(100.0, nonnegative=True)
    selectivity: float = _field(1.0, nonnegative=True)
    uses_lock: bool = False
    fanout: str = _field("broadcast", choices=_FANOUTS)
    max_rate: Optional[float] = _field(None, positive=True)


@dataclass(frozen=True)
class TopologySpec:
    """Graph shape + parameters.

    Which parameters apply depends on ``shape``:

    - ``pipeline``: ``operators``
    - ``data_parallel``: ``width``
    - ``mixed``: ``width`` x ``depth``
    - ``tree``: ``levels`` (the Fig. 8(d) bushy split/merge tree)
    - ``diamond``: ``width`` parallel branches between a broadcast
      head and a merge operator
    - ``custom``: explicit ``nodes`` + ``edges`` (by operator name)
    """

    shape: TopologyShape = TopologyShape.PIPELINE
    operators: int = _field(8, minimum=1)
    width: int = _field(4, minimum=1)
    depth: int = _field(4, minimum=1)
    levels: int = _field(3, minimum=1)
    payload_bytes: int = _field(128, nonnegative=True)
    cost: CostSpec = field(default_factory=CostSpec)
    nodes: Tuple[NodeSpec, ...] = ()
    edges: Tuple[Tuple[str, str], ...] = ()

    def _check(self, path: str) -> None:
        if self.shape is not TopologyShape.CUSTOM:
            for name in ("nodes", "edges"):
                if getattr(self, name):
                    raise ScenarioError(
                        f"{path}.{name}",
                        f"nodes/edges are only valid for shape 'custom', "
                        f"not {self.shape.value!r}",
                    )
            return
        if not self.nodes:
            raise ScenarioError(
                f"{path}.nodes",
                "custom topologies require a non-empty node list",
            )
        names = [n.name for n in self.nodes]
        dupes = sorted({n for n in names if names.count(n) > 1})
        if dupes:
            raise ScenarioError(
                f"{path}.nodes", f"duplicate operator names: {dupes}"
            )
        if not self.edges:
            raise ScenarioError(
                f"{path}.edges",
                "custom topologies require a non-empty edge list",
            )
        known = set(names)
        for i, (src, dst) in enumerate(self.edges):
            for which, end in enumerate((src, dst)):
                if end not in known:
                    raise ScenarioError(
                        f"{path}.edges[{i}][{which}]",
                        f"unknown operator name {end!r} "
                        f"(known: {', '.join(sorted(known))})",
                    )
            if src == dst:
                raise ScenarioError(
                    f"{path}.edges[{i}]",
                    f"self loops are not allowed ({src!r})",
                )


# ----------------------------------------------------------------------
# workload
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ModulationSpec:
    """Piecewise rate envelope applied to the base arrival rate.

    Parameters by ``kind`` (unused ones are ignored):

    - ``diurnal``: sinusoid between ``low_factor`` and ``high_factor``
      with period ``period_s``, discretized into ``steps`` constant
      slots per period.
    - ``onoff``: ``on_s`` seconds at the base rate, then ``off_s``
      seconds of silence, repeating.
    - ``flash_crowd``: base rate until ``at_s``; linear ramp to
      ``factor`` x base over ``ramp_s``; hold ``hold_s``; ramp back
      down over ``ramp_s``; base rate forever after.
    - ``ramp``: ``low_factor`` x base until ``at_s``, then a linear
      ramp to ``high_factor`` x base over ``ramp_s``, holding there.
    """

    kind: ModulationKind = ModulationKind.NONE
    period_s: float = _field(60.0, positive=True)
    low_factor: float = _field(0.2, nonnegative=True)
    high_factor: float = _field(1.0, nonnegative=True)
    steps: int = _field(32, minimum=2)
    on_s: float = _field(1.0, positive=True)
    off_s: float = _field(1.0, nonnegative=True)
    at_s: float = _field(0.0, nonnegative=True)
    ramp_s: float = _field(1.0, positive=True)
    hold_s: float = _field(1.0, nonnegative=True)
    factor: float = _field(5.0, positive=True)

    def _check(self, path: str) -> None:
        if (
            self.kind is ModulationKind.DIURNAL
            and self.low_factor > self.high_factor
        ):
            raise ScenarioError(
                f"{path}.low_factor",
                f"low_factor ({self.low_factor}) must not exceed "
                f"high_factor ({self.high_factor})",
            )


@dataclass(frozen=True)
class ArrivalSpec:
    """The open-loop arrival process of every source operator.

    ``rate`` is the base arrival rate in tuples/s per source
    (irrelevant for ``saturated``).  ``seed`` overrides the run seed
    for the arrival stream alone.
    """

    kind: ArrivalKind = ArrivalKind.SATURATED
    rate: float = 0.0
    modulation: ModulationSpec = field(default_factory=ModulationSpec)
    seed: Optional[int] = None

    @property
    def open_loop(self) -> bool:
        return self.kind is not ArrivalKind.SATURATED

    def _check(self, path: str) -> None:
        if not self.open_loop:
            if self.rate:  # zero is fine for saturated
                raise ScenarioError(
                    f"{path}.rate",
                    "saturated arrivals take no rate (remove the field "
                    "or pick an open-loop kind)",
                )
        elif not self.rate:
            raise ScenarioError(
                f"{path}.rate",
                f"open-loop arrivals ({self.kind.value!r}) require a rate",
            )
        elif self.rate < 0:
            raise ScenarioError(
                f"{path}.rate", f"must be > 0, got {self.rate}"
            )


@dataclass(frozen=True)
class PayloadChoice:
    payload_bytes: int = _field(nonnegative=True)
    weight: float = _field(1.0, positive=True)


@dataclass(frozen=True)
class PayloadSpec:
    """Tuple payload size, fixed or a weighted mix.

    A mix compiles to its weighted-mean payload (both substrates charge
    copy cost per tuple from a single static spec), preserving the
    aggregate bandwidth demand of the declared mix.
    """

    kind: PayloadKind = PayloadKind.FIXED
    # 0 = inherit topology.payload_bytes
    payload_bytes: int = _field(0, nonnegative=True)
    mix: Tuple[PayloadChoice, ...] = ()

    def _check(self, path: str) -> None:
        if self.kind is PayloadKind.MIX:
            if not self.mix:
                raise ScenarioError(
                    f"{path}.mix", "payload mix requires a non-empty list"
                )
        elif self.mix:
            raise ScenarioError(
                f"{path}.mix", "mix entries are only valid for kind 'mix'"
            )


@dataclass(frozen=True)
class WorkloadSpec:
    arrivals: ArrivalSpec = field(default_factory=ArrivalSpec)
    payload: PayloadSpec = field(default_factory=PayloadSpec)


# ----------------------------------------------------------------------
# channel
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ChannelSpec:
    """Batched-channel configuration for the DES backend.

    Mirrors :class:`repro.des.channels.ChannelConfig`: ``batch_size``
    tuples move per coalesced simulator event, ``flush_timeout_ms``
    bounds the simulated span one burst event may cover (``None``
    leaves the batch size as the only bound), ``prefetch`` lets a
    scheduler thread drain extra batches from a claimed port before
    rescanning (trades work-finding fidelity for fewer events), and
    ``fastforward`` enables analytic fast-forwarding of settled
    windows.  The defaults are byte-compatible with historical runs.
    """

    batch_size: int = _field(8, minimum=1)
    flush_timeout_ms: Optional[float] = _field(None, positive=True)
    prefetch: int = _field(0, nonnegative=True)
    fastforward: bool = False


# ----------------------------------------------------------------------
# machine + run settings
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MachineSpec:
    profile: MachineName = MachineName.LAPTOP
    cores: Optional[int] = _field(None, minimum=1)


@dataclass(frozen=True)
class RunSpec:
    """Execution settings shared by both backends.

    ``warmup_s`` / ``measure_s`` / ``queue_capacity`` / ``overflow`` /
    ``max_periods`` drive the DES backend; ``duration_s`` drives the
    perfmodel backend's virtual-clock executor.  ``jobs`` is the
    worker-pool width for multi-PE scenarios (None defers to the
    ``--jobs`` flag / ``REPRO_JOB_WORKERS``; 1 forces the sequential
    path); single-PE scenarios ignore it.  ``warm_start`` selects the
    coordinator seeding policy (``off`` / ``model`` / ``history`` /
    ``auto``; None defers to the ``--warm-start`` flag /
    ``REPRO_WARM_START``, which default to ``off``).
    """

    backend: Backend = Backend.BOTH
    seed: int = 0
    adaptation_period_s: Optional[float] = _field(None, positive=True)
    warmup_s: float = _field(0.001, nonnegative=True)
    measure_s: float = _field(0.004, positive=True)
    queue_capacity: int = _field(16, minimum=1)
    overflow: OverflowPolicy = OverflowPolicy.BLOCK
    max_periods: int = _field(60, minimum=1)
    stop_after_stable_periods: Optional[int] = _field(8, minimum=1)
    duration_s: float = _field(2000.0, positive=True)
    profile_from_execution: bool = True
    jobs: Optional[int] = _field(None, minimum=1)
    warm_start: Optional[str] = _field(None, choices=VALID_MODES)


@dataclass(frozen=True)
class PeSpec:
    """One processing element of a multi-PE job.

    ``operators`` names the scenario-topology operators this PE owns
    (every operator must be assigned to exactly one PE).  ``replicas``
    is the initial data-parallel width; with ``elastic: true`` the
    job-level coordinator may scale the PE out/in between 1 and
    ``max_replicas`` replicas at run time.  Elastic PEs must be
    stateless in the paper's sense: no lock-using operators.
    """

    name: str = _field(nonempty=True)
    operators: Tuple[str, ...] = _field(nonempty=True)
    replicas: int = _field(1, minimum=1)
    elastic: bool = False
    max_replicas: int = _field(8, minimum=1)

    def _check(self, path: str) -> None:
        if self.replicas > self.max_replicas:
            raise ScenarioError(
                f"{path}.replicas",
                f"replicas ({self.replicas}) exceeds max_replicas "
                f"({self.max_replicas})",
            )


@dataclass(frozen=True)
class PartitionSpec:
    """How inter-PE channels route tuples across downstream replicas.

    ``seed`` overrides the run seed for routing alone; ``key_space``
    is the synthetic key cardinality ``key_hash`` distributes over.
    """

    strategy: PartitionStrategy = PartitionStrategy.FORWARD
    seed: Optional[int] = None
    key_space: int = _field(1024, minimum=1)


@dataclass(frozen=True)
class Scenario:
    """A complete, validated scenario document."""

    name: str = _field(nonempty=True)
    description: str = ""
    topology: TopologySpec = field(default_factory=TopologySpec)
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    machine: MachineSpec = field(default_factory=MachineSpec)
    run: RunSpec = field(default_factory=RunSpec)
    channel: ChannelSpec = field(default_factory=ChannelSpec)
    pes: Tuple[PeSpec, ...] = ()
    partition: PartitionSpec = field(default_factory=PartitionSpec)

    def _check(self, path: str) -> None:
        seen_ops: Dict[str, str] = {}
        for i, pe in enumerate(self.pes):
            if any(other.name == pe.name for other in self.pes[:i]):
                raise ScenarioError(
                    f"pes[{i}].name", f"duplicate PE name {pe.name!r}"
                )
            for op in pe.operators:
                if op in seen_ops:
                    raise ScenarioError(
                        f"pes[{i}].operators",
                        f"operator {op!r} is assigned to both "
                        f"{seen_ops[op]!r} and {pe.name!r}",
                    )
                seen_ops[op] = pe.name


FORMAT_VERSION = 1


# ----------------------------------------------------------------------
# the decoder (every error names its field)
# ----------------------------------------------------------------------
_NO_RULES: Mapping[str, Any] = {}


@functools.lru_cache(maxsize=None)
def _schema(cls: type) -> Dict[str, Tuple[Any, Any]]:
    """``name -> (field, resolved type)`` of a spec class, in field
    order; the type hints are resolved once per class."""
    hints = get_type_hints(cls)
    return {f.name: (f, hints[f.name]) for f in fields(cls)}


def _mapping(data: Any, path: str) -> Mapping:
    if not isinstance(data, Mapping):
        raise ScenarioError(
            path, f"expected a mapping, got {type(data).__name__}"
        )
    return data


def _check_keys(data: Mapping, path: str, allowed: Any) -> None:
    for key in data:
        if key not in allowed:
            raise ScenarioError(
                f"{path}.{key}" if path else str(key),
                f"unknown field (valid fields: {', '.join(allowed)})",
            )


def _enum(value: Any, path: str, enum_cls: Any) -> Any:
    try:
        return enum_cls(value)
    except ValueError:
        valid = ", ".join(repr(e.value) for e in enum_cls)
        raise ScenarioError(
            path,
            f"unknown value {value!r} (valid values: {valid})",
        ) from None


def _number(
    value: Any,
    path: str,
    *,
    integer: bool = False,
    minimum: Optional[float] = None,
    positive: bool = False,
    nonnegative: bool = False,
) -> Any:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(path, f"expected a number, got {value!r}")
    if integer and int(value) != value:
        raise ScenarioError(path, f"expected an integer, got {value!r}")
    num = int(value) if integer else float(value)
    if positive and num <= 0:
        raise ScenarioError(path, f"must be > 0, got {num}")
    if nonnegative and num < 0:
        raise ScenarioError(path, f"must be >= 0, got {num}")
    if minimum is not None and num < minimum:
        raise ScenarioError(path, f"must be >= {minimum}, got {num}")
    return num


def _string(value: Any, path: str, rules: Mapping[str, Any]) -> str:
    choices = rules.get("choices")
    if choices and value not in choices:
        raise ScenarioError(
            path,
            f"unknown value {value!r} "
            f"(valid values: {', '.join(map(repr, choices))})",
        )
    nonempty = rules.get("nonempty")
    if not isinstance(value, str) or (nonempty and not value):
        kind = "non-empty string" if nonempty else "string"
        raise ScenarioError(path, f"expected a {kind}, got {value!r}")
    return value


def _tuple(tp: Any, data: Any, path: str, rules: Mapping[str, Any]):
    if not isinstance(data, (list, tuple)):
        raise ScenarioError(path, f"expected a list, got {data!r}")
    args = get_args(tp)
    if len(args) == 2 and args[1] is Ellipsis:
        args = (args[0],) * len(data)
    elif len(data) != len(args):
        raise ScenarioError(
            path, f"expected a list of {len(args)} items, got {data!r}"
        )
    if rules.get("nonempty") and not data:
        raise ScenarioError(path, f"expected a non-empty list, got {data!r}")
    return tuple(
        _decode(item_tp, item, f"{path}[{i}]", rules)
        for i, (item_tp, item) in enumerate(zip(args, data))
    )


def _decode(
    cls: Any, data: Any, path: str, rules: Mapping[str, Any] = _NO_RULES
) -> Any:
    """Decode ``data`` as a value of type ``cls`` under ``rules``."""
    if is_dataclass(cls):
        data = _mapping(data, path)
        schema = _schema(cls)
        _check_keys(data, path, schema)
        kwargs = {}
        for f, tp in schema.values():
            fpath = f"{path}.{f.name}" if path else f.name
            if f.name in data:
                kwargs[f.name] = _decode(tp, data[f.name], fpath, f.metadata)
            elif f.default is MISSING and f.default_factory is MISSING:
                raise ScenarioError(fpath, f"{f.name} is required")
        spec = cls(**kwargs)
        check = getattr(spec, "_check", None)
        if check is not None:
            check(path)
        return spec
    origin = get_origin(cls)
    if origin is Union:  # Optional[X]
        if data is None:
            return None
        (cls,) = [a for a in get_args(cls) if a is not type(None)]
        return _decode(cls, data, path, rules)
    if origin is tuple:
        return _tuple(cls, data, path, rules)
    if isinstance(cls, type) and issubclass(cls, enum.Enum):
        return _enum(data, path, cls)
    if cls is bool:
        if not isinstance(data, bool):
            raise ScenarioError(path, f"expected a boolean, got {data!r}")
        return data
    if cls in (int, float):
        bounds = ("minimum", "positive", "nonnegative")
        kwargs = {k: rules[k] for k in bounds if k in rules}
        return _number(data, path, integer=cls is int, **kwargs)
    if cls is str:
        return _string(data, path, rules)
    raise TypeError(f"{path}: no decoder for type {cls!r}")


def scenario_from_dict(data: Any) -> Scenario:
    """Parse and validate a scenario document.

    Raises :class:`ScenarioError` naming the offending field on any
    schema violation.
    """
    data = dict(_mapping(data, ""))
    _check_keys(data, "", ("version", *_schema(Scenario)))
    version = data.pop("version", FORMAT_VERSION)
    if version != FORMAT_VERSION:
        raise ScenarioError(
            "version",
            f"unsupported scenario format version {version!r} "
            f"(expected {FORMAT_VERSION})",
        )
    return _decode(Scenario, data, "")


# ----------------------------------------------------------------------
# to_dict (canonical, round-trips through scenario_from_dict)
# ----------------------------------------------------------------------
def _plain(value: Any) -> Any:
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    if hasattr(value, "__dataclass_fields__"):
        return {
            f.name: _plain(getattr(value, f.name))
            for f in fields(value)
        }
    return value


def scenario_to_dict(scenario: Scenario) -> Dict[str, Any]:
    """Serialize a scenario to a canonical JSON/YAML-ready dict.

    Every field is emitted explicitly (no default elision), so the
    document doubles as a full record of the effective configuration;
    ``scenario_from_dict(scenario_to_dict(s)) == s`` always holds.
    """
    data = _plain(scenario)
    data["version"] = FORMAT_VERSION
    # Emit edges as [src, dst] pairs (tuples already converted).
    return data
