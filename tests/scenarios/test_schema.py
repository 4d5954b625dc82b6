"""Schema validation: errors name the offending field, round-trips hold."""

from __future__ import annotations

import copy
import hashlib
import json

import pytest

from repro.scenarios.schema import (
    ArrivalKind,
    Backend,
    ModulationKind,
    OverflowPolicy,
    PayloadChoice,
    Scenario,
    ScenarioError,
    TopologyShape,
    scenario_from_dict,
    scenario_to_dict,
)


def _minimal(**overrides):
    data = {"name": "t"}
    data.update(overrides)
    return data


class TestFieldErrors:
    def test_unknown_top_level_field(self):
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict(_minimal(wokload={}))
        assert str(err.value).startswith("wokload: unknown field")

    def test_unknown_enum_value_lists_alternatives(self):
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict(
                _minimal(workload={"arrivals": {"kind": "poison"}})
            )
        msg = str(err.value)
        assert msg.startswith("workload.arrivals.kind: unknown value 'poison'")
        assert "'poisson'" in msg and "'saturated'" in msg

    def test_negative_rate_names_field(self):
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict(
                _minimal(
                    workload={
                        "arrivals": {"kind": "poisson", "rate": -5.0}
                    }
                )
            )
        assert str(err.value) == "workload.arrivals.rate: must be > 0, got -5.0"

    def test_open_loop_requires_rate(self):
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict(
                _minimal(workload={"arrivals": {"kind": "deterministic"}})
            )
        assert "workload.arrivals.rate" in str(err.value)

    def test_saturated_rejects_nonzero_rate(self):
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict(
                _minimal(
                    workload={
                        "arrivals": {"kind": "saturated", "rate": 100.0}
                    }
                )
            )
        assert "saturated arrivals take no rate" in str(err.value)

    def test_saturated_accepts_zero_rate(self):
        # scenario_to_dict emits every field, including rate=0.0 for
        # saturated arrivals; the parser must accept its own output.
        s = scenario_from_dict(
            _minimal(
                workload={"arrivals": {"kind": "saturated", "rate": 0.0}}
            )
        )
        assert s.workload.arrivals.kind is ArrivalKind.SATURATED

    def test_unknown_edge_operator_named(self):
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict(
                _minimal(
                    topology={
                        "shape": "custom",
                        "nodes": [
                            {"name": "a", "kind": "source"},
                            {"name": "b", "kind": "sink"},
                        ],
                        "edges": [["a", "zz"]],
                    }
                )
            )
        msg = str(err.value)
        assert msg.startswith("topology.edges[0][1]: unknown operator name 'zz'")
        assert "known: a, b" in msg

    def test_self_loop_rejected(self):
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict(
                _minimal(
                    topology={
                        "shape": "custom",
                        "nodes": [
                            {"name": "a", "kind": "source"},
                            {"name": "b", "kind": "sink"},
                        ],
                        "edges": [["a", "b"], ["b", "b"]],
                    }
                )
            )
        assert "self loops" in str(err.value)

    def test_nodes_invalid_for_generated_shape(self):
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict(
                _minimal(
                    topology={
                        "shape": "pipeline",
                        "nodes": [{"name": "a"}],
                    }
                )
            )
        assert "only valid for shape 'custom'" in str(err.value)

    def test_edges_invalid_for_generated_shape(self):
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict(
                _minimal(topology={"shape": "tree", "edges": [["a", "b"]]})
            )
        assert err.value.path == "topology.edges"
        assert "only valid for shape 'custom'" in str(err.value)

    def test_bad_version_rejected(self):
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict(_minimal(version=99))
        assert "version" in str(err.value)

    def test_modulation_unknown_field(self):
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict(
                _minimal(
                    workload={
                        "arrivals": {
                            "kind": "poisson",
                            "rate": 10.0,
                            "modulation": {"kind": "onoff", "onn_s": 1.0},
                        }
                    }
                )
            )
        assert "workload.arrivals.modulation.onn_s" in str(err.value)

    def test_cost_fractions_bounded(self):
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict(
                _minimal(
                    topology={
                        "cost": {
                            "kind": "skewed",
                            "heavy_fraction": 0.7,
                            "medium_fraction": 0.6,
                        }
                    }
                )
            )
        assert "must be <= 1" in str(err.value)

    def test_payload_mix_requires_entries(self):
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict(
                _minimal(workload={"payload": {"kind": "mix"}})
            )
        assert "workload.payload.mix" in str(err.value)


class TestRoundTrip:
    def test_default_scenario_round_trips(self):
        s = scenario_from_dict({"name": "defaults"})
        assert scenario_from_dict(scenario_to_dict(s)) == s

    def test_rich_scenario_round_trips(self):
        s = scenario_from_dict(
            {
                "name": "rich",
                "description": "everything set",
                "topology": {
                    "shape": "custom",
                    "payload_bytes": 512,
                    "nodes": [
                        {"name": "src", "kind": "source"},
                        {"name": "mid", "selectivity": 0.5},
                        {"name": "snk", "kind": "sink", "uses_lock": True},
                    ],
                    "edges": [["src", "mid"], ["mid", "snk"]],
                },
                "workload": {
                    "arrivals": {
                        "kind": "poisson",
                        "rate": 1000.0,
                        "modulation": {
                            "kind": "flash_crowd",
                            "at_s": 5.0,
                            "ramp_s": 2.0,
                            "hold_s": 4.0,
                            "factor": 3.0,
                        },
                        "seed": 7,
                    },
                    "payload": {
                        "kind": "mix",
                        "mix": [
                            {"payload_bytes": 64, "weight": 3.0},
                            {"payload_bytes": 1024, "weight": 1.0},
                        ],
                    },
                },
                "machine": {"profile": "xeon", "cores": 16},
                "run": {
                    "backend": "des",
                    "seed": 5,
                    "overflow": "drop",
                    "queue_capacity": 8,
                    "stop_after_stable_periods": None,
                },
            }
        )
        again = scenario_from_dict(scenario_to_dict(s))
        assert again == s
        assert again.run.overflow is OverflowPolicy.DROP
        assert again.run.backend is Backend.DES
        assert again.topology.shape is TopologyShape.CUSTOM
        assert (
            again.workload.arrivals.modulation.kind
            is ModulationKind.FLASH_CROWD
        )

    def test_to_dict_emits_every_field(self):
        data = scenario_to_dict(Scenario(name="full"))
        assert data["version"] == 1
        assert set(data) == {
            "version",
            "name",
            "description",
            "topology",
            "workload",
            "channel",
            "machine",
            "pes",
            "partition",
            "run",
        }
        # nested specs are fully expanded, not elided
        assert "queue_capacity" in data["run"]
        assert "modulation" in data["workload"]["arrivals"]


class TestRunJobs:
    """The run.jobs knob: multi-PE worker-pool width."""

    def test_jobs_parses_and_round_trips(self):
        s = scenario_from_dict(_minimal(run={"jobs": 4}))
        assert s.run.jobs == 4
        again = scenario_from_dict(scenario_to_dict(s))
        assert again.run.jobs == 4

    def test_jobs_defaults_to_none(self):
        s = scenario_from_dict(_minimal())
        assert s.run.jobs is None
        # None round-trips too (the flag/env fallback stays live).
        assert scenario_from_dict(scenario_to_dict(s)).run.jobs is None

    def test_jobs_must_be_a_positive_integer(self):
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict(_minimal(run={"jobs": 0}))
        assert "run.jobs" in str(err.value)
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict(_minimal(run={"jobs": 2.5}))
        assert "run.jobs" in str(err.value)


class TestRunWarmStart:
    """The run.warm_start knob: coordinator seeding policy."""

    def test_warm_start_parses_and_round_trips(self):
        for mode in ("off", "model", "history", "auto"):
            s = scenario_from_dict(_minimal(run={"warm_start": mode}))
            assert s.run.warm_start == mode
            again = scenario_from_dict(scenario_to_dict(s))
            assert again.run.warm_start == mode

    def test_warm_start_defaults_to_none(self):
        s = scenario_from_dict(_minimal())
        assert s.run.warm_start is None
        # None round-trips too (the flag/env fallback stays live).
        assert (
            scenario_from_dict(scenario_to_dict(s)).run.warm_start is None
        )

    def test_warm_start_rejects_unknown_modes(self):
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict(_minimal(run={"warm_start": "always"}))
        assert "run.warm_start" in str(err.value)
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict(_minimal(run={"warm_start": 1}))
        assert "run.warm_start" in str(err.value)


class TestDefaults:
    """The dataclass default is the only default a document gets."""

    @pytest.mark.parametrize("name", ["t", "defaults"])
    def test_omitted_fields_take_dataclass_defaults(self, name):
        assert scenario_from_dict({"name": name}) == Scenario(name=name)

    def test_payload_choice_weight_defaults_to_one(self):
        payload = {"kind": "mix", "mix": [{"payload_bytes": 8}]}
        s = scenario_from_dict(_minimal(workload={"payload": payload}))
        assert s.workload.payload.mix == (PayloadChoice(payload_bytes=8),)


def _custom(edges, *extra_nodes):
    nodes = [{"name": "a", "kind": "source"}, {"name": "b", "kind": "sink"}]
    return {
        "shape": "custom",
        "nodes": nodes + list(extra_nodes),
        "edges": edges,
    }


def _arrivals(**arrivals):
    return {"workload": {"arrivals": arrivals}}


# Full messages (field path included) that earlier tests pin in part;
# they stay byte-identical across decoder changes.
_PINNED_MESSAGES = [
    (
        {"wokload": {}},
        "wokload: unknown field (valid fields: version, name, "
        "description, topology, workload, machine, run, channel, pes, "
        "partition)",
    ),
    (
        _arrivals(kind="poison"),
        "workload.arrivals.kind: unknown value 'poison' (valid values: "
        "'saturated', 'deterministic', 'poisson')",
    ),
    (
        _arrivals(kind="poisson", rate=-5.0),
        "workload.arrivals.rate: must be > 0, got -5.0",
    ),
    (
        _arrivals(kind="deterministic"),
        "workload.arrivals.rate: open-loop arrivals ('deterministic') "
        "require a rate",
    ),
    (
        _arrivals(kind="saturated", rate=100.0),
        "workload.arrivals.rate: saturated arrivals take no rate (remove "
        "the field or pick an open-loop kind)",
    ),
    (
        {"topology": _custom([["a", "zz"]])},
        "topology.edges[0][1]: unknown operator name 'zz' (known: a, b)",
    ),
    (
        {"topology": _custom([["a", "b"], ["b", "b"]])},
        "topology.edges[1]: self loops are not allowed ('b')",
    ),
    (
        {"topology": _custom([["a", "b"]], {"name": "a"})},
        "topology.nodes: duplicate operator names: ['a']",
    ),
    (
        {"topology": _custom([])},
        "topology.edges: custom topologies require a non-empty edge list",
    ),
    (
        {"topology": {"shape": "custom"}},
        "topology.nodes: custom topologies require a non-empty node list",
    ),
    (
        {"topology": {"shape": "pipeline", "nodes": [{"name": "a"}]}},
        "topology.nodes: nodes/edges are only valid for shape 'custom', "
        "not 'pipeline'",
    ),
    (
        {"version": 99},
        "version: unsupported scenario format version 99 (expected 1)",
    ),
    (
        _arrivals(
            kind="poisson",
            rate=10.0,
            modulation={"kind": "onoff", "onn_s": 1.0},
        ),
        "workload.arrivals.modulation.onn_s: unknown field (valid "
        "fields: kind, period_s, low_factor, high_factor, steps, on_s, "
        "off_s, at_s, ramp_s, hold_s, factor)",
    ),
    (
        _arrivals(
            kind="poisson",
            rate=5.0,
            modulation={"kind": "diurnal", "low_factor": 2.0},
        ),
        "workload.arrivals.modulation.low_factor: low_factor (2.0) must "
        "not exceed high_factor (1.0)",
    ),
    (
        {
            "topology": {
                "cost": {"heavy_fraction": 0.7, "medium_fraction": 0.6}
            }
        },
        "topology.cost.heavy_fraction: heavy_fraction + medium_fraction "
        "must be <= 1, got 1.2999999999999998",
    ),
    (
        {"workload": {"payload": {"kind": "mix"}}},
        "workload.payload.mix: payload mix requires a non-empty list",
    ),
    (
        {"workload": {"payload": {"mix": [{"payload_bytes": 1}]}}},
        "workload.payload.mix: mix entries are only valid for kind 'mix'",
    ),
    ({"run": {"jobs": 0}}, "run.jobs: must be >= 1, got 0"),
    ({"run": {"jobs": 2.5}}, "run.jobs: expected an integer, got 2.5"),
    ({"run": {"measure_s": 0}}, "run.measure_s: must be > 0, got 0.0"),
    ({"run": {"seed": "x"}}, "run.seed: expected a number, got 'x'"),
    (
        {"run": {"profile_from_execution": 1}},
        "run.profile_from_execution: expected a boolean, got 1",
    ),
    (
        {"machine": {"profile": "vax"}},
        "machine.profile: unknown value 'vax' (valid values: 'xeon', "
        "'power8', 'laptop')",
    ),
    ({"name": ""}, "name: expected a non-empty string, got ''"),
    (
        {
            "pes": [
                {"name": "a", "operators": ["src"]},
                {"name": "a", "operators": ["op1"]},
            ]
        },
        "pes[1].name: duplicate PE name 'a'",
    ),
    (
        {
            "pes": [
                {"name": "a", "operators": ["src", "op0"]},
                {"name": "b", "operators": ["op0"]},
            ]
        },
        "pes[1].operators: operator 'op0' is assigned to both 'a' and 'b'",
    ),
    (
        {"pes": [{"name": "a", "operators": ["x"], "replicas": 9}]},
        "pes[0].replicas: replicas (9) exceeds max_replicas (8)",
    ),
]


@pytest.mark.parametrize("fields, message", _PINNED_MESSAGES)
def test_error_messages_are_byte_identical(fields, message):
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(_minimal(**fields))
    assert str(err.value) == message


# A document that sets every block to non-default values; its canonical
# form is the base of the mutation corpus below.
_RICH = {
    "name": "rich",
    "description": "every block set",
    "topology": {
        "shape": "custom",
        "payload_bytes": 512,
        "cost": {"kind": "skewed", "heavy_fraction": 0.2, "seed": 3},
        "nodes": [
            {"name": "src", "kind": "source", "max_rate": 1e6},
            {"name": "mid", "selectivity": 0.5, "fanout": "split"},
            {"name": "snk", "kind": "sink", "uses_lock": True},
        ],
        "edges": [["src", "mid"], ["mid", "snk"]],
    },
    "workload": {
        "arrivals": {
            "kind": "poisson",
            "rate": 1000.0,
            "modulation": {"kind": "diurnal", "low_factor": 0.5},
            "seed": 7,
        },
        "payload": {
            "kind": "mix",
            "mix": [
                {"payload_bytes": 64, "weight": 3.0},
                {"payload_bytes": 1024},
            ],
        },
    },
    "machine": {"profile": "xeon", "cores": 16},
    "run": {
        "backend": "des",
        "adaptation_period_s": 0.5,
        "overflow": "drop",
        "stop_after_stable_periods": 5,
        "jobs": 2,
        "warm_start": "model",
    },
    "channel": {"batch_size": 4, "flush_timeout_ms": 2.0},
    "pes": [
        {"name": "a", "operators": ["src", "mid"]},
        {"name": "b", "operators": ["snk"], "replicas": 2, "elastic": True},
    ],
    "partition": {"strategy": "key_hash", "seed": 1, "key_space": 64},
}

_MUTANTS = (None, True, 0, -1, 0.5, "", "bogus", [], {"zz": 1})


def _leaves(node, path=()):
    if isinstance(node, dict) and node:
        for key, value in node.items():
            yield from _leaves(value, path + (key,))
    elif isinstance(node, list) and node:
        for i, value in enumerate(node):
            yield from _leaves(value, path + (i,))
    else:
        yield path


def _mappings(node, path=()):
    """Every mapping in a document, list items included."""
    if isinstance(node, dict):
        yield path, node
        for key, value in node.items():
            yield from _mappings(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _mappings(value, path + (i,))


def _dotted(path):
    out = ""
    for key in path:
        out += f"[{key}]" if isinstance(key, int) else (
            f".{key}" if out else key
        )
    return out


def _mutations(doc):
    """Each leaf replaced by every mutant, deleted, or given an
    unknown sibling key."""
    for path in _leaves(doc):
        for value in _MUTANTS + ("<delete>", "<sibling>"):
            mutant = copy.deepcopy(doc)
            parent = mutant
            for key in path[:-1]:
                parent = parent[key]
            if value == "<delete>":
                del parent[path[-1]]
            elif value == "<sibling>":
                if not isinstance(parent, dict):
                    continue
                parent["zz_unknown"] = 1
            else:
                parent[path[-1]] = copy.deepcopy(value)
            yield f"{_dotted(path)} <- {value!r}", mutant


def _outcome(doc):
    """The error path of a rejection, or a digest of the canonical
    dict of an acceptance."""
    try:
        scenario = scenario_from_dict(doc)
    except ScenarioError as exc:
        return f"reject {exc.path}"
    canon = json.dumps(scenario_to_dict(scenario), sort_keys=True).encode()
    return "accept " + hashlib.blake2b(canon, digest_size=8).hexdigest()


class TestMutationCorpus:
    """Pins the decoder's verdict on ~2,000 ill-typed, out-of-range,
    missing and unknown-key variants of two canonical documents."""

    BASES = (
        scenario_to_dict(scenario_from_dict(_RICH)),
        scenario_to_dict(Scenario(name="t")),
    )

    def test_outcomes_are_pinned(self):
        lines = [
            f"{i} {label}: {_outcome(doc)}"
            for i, base in enumerate(self.BASES)
            for label, doc in _mutations(base)
        ]
        digest = hashlib.blake2b(
            "\n".join(lines).encode(), digest_size=16
        ).hexdigest()
        assert len(lines) == PINNED_CORPUS_SIZE
        assert digest == PINNED_CORPUS_DIGEST

    def test_unknown_key_rejected_at_every_level(self):
        base = self.BASES[0]
        paths = []
        for path, _ in _mappings(base):
            doc = copy.deepcopy(base)
            node = doc
            for key in path:
                node = node[key]
            node["zz_unknown"] = 1
            with pytest.raises(ScenarioError) as err:
                scenario_from_dict(doc)
            expected = _dotted(path + ("zz_unknown",))
            assert err.value.path == expected
            assert err.value.message.startswith("unknown field (valid fields:")
            paths.append(expected)
        assert {
            "zz_unknown",
            "pes[0].zz_unknown",
            "topology.nodes[0].zz_unknown",
            "workload.payload.mix[0].zz_unknown",
            "workload.arrivals.modulation.zz_unknown",
        } <= set(paths)


PINNED_CORPUS_SIZE = 1687
PINNED_CORPUS_DIGEST = "2ed61114ab24e32f7e6315623ed491f4"
