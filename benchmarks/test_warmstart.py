"""Warm-start adaptation: settling time and lost throughput vs cold.

Three variants per scenario, all through the scenario zoo and
``make_backend``:

- **cold** — stock behaviour (warm start off),
- **model** — seeded from the analytical perfmodel prior,
- **store** — seeded from a phase store populated by a prior run
  (the posterior; ``auto`` mode with a shared ``REPRO_MEMO_DIR``).

Metrics per run:

- *settling periods* — for the saturated stationary scenarios, the
  first period whose throughput is within 5 % of the run's converged
  throughput and stays within for the rest of the run; for the
  open-loop time-varying scenario (underloaded, so throughput tracks
  the envelope regardless of configuration) the first period at which
  the coordinator reaches STABLE,
- *lost throughput* — cumulative ``max(0, T_conv - T_k) * period_s``:
  the tuples the run failed to process while still searching.

Gates (the PR's acceptance criteria):

- fig07-pipeline-saturated with a warm phase store converges in at
  least 2x fewer periods than cold,
- on every benchmarked scenario the store-warmed run settles >= 2x
  faster and loses no more throughput than cold,
- the time-varying flash-crowd scenario snaps back to the remembered
  base-phase operating point in ONE period (F7-WARM-SNAP at period 1
  against the phase recorded by the previous run, under the same
  time-varying envelope).
"""

from __future__ import annotations

import os
from typing import List, Optional, Tuple

from _bench_util import record, record_json, run_once

from repro.bench import cache
from repro.bench.reporting import format_table
from repro.obs.hub import ObservabilityHub
from repro.scenarios import compile_scenario, load_scenario
from repro.scenarios.run import make_backend

SENS = 0.05

# (scenario, max_periods, stop_after_stable_periods)
STATIONARY = (
    ("fig07-pipeline-saturated", 160, 8),
    ("skewed-cost-pipeline", 60, 8),
    ("tree-bushy", 60, 8),
)
TIME_VARYING = ("flash-crowd-spike", 30, 4)


def _compiled(name: str, max_periods: int, stop_after: Optional[int]):
    """Load a zoo scenario with a horizon long enough to converge.

    The zoo pins short horizons for fast regression runs; the
    benchmark needs full convergence, so only the run-length knobs
    are overridden — topology, workload and machine stay the zoo's.
    """
    from dataclasses import replace

    scenario = load_scenario(f"scenarios/{name}.yaml")
    scenario = replace(
        scenario,
        run=replace(
            scenario.run,
            backend=scenario.run.backend,
            max_periods=max_periods,
            stop_after_stable_periods=stop_after,
        ),
    )
    return compile_scenario(scenario)


def _run(compiled, warm_start: Optional[str], max_periods, stop_after):
    cache.clear()
    hub = ObservabilityHub()
    backend = make_backend(compiled, obs=hub, warm_start=warm_start)
    result = backend.run(
        max_periods=max_periods, stop_after_stable_periods=stop_after
    )
    rules = tuple(d.rule for d in hub.decisions())
    return result.trace, rules


def _settling(
    trace, period_s: float, start: int = 0
) -> Tuple[int, float, float]:
    """(settling periods, lost throughput, converged T) from ``start``.

    Settling is the first period (1-based, relative to ``start``)
    whose throughput is within SENS of the converged value *and stays
    within* for the rest of the run; lost throughput integrates the
    shortfall against the converged value over the same window.
    """
    obs = [o.true_throughput for o in trace.observations[start:]]
    tail = obs[-4:]
    conv = sum(tail) / len(tail)
    settle = len(obs)
    for i in range(len(obs)):
        if all(abs(o / conv - 1.0) <= SENS for o in obs[i:]):
            settle = i + 1
            break
    lost = sum(max(0.0, conv - o) * period_s for o in obs)
    return settle, lost, conv


def _stable_settle(rules: Tuple[str, ...]) -> int:
    """Periods before the coordinator first reached STABLE."""
    return rules.index("F7-STABLE") if "F7-STABLE" in rules else len(rules)


def _bench_stationary(store_dir: str):
    rows = []
    payload = {}
    for name, max_periods, stop_after in STATIONARY:
        compiled = _compiled(name, max_periods, stop_after)
        period_s = compiled.config.elasticity.adaptation_period_s
        os.environ["REPRO_MEMO_DIR"] = os.path.join(store_dir, name)
        try:
            cold_trace, _ = _run(compiled, "off", max_periods, stop_after)
            model_trace, model_rules = _run(
                compiled, "model", max_periods, stop_after
            )
            # Pass 1 populates the phase store, pass 2 is the warmed run.
            _run(compiled, "auto", max_periods, stop_after)
            store_trace, store_rules = _run(
                compiled, "auto", max_periods, stop_after
            )
        finally:
            del os.environ["REPRO_MEMO_DIR"]
        assert "F7-WARM-START" in model_rules, name
        assert "F7-WARM-SNAP" in store_rules, name
        variants = {}
        for variant, trace in (
            ("cold", cold_trace),
            ("model", model_trace),
            ("store", store_trace),
        ):
            settle, lost, conv = _settling(trace, period_s)
            variants[variant] = {
                "settling_periods": settle,
                "lost_throughput": lost,
                "converged_throughput": conv,
                "periods": len(trace.observations),
            }
            rows.append(
                [
                    name,
                    variant,
                    settle,
                    f"{lost:,.0f}",
                    f"{conv:,.0f}",
                ]
            )
        payload[name] = variants
    return rows, payload


def _bench_time_varying(store_dir: str):
    """Flash crowd: the base workload phase recurs (here: across runs
    of the same time-varying envelope; pass 1 converges and records
    it), and the warmed run must snap back to the last-known-good
    operating point in one period instead of re-exploring.

    The scenario is open-loop and underloaded outside the crowd, so
    throughput tracks the envelope whatever the configuration; the
    settling signal is therefore the coordinator's own state — the
    number of periods before it first reaches STABLE."""
    name, max_periods, stop_after = TIME_VARYING
    compiled = _compiled(name, max_periods, stop_after)
    period_s = compiled.config.elasticity.adaptation_period_s
    os.environ["REPRO_MEMO_DIR"] = os.path.join(store_dir, name)
    try:
        cold_trace, cold_rules = _run(
            compiled, "off", max_periods, stop_after
        )
        _run(compiled, "auto", max_periods, stop_after)
        warm_trace, warm_rules = _run(
            compiled, "auto", max_periods, stop_after
        )
    finally:
        del os.environ["REPRO_MEMO_DIR"]
    cold_settle = _stable_settle(cold_rules)
    warm_settle = _stable_settle(warm_rules)
    _, cold_lost, cold_conv = _settling(cold_trace, period_s)
    _, warm_lost, warm_conv = _settling(warm_trace, period_s)
    # 1-period snap-back: the stored base-phase point is restored by
    # the very first decision of the warmed run.
    assert warm_rules[0] == "F7-WARM-SNAP", warm_rules[:3]
    rows = [
        [name, "cold", cold_settle, f"{cold_lost:,.0f}", f"{cold_conv:,.0f}"],
        [name, "store", warm_settle, f"{warm_lost:,.0f}", f"{warm_conv:,.0f}"],
    ]
    payload = {
        name: {
            "settling_metric": "periods-to-stable",
            "cold": {
                "settling_periods": cold_settle,
                "lost_throughput": cold_lost,
                "converged_throughput": cold_conv,
            },
            "store": {
                "settling_periods": warm_settle,
                "lost_throughput": warm_lost,
                "converged_throughput": warm_conv,
            },
        }
    }
    return rows, payload


def test_warmstart_settling(benchmark, tmp_path):
    def experiment():
        rows: List[list] = []
        payload = {}
        srows, spayload = _bench_stationary(str(tmp_path))
        rows += srows
        payload.update(spayload)
        trows, tpayload = _bench_time_varying(str(tmp_path))
        rows += trows
        payload.update(tpayload)
        return rows, payload

    rows, payload = run_once(benchmark, experiment)
    record(
        "warmstart_settling",
        format_table(
            [
                "scenario",
                "variant",
                "settle (periods)",
                "lost (tuples)",
                "converged T/s",
            ],
            rows,
            title="Warm-start adaptation vs cold start",
        ),
    )
    record_json("BENCH_warmstart", payload)

    for name, _, _ in STATIONARY:
        v = payload[name]
        cold, store = v["cold"], v["store"]
        # The headline gate: a warm phase store converges >= 2x faster.
        assert (
            store["settling_periods"] * 2 <= cold["settling_periods"]
        ), name
        assert (
            store["lost_throughput"] < cold["lost_throughput"]
        ), name
        # The model prior must not regress the converged operating
        # point by more than the controller's own tolerance band.
        assert v["model"]["converged_throughput"] >= (
            1.0 - 4 * SENS
        ) * cold["converged_throughput"], name

    tv = payload[TIME_VARYING[0]]
    # 1-period snap-back when the recorded phase recurs.
    assert tv["store"]["settling_periods"] == 1
    assert (
        tv["store"]["settling_periods"] * 2
        <= tv["cold"]["settling_periods"]
    )
    assert tv["store"]["lost_throughput"] <= tv["cold"]["lost_throughput"]
