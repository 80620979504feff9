"""Tests of the benchmark's own logic: inputs, span arithmetic, tail rule,
and the output verifier."""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(1, str(BENCH.parent / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs(workload):
    first = workloads.build(workload, 7)
    assert workloads.build(workload, 7) == first
    assert workloads.digest(workloads.build(workload, 7)) == workloads.digest(first)
    assert workloads.digest(workloads.build(workload, 8)) != workloads.digest(first)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_seed_draws_only_angles_and_amplitudes(workload):
    drawn = {"theta", "phi", "amplitudes"}

    def fixed(tasks):
        return [
            (t["name"], {k: v for k, v in t["overrides"].items() if k not in drawn},
             len(t.get("values", ())))
            for t in tasks
        ]

    assert fixed(workloads.build(workload, 1)) == fixed(workloads.build(workload, 2))


def _span(span_id, parent, layer, start, end):
    return spans.Span(span_id, parent, layer, float(start), float(end))


def test_self_time_subtracts_direct_children():
    tree = [
        _span(0, None, "scenarios.run_scenario", 0, 10),
        _span(1, 0, "dynamics.exponential", 1, 4),
        _span(2, 1, "linalg.eigh", 2, 3),
        _span(3, 0, "fock", 5, 9),
        _span(4, 3, "fock", 6, 7),
    ]
    assert spans.self_times(tree) == {0: 3.0, 1: 2.0, 2: 1.0, 3: 3.0, 4: 1.0}
    totals = spans.layer_totals(tree)
    assert totals["fock"] == (4.0, 1)  # the nested fock call is not a new entry
    assert totals["dynamics.exponential"] == (2.0, 1)
    assert sum(t for t, _ in totals.values()) == 10.0


def test_tracer_wraps_every_binding_and_restores():
    from ergodyn import dynamics, scenarios

    original = dynamics.evolve_probabilities
    assert scenarios.evolve_probabilities is original
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert dynamics.evolve_probabilities is not original
        assert scenarios.evolve_probabilities is dynamics.evolve_probabilities
        tracer.recorder = spans.Recorder()
        cfg = scenarios.load_config(None, {"engine": "exponential", "steps": "11"})
        scenarios.run_scenario(cfg)
        totals = spans.layer_totals(tracer.recorder.spans)
    finally:
        tracer.recorder = None
        tracer.restore()
    assert dynamics.evolve_probabilities is original
    assert scenarios.evolve_probabilities is original
    assert totals["dynamics.exponential"][1] == 2
    assert totals["linalg.eigh"][1] >= 2
    assert tracer.absent_layers == []


@pytest.mark.parametrize(
    "count, value, percentile",
    [(25, 15, 60.0), (11, 1, 100.0 / 11), (10, 10, 100.0), (1, 1, 100.0)],
)
def test_tail_rule_keeps_ten_samples_beyond(count, value, percentile):
    samples = list(range(count, 0, -1))  # unsorted on purpose
    got, pct, n = run.tail_sample(samples)
    assert (got, n) == (value, count)
    assert pct == pytest.approx(percentile)
    if count > 10:
        assert sum(1 for s in samples if s > got) == 10


def _program_output(overrides):
    from ergodyn.scenarios import load_config, run_scenario

    series, summary = run_scenario(load_config(None, overrides), strict=True)
    return series.times, dict(series.channels), summary


CASES = [
    {"scenario": "single-mode-superposition", "theta": "0.9", "engine": "exponential",
     "steps": "101", "comparison": "true"},
    {"scenario": "custom-state", "cutoffs": "2,1", "omega": "1.0,1.7",
     "amplitudes": "(0.5+0.1j),0j,(0.3-0.4j),0j,0j,(0.2+0.6j)",
     "engine": "exponential", "steps": "101"},
]


@pytest.mark.parametrize("overrides", CASES, ids=lambda o: o["scenario"])
def test_verifier_passes_program_output_and_flags_one_corrupted_value(overrides):
    times, channels, summary = _program_output(overrides)
    ref_times, ref = verify.reference(overrides)
    assert verify.check_series(times, channels, summary, ref_times, ref) == []

    name = sorted(k for k in ref if k.startswith("p_"))[0]
    corrupted = dict(channels)
    corrupted[name] = channels[name].copy()
    corrupted[name][17] += 10 * summary["tolerance_analytic"]
    problems = verify.check_series(times, corrupted, summary, ref_times, ref)
    assert problems and all(name in p for p in problems)
    assert any(p.startswith(f"channel {name} off by") for p in problems)


def test_verifier_flags_a_wrong_sweep_row():
    overrides = {"scenario": "single-mode-superposition", "n": "3", "omega": "1.0"}
    values = ["0.5", "1.0"]
    rows = [
        dict(theta=float(v), negativity=None, max_cross_engine_residual=0.0,
             **verify.sweep_reference(overrides, float(v)))
        for v in values
    ]
    assert verify.check_sweep(rows, overrides, values, 1e-9) == []
    rows[1]["coherence"] += 1e-6
    assert len(verify.check_sweep(rows, overrides, values, 1e-9)) == 1
