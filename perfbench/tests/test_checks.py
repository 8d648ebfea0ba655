"""The benchmark's own checks: they pass on the library's outputs and catch planted errors.

Run from the repository root with `python3 -m pytest perfbench/tests -q`.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH_DIR))

import layers  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402
from aoi_access import deadline_queue, markov, sim, system, validate  # noqa: E402


@pytest.fixture(scope="module")
def env():
    return workloads.setup()


def reference_point(env, d=3, **knobs):
    params = replace(env.scenarios["reference"].params, deadline=d, **knobs)
    point = workloads.oracle_point(env.docs["reference"], params.q1, params.q2, params.arrival_prob, d)
    return params, point


def test_oracle_matrix_matches_library():
    rng = np.random.default_rng(3)
    for _ in range(50):
        lam, mu, d = float(rng.uniform()), float(rng.uniform()), int(rng.integers(1, 40))
        ours = oracle.waiting_time_matrix(lam, mu, d)
        theirs = deadline_queue.build_waiting_time_matrix(deadline_queue.QueueParams(lam, mu, d)).entries
        assert np.max(np.abs(ours - theirs)) <= 1e-15


@pytest.mark.parametrize("d", [1, 3, 50, 400])
def test_point_check_passes_on_library_output(env, d):
    params, point = reference_point(env, d)
    assert oracle.check_point(point, workloads.report_outputs(system.analyze(params))) <= oracle.RESIDUAL_TOL


def _scaled(out, name, factor):
    out = dict(out)
    if name == "ana_aoi_violation":
        out[name] = {x: v * factor if x == 5 else v for x, v in out[name].items()}
    elif name == "ana_stationary":
        pi = np.array(out[name])
        pi[1] *= factor
        out[name] = pi / pi.sum()
    else:
        out[name] = out[name] * factor
    return out


@pytest.mark.parametrize("name", [
    "p_1_solo", "p_1_joint", "p_2_solo", "p_2_joint", "mu1", "mu2", "ana_stationary",
    "ana_drop_rate", "ana_busy_prob", "ana_throughput", "ana_aoi_average", "ana_aoi_violation",
])
def test_point_check_catches_two_percent_error(env, name):
    params, point = reference_point(env, 20)
    out = workloads.report_outputs(system.analyze(params))
    with pytest.raises(oracle.CheckFailed):
        oracle.check_point(point, _scaled(out, name, 1.02))


def _short_reports(env):
    params, _ = reference_point(env, 3)
    return [sim.simulate(sim.SimConfig(params=params, slots=20_000, seed=11, mode=mode, replications=2))
            for mode in sim.MODES]


def test_exact_sim_checks_pass_on_short_run(env):
    for report in _short_reports(env):
        oracle.check_sim_exact(report)


@pytest.mark.parametrize("plant", ["arrivals", "histogram", "aoi_average"])
def test_exact_sim_checks_catch_planted_errors(env, plant):
    report = _short_reports(env)[0]
    if plant == "arrivals":
        report = replace(report, counts={**report.counts, "arrivals": report.counts["arrivals"] + 1})
    elif plant == "histogram":
        hist = dict(report.aoi_histogram)
        hist[1] += 1
        report = replace(report, aoi_histogram=hist)
    else:
        report = replace(report, aoi_average=report.aoi_average * (1 + 1e-9))
    with pytest.raises(oracle.CheckFailed):
        oracle.check_sim_exact(report)


@pytest.fixture(scope="module")
def pooled(env):
    """Two 500k-slot runs per mode at d=3, as one sim-long pass would pool them."""
    params, point = reference_point(env, 3)
    closed = oracle.closed_forms(point)
    estimates = {}
    for mode in sim.MODES:
        reports = [sim.simulate(sim.SimConfig(params=params, slots=oracle.SIGMA_SLOTS, seed=seed, mode=mode))
                   for seed in (70_001, 70_002)]
        estimates[mode] = {m: float(np.mean([getattr(r, m) for r in reports])) for m in closed}
    return closed, estimates


def test_statistical_checks_pass_on_library_runs(pooled):
    closed, estimates = pooled
    for mode in sim.MODES:
        oracle.check_sim_statistics(3, mode, closed, estimates[mode], 2)


@pytest.mark.parametrize("mode,metric", [
    ("coupled", "drop_rate"), ("coupled", "busy_prob"), ("coupled", "throughput"),
    ("decoupled", "drop_rate"), ("decoupled", "busy_prob"), ("decoupled", "throughput"),
    ("decoupled", "aoi_average"),
])
def test_statistical_checks_catch_two_percent_error(pooled, mode, metric):
    closed, estimates = pooled
    with pytest.raises(oracle.CheckFailed):
        oracle.check_sim_statistics(3, mode, {**closed, metric: closed[metric] * 1.02}, estimates[mode], 2)


def test_coupled_aoi_held_to_approximation_gap(pooled):
    closed, estimates = pooled
    off = {**closed, "aoi_average": estimates["coupled"]["aoi_average"] * 1.06}
    with pytest.raises(oracle.CheckFailed):
        oracle.check_sim_statistics(3, "coupled", off, estimates["coupled"], 2)


@pytest.mark.parametrize("axis", ["q2", "q1", "lambda"])
def test_tradeoff_check_catches_swapped_points(env, axis):
    values = [k / 20 for k in range(21)]
    reports = system.sweep(env.scenarios["reference"].params, axis, values)
    drops = [r.queue.drop_rate for r in reports]
    aois = [r.aoi_average for r in reports]
    oracle.check_tradeoff(axis, values, drops, aois)
    drops[5], drops[15] = drops[15], drops[5]
    aois[5], aois[15] = aois[15], aois[5]
    with pytest.raises(oracle.CheckFailed):
        oracle.check_tradeoff(axis, values, drops, aois)


def _one_sweep(env, tmp_path):
    w = workloads.SweepTradeoff(5, env, tmp_path)
    calls = w.prepare(0)[:1]
    assert w.check(calls, w.run(calls)) == (len(w.VALUES), 0)
    return w, calls, calls[0][3]


def test_sweep_file_check_catches_reordered_json(env, tmp_path):
    w, calls, base = _one_sweep(env, tmp_path)
    path = base.with_suffix(".json")
    doc = json.loads(path.read_text())
    doc["rows"][3], doc["rows"][4] = doc["rows"][4], doc["rows"][3]
    path.write_text(json.dumps(doc))
    with pytest.raises(oracle.CheckFailed):
        w.check(calls, [0])


def test_sweep_file_check_catches_missing_csv_row(env, tmp_path):
    w, calls, base = _one_sweep(env, tmp_path)
    path = base.with_suffix(".csv")
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:-1]))
    with pytest.raises(oracle.CheckFailed):
        w.check(calls, [0])


def test_verdict_check_catches_analytical_tweak():
    slots, seed = 50_000, 101
    passed, verdict = validate.run_validation(slots=slots, seed=seed)
    workloads.check_verdict(verdict, seed, slots)
    tweak = lambda r: replace(r, aoi_average=r.aoi_average * 1.2)  # noqa: E731
    passed, verdict = validate.run_validation(slots=slots, seed=seed, analytical_tweak=tweak)
    assert not passed
    with pytest.raises(oracle.CheckFailed):
        workloads.check_verdict(verdict, seed, slots)


def test_self_time_excludes_child_spans(env):
    tracer = layers.Tracer(phase="pass")
    tracer.install({"system.analyze": None, "markov.stationary": None})
    try:
        system.analyze(replace(env.scenarios["reference"].params, deadline=200))
    finally:
        tracer.uninstall()
    analyze, solve = tracer.spans
    assert (analyze.name, solve.name, solve.parent) == ("system.analyze", "markov.stationary", 0)
    assert analyze.self_s == pytest.approx(analyze.end - analyze.start - (solve.end - solve.start))
    assert system.analyze.__module__ == "aoi_access.system" and not hasattr(system.analyze, "__wrapped__")
    assert deadline_queue.stationary is markov.stationary


def test_run_refuses_without_the_library(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sim-long", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
