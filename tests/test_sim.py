from dataclasses import fields, replace

import numpy as np
import pytest

from aoi_access import sim
from aoi_access.aoi import AoiParams, aoi_pmf
from aoi_access.channel import SuccessProbs
from aoi_access.errors import ParameterError
from aoi_access.sim import (
    SimConfig,
    compare_occupancy,
    compare_transitions,
    coupled_run,
    occupancy_vs_stationary,
    simulate,
    transition_frequency_check,
)
from aoi_access.system import analyze
from aoi_access.validate import DEFAULT_GRID, cell_params

from conftest import make_params

PERFECT = SuccessProbs(1.0, 1.0, 1.0, 1.0)


def test_reports_are_reproducible():
    cfg = SimConfig(params=make_params(), slots=50_000, seed=321, mode="coupled", replications=2)
    assert simulate(cfg) == simulate(cfg)


def test_seed_changes_the_sample_path():
    base = make_params()
    a = simulate(SimConfig(params=base, slots=50_000, seed=1, mode="coupled"))
    b = simulate(SimConfig(params=base, slots=50_000, seed=2, mode="coupled"))
    assert a != b


def test_replications_do_not_replay_the_next_seed():
    params = make_params()
    pair = SimConfig(params=params, slots=20_000, seed=11, replications=2)
    _, bounds = sim._layout(pair)
    second = sim._replicate(pair, bounds, 1)
    next_seed = sim._replicate(replace(pair, seed=12, replications=1), bounds, 0)
    assert second["aoi_sum"] != next_seed["aoi_sum"]
    assert second["arrivals"] != next_seed["arrivals"]


def test_counting_identity_exact():
    for mode in ("coupled", "decoupled"):
        for seed in (5, 6):
            cfg = SimConfig(
                params=make_params(arrival_prob=0.7, deadline=4),
                slots=30_000,
                seed=seed,
                mode=mode,
                replications=3,
            )
            rep = simulate(cfg)
            c = rep.counts
            assert c["arrivals"] == c["delivered"] + c["dropped"] + c["queue_residual"]


def test_histogram_and_occupancy_mass():
    cfg = SimConfig(params=make_params(), slots=40_000, seed=9, mode="coupled", replications=2)
    rep = simulate(cfg)
    assert sum(rep.aoi_histogram.values()) == rep.counts["measured_slots"]
    assert sum(rep.waiting_time_occupancy) == pytest.approx(1.0, abs=1e-9)
    assert rep.busy_prob == pytest.approx(1.0 - rep.waiting_time_occupancy[0], abs=1e-12)


def test_no_traffic_reduction():
    params = make_params(arrival_prob=0.0, q2=0.5)
    cfg = SimConfig(params=params, slots=120_000, seed=17, mode="coupled", replications=5)
    rep = simulate(cfg)
    assert rep.drop_rate == 0.0
    assert rep.busy_prob == 0.0
    ana = analyze(params)
    tol = max(4.0 * rep.ci_halfwidth["aoi_average"], 0.01 * ana.aoi_average)
    assert abs(rep.aoi_average - ana.aoi_average) <= tol


def test_perfect_channel_never_drops():
    params = make_params(q1=1.0, q2=0.0, arrival_prob=0.5, deadline=3)
    cfg = SimConfig(
        params=params,
        slots=100_000,
        seed=23,
        mode="coupled",
        success_probs_override=PERFECT,
    )
    rep = simulate(cfg)
    assert rep.drop_rate == 0.0
    assert rep.throughput == pytest.approx(0.5, abs=0.005)


def test_decoupled_matches_analytical_reference():
    params = make_params(gamma_db=0.0, q1=0.5, q2=0.5, arrival_prob=0.5, deadline=3)
    ana = analyze(params)
    rep = simulate(SimConfig(params=params, slots=300_000, seed=29, mode="decoupled"))
    for sim_v, ana_v in (
        (rep.drop_rate, ana.queue.drop_rate),
        (rep.busy_prob, ana.queue.busy_prob),
        (rep.throughput, ana.queue.throughput),
        (rep.aoi_average, ana.aoi_average),
        (rep.aoi_violation[5], ana.aoi_violation[5]),
    ):
        assert abs(sim_v - ana_v) <= max(0.02 * abs(ana_v), 0.01)


def test_decoupled_age_histogram_is_geometric():
    params = make_params(gamma_db=0.0, q1=0.5, q2=0.5, arrival_prob=0.5, deadline=3)
    ana = analyze(params)
    rep = simulate(SimConfig(params=params, slots=1_000_000, seed=31, mode="decoupled"))
    measured = rep.counts["measured_slots"]
    p = AoiParams(ana.mu2)
    max_age = max(rep.aoi_histogram)
    tv = 0.5 * sum(
        abs(rep.aoi_histogram.get(i, 0) / measured - aoi_pmf(p, i))
        for i in range(1, max_age + 1)
    )
    tv += 0.5 * (1.0 - ana.mu2) ** max_age  # pmf tail the run never reached
    assert tv < 0.01


def test_occupancy_no_traffic_exact():
    cmp = occupancy_vs_stationary(
        SimConfig(params=make_params(arrival_prob=0.0), slots=50_000, seed=37, mode="coupled")
    )
    assert cmp.occupancy == (1.0, 0.0, 0.0, 0.0)
    assert cmp.max_abs_deviation == pytest.approx(0.0, abs=1e-9)


def test_occupancy_d1_closed_form():
    cmp = occupancy_vs_stationary(
        SimConfig(
            params=make_params(arrival_prob=0.4, deadline=1),
            slots=200_000,
            seed=41,
            mode="coupled",
        )
    )
    assert cmp.stationary == pytest.approx((0.6, 0.4), abs=1e-10)
    assert cmp.max_abs_deviation < 0.01


def test_occupancy_reference_scenario():
    cmp = occupancy_vs_stationary(
        SimConfig(params=make_params(), slots=300_000, seed=43, mode="coupled")
    )
    assert cmp.max_abs_deviation < 0.01


def test_occupancy_requires_coupled_mode():
    cfg = SimConfig(params=make_params(), slots=10_000, seed=1, mode="decoupled")
    with pytest.raises(ParameterError):
        occupancy_vs_stationary(cfg)
    with pytest.raises(ParameterError):
        transition_frequency_check(cfg)
    with pytest.raises(ParameterError):
        coupled_run(cfg)


def assert_same_fields(got, want):
    assert type(got) is type(want)
    for f in fields(want):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(b, np.ndarray):
            assert np.array_equal(a, b, equal_nan=True), f.name
        else:
            assert a == b, f.name


@pytest.mark.parametrize(
    "params",
    [cell_params(cell) for cell in DEFAULT_GRID]
    + [make_params(arrival_prob=0.0), make_params(arrival_prob=0.4, deadline=1)],
)
def test_one_run_serves_both_checks(params):
    cfg = SimConfig(params=params, slots=20_000, seed=19)
    run = coupled_run(cfg)
    occupancy = compare_occupancy(run)
    transitions = compare_transitions(run, min_visits=500)
    assert_same_fields(occupancy, occupancy_vs_stationary(cfg))
    assert_same_fields(transitions, transition_frequency_check(cfg, min_visits=500))
    # reading the run leaves it as it was
    assert_same_fields(compare_occupancy(run), occupancy)
    assert_same_fields(compare_transitions(run, min_visits=500), transitions)


def test_transition_frequencies_reference_scenario():
    check = transition_frequency_check(
        SimConfig(params=make_params(), slots=300_000, seed=47, mode="coupled")
    )
    assert check.passed
    assert not check.insufficient_states
    assert not check.flagged


def test_transition_perfect_service_never_ages():
    params = make_params(q1=1.0, q2=0.5, arrival_prob=0.5, deadline=3)
    check = transition_frequency_check(
        SimConfig(
            params=params,
            slots=100_000,
            seed=53,
            mode="coupled",
            success_probs_override=PERFECT,
        ),
        min_visits=1_000,
    )
    assert check.passed
    # with certain service the head never reaches age 2
    assert check.empirical[1, 2] == 0.0
    assert set(check.insufficient_states) == {2, 3}


def test_transition_saturated_arrivals_starve_state_zero():
    params = make_params(arrival_prob=1.0, deadline=3)
    check = transition_frequency_check(
        SimConfig(params=params, slots=100_000, seed=59, mode="coupled")
    )
    assert 0 in check.insufficient_states
    assert check.passed


def test_ci_halfwidths_populate_with_replications():
    cfg = SimConfig(params=make_params(), slots=20_000, seed=61, mode="decoupled", replications=8)
    rep = simulate(cfg)
    assert rep.replications == 8
    assert all(v >= 0.0 for v in rep.ci_halfwidth.values())
    assert rep.ci_halfwidth["drop_rate"] > 0.0
    assert rep.ci_halfwidth["aoi_average"] > 0.0

    single = simulate(SimConfig(params=make_params(), slots=20_000, seed=61, mode="decoupled"))
    assert all(v == 0.0 for v in single.ci_halfwidth.values())


def test_warmup_defaults_to_ten_percent():
    cfg = SimConfig(params=make_params(), slots=50_000, seed=1)
    assert cfg.warmup_slots == 5_000


def test_config_validation():
    params = make_params()
    with pytest.raises(ParameterError):
        SimConfig(params=params, slots=100, seed=1, warmup_slots=100)
    with pytest.raises(ParameterError):
        SimConfig(params=params, slots=0, seed=1)
    with pytest.raises(ParameterError):
        SimConfig(params=params, slots=100, seed=1, replications=0)
    with pytest.raises(ParameterError):
        SimConfig(params=params, slots=100, seed=1, mode="hybrid")
