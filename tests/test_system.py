import math
from dataclasses import replace

import numpy as np
import pytest

from aoi_access import channel, deadline_queue, markov, results
from aoi_access.channel import mpr_strength
from aoi_access.deadline_queue import QueueParams, queue_metrics
from aoi_access.errors import ConvergenceError, NotIrreducibleError, ParameterError
from aoi_access.system import (
    SWEEP_AXES,
    analyze,
    apply_axis,
    sweep,
    user1_service,
    user2_service,
)

from conftest import channel_probs, make_params

# frozen composition of the reference channel values at 0 dB with
# q1 = q2 = 0.5: 0.5 * (0.5 * p11 + 0.5 * p11/2) checked by hand
REF_MU1 = 0.3749939250492072


def test_mu1_zero_access_probability():
    params = make_params(q1=0.0)
    assert user1_service(params, channel_probs(params))[1] == 0.0


def test_mu1_without_interferer():
    params = make_params(q2=0.0, q1=0.7)
    sp = channel_probs(params)
    assert user1_service(params, sp)[1] == pytest.approx(0.7 * sp.p_1_solo, rel=1e-15)


def test_mu1_reference_composition():
    params = make_params(gamma_db=0.0, q1=0.5, q2=0.5)
    assert user1_service(params, channel_probs(params))[1] == pytest.approx(REF_MU1, rel=1e-12)


def test_mu2_idle_queue():
    params = make_params(q2=0.4)
    sp = channel_probs(params)
    assert user2_service(params, sp, 0.0)[1] == pytest.approx(0.4 * sp.p_2_solo, rel=1e-15)


def test_mu2_silent_sampler():
    params = make_params(q2=0.0)
    assert user2_service(params, channel_probs(params), 0.5)[1] == 0.0


def test_mu2_persistent_interferer():
    params = make_params(q1=1.0, q2=0.6)
    sp = channel_probs(params)
    assert user2_service(params, sp, 1.0)[1] == pytest.approx(0.6 * sp.p_2_joint, rel=1e-15)


def test_analyze_no_traffic():
    params = make_params(arrival_prob=0.0)
    rep = analyze(params)
    assert rep.queue.busy_prob == pytest.approx(0.0, abs=1e-10)
    assert rep.queue.drop_rate == 0.0
    assert rep.mu2 == pytest.approx(params.q2 * rep.sp.p_2_solo, rel=1e-10)
    assert rep.aoi_average == pytest.approx(1.0 / (params.q2 * rep.sp.p_2_solo), rel=1e-10)


def test_analyze_silent_sampler_decouples_user1():
    params = make_params(q2=0.0)
    rep = analyze(params)
    assert rep.mu2 == 0.0
    assert math.isinf(rep.aoi_average)
    assert rep.mu1 == pytest.approx(params.q1 * rep.sp.p_1_solo, rel=1e-15)
    solo = queue_metrics(QueueParams(params.arrival_prob, rep.mu1, params.deadline))
    assert rep.queue.drop_rate == solo.drop_rate
    assert rep.queue.busy_prob == solo.busy_prob


def test_mu1_ignores_arrivals_and_deadline():
    base = analyze(make_params(arrival_prob=0.2, deadline=1))
    for lam, d in ((0.0, 3), (0.9, 5), (1.0, 2)):
        other = analyze(make_params(arrival_prob=lam, deadline=d))
        assert other.mu1 == base.mu1
        assert other.p1 == base.p1


def test_report_consistency_identities():
    rep = analyze(make_params(q1=0.6, q2=0.3, arrival_prob=0.7, deadline=4))
    assert rep.mu1 == rep.params.q1 * rep.p1
    assert rep.mu2 == rep.params.q2 * rep.p2
    assert rep.aoi_average == 1.0 / rep.mu2
    assert rep.queue.throughput == rep.params.arrival_prob - rep.queue.drop_rate
    for x, v in rep.aoi_violation.items():
        assert v == pytest.approx((1.0 - rep.mu2) ** x, rel=1e-14)


def test_analyze_is_deterministic():
    params = make_params(gamma_db=-3.0, q1=0.45, q2=0.55, arrival_prob=0.65, deadline=4)
    a, b = analyze(params), analyze(params)
    assert a.mu1 == b.mu1 and a.mu2 == b.mu2 and a.delta == b.delta
    assert a.queue.drop_rate == b.queue.drop_rate
    assert np.array_equal(a.queue.stationary.probs, b.queue.stationary.probs)
    assert a.aoi_violation == b.aoi_violation


def test_sweep_q2_tradeoff_weak_mpr():
    base = make_params(gamma_db=1.0, q1=0.5, arrival_prob=0.5, deadline=3)
    reports = sweep(base, "q2", [round(0.1 * k, 1) for k in range(1, 11)])
    aoi = [r.aoi_average for r in reports]
    drops = [r.queue.drop_rate for r in reports]
    assert all(a > b for a, b in zip(aoi, aoi[1:]))
    assert all(a <= b + 1e-12 for a, b in zip(drops, drops[1:]))


def test_sweep_q1_tradeoff_weak_mpr():
    # the mirror-image trade-off: more access helps user 1, ages user 2
    base = make_params(gamma_db=1.0, q2=0.5, arrival_prob=0.5, deadline=3)
    reports = sweep(base, "q1", [round(0.1 * k, 1) for k in range(1, 11)])
    drops = [r.queue.drop_rate for r in reports]
    aoi = [r.aoi_average for r in reports]
    assert all(a >= b - 1e-12 for a, b in zip(drops, drops[1:]))
    assert all(a <= b + 1e-12 for a, b in zip(aoi, aoi[1:]))


def _spread(reports):
    return max(r.aoi_average for r in reports) - min(r.aoi_average for r in reports)


def test_sweep_q1_strong_mpr_barely_moves_aoi():
    values = [round(0.1 * k, 1) for k in range(1, 11)]
    base = make_params(q2=0.5, arrival_prob=0.8, deadline=3)
    strong = sweep(apply_axis(base, "gamma_db", -5.0), "q1", values)
    weak = sweep(apply_axis(base, "gamma_db", 1.0), "q1", values)
    assert _spread(strong) < 0.5 * _spread(weak)


def test_sweep_preserves_order_and_axis():
    base = make_params()
    values = [0.9, 0.1, 0.5]
    reports = sweep(base, "q1", values)
    assert [r.params.q1 for r in reports] == values

    swept = sweep(base, "d", [1, 4, 2])
    assert [r.params.deadline for r in swept] == [1, 4, 2]

    gamma_swept = sweep(base, "gamma_db", [-5.0])
    assert gamma_swept[0].params.link1.sinr_threshold == pytest.approx(10**-0.5, rel=1e-15)
    assert gamma_swept[0].params.link2.sinr_threshold == pytest.approx(10**-0.5, rel=1e-15)


def test_sweep_rejects_unknown_axis_and_empty_values():
    base = make_params()
    with pytest.raises(ParameterError):
        sweep(base, "speed_of_light", [1.0])
    with pytest.raises(ParameterError):
        sweep(base, "q1", [])
    with pytest.raises(ParameterError):
        sweep(base, "d", [1.5])
    for alias in ("arrival_prob", "deadline"):
        with pytest.raises(ParameterError, match="unknown sweep axis"):
            sweep(base, alias, [1])


SWEEP_VALUES = {
    "q1": [0.0, 0.3, 1.0, 0.3],
    "q2": [1.0, 0.25, 0.0, 0.6],
    "lambda": [0.5, 0.0, 1.0, 0.05],
    "d": [4, 1, 4, 2],
    "gamma": [0.5, 1.0, 2.0],
    "gamma_db": [-5.0, 0.0, 1.0],
}


@pytest.mark.parametrize("axis", SWEEP_AXES)
def test_sweep_reports_equal_one_point_analyses(axis):
    base = make_params(gamma_db=1.0, q1=0.6, q2=0.4, arrival_prob=0.7, deadline=5)
    values = SWEEP_VALUES[axis]
    for v, got in zip(values, sweep(base, axis, values), strict=True):
        want = analyze(apply_axis(base, axis, v))
        assert got.params == want.params
        assert np.array_equal(got.queue.stationary.probs, want.queue.stationary.probs)
        for name in ("sp", "p1", "p2", "mu1", "mu2", "delta", "mpr_strong", "aoi_average",
                     "aoi_violation"):
            assert getattr(got, name) == getattr(want, name), name
        for name in ("drop_rate", "per_packet_drop_prob", "throughput", "busy_prob"):
            assert getattr(got.queue, name) == getattr(want.queue, name), name


def test_sweep_raises_the_first_failing_points_error():
    # user 1 always succeeds, so at lambda = 1 every age from 1 up is absorbing
    base = make_params(gamma_db=-3000.0, q1=1.0, q2=0.0, deadline=3)
    with pytest.raises(NotIrreducibleError):
        analyze(apply_axis(base, "lambda", 1.0))
    # the stacked pass meets the 4th point's bad value before it solves the 2nd
    with pytest.raises(NotIrreducibleError):
        sweep(base, "lambda", [0.5, 1.0, 0.5, 1.5])
    with pytest.raises(ParameterError, match="arrival_prob"):
        sweep(base, "lambda", [0.5, 1.5, 0.5, 1.0])
    # a later point that cannot even be built does not mask an earlier failure
    base = replace(base, arrival_prob=1.0)
    with pytest.raises(NotIrreducibleError):
        sweep(base, "gamma_db", [-3000.0, 4000.0])


def test_sweep_replay_picks_the_first_failing_point_over_the_stacks_choice(monkeypatch):
    # no valid point is known whose LU solve fails on the axis of a later
    # reducible point, so every LU solve is made to fail: the 1st point
    # fails in its solve, and the 2nd is reducible, which the stack finds
    # before it solves anything
    def singular(a, b):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(markov.np.linalg, "solve", singular)
    base = make_params(gamma_db=-3000.0, q1=1.0, q2=0.0, deadline=3)
    with pytest.raises(NotIrreducibleError):
        deadline_queue.queue_metrics_stack([0.5, 1.0], [1.0, 1.0], 3)
    with pytest.raises(ConvergenceError, match="direct solve failed"):
        sweep(base, "lambda", [0.5, 1.0])


def count_solves(monkeypatch):
    """Record the size of every stacked and single chain solve that queue metrics make."""
    solved = []
    stack, one = deadline_queue.stationary_stack, deadline_queue.stationary

    def counting_stack(entries):
        solved.append(len(entries))
        return stack(entries)

    def counting_one(m):
        solved.append(1)
        return one(m)

    monkeypatch.setattr(deadline_queue, "stationary_stack", counting_stack)
    monkeypatch.setattr(deadline_queue, "stationary", counting_one)
    return solved


def test_sweep_solves_once_per_distinct_deadline(monkeypatch):
    solved = count_solves(monkeypatch)
    base = make_params()
    sweep(base, "d", [4, 1, 4, 2])
    assert solved == [2, 1, 1]
    solved.clear()
    sweep(base, "q2", [k / 100 for k in range(101)])
    assert solved == [101]


def test_sweep_splits_a_deadline_into_bounded_stacks(monkeypatch):
    base = make_params(deadline=3)
    values = [0.2, 0.4, 0.6, 0.8, 1.0]
    whole = sweep(base, "q1", values)
    solved = count_solves(monkeypatch)
    monkeypatch.setattr(deadline_queue, "STACK_ENTRIES", 2 * 4**2)
    for got, want in zip(sweep(base, "q1", values), whole, strict=True):
        assert np.array_equal(got.queue.stationary.probs, want.queue.stationary.probs)
    assert solved == [2, 2, 1]


def test_sweep_computes_success_probs_once_per_channel(monkeypatch):
    base = make_params(gamma_db=1.0, deadline=4)
    cases = {"q2": [k / 100 for k in range(101)], "gamma_db": [-5.0, 0.0, 1.0, 3.0]}
    want = {
        axis: [results.analytical_row(analyze(apply_axis(base, axis, v)), axis, v) for v in values]
        for axis, values in cases.items()
    }
    calls = []
    success_probs = channel.success_probs

    def counting(*args):
        calls.append(args)
        return success_probs(*args)

    monkeypatch.setattr(channel, "success_probs", counting)
    for axis, values in cases.items():
        calls.clear()
        got = [results.analytical_row(r, axis, v) for v, r in zip(values, sweep(base, axis, values))]
        # the same text in every cell: bit for bit, signed zeros included
        assert results.encode_rows(got) == results.encode_rows(want[axis])
        assert len(calls) == (1 if axis == "q2" else len(values))


def test_system_params_validation():
    with pytest.raises(ParameterError):
        make_params(q1=1.2)
    with pytest.raises(ParameterError):
        make_params(arrival_prob=-0.1)
    with pytest.raises(ParameterError):
        make_params(deadline=0)
    with pytest.raises(ParameterError, match="deadline"):
        make_params(deadline=True)


def test_mpr_strength_is_none_when_a_solo_success_underflows():
    params = make_params(gamma_db=90.0)
    sp = channel_probs(params)
    assert sp.p_1_solo == 0.0 and sp.p_2_solo == 0.0
    report = analyze(params)
    assert report.delta is None and report.mpr_strong is None
    assert report.mu1 == 0.0
    with pytest.raises(ParameterError):
        mpr_strength(sp)
