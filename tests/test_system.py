import math

import numpy as np
import pytest

from aoi_access.channel import mpr_strength
from aoi_access.deadline_queue import QueueParams, queue_metrics
from aoi_access.errors import ParameterError
from aoi_access.system import analyze, apply_axis, sweep, user1_service, user2_service

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


def test_system_params_validation():
    with pytest.raises(ParameterError):
        make_params(q1=1.2)
    with pytest.raises(ParameterError):
        make_params(arrival_prob=-0.1)
    with pytest.raises(ParameterError):
        make_params(deadline=0)


def test_mpr_strength_is_none_when_a_solo_success_underflows():
    params = make_params(gamma_db=90.0)
    sp = channel_probs(params)
    assert sp.p_1_solo == 0.0 and sp.p_2_solo == 0.0
    report = analyze(params)
    assert report.delta is None and report.mpr_strong is None
    assert report.mu1 == 0.0
    with pytest.raises(ParameterError):
        mpr_strength(sp)
