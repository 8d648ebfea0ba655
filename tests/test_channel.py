import math

import numpy as np
import pytest

from aoi_access.channel import (
    LinkParams,
    ReceiverParams,
    SuccessProbs,
    db_to_linear,
    is_strong_mpr,
    mpr_strength,
    received_power_factor,
    success_prob_joint,
    success_prob_solo,
    success_probs,
)
from aoi_access.errors import ParameterError
from aoi_access.validate import REFERENCE_NOISE_W

from conftest import make_link

RX = ReceiverParams(noise_power=REFERENCE_NOISE_W)

# frozen from the independent one-liner 0.005 / 30**4 (exact integer power)
REF_POWER_FACTOR = 6.17283950617284e-09
# frozen from math.exp(-1e-13 / REF_POWER_FACTOR)
REF_SOLO_PROB = 0.9999838001312192

# frozen from 2 / (1 + 10**(db/10)); the exponential noise factor cancels
# in each joint/solo ratio, so these hold to float precision at any noise
REF_DELTAS = {
    -5.0: 1.5194938532959157,
    -3.0: 1.3322788491662443,
    0.0: 1.0,
    1.0: 0.8853767324754145,
}


def test_received_power_factor_reference():
    link = make_link()
    assert received_power_factor(link) == pytest.approx(REF_POWER_FACTOR, rel=1e-12)
    assert received_power_factor(link) == pytest.approx(0.005 / 30**4, rel=1e-15)


def test_received_power_factor_unit_distance():
    assert received_power_factor(LinkParams(1.0, 1.0, 4.0)) == 1.0
    assert received_power_factor(LinkParams(2.0, 1.0, 7.0)) == 2.0


@pytest.mark.parametrize("field", ["tx_power", "distance", "path_loss_exp", "fading_scale", "sinr_threshold"])
def test_link_params_reject_nonpositive(field):
    kwargs = dict(tx_power=1.0, distance=1.0, path_loss_exp=4.0, fading_scale=1.0, sinr_threshold=1.0)
    kwargs[field] = 0.0
    with pytest.raises(ParameterError):
        LinkParams(**kwargs)
    kwargs[field] = -1.0
    with pytest.raises(ParameterError):
        LinkParams(**kwargs)


def test_receiver_params_reject_nonpositive():
    with pytest.raises(ParameterError):
        ReceiverParams(noise_power=0.0)


def test_solo_vanishing_threshold_saturates():
    link = LinkParams(1.0, 1.0, 4.0, sinr_threshold=1e-300)
    assert success_prob_solo(link, ReceiverParams(1.0)) == pytest.approx(1.0, abs=1e-12)


def test_solo_reference_value():
    link = make_link(gamma_db=0.0)  # threshold 1 linear
    assert success_prob_solo(link, ReceiverParams(1e-13)) == pytest.approx(REF_SOLO_PROB, rel=1e-12)


def test_solo_half_at_log_two_exponent():
    link = LinkParams(1.0, 1.0, 4.0, fading_scale=1.0, sinr_threshold=math.log(2.0))
    assert success_prob_solo(link, ReceiverParams(1.0)) == pytest.approx(0.5, rel=1e-15)


def test_solo_monotone_in_threshold_and_noise():
    thresholds = np.geomspace(0.01, 100, 12)
    probs = [
        success_prob_solo(LinkParams(0.005, 30.0, 4.0, sinr_threshold=float(t)), RX)
        for t in thresholds
    ]
    assert all(a > b for a, b in zip(probs, probs[1:]))

    link = make_link()
    noises = np.geomspace(1e-14, 1e-6, 12)
    probs = [success_prob_solo(link, ReceiverParams(float(n))) for n in noises]
    assert all(a > b for a, b in zip(probs, probs[1:]))


def test_joint_symmetric_zero_db_negligible_noise():
    link = make_link(gamma_db=0.0)
    rx = ReceiverParams(1e-30)
    assert success_prob_joint(link, link, rx) == pytest.approx(0.5, abs=1e-9)


def test_joint_symmetric_minus_five_db_negligible_noise():
    # frozen from 1 / (1 + 10**-0.5)
    link = make_link(gamma_db=-5.0)
    rx = ReceiverParams(1e-30)
    assert success_prob_joint(link, link, rx) == pytest.approx(0.7597469266479578, rel=1e-9)


def test_joint_approaches_solo_as_threshold_vanishes():
    link = LinkParams(0.005, 30.0, 4.0, sinr_threshold=1e-12)
    other = make_link()
    assert success_prob_joint(link, other, RX) == pytest.approx(
        success_prob_solo(link, RX), rel=1e-9
    )


def test_joint_equals_solo_times_interference_factor():
    link1 = LinkParams(0.01, 25.0, 3.5, fading_scale=0.8, sinr_threshold=0.7)
    link2 = LinkParams(0.002, 55.0, 4.2, fading_scale=1.3, sinr_threshold=2.0)
    s1 = 0.8 * (0.01 * 25.0**-3.5)
    s2 = 1.3 * (0.002 * 55.0**-4.2)
    expected = success_prob_solo(link1, RX) / (1.0 + 0.7 * s2 / s1)
    assert success_prob_joint(link1, link2, RX) == pytest.approx(expected, rel=1e-14)


def test_joint_never_exceeds_solo_on_random_links():
    # ranges keep the link budget clear of exp() underflow
    rng = np.random.default_rng(42)

    def random_link():
        return LinkParams(
            tx_power=float(rng.uniform(1e-3, 1.0)),
            distance=float(rng.uniform(1.0, 60.0)),
            path_loss_exp=float(rng.uniform(2.0, 4.0)),
            fading_scale=float(rng.uniform(0.5, 3.0)),
            sinr_threshold=float(rng.uniform(0.01, 10.0)),
        )

    for _ in range(200):
        la, lb = random_link(), random_link()
        rx = ReceiverParams(float(rng.uniform(1e-14, 1e-12)))
        solo = success_prob_solo(la, rx)
        joint = success_prob_joint(la, lb, rx)
        assert 0.0 < joint <= solo <= 1.0


@pytest.mark.parametrize("gamma_db", sorted(REF_DELTAS))
def test_mpr_strength_reference_values(gamma_db):
    link = make_link(gamma_db=gamma_db)
    sp = success_probs(link, link, RX)
    delta = mpr_strength(sp)
    assert delta == pytest.approx(REF_DELTAS[gamma_db], abs=5e-4)
    assert is_strong_mpr(delta) == (gamma_db < 0.0)


def test_mpr_strength_symmetric_closed_form():
    # for equal links the ratio is exactly 2/(1+gamma), whatever the noise
    for gamma_db in (-7.0, -2.0, 0.5, 4.0):
        gamma = db_to_linear(gamma_db)
        link = make_link(gamma_db=gamma_db)
        for noise in (1e-13, 1e-20, 1e-8):
            sp = success_probs(link, link, ReceiverParams(noise))
            assert mpr_strength(sp) == pytest.approx(2.0 / (1.0 + gamma), rel=1e-12)


def test_mpr_strength_zero_solo_guard():
    sp = SuccessProbs(p_1_solo=0.0, p_1_joint=0.0, p_2_solo=0.5, p_2_joint=0.25)
    with pytest.raises(ParameterError):
        mpr_strength(sp)


def test_success_probs_validation():
    with pytest.raises(ParameterError):
        SuccessProbs(1.1, 0.5, 0.5, 0.5)
    with pytest.raises(ParameterError):
        SuccessProbs(0.5, 0.6, 0.5, 0.5)  # joint above solo
    with pytest.raises(ParameterError):
        SuccessProbs(0.5, -0.1, 0.5, 0.5)
