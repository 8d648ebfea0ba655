"""Rayleigh-fading SINR link model for the two-user slotted channel.

All computation is done in linear units (watts, linear SINR ratios).
Helpers are provided to convert the dBm/dB figures that scenario files
typically quote. Per-slot success probabilities follow the standard
exponential received-power model: a solo transmission from user i is
decoded iff its SNR clears the threshold, and under a simultaneous
transmission the interferer adds a (1 + gamma * s_j/s_i)^-1 penalty.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ParameterError


def dbm_to_watts(dbm: float) -> float:
    return 10.0 ** (dbm / 10.0) / 1000.0


def db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


def linear_to_db(ratio: float) -> float:
    if ratio <= 0:
        raise ParameterError(f"ratio must be positive to express in dB, got {ratio}")
    return 10.0 * math.log10(ratio)


def _require_positive(obj, names) -> None:
    bad = [f"{n}={getattr(obj, n)}" for n in names if not getattr(obj, n) > 0]
    if bad:
        raise ParameterError(f"{type(obj).__name__} fields must be positive: {', '.join(bad)}")


@dataclass(frozen=True)
class LinkParams:
    """One user's radio link to the common receiver.

    tx_power is in watts, distance in meters, sinr_threshold is a linear
    ratio. fading_scale is the mean of the exponentially distributed
    received-power fade and defaults to 1.
    """

    tx_power: float
    distance: float
    path_loss_exp: float
    fading_scale: float = 1.0
    sinr_threshold: float = 1.0

    def __post_init__(self):
        _require_positive(
            self, ("tx_power", "distance", "path_loss_exp", "fading_scale", "sinr_threshold")
        )


@dataclass(frozen=True)
class ReceiverParams:
    """Receiver-side constants: noise power in watts."""

    noise_power: float

    def __post_init__(self):
        _require_positive(self, ("noise_power",))


@dataclass(frozen=True)
class SuccessProbs:
    """Per-slot decoding probabilities for the four transmit situations.

    p_i_solo: user i transmits alone; p_i_joint: user i transmits while
    the other user is also active. Interference never helps, so each
    joint probability is bounded by its solo counterpart.
    """

    p_1_solo: float
    p_1_joint: float
    p_2_solo: float
    p_2_joint: float

    def __post_init__(self):
        for name in ("p_1_solo", "p_1_joint", "p_2_solo", "p_2_joint"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ParameterError(f"SuccessProbs.{name} must be in [0,1], got {v}")
        if self.p_1_joint > self.p_1_solo or self.p_2_joint > self.p_2_solo:
            raise ParameterError("joint success probability cannot exceed the solo one")


def received_power_factor(link: LinkParams) -> float:
    """Mean received power (watts) of the link: tx_power * distance^-alpha."""
    return link.tx_power * link.distance ** -link.path_loss_exp


def success_prob_solo(link: LinkParams, rx: ReceiverParams) -> float:
    """Probability a lone transmission clears the SINR threshold."""
    s = received_power_factor(link)
    return math.exp(-link.sinr_threshold * rx.noise_power / (link.fading_scale * s))


def success_prob_joint(link_i: LinkParams, link_j: LinkParams, rx: ReceiverParams) -> float:
    """Probability link_i's transmission is decoded while link_j interferes."""
    s_i = link_i.fading_scale * received_power_factor(link_i)
    s_j = link_j.fading_scale * received_power_factor(link_j)
    return success_prob_solo(link_i, rx) / (1.0 + link_i.sinr_threshold * s_j / s_i)


def success_probs(link1: LinkParams, link2: LinkParams, rx: ReceiverParams) -> SuccessProbs:
    """All four per-slot success probabilities of the two-user channel."""
    return SuccessProbs(
        p_1_solo=success_prob_solo(link1, rx),
        p_1_joint=success_prob_joint(link1, link2, rx),
        p_2_solo=success_prob_solo(link2, rx),
        p_2_joint=success_prob_joint(link2, link1, rx),
    )


def mpr_strength(sp: SuccessProbs) -> float:
    """Multi-packet-reception strength: sum of the joint-to-solo success ratios.

    Ranges over (0, 2]; a receiver decodes concurrent transmissions well
    enough to be called strong when the value exceeds 1.
    """
    if sp.p_1_solo == 0.0 or sp.p_2_solo == 0.0:
        raise ParameterError("MPR strength undefined when a solo success probability is 0")
    return sp.p_1_joint / sp.p_1_solo + sp.p_2_joint / sp.p_2_solo


def is_strong_mpr(delta: float) -> bool:
    return delta > 1.0
