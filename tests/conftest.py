"""Shared builders for the test suite."""

import contextlib
import json
from unittest import mock

import pytest

from aoi_access import channel
from aoi_access.aoi import AoiParams
from aoi_access.channel import LinkParams, db_to_linear, success_probs
from aoi_access.deadline_queue import QueueParams, build_2d_action_chain, build_waiting_time_matrix
from aoi_access.errors import ParameterError
from aoi_access.validate import (
    REFERENCE_DISTANCE_M,
    REFERENCE_NOISE_W,
    REFERENCE_PATH_LOSS_EXP,
    REFERENCE_TX_POWER_W,
    reference_params,
)


def make_link(gamma_db=0.0, tx_power_w=REFERENCE_TX_POWER_W, distance=REFERENCE_DISTANCE_M,
              alpha=REFERENCE_PATH_LOSS_EXP, fading_scale=1.0):
    """The reference link, with any of its radio figures replaced."""
    return LinkParams(
        tx_power=tx_power_w,
        distance=distance,
        path_loss_exp=alpha,
        fading_scale=fading_scale,
        sinr_threshold=db_to_linear(gamma_db),
    )


def make_params(gamma_db=0.0, q1=0.5, q2=0.5, arrival_prob=0.5, deadline=3):
    """The reference scenario of the validate module, with the suite's default knobs."""
    return reference_params(gamma_db, q1, q2, arrival_prob, deadline)


def channel_probs(params):
    """The four per-slot success probabilities of a scenario's channel."""
    return success_probs(params.link1, params.link2, params.rx)


def fixed_channel(sp):
    """Patch the channel to give every link the success probabilities sp.

    sim and slot_oracle both read channel.success_probs, so the one patch
    reaches both. None leaves the channel as it is.
    """
    if sp is None:
        return contextlib.nullcontext()
    return mock.patch.object(channel, "success_probs", return_value=sp)


def aoi_pmf(p: AoiParams, i: int) -> float:
    """Stationary probability the age equals i (i >= 1): (1 - mu2)^(i - 1) mu2."""
    if not isinstance(i, int) or i < 1:
        raise ParameterError(f"age must be an integer >= 1, got {i!r}")
    mu = p.update_success_prob
    return (1.0 - mu) ** (i - 1) * mu


def action_chain(lam, d, q2, sp, q1):
    """The joint action chain of user 1 (attempt probability q1) under interferer q2."""
    return build_2d_action_chain(
        build_waiting_time_matrix(QueueParams(lam, q1 * sp.p_1_solo, d)),
        build_waiting_time_matrix(QueueParams(lam, q1 * sp.p_1_joint, d)),
        q2,
    )


def scenario_doc(gamma_db=0.0, q1=0.5, q2=0.5, arrival_prob=0.5, deadline=3, sim=None, sweep=None):
    doc = {
        "link1": {
            "tx_power_w": REFERENCE_TX_POWER_W,
            "distance_m": REFERENCE_DISTANCE_M,
            "path_loss_exp": REFERENCE_PATH_LOSS_EXP,
            "sinr_threshold_db": gamma_db,
        },
        "link2": {
            "tx_power_w": REFERENCE_TX_POWER_W,
            "distance_m": REFERENCE_DISTANCE_M,
            "path_loss_exp": REFERENCE_PATH_LOSS_EXP,
            "sinr_threshold_db": gamma_db,
        },
        "receiver": {"noise_w": REFERENCE_NOISE_W},
        "access": {"q1": q1, "q2": q2, "arrival_prob": arrival_prob, "deadline": deadline},
    }
    if sim is not None:
        doc["sim"] = sim
    if sweep is not None:
        doc["sweep"] = sweep
    return doc


@pytest.fixture
def write_scenario(tmp_path):
    def _write(doc, name="scenario.json"):
        path = tmp_path / name
        path.write_text(json.dumps(doc, indent=1), encoding="utf-8")
        return path

    return _write
