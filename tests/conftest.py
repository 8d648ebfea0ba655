"""Shared builders for the test suite."""

import json

import pytest

from aoi_access.channel import LinkParams, ReceiverParams, db_to_linear
from aoi_access.deadline_queue import QueueParams, build_2d_action_chain, build_waiting_time_matrix
from aoi_access.system import SystemParams

# symmetric radio setup used throughout: 5 mW at 30 m, path-loss 4,
# unit-mean fading, -100 dBm noise
TX_POWER_W = 0.005
DISTANCE_M = 30.0
PATH_LOSS_EXP = 4.0
NOISE_W = 1e-13


def make_link(gamma_db=0.0, tx_power_w=TX_POWER_W, distance=DISTANCE_M,
              alpha=PATH_LOSS_EXP, fading_scale=1.0):
    return LinkParams(
        tx_power=tx_power_w,
        distance=distance,
        path_loss_exp=alpha,
        fading_scale=fading_scale,
        sinr_threshold=db_to_linear(gamma_db),
    )


def make_params(gamma_db=0.0, q1=0.5, q2=0.5, arrival_prob=0.5, deadline=3):
    link = make_link(gamma_db)
    return SystemParams(
        link1=link,
        link2=link,
        rx=ReceiverParams(noise_power=NOISE_W),
        q1=q1,
        q2=q2,
        arrival_prob=arrival_prob,
        deadline=deadline,
    )


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
            "tx_power_w": TX_POWER_W,
            "distance_m": DISTANCE_M,
            "path_loss_exp": PATH_LOSS_EXP,
            "sinr_threshold_db": gamma_db,
        },
        "link2": {
            "tx_power_w": TX_POWER_W,
            "distance_m": DISTANCE_M,
            "path_loss_exp": PATH_LOSS_EXP,
            "sinr_threshold_db": gamma_db,
        },
        "receiver": {"noise_w": NOISE_W},
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
