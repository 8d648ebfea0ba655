"""The vectorised simulator against the slot-by-slot oracle in slot_oracle.py."""

import dataclasses
import json
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import slot_oracle
from aoi_access import sim
from aoi_access.channel import SuccessProbs
from aoi_access.errors import NotIrreducibleError
from aoi_access.sim import MODES, SimConfig, simulate

from conftest import make_params


def _plain(rep: dict) -> dict:
    """A replication's tallies as lists, the histogram without trailing zeros."""
    out = {
        k: np.asarray(v).tolist() if isinstance(v, (list, np.ndarray)) else v
        for k, v in rep.items()
    }
    out["hist"] = np.trim_zeros(np.asarray(rep["hist"]), "b").tolist()
    return out


def _assert_matches_oracle(cfg: SimConfig) -> None:
    try:
        want = slot_oracle.simulate(cfg)
    except Exception as exc:  # the analytic pipeline rejects the point
        with pytest.raises(type(exc)):
            simulate(cfg)
        return
    _, bounds = sim._layout(cfg)
    for r in range(cfg.replications):
        assert _plain(sim._replicate(cfg, bounds, r)) == _plain(slot_oracle.replicate(cfg, r))
    got = simulate(cfg)
    assert got == want

    c = got.counts
    assert c["arrivals"] == c["delivered"] + c["dropped"] + c["queue_residual"]
    assert all(type(v) is int for v in c.values())
    assert all(type(k) is int and type(v) is int for k, v in got.aoi_histogram.items())
    json.dumps(dataclasses.asdict(got))


probs = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


@st.composite
def success_probs(draw):
    solo1, solo2 = draw(probs), draw(probs)
    return SuccessProbs(solo1, solo1 * draw(probs), solo2, solo2 * draw(probs))


@st.composite
def configs(draw):
    slots = draw(st.one_of(st.integers(1, 40), st.integers(41, 2_500)))
    params = make_params(
        gamma_db=draw(st.sampled_from([-5.0, 0.0, 1.0])),
        q1=draw(probs),
        q2=draw(probs),
        arrival_prob=draw(probs),
        deadline=draw(st.integers(1, 12)),
    )
    return SimConfig(
        params=params,
        slots=slots,
        seed=draw(st.integers(0, 2**32)),
        warmup_slots=draw(st.integers(0, slots - 1)),
        replications=draw(st.sampled_from([1, 1, 2, 3, 9])),
        mode=draw(st.sampled_from(MODES)),
        success_probs_override=draw(st.one_of(st.none(), success_probs())),
    )


@settings(max_examples=150, deadline=None)
@given(
    cfg=configs(),
    chunk=st.sampled_from([1, 2, 7, 128]),
    block=st.sampled_from([1, 3, 64, 1 << 14]),
)
def test_matches_slot_oracle(cfg, chunk, block):
    with mock.patch.object(sim, "_CHUNK", chunk), mock.patch.object(sim, "_BLOCK", block):
        _assert_matches_oracle(cfg)


EDGES = [
    dict(slots=1, warmup_slots=0),
    dict(params=make_params(deadline=1)),
    dict(params=make_params(arrival_prob=0.0)),
    dict(params=make_params(arrival_prob=1.0, deadline=4)),
    dict(params=make_params(q1=0.0)),
    dict(params=make_params(q1=1.0, q2=0.0, deadline=2)),
    dict(success_probs_override=SuccessProbs(0.0, 0.0, 0.6, 0.3)),
    dict(success_probs_override=SuccessProbs(0.7, 0.2, 0.0, 0.0)),
    dict(success_probs_override=SuccessProbs(1.0, 1.0, 1.0, 1.0)),
]


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("edge", EDGES)
def test_edges_match_slot_oracle(edge, mode):
    kw = dict(params=make_params(), slots=3_000, seed=5, replications=2, mode=mode)
    _assert_matches_oracle(SimConfig(**{**kw, **edge}))


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize(
    "params",
    [make_params(deadline=3), make_params(deadline=20), make_params(q2=0.0)],
    ids=["d3", "d20", "age-grows-unbounded"],
)
def test_long_horizon_matches_slot_oracle(params, mode):
    # several draw pieces, tally blocks and departure chunks
    _assert_matches_oracle(SimConfig(params=params, slots=120_000, seed=77, mode=mode))


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize(
    "q1, q2, sp",
    [
        (0.5, 0.5, None),
        (0.7, 0.3, SuccessProbs(0.8, 0.3, 0.6, 0.2)),
        (0.6, 0.5, SuccessProbs(0.0, 0.0, 0.7, 0.0)),
        (1.0, 0.4, SuccessProbs(1.0, 1.0, 1.0, 1.0)),
        (1.0, 1.0, SuccessProbs(1.0, 1.0, 1.0, 1.0)),
    ],
)
def test_channel_draws_follow_the_interval_layout(q1, q2, sp, mode):
    cfg = SimConfig(
        params=make_params(q1=q1, q2=q2),
        slots=1_000_000,
        seed=13,
        mode=mode,
        success_probs_override=sp,
    )
    _, bounds = sim._layout(cfg)
    _, s1, s2_idle, s2_busy = sim._draw(cfg, bounds, 0, np.int32)
    p10, p11, p01, p2 = slot_oracle.thresholds(cfg)
    events = [
        (s1 & s2_busy, p11),
        (s1 & ~s2_busy, p10),
        (~s1 & s2_busy, p01),
        (s2_idle, p2),
        (s1, p10 + p11),
        (s2_busy, p11 + p01),
    ]
    n = cfg.slots
    for drawn, prob in events:
        hits = int(np.count_nonzero(drawn))
        if prob == 0.0:
            assert hits == 0
        elif prob == 1.0:
            assert hits == n
        else:
            assert abs(hits / n - prob) <= 5.0 * np.sqrt(prob * (1.0 - prob) / n), (hits, prob)


def test_coupled_run_needs_no_chain_solve():
    # lam = mu = 1 makes every nonzero head-of-line age absorbing, so the
    # chain has no unique stationary vector; only decoupled draws need it
    cfg = SimConfig(
        params=make_params(q1=1.0, q2=0.0, arrival_prob=1.0, deadline=3),
        slots=3_000,
        seed=5,
        success_probs_override=SuccessProbs(1.0, 1.0, 1.0, 1.0),
    )
    assert simulate(cfg) == slot_oracle.simulate(cfg)
    with pytest.raises(NotIrreducibleError):
        simulate(dataclasses.replace(cfg, mode="decoupled"))


def test_long_deadline_coupled_run_matches_slot_oracle():
    cfg = SimConfig(
        params=make_params(arrival_prob=0.2, deadline=1000),
        slots=10_000,
        seed=1,
        success_probs_override=SuccessProbs(0.5, 0.5, 0.5, 0.5),
    )
    assert simulate(cfg) == slot_oracle.simulate(cfg)


def test_replication_memory_within_oracle_budget():
    # The budget is the traced peak of the slot loop that drew seven
    # byte-per-slot streams, plus the float64 draw of the last one: 15
    # bytes per slot, 7.2 MiB here. It stays at that figure.
    cfg = SimConfig(params=make_params(deadline=20), slots=500_000, seed=3)
    _, bounds = sim._layout(cfg)
    tracemalloc.start()
    try:
        sim._replicate(cfg, bounds, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 15 * cfg.slots, peak
