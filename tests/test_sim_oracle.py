"""The vectorised simulator against the slot-by-slot oracle in slot_oracle.py."""

import bisect
import dataclasses
import json
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import slot_oracle
from aoi_access import sim
from aoi_access.channel import SuccessProbs
from aoi_access.errors import NotIrreducibleError
from aoi_access.sim import MODES, SimConfig, simulate

from conftest import fixed_channel, make_params


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
        assert _plain(sim._replicate(cfg, bounds, r, transitions=True)) == _plain(
            slot_oracle.replicate(cfg, r)
        )
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
    )


def chunk_length(chunk):
    """A stand-in for sim._chunk_length that solves in chunks of `chunk` packets."""
    return lambda n: min(chunk, n)


@settings(max_examples=150, deadline=None)
@given(
    cfg=configs(),
    sp=st.one_of(st.none(), success_probs()),
    chunk=st.sampled_from([1, 2, 7, 128]),
    block=st.sampled_from([1, 3, 64, 1 << 14]),
    blocks_per_segment=st.sampled_from([1, 2, 5, 8]),
)
def test_matches_slot_oracle(cfg, sp, chunk, block, blocks_per_segment):
    # at most 100 segments: each costs a few hundred microseconds of Python
    segment = block * max(blocks_per_segment, -(-cfg.slots // (100 * block)))
    with (
        fixed_channel(sp),
        mock.patch.object(sim, "_chunk_length", chunk_length(chunk)),
        mock.patch.object(sim, "_BLOCK", block),
        mock.patch.object(sim, "_SEGMENT", segment),
    ):
        _assert_matches_oracle(cfg)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize(
    "params",
    [
        make_params(deadline=90),
        make_params(arrival_prob=0.9, deadline=90),
        make_params(q2=0.0, deadline=7),
        make_params(arrival_prob=1.0, deadline=5),
        make_params(arrival_prob=1.0, q2=0.0, deadline=40),
    ],
    ids=["d-spans-segments", "saturated", "q2-0", "lambda-1", "lambda-1-q2-0"],
)
@pytest.mark.parametrize("shift", [-1, 0, 1])
@pytest.mark.parametrize("chunk", [1, 7, 64])
def test_segment_edges_match_slot_oracle(params, mode, shift, chunk):
    # 32-slot segments of 16-slot blocks; the warm-up ends at the third
    # segment's edge, one slot before it or one after it. A chunk of 64
    # holds every packet of a segment, so each segment's whole solve starts
    # from the count carried over its edge.
    cfg = SimConfig(params=params, slots=1_000, seed=3, warmup_slots=96 + shift, mode=mode)
    with (
        mock.patch.object(sim, "_chunk_length", chunk_length(chunk)),
        mock.patch.object(sim, "_BLOCK", 16),
        mock.patch.object(sim, "_SEGMENT", 32),
    ):
        _assert_matches_oracle(cfg)


def fifo_departures(a, s1, d):
    """Each packet's departure slot and delivery, one packet at a time.

    e_i = min(N(x_i), a_i + d) with x_i = max(a_i, e_{i-1}) + 1, where N(x)
    is user 1's first success at or after slot x and every slot past the
    horizon counts as a success; the packet is delivered iff N(x_i) comes
    first.
    """
    successes = np.flatnonzero(s1).tolist()
    departures, delivered = [], []
    prev = -1
    for arrival in a.tolist():
        x = max(arrival, prev) + 1
        k = bisect.bisect_left(successes, x)
        nxt = successes[k] if k < len(successes) else max(x, len(s1))
        prev = min(nxt, arrival + d)
        departures.append(prev)
        delivered.append(nxt <= arrival + d)
    return departures, delivered


@st.composite
def fifo_inputs(draw):
    slots = draw(st.integers(1, 2_000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    successes = draw(st.sampled_from(["none", "all", "random"]))
    if successes == "random":
        s1 = rng.random(slots) < draw(st.floats(0.0, 1.0))
    else:
        s1 = np.full(slots, successes == "all")
    lam = draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)))
    a = np.flatnonzero(rng.random(slots) < lam).astype(np.int32)
    d = draw(st.one_of(st.integers(1, 12), st.integers(1, 2_000)))
    return a, s1, d


def segment_departures(a, s1, d, segment):
    """_departures played one segment of slots at a time, as _replicate plays it.

    Each segment's packets are solved on its slots and the d after them,
    starting from the previous packet's departure.
    """
    departures, delivered = [], []
    for t0 in range(0, len(s1), segment):
        t1 = t0 + segment
        prev = departures[-1] - t0 if departures else -1
        new = a[(t0 <= a) & (a < t1)] - t0
        e, ok = sim._departures(new, s1[t0 : t1 + d], d, prev)
        departures += (e + t0).tolist()
        delivered += ok.tolist()
    return departures, delivered


@settings(max_examples=200, deadline=None)
@given(
    inputs=fifo_inputs(),
    chunk=st.sampled_from([1, 2, 7, 128]),
    # 2^14 slots hold any input in one segment
    segment=st.sampled_from([1, 2, 3, 5, 6, 8, 15, 24, 64, 128, 320, 512, 1 << 14]),
)
def test_departures_match_sequential_fifo(inputs, chunk, segment):
    a, s1, d = inputs
    with mock.patch.object(sim, "_chunk_length", chunk_length(chunk)):
        got = segment_departures(a, s1, d, segment)
    assert got == fifo_departures(a, s1, d)


def test_chunk_length_is_the_root_of_a_32nd_of_the_packets():
    lengths = [sim._chunk_length(n) for n in range(1, (1 << 17) + 1)]
    assert lengths[:127] == [1] * 127
    assert (lengths[127], lengths[-1]) == (2, 64)
    assert all(a <= b for a, b in zip(lengths, lengths[1:]))
    assert all(L * L * 32 <= n < (L + 1) ** 2 * 32 for n, L in enumerate(lengths[127:], 128))


@settings(max_examples=100, deadline=None)
@given(inputs=fifo_inputs(), chunk=st.sampled_from([1, 2, 7]))
def test_chunk_end_is_its_start_plus_length_clamped_to_the_probe_ends(inputs, chunk):
    # each packet's step g -> min(max(g, lo) + 1, hi) is a clamped shift by
    # one, so a chunk of L packets maps every start g to
    # min(max(g + L, low), high), with low and high its ends from lo_0 and hi_0
    a, s1, d = inputs
    assume(len(a))
    L = min(chunk, len(a))
    m = -(-len(a) // L)
    lo, hi = sim._success_counts(a, s1, d, L, m)
    low, high = sim._advance(np.stack((lo[0], hi[0])), lo, hi)
    for c in range(m):
        start = np.arange(int(hi[0, c]) + 1)
        g = start
        for lo_j, hi_j in zip(lo[:, c].tolist(), hi[:, c].tolist()):
            g = np.minimum(np.maximum(g, lo_j) + 1, hi_j)
        assert (g[lo[0, c]], g[-1]) == (low[c], high[c])
        assert g.tolist() == np.minimum(np.maximum(start + L, low[c]), high[c]).tolist()


def count_slots(a, e, s2_idle, s2_busy, cfg):
    """The tallies of _Tally, counted one slot at a time.

    In slot t the head is the first packet departing at t or later (the
    sentinel a[-1] once all have left); its state is t minus its arrival
    slot if it arrived before t, else 0. The age is t minus user 2's last
    success before t, or t + 1 if there was none.
    """
    d = cfg.params.deadline
    occ = [0] * (d + 1)
    trans = [[0] * (d + 1) for _ in range(d + 1)]
    hist = [0] * (cfg.slots + 2)
    aoi_sum = 0
    head, last, prev = 0, -1, -1
    for t in range(cfg.slots):
        while head < len(e) and e[head] < t:
            head += 1
        state = max(t - int(a[head]), 0)
        if t >= cfg.warmup_slots:
            occ[state] += 1
            if prev >= 0:
                trans[prev][state] += 1
            prev = state
            hist[t - last] += 1
            aoi_sum += t - last
        if (s2_busy if state else s2_idle)[t]:
            last = t
    return {"occ": occ, "trans": trans, "hist": hist, "aoi_sum": aoi_sum}


def tally_inputs(rng, slots, lam, d, p_idle, p_busy):
    """FIFO arrival and departure slots and user 2's success draws.

    Each departure lies between one past the later of the packet's arrival
    and the previous departure, and the packet's deadline.
    """
    arrivals = np.flatnonzero(rng.random(slots) < lam)
    e, prev = [], -1
    for t in arrivals.tolist():
        prev = int(rng.integers(max(t, prev) + 1, t + d + 1))
        e.append(prev)
    a = np.append(arrivals, slots).astype(np.int32)
    return a, np.array(e, dtype=np.int32), rng.random(slots) < p_idle, rng.random(slots) < p_busy


def segment_tallies(a, e, s2_idle, s2_busy, cfg, segment):
    """_Tally fed one segment of slots at a time, as _replicate feeds it.

    A segment's slots are headed by the packets that arrive before its end
    and depart at its start or later; its end is the sentinel arrival.
    """
    tally = sim._Tally(cfg, transitions=True)
    for t0 in range(0, cfg.slots, segment):
        t1 = min(t0 + segment, cfg.slots)
        lo, hi = int(np.searchsorted(e, t0)), int(np.searchsorted(a[:-1], t1))
        heads = np.append(a[lo:hi], np.int32(t1))
        tally.add(heads, e[lo:hi], s2_idle[t0:t1], s2_busy[t0:t1], t0)
    return tally.finish(cfg.slots)


def assert_tallies_match_slot_count(a, e, s2_idle, s2_busy, cfg, block, blocks_per_segment=1):
    with mock.patch.object(sim, "_BLOCK", block):
        got = segment_tallies(a, e, s2_idle, s2_busy, cfg, block * blocks_per_segment)
    assert _plain(got) == _plain(count_slots(a, e, s2_idle, s2_busy, cfg))


@settings(max_examples=200, deadline=None)
@given(
    slots=st.integers(1, 300),
    d=st.integers(1, 12),
    lam=probs,
    p_idle=probs,
    p_busy=probs,
    seed=st.integers(0, 2**32),
    block=st.sampled_from([1, 2, 3, 7, 64]),
    blocks_per_segment=st.sampled_from([1, 2, 5]),
    cut=st.integers(0, 50),
    shift=st.sampled_from([-1, 0, 1]),
)
def test_tallies_match_slot_count(
    slots, d, lam, p_idle, p_busy, seed, block, blocks_per_segment, cut, shift
):
    # the warm-up ends on a block boundary, one slot before it or one after
    warmup = min(max(cut * block + shift, 0), slots - 1)
    cfg = SimConfig(params=make_params(deadline=d), slots=slots, seed=0, warmup_slots=warmup)
    inputs = tally_inputs(np.random.default_rng(seed), slots, lam, d, p_idle, p_busy)
    assert_tallies_match_slot_count(*inputs, cfg, block, blocks_per_segment)


@pytest.mark.parametrize("user2", ["every slot", "no slot"])
@pytest.mark.parametrize("warmup", [0, 127, 128, 129])
def test_tallies_when_user2_always_or_never_succeeds(user2, warmup):
    # q2 = 1 on a perfect channel, and q2 = 0
    cfg = SimConfig(params=make_params(deadline=5), slots=1_000, seed=0, warmup_slots=warmup)
    p = 1.0 if user2 == "every slot" else 0.0
    inputs = tally_inputs(np.random.default_rng(8), cfg.slots, 0.6, 5, p, p)
    assert_tallies_match_slot_count(*inputs, cfg, 64, 2)


EDGES = [
    dict(slots=1, warmup_slots=0),
    dict(params=make_params(deadline=1)),
    dict(params=make_params(arrival_prob=0.0)),
    dict(params=make_params(arrival_prob=1.0, deadline=4)),
    dict(params=make_params(q1=0.0)),
    dict(params=make_params(q1=1.0, q2=0.0, deadline=2)),
    dict(sp=SuccessProbs(0.0, 0.0, 0.6, 0.3)),
    dict(sp=SuccessProbs(0.7, 0.2, 0.0, 0.0)),
    dict(sp=SuccessProbs(1.0, 1.0, 1.0, 1.0)),
    dict(params=make_params(q2=1.0), sp=SuccessProbs(1.0, 1.0, 1.0, 1.0)),
]


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("edge", EDGES)
def test_edges_match_slot_oracle(edge, mode):
    kw = {**dict(params=make_params(), slots=3_000, seed=5, replications=2, mode=mode), **edge}
    with fixed_channel(kw.pop("sp", None)):
        _assert_matches_oracle(SimConfig(**kw))


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
    cfg = SimConfig(params=make_params(q1=q1, q2=q2), slots=1_000_000, seed=13, mode=mode)
    with fixed_channel(sp):
        _, bounds = sim._layout(cfg)
        p10, p11, p01, p2 = slot_oracle.thresholds(cfg)
    drawn = sim._draw(cfg, bounds, 0, np.int32)
    s1, s2_idle, s2_busy = np.concatenate([channel for _, channel in drawn], axis=1)
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
        params=make_params(q1=1.0, q2=0.0, arrival_prob=1.0, deadline=3), slots=3_000, seed=5
    )
    with fixed_channel(SuccessProbs(1.0, 1.0, 1.0, 1.0)):
        assert simulate(cfg) == slot_oracle.simulate(cfg)
        with pytest.raises(NotIrreducibleError):
            simulate(dataclasses.replace(cfg, mode="decoupled"))


def test_long_deadline_coupled_run_matches_slot_oracle():
    cfg = SimConfig(params=make_params(arrival_prob=0.2, deadline=1000), slots=10_000, seed=1)
    with fixed_channel(SuccessProbs(0.5, 0.5, 0.5, 0.5)):
        assert simulate(cfg) == slot_oracle.simulate(cfg)


@pytest.mark.parametrize("mode", MODES)
def test_saturated_long_deadline_run_matches_slot_oracle(mode):
    # arrivals outpace user 1's successes, so every departure chunk
    # depends on the one before it
    cfg = SimConfig(
        params=make_params(arrival_prob=0.9, deadline=1000), slots=10_000, seed=2, mode=mode
    )
    _assert_matches_oracle(cfg)


def traced_peak(fn, *args) -> int:
    """The traced peak, in bytes, of fn(*args)."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_replication_memory_within_oracle_budget():
    # The budget is the traced peak of the slot loop that drew seven
    # byte-per-slot streams, plus the float64 draw of the last one: 15
    # bytes per slot, 7.2 MiB here. It stays at that figure.
    cfg = SimConfig(params=make_params(deadline=20), slots=500_000, seed=3)
    _, bounds = sim._layout(cfg)
    peak = traced_peak(sim._replicate, cfg, bounds, 0)
    assert peak <= 1.5 * 15 * cfg.slots, peak


def test_replication_memory_does_not_grow_with_the_horizon():
    # q2 > 0 keeps the age histogram, the one tally as long as the longest
    # update gap, short. The peak is that of the segment with the most
    # packets, so a longer horizon, with more segments, may add a little.
    # A segment's packet count has a standard deviation of
    # sqrt((1 - lam) / (lam * segment)), 0.28% of its mean here; the margin
    # lets the busiest segment of the long run lie five of them above the
    # mean and that of the short run five below (seeds 0 to 7 measured at
    # most 0.36%). A horizon-long array of one byte per slot would add
    # 4 MB to the short run's 2.6 MB.
    lam = 0.5
    short, long = (
        SimConfig(params=make_params(arrival_prob=lam, deadline=20), slots=slots, seed=3)
        for slots in (500_000, 4_000_000)
    )
    _, bounds = sim._layout(short)
    sim._replicate(dataclasses.replace(short, slots=1_000, warmup_slots=0), bounds, 0)  # first-call allocations
    spread = math.sqrt((1 - lam) / (lam * sim._SEGMENT))
    assert traced_peak(sim._replicate, long, bounds, 0) <= (1 + 10 * spread) * traced_peak(
        sim._replicate, short, bounds, 0
    )


def test_long_deadline_memory_stays_near_the_short_deadline_figure():
    # a dense (d + 1)^2 transition tally would take 3.2 GB at d = 20000;
    # the departure windows, the queue tail and the occupancy grow with d
    # (0.6 MB here), against 3.6 MB at d = 20
    short, long = (
        SimConfig(params=make_params(arrival_prob=0.9, deadline=d), slots=300_000, seed=3)
        for d in (20, 20_000)
    )
    simulate(dataclasses.replace(short, slots=1_000, warmup_slots=0))  # first-call allocations
    assert traced_peak(simulate, long) <= 1.5 * traced_peak(simulate, short)


def test_replications_add_no_histogram_memory():
    # at q2 = 0 every replication's age histogram is as long as its
    # horizon; they are summed as the replications finish
    one = SimConfig(params=make_params(q2=0.0), slots=100_000, seed=1)
    simulate(dataclasses.replace(one, slots=1_000, warmup_slots=0))  # first-call allocations
    nine = dataclasses.replace(one, replications=9)
    assert traced_peak(simulate, nine) <= 1.1 * traced_peak(simulate, one)
