"""Seeded packet-level Monte Carlo simulator of the two-user system.

Coupled mode plays out the ground-truth packet dynamics: user 2's update
outcome depends on whether user 1 actually transmitted in the same slot.
Decoupled mode keeps user 1's success probability but drives user 2's
update successes independently of it, with the closed-form per-slot
probability mu2, which is exactly the independence assumption the
analytical age results rest on.

Replication r of a run seeded s is seeded with SeedSequence([s, r]),
which spawns two streams: the arrival stream and the channel stream.
Each gives one uniform u per slot. A slot has an arrival when its
arrival u < lambda. Its channel u yields user 1's success were it busy,
and user 2's success while user 1 is busy and while it is idle, from a
fixed layout of intervals:

- busy: [0, p10) user 1 alone succeeds, [p10, p10 + p11) both do,
  [p10 + p11, p10 + p11 + p01) user 2 alone does;
- idle: [0, p2) user 2 succeeds.

With p1s, p1j, p2s, p2j the solo and joint success probabilities, in
coupled mode p11 = q1 q2 p1j p2j, p10 = q1 q2 p1j (1 - p2j) +
q1 (1 - q2) p1s, p01 = q1 q2 (1 - p1j) p2j + (1 - q1) q2 p2s and
p2 = q2 p2s. In decoupled mode user 1 succeeds with mu1 and user 2 with
mu2, independently: p11 = mu1 mu2, p10 = mu1 (1 - mu2),
p01 = (1 - mu1) mu2 and p2 = mu2. A slot reads either the busy pair or
the idle bit, never both, so one u may serve the two.

tests/slot_oracle.py plays the same draws out slot by slot as the
reference; this module returns identical tallies but computes them with
array operations. User 1's success in a slot does not depend on its
queue, so FIFO order gives each packet's departure from counts of user
1's successes, every slot past the horizon counting as one: with g_i
the successes at or before packet i's departure, and lo_i and hi_i those
at or before its arrival a_i and its deadline a_i + d,
g_i = min(max(g_{i-1}, lo_i) + 1, hi_i). The packet is delivered iff
max(g_{i-1}, lo_i) < hi_i, at user 1's success number max(g_{i-1}, lo_i)
(counting from 0), and is otherwise dropped at a_i + d. The recurrence
is solved time-parallel over chunks of packets (Greenberg, Lubachevsky
& Mitrani, "Algorithms for unboundedly parallel simulations", ACM TOCS
1991). Packet i heads the queue from slot e_{i-1} + 1 to its departure
e_i, so one repeat of the arrival slots over these head runs gives every
slot's head-of-line state, whose counts are the occupancy, and with it
user 2's successes. A gap of g slots between two successes holds the
ages 1..g once each, the sawtooth of Kaul, Yates & Gruteser ("Real-time
status: How often should one update?", INFOCOM 2012), so the age
histogram and sum come from the gap lengths. Only coupled_run, whose
checks read them, counts the one-step transitions.

A replication is played in segments of _SEGMENT slots, and the streams
are drawn _BLOCK slots at a time, d slots ahead of the segment: a packet
that arrives in a segment departs within d slots. Each segment solves
the departures of its own packets from one cumulative count over its
drawn slots, carrying the count g from the last packet before it, and
tallies its slots, _BLOCK at a time, from the packets that head them:
the ones still queued from earlier segments, its own, and its end as a
sentinel arrival. The segment is the one memory bound: no array spans
the horizon, so a replication's memory is O(_SEGMENT + d). The one
exception is the age histogram, which is as long as the longest gap
between user 2's updates: at q2 = 0 that is the horizon.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import channel, system
from .deadline_queue import QueueParams, build_waiting_time_matrix, queue_metrics
from .errors import ParameterError
from .system import VIOLATION_THRESHOLDS, SystemParams

MODES = ("coupled", "decoupled")

DEFAULT_MIN_VISITS = 10_000

# slots per block of the random draws and of the per-slot tallies
_BLOCK = 1 << 14
# slots per segment of a replication, a multiple of _BLOCK
_SEGMENT = 1 << 17

# 95% two-sided normal quantile for across-replication confidence intervals
_Z95 = 1.959963984540054


def default_warmup(slots: int) -> int:
    """The warm-up of a SimConfig that sets none: 10% of the horizon."""
    return slots // 10


@dataclass(frozen=True)
class SimConfig:
    """One simulation request; identical configs give bit-identical reports.

    warmup_slots=None means default_warmup(slots), enough for every chain
    in scope; raise it for stress cases near saturation. slots counts the
    horizon of EACH replication. The fields besides params are the keys
    of a scenario's sim block (scenarios.SIM_KEYS); the channel is always
    channel.success_probs of params' links.
    """

    params: SystemParams
    slots: int
    seed: int
    warmup_slots: int | None = None
    replications: int = 1
    mode: str = "coupled"

    def __post_init__(self):
        if self.mode not in MODES:
            raise ParameterError(f"mode must be one of {MODES}, got {self.mode!r}")
        if not _is_int(self.slots) or self.slots < 1:
            raise ParameterError(f"slots must be a positive integer, got {self.slots!r}")
        if self.warmup_slots is None:
            object.__setattr__(self, "warmup_slots", default_warmup(self.slots))
        if not _is_int(self.warmup_slots) or self.warmup_slots < 0:
            raise ParameterError(f"warmup_slots must be >= 0, got {self.warmup_slots!r}")
        if self.slots <= self.warmup_slots:
            raise ParameterError(
                f"slots ({self.slots}) must exceed warmup_slots ({self.warmup_slots})"
            )
        if not _is_int(self.replications) or self.replications < 1:
            raise ParameterError(f"replications must be >= 1, got {self.replications!r}")
        if not _is_int(self.seed) or self.seed < 0:
            raise ParameterError(f"seed must be a non-negative integer, got {self.seed!r}")


def _is_int(value) -> bool:
    """An int that is not a bool: True would otherwise pass as 1."""
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class SimulationReport:
    """Empirical counterparts of the analytical outputs, with 95% CIs.

    Rates are averages over the post-warmup window of every replication;
    ci_halfwidth holds the across-replication normal-approximation
    half-widths (0.0 for a single replication). counts carries exact
    whole-run totals satisfying arrivals = delivered + dropped +
    queue_residual.
    """

    mode: str
    seed: int
    slots: int
    warmup_slots: int
    replications: int
    drop_rate: float
    throughput: float
    busy_prob: float
    per_packet_drop_prob: float
    aoi_average: float
    aoi_violation: dict[int, float]
    aoi_histogram: dict[int, int]
    waiting_time_occupancy: tuple[float, ...]
    ci_halfwidth: dict[str, float]
    counts: dict[str, int]


def _layout(cfg: SimConfig) -> tuple[float, tuple[float, float, float, float]]:
    """mu1 and the bounds p10, p10 + p11, p10 + p11 + p01 and p2 of the channel layout.

    Only decoupled mode solves the chain, for mu2: coupled draws need
    only the success probabilities, so a coupled run simulates wherever
    the chain solve would fail.
    """
    p = cfg.params
    sp = channel.success_probs(p.link1, p.link2, p.rx)
    _, mu1 = system.user1_service(p, sp)
    if cfg.mode == "decoupled":
        busy = queue_metrics(QueueParams(p.arrival_prob, mu1, p.deadline)).busy_prob
        _, mu2 = system.user2_service(p, sp, busy)
        p11, p10, p01, p2 = mu1 * mu2, mu1 * (1.0 - mu2), (1.0 - mu1) * mu2, mu2
    else:
        q1, q2 = p.q1, p.q2
        p11 = q1 * q2 * sp.p_1_joint * sp.p_2_joint
        p10 = q1 * q2 * sp.p_1_joint * (1.0 - sp.p_2_joint) + q1 * (1.0 - q2) * sp.p_1_solo
        p01 = q1 * q2 * (1.0 - sp.p_1_joint) * sp.p_2_joint + (1.0 - q1) * q2 * sp.p_2_solo
        p2 = q2 * sp.p_2_solo
    return mu1, (p10, p10 + p11, p10 + p11 + p01, p2)


def _success_counts(
    a: np.ndarray, s1: np.ndarray, d: int, L: int, m: int
) -> tuple[np.ndarray, np.ndarray]:
    """Each packet's counts of user 1's successes, as (L, m) chunk lanes.

    lo[j, c] and hi[j, c] count the successes at or before a_i and at or
    before a_i + d for packet i = c L + j, where every slot past the end
    of s1 counts as a success; the last chunk is padded by repeating its
    last packet. Both are read from one cumulative count over the slots of
    s1 and the d + 1 after them: s1 is one segment's window, so the count
    holds O(_SEGMENT + d) entries.
    """
    slots = len(s1)
    # count[t]: the successes at or before slot t
    count = np.empty(slots + d + 1, dtype=a.dtype)
    np.cumsum(s1, dtype=a.dtype, out=count[:slots])
    count[slots:] = count[slots - 1] + np.arange(1, d + 2, dtype=a.dtype)
    # intp offsets in lane order: take would copy any other index type or order
    k = (m - 1) * L  # the packets before the last chunk
    offset = np.empty((L, m), dtype=np.intp)
    offset.T[:-1] = a[:k].reshape(m - 1, L)
    offset[:, -1] = a[-1]
    offset[: len(a) - k, -1] = a[k:]
    lo = count.take(offset)
    offset += d
    return lo, count.take(offset)


def _advance(cur: np.ndarray, lo: np.ndarray, hi: np.ndarray, record=None) -> np.ndarray:
    """Play chunk lanes on from cur (k, m), the successes counted before each chunk.

    Returns cur holding the count at each chunk's last departure; record,
    if given, receives k_i = max(g_{i-1}, lo_i) of every step and may be
    lo.
    """
    xs = record if record is not None else itertools.repeat(np.empty_like(cur))
    for lo_j, hi_j, x in zip(lo, hi, xs):
        np.maximum(cur, lo_j, out=x)
        np.add(x, 1, out=cur)
        np.minimum(cur, hi_j, out=cur)
    return cur


def _chunk_length(n: int) -> int:
    """Packets per chunk of the departure solve of n packets.

    Each step of a chunk costs a few ufunc calls and each chunk whose
    probes end apart one Python step, so chunks of about sqrt(n / 32)
    packets cost least (measured at d = 3 to 100 on 2^17-slot segments,
    where this is at most 64).
    """
    return max(1, math.isqrt(n // 32))


def _departures(
    a: np.ndarray, s1: np.ndarray, d: int, prev: int = -1
) -> tuple[np.ndarray, np.ndarray]:
    """Departure slot of every packet from the arrival slots a, and whether it was delivered.

    prev is the departure slot of the packet before a[0], -1 if there is
    none or if it left before slot 0. FIFO gives e_i = min(N(x_i), a_i + d)
    with x_i = max(a_i, e_{i-1}) + 1, where N(x) is user 1's first success
    at or after slot x. In counts of user 1's successes (_success_counts),
    g_i at or before e_i, lo_i at or before a_i and hi_i at or before
    a_i + d, this is g_i = min(k_i + 1, hi_i) with k_i = max(g_{i-1}, lo_i),
    the successes before slot x_i, and g_{-1} those at or before prev: one
    max, add and min per packet. With S user 1's success slots, then the
    d + 1 slots past the end of s1 (which count as successes),
    packet i is delivered iff k_i < hi_i, at e_i = S[k_i]; otherwise
    k_i = hi_i, S[k_i] lies past the deadline and e_i = a_i + d. So
    e_i = min(S[k_i], a_i + d) either way, and the packet is delivered iff
    S[k_i] <= a_i + d.

    A chunk of packets depends on the packets before it only through g,
    the last count of the chunk before. Each packet's step,
    g -> min(max(g + 1, lo_i + 1), hi_i), is a shift by one clamped to an
    interval, and shifted clamps compose into shifted clamps: a chunk of L
    packets maps g to min(max(g + L, low), high). Every g <= lo_0 gives low
    and every g >= hi_0 gives high, so low and high are the chunk's ends
    when advanced from lo_0 and from hi_0. All chunks are advanced at once
    from those two probes, with the starts on the leading axis; the chunk
    ends are then stitched together in order by the clamp, the first from
    g_{-1}, and every chunk is replayed from its true start.
    """
    n = len(a)
    if not n:
        return a, np.zeros(0, dtype=bool)
    L = _chunk_length(n)
    m = -(-n // L)
    lo, hi = _success_counts(a, s1, d, L, m)
    # every slot past s1 counts as a success
    g = int(np.count_nonzero(s1[: max(prev + 1, 0)])) + max(prev + 1 - len(s1), 0)

    low, high = _advance(np.stack((lo[0], hi[0])), lo, hi)
    # chunk 0 starts from g_{-1}
    low[0] = min(max(g + L, int(low[0])), int(high[0]))
    ends = low
    # where the probes end alike every start does
    split = np.flatnonzero(low[1:] != high[1:]) + 1
    if len(split):
        ends = low.tolist()
        for c, least, most in zip(split.tolist(), low[split].tolist(), high[split].tolist()):
            ends[c] = min(max(ends[c - 1] + L, least), most)
    # replay from the true starts, leaving k_i in lo
    start = np.empty(m, dtype=a.dtype)
    start[0] = g
    start[1:] = ends[:-1]
    _advance(start, lo, hi, lo)
    del hi
    e = lo.T.reshape(-1)[:n]
    del lo
    S = np.concatenate(
        (np.flatnonzero(s1).astype(a.dtype), np.arange(len(s1), len(s1) + d + 1, dtype=a.dtype))
    )
    # k_i <= hi_i < len(S), so clip never clips; it writes straight into
    # e, where the default mode would buffer a copy of it
    S.take(e, out=e, mode="clip")
    del S
    # e_i = min(S[k_i], a_i + d), delivered iff S[k_i] <= a_i + d
    e -= a
    delivered = e <= d
    np.minimum(e, d, out=e)
    e += a
    return e, delivered


def _draw(cfg: SimConfig, bounds: tuple[float, ...], rep: int, idx):
    """The arrival and channel streams of one replication, folded as they are drawn.

    The two streams are spawned from SeedSequence([seed, rep]) in that
    order and read _BLOCK slots at a time, which yields the same doubles
    as one rng.random(slots) call each. Yields, for each block in turn, its
    arrival slots and a (3, block) array whose rows hold user 1's success
    in each slot were it busy, and user 2's success in each slot while
    user 1 is idle and while it is busy, from _layout's bounds.
    """
    lam, slots = cfg.params.arrival_prob, cfg.slots
    p10, user1_end, user2_busy_end, user2_idle_end = bounds
    arrival_rng, channel_rng = map(
        np.random.default_rng, np.random.SeedSequence([cfg.seed, rep]).spawn(2)
    )
    u = np.empty(min(_BLOCK, slots))
    for t0 in range(0, slots, _BLOCK):
        v = u[: min(_BLOCK, slots - t0)]
        arrival_rng.random(out=v)
        arrivals = (np.flatnonzero(v < lam) + t0).astype(idx)
        channel_rng.random(out=v)
        s1, s2_idle, s2_busy = channel = np.empty((3, len(v)), dtype=bool)
        np.less(v, user1_end, out=s1)
        np.less(v, user2_idle_end, out=s2_idle)
        # [p10, p10 + p11 + p01) is [0, p10 + p11 + p01) without [0, p10)
        np.less(v, user2_busy_end, out=s2_busy)
        s2_busy ^= v < p10
        yield arrivals, channel


def _accumulate(total: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """total + counts, padding the shorter with zeros; total is updated where it is long enough."""
    if len(counts) > len(total):
        total = np.concatenate((total, np.zeros(len(counts) - len(total), dtype=total.dtype)))
    total[: len(counts)] += counts
    return total


class _Tally:
    """Per-slot state, occupancy, transitions and age from head runs and update gaps.

    add() takes one segment of slots at a time, in order, and the counts
    carry from one to the next. In slot t the queue's head is the first
    packet not departed before t, so packet i heads the run of slots from
    e_{i-1} + 1 to e_i; the queue is busy if its head arrived before t.
    Slots are taken _BLOCK at a time. Each measured slot's state is counted
    in the occupancy, and with transitions each slot after the first
    measured one also counts the move into it.

    Each measured slot's age is t minus user 2's last success before t
    (-1 if none). A gap of g slots between two successes thus holds the
    ages 1..g, once each, summing to g(g + 1)/2. The gap up to each
    success in a measured slot is counted by its length, and so is the
    last one, which ends with the horizon. The one gap that spans the end
    of the warm-up holds its first ages before it; they are the ages of
    a gap that ends with the warm-up, and that gap is counted once with
    weight -1.
    """

    def __init__(self, cfg: SimConfig, transitions: bool):
        self.warmup, self.d = cfg.warmup_slots, cfg.params.deadline
        self.occ = np.zeros(self.d + 1, dtype=np.int64)
        self.trans = np.zeros((self.d + 1) ** 2, dtype=np.int64) if transitions else None
        self.prev_state = -1  # the last measured slot's state
        self.gaps = np.zeros(0, dtype=np.int64)  # gaps[g]: update gaps of g slots
        self.last = -1  # user 2's last success so far, -1 if none
        self.cut = 0  # the length of the gap ending with the warm-up

    def add(self, a: np.ndarray, e: np.ndarray, s2_idle: np.ndarray, s2_busy: np.ndarray, t0: int):
        """Count the slots t0, t0 + 1, ... that s2_idle and s2_busy cover.

        a holds the arrival slots of the packets that head a slot of the
        segment, followed by one at or past its end as the sentinel, and e
        their departure slots.
        """
        t1 = t0 + len(s2_idle)
        # packets departed before each block
        starts = range(t0, t1, _BLOCK)
        cuts = e.searchsorted(np.array([*starts, t1], dtype=e.dtype)).tolist()
        offsets = np.arange(min(_BLOCK, t1 - t0), dtype=a.dtype)
        for b0, lo, hi in zip(starts, cuts, cuts[1:]):
            b1 = min(b0 + _BLOCK, t1)
            # packet lo + i heads the block's i-th run of slots; the last run,
            # of packet hi (or the sentinel), ends with the block
            ends = np.empty(hi - lo + 2, dtype=e.dtype)
            ends[0], ends[1:-1], ends[-1] = b0 - 1, e[lo:hi], b1 - 1
            state = offsets[: b1 - b0] - np.repeat(a[lo : hi + 1] - b0, np.diff(ends))
            # an idle queue's head (or the sentinel) arrives in slot t or later
            np.maximum(state, 0, out=state)
            # user 2 reads s2_busy where the queue is busy and s2_idle elsewhere
            idle = s2_idle[b0 - t0 : b1 - t0]
            s2 = idle ^ s2_busy[b0 - t0 : b1 - t0]
            s2 &= state > 0
            s2 ^= idle
            hits = np.flatnonzero(s2)
            hits += b0

            m = max(self.warmup, b0)
            if m < b1:
                self._count_states(state[m - b0 :])
                k = int(hits.searchsorted(m))
                before = int(hits[k - 1]) if k else self.last
                if m == self.warmup:
                    self.cut = m - 1 - before
                self.gaps = _accumulate(self.gaps, np.bincount(np.diff(hits[k:], prepend=before)))
            if len(hits):
                self.last = int(hits[-1])

    def _count_states(self, state: np.ndarray):
        counts = np.bincount(state)
        self.occ[: len(counts)] += counts
        if self.trans is None:
            return
        d = self.d
        if self.prev_state >= 0:
            self.trans[self.prev_state * (d + 1) + state[0]] += 1
        self.prev_state = int(state[-1])
        codes = state[:-1] * (d + 1)
        codes += state[1:]
        # at most (d + 1)^2 counts, as long as the tally itself
        pairs = np.bincount(codes)
        self.trans[: len(pairs)] += pairs

    def finish(self, slots: int) -> dict:
        """The counts of a horizon of slots, whose last slot add() has counted."""
        gaps = _accumulate(self.gaps, np.bincount([slots - 1 - self.last]))
        gaps[self.cut] -= 1
        # a gap of g slots holds each age 1..g; one past the oldest age seen
        hist = np.zeros(len(gaps), dtype=np.int64)
        hist[1:] = np.cumsum(gaps[::-1])[::-1][1:]
        g = np.arange(len(gaps), dtype=np.int64)
        out = {"occ": self.occ, "hist": hist, "aoi_sum": int(gaps @ (g * (g + 1) // 2))}
        if self.trans is not None:
            out["trans"] = self.trans.reshape(self.d + 1, self.d + 1)
        return out


def _replicate(
    cfg: SimConfig, bounds: tuple[float, ...], rep: int, transitions: bool = False
) -> dict:
    """One seeded replication; returns raw post-warmup tallies.

    The slots are played _SEGMENT at a time, and the streams are drawn
    block by block d slots ahead of the segment: a packet that arrives in
    it departs by its deadline. Each segment solves the departures of its
    own packets, starting from the last queued packet's, tallies its slots
    from the packets that head them, and keeps the packets still queued at
    its end for the next.
    """
    slots, warmup, d = cfg.slots, cfg.warmup_slots, cfg.params.deadline
    idx = np.int32 if slots + d < np.iinfo(np.int32).max else np.int64
    blocks = _draw(cfg, bounds, rep, idx)
    # the channel draws of the slots from the segment's start on, and the
    # arrival slots of each drawn block past the segments played
    window = np.empty((3, min(_SEGMENT + d + _BLOCK, slots)), dtype=bool)
    drawn, arriving = 0, []
    tally = _Tally(cfg, transitions)
    queue_a = queue_e = np.zeros(0, dtype=idx)  # the packets still queued
    arrivals = arrivals_m = done = done_m = delivered = delivered_m = 0
    for t0 in range(0, slots, _SEGMENT):
        t1 = min(t0 + _SEGMENT, slots)
        while t0 + drawn < min(t1 + d, slots):
            block, channel = next(blocks)
            window[:, drawn : drawn + channel.shape[1]] = channel
            drawn += channel.shape[1]
            arriving.append(block)
        k = -(-(t1 - t0) // _BLOCK)
        # the heads of the segment's slots, then its end as the sentinel,
        # counted from t0 for the departures
        a = np.concatenate([queue_a, *arriving[:k], np.array([t1], dtype=idx)])
        del arriving[:k]
        a -= t0
        q = len(queue_a)
        e, ok = _departures(a[q:-1], window[0, :drawn], d, int(queue_e[-1]) - t0 if q else -1)
        a += t0
        e += t0
        # departures are strictly increasing; a packet departing past the
        # horizon is still queued at its end
        # (searched with idx scalars: a Python int would make an int64 copy of e)
        late, gone = (int(e.searchsorted(idx(t))) for t in (warmup, slots))
        arrivals += len(e)
        arrivals_m += len(e) - int(a[q:-1].searchsorted(idx(warmup)))
        done += gone
        done_m += gone - late
        delivered += int(np.count_nonzero(ok[:gone]))
        delivered_m += int(np.count_nonzero(ok[late:gone]))
        del ok
        e = np.concatenate((queue_e, e))
        tally.add(a, e, window[1, : t1 - t0], window[2, : t1 - t0], t0)
        keep = int(e.searchsorted(idx(t1)))
        queue_a, queue_e = a[keep:-1].copy(), e[keep:].copy()
        del a, e
        drawn -= t1 - t0
        window[:, :drawn] = window[:, t1 - t0 : t1 - t0 + drawn]
    return {
        **tally.finish(slots),
        "arrivals": arrivals,
        "delivered": delivered,
        "dropped": done - delivered,
        "arrivals_m": arrivals_m,
        "delivered_m": delivered_m,
        "dropped_m": done_m - delivered_m,
        "queue_residual": arrivals - done,
    }


def _ci(values: list[float], replications: int) -> float:
    if replications < 2:
        return 0.0
    return _Z95 * float(np.std(values, ddof=1)) / math.sqrt(replications)


def _run(
    cfg: SimConfig, transitions: bool = False
) -> tuple[SimulationReport, float, np.ndarray | None]:
    mu1, bounds = _layout(cfg)
    measured = cfg.slots - cfg.warmup_slots
    n_rep = cfg.replications

    # each replication keeps the leading age counts its violation entries
    # read; the histograms are summed as the replications finish
    head = max(VIOLATION_THRESHOLDS) + 1
    total = np.zeros(0, dtype=np.int64)
    trans_total = None
    reps = []
    for r in range(n_rep):
        rep = _replicate(cfg, bounds, r, transitions)
        total = _accumulate(total, rep["hist"])
        rep["hist"] = rep["hist"][:head].copy()
        if transitions:
            trans = rep.pop("trans")
            trans_total = trans if trans_total is None else trans_total + trans
        reps.append(rep)
    occ = np.array([r["occ"] for r in reps])

    per_rep = {
        "drop_rate": [r["dropped_m"] / measured for r in reps],
        "throughput": [r["delivered_m"] / measured for r in reps],
        "busy_prob": [(measured - int(c)) / measured for c in occ[:, 0]],
        "per_packet_drop_prob": [
            (r["dropped_m"] / r["arrivals_m"]) if r["arrivals_m"] > 0 else 0.0 for r in reps
        ],
        "aoi_average": [r["aoi_sum"] / measured for r in reps],
    }
    for x in VIOLATION_THRESHOLDS:
        # every measured slot has one age, so those above x are the rest
        per_rep[f"aoi_violation_{x}"] = [
            (measured - int(r["hist"][: x + 1].sum())) / measured for r in reps
        ]

    ci = {k: _ci(v, n_rep) for k, v in per_rep.items()}
    means = {k: float(np.mean(v)) for k, v in per_rep.items()}

    # one row per state, so each mean sums its replications as np.mean(list) does
    occupancy = tuple(np.mean(np.ascontiguousarray(occ.T) / measured, axis=1).tolist())
    ages = np.flatnonzero(total)
    histogram = dict(zip(ages.tolist(), total[ages].tolist()))

    counts = {
        "arrivals": sum(r["arrivals"] for r in reps),
        "delivered": sum(r["delivered"] for r in reps),
        "dropped": sum(r["dropped"] for r in reps),
        "queue_residual": sum(r["queue_residual"] for r in reps),
        "measured_slots": measured * n_rep,
    }

    report = SimulationReport(
        mode=cfg.mode,
        seed=cfg.seed,
        slots=cfg.slots,
        warmup_slots=cfg.warmup_slots,
        replications=n_rep,
        drop_rate=means["drop_rate"],
        throughput=means["throughput"],
        busy_prob=means["busy_prob"],
        per_packet_drop_prob=means["per_packet_drop_prob"],
        aoi_average=means["aoi_average"],
        aoi_violation={x: means[f"aoi_violation_{x}"] for x in VIOLATION_THRESHOLDS},
        aoi_histogram=histogram,
        waiting_time_occupancy=occupancy,
        ci_halfwidth=ci,
        counts=counts,
    )
    return report, mu1, trans_total


def simulate(cfg: SimConfig) -> SimulationReport:
    """Run every replication and aggregate the empirical metrics."""
    report, _, _ = _run(cfg)
    return report


@dataclass(frozen=True, eq=False)
class CoupledRun:
    """One finished coupled simulation, read by both DTMC checks.

    transitions[i, j] counts the post-warmup one-step moves from state i
    to state j, summed over the replications.
    """

    cfg: SimConfig
    report: SimulationReport
    mu1: float
    transitions: np.ndarray


def coupled_run(cfg: SimConfig) -> CoupledRun:
    """Simulate cfg once for compare_occupancy and compare_transitions."""
    if cfg.mode != "coupled":
        raise ParameterError("occupancy and transition checks are defined for coupled mode")
    report, mu1, trans = _run(cfg, transitions=True)
    return CoupledRun(cfg=cfg, report=report, mu1=mu1, transitions=trans)


@dataclass(frozen=True, eq=False)
class OccupancyComparison:
    """Empirical head-of-line-age occupancy against the chain's stationary vector."""

    occupancy: tuple[float, ...]
    stationary: tuple[float, ...]
    max_abs_deviation: float


def compare_occupancy(run: CoupledRun) -> OccupancyComparison:
    """Compare a run's state occupancy with the analytical steady state."""
    p = run.cfg.params
    metrics = queue_metrics(QueueParams(p.arrival_prob, run.mu1, p.deadline))
    pi = tuple(float(v) for v in metrics.stationary.probs)
    occupancy = run.report.waiting_time_occupancy
    dev = max(abs(a - b) for a, b in zip(occupancy, pi))
    return OccupancyComparison(occupancy=occupancy, stationary=pi, max_abs_deviation=dev)


def occupancy_vs_stationary(cfg: SimConfig) -> OccupancyComparison:
    """Compare simulated state occupancy with the analytical steady state."""
    return compare_occupancy(coupled_run(cfg))


@dataclass(frozen=True, eq=False)
class TransitionCheck:
    """Empirical one-step transition frequencies against the built matrix.

    flagged holds (origin, destination, empirical, analytical, threshold)
    for every cell whose deviation exceeds 3 standard errors plus 0.005;
    states visited fewer than min_visits times are reported in
    insufficient_states and excluded rather than failed.
    """

    analytical: np.ndarray
    empirical: np.ndarray
    visits: tuple[int, ...]
    flagged: tuple[tuple[int, int, float, float, float], ...]
    insufficient_states: tuple[int, ...]
    min_visits: int
    passed: bool


def compare_transitions(run: CoupledRun, min_visits: int) -> TransitionCheck:
    """Check a run's transition frequencies against the constructed waiting-time matrix."""
    d = run.cfg.params.deadline
    analytical = build_waiting_time_matrix(
        QueueParams(run.cfg.params.arrival_prob, run.mu1, d)
    ).entries
    trans = run.transitions
    visits = trans.sum(axis=1)
    enough = visits >= min_visits
    empirical = np.full((d + 1, d + 1), np.nan)
    empirical[enough] = trans[enough] / visits[enough, None]
    # unvisited states divide by 1 here; they are insufficient and never flagged
    threshold = (
        3.0 * np.sqrt(analytical * (1.0 - analytical) / np.maximum(visits, 1)[:, None]) + 0.005
    )
    rows, cols = np.nonzero(np.abs(empirical - analytical) > threshold)
    flagged = tuple(
        (i, j, float(empirical[i, j]), float(analytical[i, j]), float(threshold[i, j]))
        for i, j in zip(rows.tolist(), cols.tolist())
    )
    return TransitionCheck(
        analytical=analytical,
        empirical=empirical,
        visits=tuple(visits.tolist()),
        flagged=flagged,
        insufficient_states=tuple(np.flatnonzero(~enough).tolist()),
        min_visits=min_visits,
        passed=not flagged,
    )


def transition_frequency_check(
    cfg: SimConfig, min_visits: int = DEFAULT_MIN_VISITS
) -> TransitionCheck:
    """Validate the constructed waiting-time matrix against simulated transitions."""
    return compare_transitions(coupled_run(cfg), min_visits)
