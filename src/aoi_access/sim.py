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
queue, so FIFO order gives each packet's departure slot from the wait
for user 1's next success. The departures are solved time-parallel over
chunks of packets (Greenberg, Lubachevsky & Mitrani, "Algorithms for
unboundedly parallel simulations", ACM TOCS 1991). The per-slot
head-of-line state, user 2's successes and the age follow from the
packets' slots, block by block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import channel, system
from .channel import SuccessProbs
from .deadline_queue import QueueParams, build_waiting_time_matrix, queue_metrics
from .errors import ParameterError
from .system import DEFAULT_VIOLATION_THRESHOLDS, SystemParams

MODES = ("coupled", "decoupled")

DEFAULT_MIN_VISITS = 10_000

# packets per chunk of the time-parallel departure solve, and slots per
# block of the random draws and of the per-slot tallies
_CHUNK = 128
_BLOCK = 1 << 14

# 95% two-sided normal quantile for across-replication confidence intervals
_Z95 = 1.959963984540054


@dataclass(frozen=True)
class SimConfig:
    """One simulation request; identical configs give bit-identical reports.

    warmup_slots=None means 10% of the horizon, enough for every chain in
    scope; raise it for stress cases near saturation. slots counts the
    horizon of EACH replication.
    """

    params: SystemParams
    slots: int
    seed: int
    warmup_slots: int | None = None
    replications: int = 1
    mode: str = "coupled"
    success_probs_override: SuccessProbs | None = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise ParameterError(f"mode must be one of {MODES}, got {self.mode!r}")
        if not isinstance(self.slots, int) or self.slots < 1:
            raise ParameterError(f"slots must be a positive integer, got {self.slots!r}")
        if self.warmup_slots is None:
            object.__setattr__(self, "warmup_slots", self.slots // 10)
        if not isinstance(self.warmup_slots, int) or self.warmup_slots < 0:
            raise ParameterError(f"warmup_slots must be >= 0, got {self.warmup_slots!r}")
        if self.slots <= self.warmup_slots:
            raise ParameterError(
                f"slots ({self.slots}) must exceed warmup_slots ({self.warmup_slots})"
            )
        if not isinstance(self.replications, int) or self.replications < 1:
            raise ParameterError(f"replications must be >= 1, got {self.replications!r}")
        if not isinstance(self.seed, int) or self.seed < 0:
            raise ParameterError(f"seed must be a non-negative integer, got {self.seed!r}")


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


@dataclass(frozen=True, eq=False)
class _Pipeline:
    """The analytic inputs of a run; mu2 is set in decoupled mode only."""

    sp: SuccessProbs
    mu1: float
    mu2: float | None


def _pipeline(cfg: SimConfig) -> _Pipeline:
    """Success probabilities and mu1; decoupled mode also solves the chain for mu2.

    Coupled draws need only the success probabilities, so a coupled run
    simulates wherever the chain solve would fail.
    """
    p = cfg.params
    sp = cfg.success_probs_override
    if sp is None:
        sp = channel.success_probs(p.link1, p.link2, p.rx)
    mu1 = system.service_prob_user1(p, sp)
    mu2 = None
    if cfg.mode == "decoupled":
        busy = queue_metrics(QueueParams(p.arrival_prob, mu1, p.deadline)).busy_prob
        mu2 = system.service_prob_user2(p, sp, busy)
    return _Pipeline(sp=sp, mu1=mu1, mu2=mu2)


def _departures(a: np.ndarray, wait: np.ndarray, d: int) -> np.ndarray:
    """Departure slot of every packet, from the arrival slots a (n >= 1).

    FIFO gives e_i = min(x + wait[x], a_i + d) with x = max(a_i, e_{i-1}) + 1,
    where wait is _wait_table's. A chunk of packets depends on the packets
    before it only through its start, max(e_{i-1}, a_i) - a_i for its first
    packet, which lies in 0..d-1. All chunks are advanced at once from
    starts 0 and d-1. A chunk's last departure is nondecreasing in the
    start, so where those two end alike every start does; the other chunks
    are advanced from every start. The chunk ends are then stitched
    together in order, and each chunk is replayed from its true start.
    """
    n = len(a)
    L = min(_CHUNK, n)
    m = -(-n // L)
    # lanes[j, c]: arrival slot of the j-th packet of chunk c; the last
    # chunk is padded by repeating the last arrival
    lanes = np.empty((L, m), dtype=a.dtype)
    lanes.T.flat[:n] = a
    lanes.T.flat[n:] = a[-1]

    def advance(rows: np.ndarray, cur: np.ndarray, record: np.ndarray | None = None):
        buf = np.empty_like(cur)
        for j, arrival in enumerate(rows[:, :, None]):
            np.maximum(arrival, cur, out=buf)
            buf += 1
            np.add(buf, wait.take(buf), out=cur)
            np.minimum(cur, arrival + d, out=cur)
            if record is not None:
                record[:, j] = cur[:, 0]
        return cur

    first = lanes[0, :, None]
    low, high = advance(lanes, first + np.array([0, d - 1], dtype=a.dtype)).T
    split = np.flatnonzero(low != high)
    starts = first[split] + np.arange(d, dtype=a.dtype)
    ends = {}
    if len(split):
        ends = dict(zip(split.tolist(), advance(lanes[:, split], starts).tolist()))
    start = []
    e_prev = -1
    for c, (a0, end) in enumerate(zip(first[:, 0].tolist(), low.tolist())):
        start.append(max(e_prev, a0))
        e_prev = ends[c][start[-1] - a0] if c in ends else end
    dep = np.empty((m, L), dtype=a.dtype)
    advance(lanes, np.array(start, dtype=a.dtype)[:, None], dep)
    return dep.reshape(-1)[:n]


def _draw(cfg: SimConfig, pipe: _Pipeline, rep: int, idx) -> tuple[np.ndarray, ...]:
    """The arrival and channel streams of one replication, folded as they are drawn.

    The two streams are spawned from SeedSequence([seed, rep]) in that
    order and read _BLOCK slots at a time, which yields the same doubles
    as one rng.random(slots) call each. Returns the arrival slots followed
    by the slot count as a sentinel, user 1's success in each slot were it
    busy, and user 2's success in each slot while user 1 is idle and while
    it is busy, from the interval layout in the module docstring.
    """
    p, sp, slots = cfg.params, pipe.sp, cfg.slots
    if cfg.mode == "decoupled":
        mu1, mu2 = pipe.mu1, pipe.mu2
        p11, p10, p01, p2 = mu1 * mu2, mu1 * (1.0 - mu2), (1.0 - mu1) * mu2, mu2
    else:
        q1, q2 = p.q1, p.q2
        p11 = q1 * q2 * sp.p_1_joint * sp.p_2_joint
        p10 = q1 * q2 * sp.p_1_joint * (1.0 - sp.p_2_joint) + q1 * (1.0 - q2) * sp.p_1_solo
        p01 = q1 * q2 * (1.0 - sp.p_1_joint) * sp.p_2_joint + (1.0 - q1) * q2 * sp.p_2_solo
        p2 = q2 * sp.p_2_solo
    arrival_rng, channel_rng = map(
        np.random.default_rng, np.random.SeedSequence([cfg.seed, rep]).spawn(2)
    )
    s1, s2_idle, s2_busy = (np.empty(slots, dtype=bool) for _ in range(3))
    u = np.empty(min(_BLOCK, slots))
    arrivals = []
    for t0 in range(0, slots, _BLOCK):
        blk = slice(t0, min(t0 + _BLOCK, slots))
        v = u[: blk.stop - t0]
        arrival_rng.random(out=v)
        arrivals.append((np.flatnonzero(v < p.arrival_prob) + t0).astype(idx))
        channel_rng.random(out=v)
        np.less(v, p10 + p11, out=s1[blk])
        np.less(v, p2, out=s2_idle[blk])
        # [p10, p10 + p11 + p01) is [0, p10 + p11 + p01) without [0, p10)
        np.less(v, p10 + p11 + p01, out=s2_busy[blk])
        s2_busy[blk] ^= v < p10
    arrivals = np.concatenate([*arrivals, np.array([slots], dtype=idx)])
    return arrivals, s1, s2_idle, s2_busy


def _wait_table(s1: np.ndarray, d: int) -> np.ndarray:
    """Slots from each slot t to user 1's first success at or after t, capped at d.

    Every slot past the horizon counts as a success.
    """
    slots = len(s1)
    wait = np.zeros(slots + d + 1, dtype=np.min_scalar_type(d))
    following = slots  # the first success after the block
    for t0 in reversed(range(0, slots, _BLOCK)):
        blk = slice(t0, min(t0 + _BLOCK, slots))
        t = np.arange(blk.start, blk.stop)
        nxt = np.minimum.accumulate(np.where(s1[blk], t, following)[::-1])[::-1]
        following = int(nxt[0])
        wait[blk] = np.minimum(nxt - t, d)
    return wait


def _slot_tallies(
    a: np.ndarray, e: np.ndarray, s2_idle: np.ndarray, s2_busy: np.ndarray, cfg: SimConfig
) -> dict:
    """Per-slot state, occupancy, transitions and age from the packets' slots.

    a holds the arrival slots and the sentinel, e the departure slots. In
    slot t the queue's head is the first packet not departed before t; the
    queue is busy if that packet arrived before t. Slots are taken _BLOCK
    at a time; the last state and user 2's last success carry across
    blocks.
    """
    slots, warmup, d = cfg.slots, cfg.warmup_slots, cfg.params.deadline
    # packets departed before each block
    cuts = e.searchsorted(np.array([*range(0, slots, _BLOCK), slots], dtype=e.dtype)).tolist()

    occ = np.zeros(d + 1, dtype=np.int64)
    trans = np.zeros((d + 1) ** 2, dtype=np.int64)
    hist = np.zeros(0, dtype=np.int64)
    top = 0  # one past the oldest age seen
    aoi_sum = 0
    after_s2 = 0  # one past user 2's last success before the block, 0 if none
    prev_state = -1
    for t0, lo, hi in zip(range(0, slots, _BLOCK), cuts, cuts[1:]):
        blk = slice(t0, min(t0 + _BLOCK, slots))
        t = np.arange(blk.start, blk.stop, dtype=a.dtype)
        head = np.zeros(len(t) + 1, dtype=a.dtype)
        head[e[lo:hi] + 1 - t0] = 1
        head[0] = lo
        np.cumsum(head, out=head)
        # an idle queue's head (or the sentinel) arrives in slot t or later
        state = t - a.take(head[:-1])
        np.maximum(state, 0, out=state)
        busy = state > 0
        t += 1  # one past each slot from here, so that 0 stands for no success
        after = t * ((busy & s2_busy[blk]) | (~busy & s2_idle[blk]))
        after[0] = max(after[0], after_s2)
        np.maximum.accumulate(after, out=after)
        aoi = t
        aoi[0] -= after_s2
        aoi[1:] -= after[:-1]
        after_s2 = int(after[-1])

        m0 = max(warmup - t0, 0)
        if m0 >= len(t):
            continue
        state, aoi = state[m0:], aoi[m0:]
        occ += np.bincount(state, minlength=d + 1)
        if prev_state >= 0:
            trans[prev_state * (d + 1) + state[0]] += 1
        pairs = np.bincount(state[:-1] * (d + 1) + state[1:])
        trans[: len(pairs)] += pairs
        prev_state = int(state[-1])
        low = int(aoi.min())
        ages = np.bincount(aoi - low)
        top = max(top, low + len(ages))
        if len(hist) < top:  # doubling keeps an ever-growing age linear in the horizon
            hist = np.concatenate((hist, np.zeros(max(top, 2 * len(hist)) - len(hist), np.int64)))
        hist[low : low + len(ages)] += ages
        aoi_sum += int(aoi.sum(dtype=np.int64))
    return {
        "occ": occ,
        "trans": trans.reshape(d + 1, d + 1),
        "hist": hist[:top],
        "aoi_sum": aoi_sum,
    }


def _replicate(cfg: SimConfig, pipe: _Pipeline, rep: int) -> dict:
    """One seeded replication; returns raw post-warmup tallies."""
    slots, warmup, d = cfg.slots, cfg.warmup_slots, cfg.params.deadline
    idx = np.int32 if slots + d < np.iinfo(np.int32).max else np.int64
    a, s1, s2_idle, s2_busy = _draw(cfg, pipe, rep, idx)
    n = len(a) - 1
    wait = _wait_table(s1, d)
    del s1
    e = _departures(a[:n], wait, d) if n else a[:0]
    # departures are strictly increasing; a packet departing past the
    # horizon is still queued at its end
    # (searched with idx scalars: a Python int would make an int64 copy of e)
    done = e[: e.searchsorted(idx(slots))]
    delivered = wait[done] == 0
    del wait
    late = int(done.searchsorted(idx(warmup)))
    delivered_m = int(np.count_nonzero(delivered[late:]))
    return {
        **_slot_tallies(a, e, s2_idle, s2_busy, cfg),
        "arrivals": n,
        "delivered": int(np.count_nonzero(delivered)),
        "dropped": len(done) - int(np.count_nonzero(delivered)),
        "arrivals_m": n - int(a[:n].searchsorted(idx(warmup))),
        "delivered_m": delivered_m,
        "dropped_m": len(done) - late - delivered_m,
        "queue_residual": n - len(done),
    }


def _ci(values: list[float], replications: int) -> float:
    if replications < 2:
        return 0.0
    return _Z95 * float(np.std(values, ddof=1)) / math.sqrt(replications)


def _run(
    cfg: SimConfig, violation_thresholds: tuple[int, ...]
) -> tuple[SimulationReport, _Pipeline, np.ndarray]:
    pipe = _pipeline(cfg)
    reps = [_replicate(cfg, pipe, r) for r in range(cfg.replications)]
    measured = cfg.slots - cfg.warmup_slots
    n_rep = cfg.replications

    occ = np.array([r["occ"] for r in reps])
    hists = np.zeros((n_rep, max(len(r["hist"]) for r in reps)), dtype=np.int64)
    for row, r in zip(hists, reps):
        row[: len(r["hist"])] = r["hist"]

    per_rep = {
        "drop_rate": [r["dropped_m"] / measured for r in reps],
        "throughput": [r["delivered_m"] / measured for r in reps],
        "busy_prob": [(measured - int(c)) / measured for c in occ[:, 0]],
        "per_packet_drop_prob": [
            (r["dropped_m"] / r["arrivals_m"]) if r["arrivals_m"] > 0 else 0.0 for r in reps
        ],
        "aoi_average": [r["aoi_sum"] / measured for r in reps],
    }
    for x in violation_thresholds:
        # every measured slot has one age, so those above x are the rest
        per_rep[f"aoi_violation_{x}"] = [
            (measured - int(c)) / measured for c in hists[:, : x + 1].sum(axis=1)
        ]

    ci = {k: _ci(v, n_rep) for k, v in per_rep.items()}
    means = {k: float(np.mean(v)) for k, v in per_rep.items()}

    # one row per state, so each mean sums its replications as np.mean(list) does
    occupancy = tuple(np.mean(np.ascontiguousarray(occ.T) / measured, axis=1).tolist())
    total = hists.sum(axis=0)
    ages = np.flatnonzero(total)
    histogram = dict(zip(ages.tolist(), total[ages].tolist()))

    counts = {
        "arrivals": sum(r["arrivals"] for r in reps),
        "delivered": sum(r["delivered"] for r in reps),
        "dropped": sum(r["dropped"] for r in reps),
        "queue_residual": sum(r["queue_residual"] for r in reps),
        "measured_slots": measured * n_rep,
    }

    trans_total = sum(r["trans"] for r in reps)

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
        aoi_violation={x: means[f"aoi_violation_{x}"] for x in violation_thresholds},
        aoi_histogram=histogram,
        waiting_time_occupancy=occupancy,
        ci_halfwidth=ci,
        counts=counts,
    )
    return report, pipe, trans_total


def simulate(
    cfg: SimConfig, violation_thresholds: tuple[int, ...] = DEFAULT_VIOLATION_THRESHOLDS
) -> SimulationReport:
    """Run every replication and aggregate the empirical metrics."""
    report, _, _ = _run(cfg, violation_thresholds)
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
    report, pipe, trans = _run(cfg, DEFAULT_VIOLATION_THRESHOLDS)
    return CoupledRun(cfg=cfg, report=report, mu1=pipe.mu1, transitions=trans)


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
