"""Reference slot-by-slot simulator, kept as the oracle for aoi_access.sim.

replicate() plays one replication forward one slot at a time, and
simulate() aggregates the replications exactly as sim.simulate does. The
vectorised simulator must reproduce both bit for bit.

The draws are the simulator's: replication r of seed s spawns an arrival
stream and a channel stream from SeedSequence([s, r]), each one uniform
per slot. The channel uniform is read through interval thresholds that
this module derives on its own: in coupled mode by enumerating every
access and decoding outcome of a slot in which both users may transmit,
in decoupled mode from the independent success probabilities mu1 and
mu2. See the sim module docstring for the layout.
"""

from __future__ import annotations

import itertools
from collections import deque

import numpy as np

from aoi_access import channel, sim, system
from aoi_access.deadline_queue import QueueParams, queue_metrics
from aoi_access.sim import SimConfig, SimulationReport
from aoi_access.system import VIOLATION_THRESHOLDS


def outcomes(q1: float, q2: float, sp) -> dict[tuple[int, int], float]:
    """P(user 1 succeeds, user 2 succeeds) when they transmit with q1 and q2.

    Sums over whether each user transmits and whether each transmission
    is decoded; a user that stays silent is never decoded.
    """
    out = {(1, 1): 0.0, (1, 0): 0.0, (0, 1): 0.0, (0, 0): 0.0}
    for tx1, tx2, win1, win2 in itertools.product((0, 1), repeat=4):
        p_win1 = (sp.p_1_joint if tx2 else sp.p_1_solo) if tx1 else 0.0
        p_win2 = (sp.p_2_joint if tx1 else sp.p_2_solo) if tx2 else 0.0
        out[win1, win2] += (
            (q1 if tx1 else 1.0 - q1)
            * (q2 if tx2 else 1.0 - q2)
            * (p_win1 if win1 else 1.0 - p_win1)
            * (p_win2 if win2 else 1.0 - p_win2)
        )
    return out


def thresholds(cfg: SimConfig) -> tuple[float, float, float, float]:
    """p10, p11, p01 of a busy slot and user 2's success probability in an idle one."""
    p, sp = cfg.params, cfg.success_probs_override
    if sp is None:
        sp = channel.success_probs(p.link1, p.link2, p.rx)
    if cfg.mode == "decoupled":
        _, mu1 = system.user1_service(p, sp)
        busy = queue_metrics(QueueParams(p.arrival_prob, mu1, p.deadline)).busy_prob
        _, mu2 = system.user2_service(p, sp, busy)
        return mu1 * (1.0 - mu2), mu1 * mu2, (1.0 - mu1) * mu2, mu2
    busy = outcomes(p.q1, p.q2, sp)
    # with user 1 idle only user 2 may transmit
    idle = outcomes(0.0, p.q2, sp)
    return busy[1, 0], busy[1, 1], busy[0, 1], idle[0, 1]


def replicate(cfg: SimConfig, rep: int) -> dict:
    """One seeded replication; returns raw post-warmup tallies."""
    p = cfg.params
    slots, warmup, d = cfg.slots, cfg.warmup_slots, p.deadline

    arrival_rng, channel_rng = (
        np.random.default_rng(s) for s in np.random.SeedSequence([cfg.seed, rep]).spawn(2)
    )
    arrive = (arrival_rng.random(slots) < p.arrival_prob).tobytes()
    p10, p11, p01, p2 = thresholds(cfg)
    u = channel_rng.random(slots)
    win1_busy = (u < p10 + p11).tobytes()
    win2_busy = ((p10 <= u) & (u < p10 + p11 + p01)).tobytes()
    win2_idle = (u < p2).tobytes()

    queue: deque[int] = deque()
    occ = [0] * (d + 1)
    trans = [[0] * (d + 1) for _ in range(d + 1)]
    hist = [0] * 512
    aoi = 1
    aoi_sum = 0
    prev_state = -1
    arrivals = delivered = dropped = 0
    arrivals_m = delivered_m = dropped_m = 0

    for t in range(slots):
        if queue:
            state = t - queue[0]
            busy = True
        else:
            state = 0
            busy = False
        measured = t >= warmup
        if measured:
            occ[state] += 1
            if prev_state >= 0:
                trans[prev_state][state] += 1
            prev_state = state
            if aoi >= len(hist):
                hist.extend([0] * (aoi + 256 - len(hist)))
            hist[aoi] += 1
            aoi_sum += aoi

        s1 = busy and win1_busy[t]
        s2 = win2_busy[t] if busy else win2_idle[t]

        # age update, then early departure / drop, then late arrival
        aoi = 1 if s2 else aoi + 1
        if busy:
            if s1:
                queue.popleft()
                delivered += 1
                delivered_m += measured
            elif state == d:
                queue.popleft()
                dropped += 1
                dropped_m += measured
        if arrive[t]:
            queue.append(t)
            arrivals += 1
            arrivals_m += measured

    return {
        "occ": occ,
        "trans": trans,
        "hist": hist,
        "aoi_sum": aoi_sum,
        "arrivals": arrivals,
        "delivered": delivered,
        "dropped": dropped,
        "arrivals_m": arrivals_m,
        "delivered_m": delivered_m,
        "dropped_m": dropped_m,
        "queue_residual": len(queue),
    }


def simulate(cfg: SimConfig) -> SimulationReport:
    """Every replication through replicate(), aggregated with Python loops."""
    reps = [replicate(cfg, r) for r in range(cfg.replications)]
    measured = cfg.slots - cfg.warmup_slots
    n_rep = cfg.replications

    per_rep = {
        "drop_rate": [r["dropped_m"] / measured for r in reps],
        "throughput": [r["delivered_m"] / measured for r in reps],
        "busy_prob": [(measured - r["occ"][0]) / measured for r in reps],
        "per_packet_drop_prob": [
            (r["dropped_m"] / r["arrivals_m"]) if r["arrivals_m"] > 0 else 0.0 for r in reps
        ],
        "aoi_average": [r["aoi_sum"] / measured for r in reps],
    }
    for x in VIOLATION_THRESHOLDS:
        per_rep[f"aoi_violation_{x}"] = [sum(r["hist"][x + 1 :]) / measured for r in reps]

    ci = {k: sim._ci(v, n_rep) for k, v in per_rep.items()}
    means = {k: float(np.mean(v)) for k, v in per_rep.items()}

    occupancy = tuple(
        float(np.mean([r["occ"][s] / measured for r in reps]))
        for s in range(cfg.params.deadline + 1)
    )
    histogram: dict[int, int] = {}
    for r in reps:
        for age, count in enumerate(r["hist"]):
            if count:
                histogram[age] = histogram.get(age, 0) + count
    histogram = dict(sorted(histogram.items()))

    counts = {
        "arrivals": sum(r["arrivals"] for r in reps),
        "delivered": sum(r["delivered"] for r in reps),
        "dropped": sum(r["dropped"] for r in reps),
        "queue_residual": sum(r["queue_residual"] for r in reps),
        "measured_slots": measured * n_rep,
    }

    return SimulationReport(
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
