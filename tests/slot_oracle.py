"""Reference slot-by-slot simulator, kept as the oracle for aoi_access.sim.

replicate() plays one replication forward one slot at a time from the
same seeded draws as sim._replicate, and simulate() aggregates the
replications exactly as sim.simulate does. The vectorised simulator must
reproduce both bit for bit.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from aoi_access import sim
from aoi_access.sim import SimConfig, SimulationReport
from aoi_access.system import DEFAULT_VIOLATION_THRESHOLDS


def replicate(cfg: SimConfig, pipe, rep: int) -> dict:
    """One seeded replication; returns raw post-warmup tallies."""
    p = cfg.params
    sp = pipe.sp
    slots, warmup, d = cfg.slots, cfg.warmup_slots, p.deadline
    decoupled = cfg.mode == "decoupled"

    rng = np.random.default_rng(cfg.seed + rep)
    arrive = (rng.random(slots) < p.arrival_prob).tobytes()
    att1 = (rng.random(slots) < p.q1).tobytes()
    att2 = (rng.random(slots) < p.q2).tobytes()
    win1_solo = (rng.random(slots) < sp.p_1_solo).tobytes()
    win1_joint = (rng.random(slots) < sp.p_1_joint).tobytes()
    if decoupled:
        win2_solo = win2_joint = b""
        dec = (rng.random(slots) < pipe.mu2).tobytes()
    else:
        win2_solo = (rng.random(slots) < sp.p_2_solo).tobytes()
        win2_joint = (rng.random(slots) < sp.p_2_joint).tobytes()
        dec = b""

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

        tx1 = busy and att1[t]
        tx2 = att2[t]
        s1 = (win1_joint[t] if tx2 else win1_solo[t]) if tx1 else 0
        if decoupled:
            s2 = dec[t]
        else:
            s2 = (win2_joint[t] if tx1 else win2_solo[t]) if tx2 else 0

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


def simulate(
    cfg: SimConfig, violation_thresholds: tuple[int, ...] = DEFAULT_VIOLATION_THRESHOLDS
) -> SimulationReport:
    """Every replication through replicate(), aggregated with Python loops."""
    pipe = sim._pipeline(cfg)
    reps = [replicate(cfg, pipe, r) for r in range(cfg.replications)]
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
    for x in violation_thresholds:
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
        aoi_violation={x: means[f"aoi_violation_{x}"] for x in violation_thresholds},
        aoi_histogram=histogram,
        waiting_time_occupancy=occupancy,
        ci_halfwidth=ci,
        counts=counts,
    )
