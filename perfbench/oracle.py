"""Closed forms and correctness checks computed apart from aoi_access.

Everything here is written from the paper's formulas with math and numpy
only, so a fault in the library cannot pass by being reproduced here.
A failed check raises CheckFailed with a message naming the quantity.
"""

from __future__ import annotations

import math

import numpy as np

REL_TOL = 1e-12
RESIDUAL_TOL = 1e-10
SHAPE_SLACK = 1e-12
# flow balance and the drop identity go through the stationary vector,
# whose entries the stationarity residual bounds only to RESIDUAL_TOL
FLOW_TOL = 1e-9
VIOLATION_X = tuple(range(1, 11))

# Standard deviation of one 500k-slot replication's estimate (first 10% is
# warm-up) on the reference channel with q1 = q2 = lambda = 0.5, measured
# over 30 independent seeds per mode. User 1's dynamics do not depend on
# the mode, so its figures are the larger of the two modes'; the AoI figure
# is the decoupled mode's.
SIGMA_SLOTS = 500_000
SIGMA = {
    3: {"drop_rate": 7.0e-4, "busy_prob": 8.5e-4, "throughput": 6.0e-4, "aoi_average": 5.5e-3},
    20: {"drop_rate": 9.0e-4, "busy_prob": 2.2e-4, "throughput": 7.0e-4, "aoi_average": 6.0e-3},
}
# pooled estimate may sit this many standard errors from the closed form
Z_LIMIT = 5.0
# the AoI closed form assumes user 2's successes are independent of user
# 1's queue; in coupled mode it is an approximation held to this gap
COUPLED_AOI_GAP = 0.05


class CheckFailed(AssertionError):
    pass


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def close(a: float, b: float, rel: float = REL_TOL, abs_: float = 1e-15) -> bool:
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= max(rel * abs(b), abs_)


def dbm_to_w(dbm: float) -> float:
    return 10.0 ** (dbm / 10.0) / 1000.0


def db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


def success_probs(link1: dict, link2: dict, noise_w: float) -> dict:
    """Rayleigh block fading: P(exp(s) * SINR clears gamma), alone and jointly.

    A link is a dict of tx_power_w, distance_m, path_loss_exp, gamma
    (linear) and fading_scale.
    """

    def mean_rx(link):
        return link["fading_scale"] * link["tx_power_w"] * link["distance_m"] ** -link["path_loss_exp"]

    s1, s2 = mean_rx(link1), mean_rx(link2)
    p1 = math.exp(-link1["gamma"] * noise_w / s1)
    p2 = math.exp(-link2["gamma"] * noise_w / s2)
    return {
        "p_1_solo": p1,
        "p_1_joint": p1 / (1.0 + link1["gamma"] * s2 / s1),
        "p_2_solo": p2,
        "p_2_joint": p2 / (1.0 + link2["gamma"] * s1 / s2),
    }


def _rows(lam: float, mu: float, d: int):
    """Rows of the head-of-line age chain, one vectorised row per state.

    Row 0: stay empty w.p. 1-lam, else age 1. Row k < d: deliver w.p. mu,
    after which the next head has age j w.p. lam*(1-lam)^(k-j) (empty
    w.p. (1-lam)^k), else age k+1. Row d: the head leaves either way.
    """
    lb = 1.0 - lam
    powers = lb ** np.arange(d + 1)
    row = np.zeros(d + 1)
    row[0], row[1] = lb, lam
    yield 0, row
    for k in range(1, d + 1):
        leave = mu if k < d else 1.0
        row = np.zeros(d + 1)
        row[0] = leave * powers[k]
        row[1 : k + 1] = leave * lam * powers[k - 1 :: -1]
        if k < d:
            row[k + 1] = 1.0 - mu
        yield k, row


def waiting_time_matrix(lam: float, mu: float, d: int) -> np.ndarray:
    m = np.zeros((d + 1, d + 1))
    for k, row in _rows(lam, mu, d):
        m[k] = row
    return m


def stationarity_residual(pi: np.ndarray, lam: float, mu: float, d: int) -> float:
    """max |pi P - pi|, accumulated row by row so P is never held whole."""
    flow = np.zeros(d + 1)
    for k, row in _rows(lam, mu, d):
        flow += pi[k] * row
    return float(np.max(np.abs(flow - pi)))


def closed_forms(point: dict) -> dict:
    """User 1's drop rate, busy probability and throughput and user 2's mean AoI.

    Solves the balance equations of the waiting-time chain with one of
    them replaced by the normalisation; meant for small deadlines.
    """
    q1, q2, lam, d = point["q1"], point["q2"], point["lam"], point["d"]
    sp = success_probs(point["link1"], point["link2"], point["noise_w"])
    mu1 = q1 * ((1.0 - q2) * sp["p_1_solo"] + q2 * sp["p_1_joint"])
    a = waiting_time_matrix(lam, mu1, d).T - np.eye(d + 1)
    a[-1, :] = 1.0
    b = np.zeros(d + 1)
    b[-1] = 1.0
    pi = np.linalg.solve(a, b)
    busy = 1.0 - pi[0]
    active = q1 * busy
    mu2 = q2 * ((1.0 - active) * sp["p_2_solo"] + active * sp["p_2_joint"])
    return {
        "drop_rate": pi[d] * (1.0 - mu1),
        "busy_prob": busy,
        "throughput": mu1 * busy,
        "aoi_average": 1.0 / mu2,
    }


def check_point(point: dict, out: dict) -> float:
    """Check one analysed parameter point; returns the stationarity residual.

    point holds the inputs (link1, link2, noise_w, q1, q2, lam, d); out
    holds the program's outputs under the flat result-row names.
    """
    q1, q2, lam, d = point["q1"], point["q2"], point["lam"], point["d"]
    where = f"q1={q1!r} q2={q2!r} lambda={lam!r} d={d}"
    sp = success_probs(point["link1"], point["link2"], point["noise_w"])
    for name, want in sp.items():
        require(close(out[name], want), f"{name} {out[name]!r} != {want!r} at {where}")
    mu1 = q1 * ((1.0 - q2) * sp["p_1_solo"] + q2 * sp["p_1_joint"])
    require(close(out["mu1"], mu1), f"mu1 {out['mu1']!r} != {mu1!r} at {where}")

    pi = np.asarray(out["ana_stationary"], dtype=float)
    require(pi.shape == (d + 1,), f"stationary vector has {pi.shape} entries, want {d + 1} at {where}")
    require(bool(np.all(pi >= 0.0)), f"negative stationary probability at {where}")
    require(abs(pi.sum() - 1.0) <= REL_TOL, f"stationary vector sums to {pi.sum()!r} at {where}")
    residual = stationarity_residual(pi, lam, mu1, d)
    require(residual <= RESIDUAL_TOL, f"max|pi P - pi| = {residual:g} at {where}")

    busy = out["ana_busy_prob"]
    require(close(busy, 1.0 - pi[0]), f"busy_prob {busy!r} != 1 - pi_0 at {where}")
    drop = pi[d] * (1.0 - mu1)
    require(close(out["ana_drop_rate"], drop, abs_=FLOW_TOL * 1e-3),
            f"drop_rate {out['ana_drop_rate']!r} != pi_d (1 - mu1) = {drop!r} at {where}")
    require(abs(mu1 * busy - out["ana_throughput"]) <= FLOW_TOL,
            f"flow balance: mu1*busy {mu1 * busy!r} != throughput {out['ana_throughput']!r} at {where}")

    active = q1 * busy
    mu2 = q2 * ((1.0 - active) * sp["p_2_solo"] + active * sp["p_2_joint"])
    require(close(out["mu2"], mu2), f"mu2 {out['mu2']!r} != {mu2!r} at {where}")
    aoi = math.inf if mu2 == 0.0 else 1.0 / mu2
    require(close(out["ana_aoi_average"], aoi), f"aoi_average {out['ana_aoi_average']!r} != 1/mu2 at {where}")
    viol = out["ana_aoi_violation"]
    require(sorted(viol) == list(VIOLATION_X), f"violation thresholds {sorted(viol)} at {where}")
    for x in VIOLATION_X:
        want = (1.0 - mu2) ** x
        require(close(viol[x], want), f"P(A>{x}) {viol[x]!r} != (1-mu2)^{x} = {want!r} at {where}")
    return residual


def check_tradeoff(axis: str, values: list, drops: list, aois: list) -> None:
    """The paper's trade-off shapes along one swept axis."""

    def pairs(seq):
        return list(zip(seq, seq[1:]))

    def never_falls(seq, what):
        for (a, b), v in zip(pairs(seq), values[1:]):
            require(b >= a - SHAPE_SLACK, f"{what} falls from {a!r} to {b!r} at {axis}={v!r}")

    def never_rises(seq, what):
        for (a, b), v in zip(pairs(seq), values[1:]):
            require(b <= a + SHAPE_SLACK, f"{what} rises from {a!r} to {b!r} at {axis}={v!r}")

    if axis == "q2":
        never_falls(drops, "drop rate")
        for (a, b), v in zip(pairs(aois), values[1:]):
            require(b < a, f"AoI does not fall from {a!r} to {b!r} at q2={v!r}")
    elif axis == "q1":
        never_rises(drops, "drop rate")
        never_falls(aois, "AoI")
    elif axis == "lambda":
        never_falls(drops, "drop rate")
    else:
        raise ValueError(f"no trade-off shape for axis {axis!r}")


def check_sim_exact(report) -> None:
    """Identities every simulation report must satisfy exactly."""
    c = report.counts
    require(c["arrivals"] == c["delivered"] + c["dropped"] + c["queue_residual"],
            f"arrivals {c['arrivals']} != delivered + dropped + residual in {c}")
    measured = c["measured_slots"]
    require(measured == (report.slots - report.warmup_slots) * report.replications,
            f"measured_slots {measured} for {report.replications} x ({report.slots} - {report.warmup_slots})")
    hist = report.aoi_histogram
    require(sum(hist.values()) == measured, f"AoI histogram holds {sum(hist.values())} slots, want {measured}")
    age_sum = sum(age * count for age, count in hist.items())
    require(close(age_sum, report.aoi_average * measured, rel=1e-12),
            f"sum age*count {age_sum} != aoi_average * slots {report.aoi_average * measured!r}")


def check_sim_statistics(d: int, mode: str, closed: dict, estimates: dict, n: int) -> None:
    """Pooled estimates of n independent 500k-slot replications against the closed forms.

    closed and estimates map drop_rate, busy_prob, throughput and
    aoi_average to a value; estimates are means over the n replications.
    """
    for metric, want in closed.items():
        got = estimates[metric]
        if metric == "aoi_average" and mode == "coupled":
            gap = abs(got - want) / want
            require(gap <= COUPLED_AOI_GAP, f"coupled AoI {got!r} is {gap:.2%} from 1/mu2 = {want!r} at d={d}")
            continue
        tol = Z_LIMIT * SIGMA[d][metric] / math.sqrt(n)
        require(abs(got - want) <= tol,
                f"{mode} d={d} {metric}: mean of {n} runs {got!r} is {abs(got - want):.3g} "
                f"from {want!r}, tolerance {tol:.3g}")
