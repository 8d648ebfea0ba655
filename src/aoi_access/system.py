"""End-to-end analytical pipeline for the two-user scenario.

The evaluation order is a feed-forward chain with no fixed point: user
1's service probability depends only on the channel and the sampling
probability, the queue solution then gives the busy probability that
shapes user 2's service, and the age metrics follow from that.
user1_service and user2_service hold the chain's only formulas for p1,
mu1, p2 and mu2; analyze and the simulator both call them. analyze is a
one-point sweep, and a sweep solves the queues of the points that share
a deadline together.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from . import channel
from .aoi import AoiParams, aoi_violation, average_aoi
from .channel import LinkParams, ReceiverParams, SuccessProbs
from .deadline_queue import QueueMetrics, _check_deadline, _check_prob, queue_metrics_stack
from .errors import ParameterError

# the ages x at which every report gives P(A > x)
VIOLATION_THRESHOLDS = tuple(range(1, 11))

SWEEP_AXES = ("q1", "q2", "lambda", "d", "gamma", "gamma_db")


@dataclass(frozen=True)
class SystemParams:
    """Full scenario: two links, the receiver, and the MAC-layer knobs.

    q1 is user 1's access probability when its queue is busy, q2 is user
    2's per-slot sample-and-transmit probability, arrival_prob the
    Bernoulli arrival rate of user 1's traffic, deadline its per-packet
    lifetime in slots.
    """

    link1: LinkParams
    link2: LinkParams
    rx: ReceiverParams
    q1: float
    q2: float
    arrival_prob: float
    deadline: int

    def __post_init__(self):
        _check_prob("q1", self.q1)
        _check_prob("q2", self.q2)
        _check_prob("arrival_prob", self.arrival_prob)
        _check_deadline(self.deadline)


@dataclass(frozen=True, eq=False)
class AnalyticalReport:
    """Every closed-form output of the pipeline for one parameter point.

    delta and mpr_strong are None when a solo success probability is 0,
    where the MPR strength is undefined.
    """

    params: SystemParams
    sp: SuccessProbs
    p1: float
    p2: float
    mu1: float
    mu2: float
    delta: float | None
    mpr_strong: bool | None
    queue: QueueMetrics
    aoi_average: float
    aoi_violation: dict[int, float]


def user1_service(params: SystemParams, sp: SuccessProbs) -> tuple[float, float]:
    """User 1's per-attempt success p1 and per-slot service probability mu1.

    This is the one definition of both: p1 = (1 - q2) p1s + q2 p1j and
    mu1 = q1 p1. User 2 samples fresh updates every slot regardless of
    any queue, so they depend on q2 but not on the arrivals or deadline.
    """
    p1 = (1.0 - params.q2) * sp.p_1_solo + params.q2 * sp.p_1_joint
    return p1, params.q1 * p1


def user2_service(
    params: SystemParams, sp: SuccessProbs, busy_prob: float
) -> tuple[float, float]:
    """User 2's per-attempt success p2 and per-slot update success mu2.

    This is the one definition of both: p2 = (1 - q1 beta) p2s +
    q1 beta p2j and mu2 = q2 p2, where beta is user 1's busy
    probability. User 1 interferes only when it is both busy and
    granted access.
    """
    _check_prob("busy_prob", busy_prob)
    active = params.q1 * busy_prob
    p2 = (1.0 - active) * sp.p_2_solo + active * sp.p_2_joint
    return p2, params.q2 * p2


def _reports(points: list[SystemParams]) -> list[AnalyticalReport]:
    """The full closed-form pipeline for every point, in input order.

    p1 and mu1 come from user1_service, the queue from mu1, and p2 and
    mu2 from user2_service at the queue's busy probability. The success
    probabilities are computed once per distinct channel, and the points
    that share a deadline have their queues solved together, in one
    stacked solve.
    """
    by_channel: dict[tuple, SuccessProbs] = {}
    sps = []
    for p in points:
        key = (p.link1, p.link2, p.rx)
        sp = by_channel.get(key)
        if sp is None:
            sp = by_channel[key] = channel.success_probs(*key)
        sps.append(sp)
    services = [user1_service(p, sp) for p, sp in zip(points, sps)]
    groups: dict[int, list[int]] = {}
    for i, p in enumerate(points):
        groups.setdefault(p.deadline, []).append(i)
    queues: list = [None] * len(points)
    for d, members in groups.items():
        solved = queue_metrics_stack(
            [points[i].arrival_prob for i in members], [services[i][1] for i in members], d
        )
        for i, queue in zip(members, solved):
            queues[i] = queue
    return [
        _report(p, sp, p1, mu1, queue)
        for p, sp, (p1, mu1), queue in zip(points, sps, services, queues)
    ]


def _report(
    params: SystemParams, sp: SuccessProbs, p1: float, mu1: float, queue: QueueMetrics
) -> AnalyticalReport:
    p2, mu2 = user2_service(params, sp, queue.busy_prob)
    delta = channel.mpr_strength(sp) if sp.p_1_solo > 0.0 and sp.p_2_solo > 0.0 else None
    aoi_params = AoiParams(mu2)
    return AnalyticalReport(
        params=params,
        sp=sp,
        p1=p1,
        p2=p2,
        mu1=mu1,
        mu2=mu2,
        delta=delta,
        mpr_strong=None if delta is None else channel.is_strong_mpr(delta),
        queue=queue,
        aoi_average=average_aoi(aoi_params),
        aoi_violation={x: aoi_violation(aoi_params, x) for x in VIOLATION_THRESHOLDS},
    )


def analyze(params: SystemParams) -> AnalyticalReport:
    """Run the full closed-form pipeline and collect every output: a one-point sweep."""
    return _reports([params])[0]


def apply_axis(base: SystemParams, axis: str, value) -> SystemParams:
    """A copy of base with one swept parameter replaced."""
    if axis == "q1":
        return replace(base, q1=float(value))
    if axis == "q2":
        return replace(base, q2=float(value))
    if axis == "lambda":
        return replace(base, arrival_prob=float(value))
    if axis == "d":
        if not float(value).is_integer():
            raise ParameterError(f"deadline sweep values must be integers, got {value!r}")
        return replace(base, deadline=int(value))
    if axis in ("gamma", "gamma_db"):
        g = channel.db_to_linear(float(value)) if axis == "gamma_db" else float(value)
        if g <= 0:
            raise ParameterError(f"gamma must be positive, got {value!r}")
        return replace(
            base,
            link1=replace(base.link1, sinr_threshold=g),
            link2=replace(base.link2, sinr_threshold=g),
        )
    raise ParameterError(f"unknown sweep axis {axis!r}; expected one of {SWEEP_AXES}")


def sweep(base: SystemParams, axis: str, values) -> list[AnalyticalReport]:
    """Analyze one report per value, in input order.

    The points of one deadline are solved in one stacked call. When a
    point fails, the error raised is that of the first failing point,
    as if the points were analyzed one at a time.
    """
    values = list(values)
    if not values:
        raise ParameterError("sweep values must not be empty")
    try:
        return _reports([apply_axis(base, axis, v) for v in values])
    except Exception:
        # this replay is the one place that picks which failing point's
        # error a sweep raises: the stacked pass builds every point before
        # it solves any, and a failed stack raises some failing member's
        # error, so rerun point by point to raise the first failing point's
        for v in values:
            _reports([apply_axis(base, axis, v)])
        raise
