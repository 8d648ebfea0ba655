"""End-to-end analytical pipeline for the two-user scenario.

The evaluation order is a feed-forward chain with no fixed point: user
1's service probability depends only on the channel and the sampling
probability, the queue solution then gives the busy probability that
shapes user 2's service, and the age metrics follow from that.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from . import channel
from .aoi import AoiParams, aoi_violation, average_aoi
from .channel import LinkParams, ReceiverParams, SuccessProbs
from .deadline_queue import QueueMetrics, QueueParams, _check_prob, queue_metrics
from .errors import ParameterError

DEFAULT_VIOLATION_THRESHOLDS = tuple(range(1, 11))

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
        if not isinstance(self.deadline, int) or self.deadline < 1:
            raise ParameterError(f"deadline must be an integer >= 1, got {self.deadline!r}")


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


def success_probs(params: SystemParams) -> SuccessProbs:
    return channel.success_probs(params.link1, params.link2, params.rx)


def service_prob_user1(params: SystemParams, sp: SuccessProbs) -> float:
    """Per-slot delivery probability of user 1's head packet.

    User 2 samples fresh updates every slot regardless of any queue, so
    this depends on q2 but not on the arrival process or deadline.
    """
    return params.q1 * ((1.0 - params.q2) * sp.p_1_solo + params.q2 * sp.p_1_joint)


def service_prob_user2(params: SystemParams, sp: SuccessProbs, busy_prob: float) -> float:
    """Per-slot delivery probability of user 2's updates.

    User 1 interferes only when it is both busy and granted access, which
    happens with probability q1 * busy_prob in steady state.
    """
    _check_prob("busy_prob", busy_prob)
    active = params.q1 * busy_prob
    return params.q2 * ((1.0 - active) * sp.p_2_solo + active * sp.p_2_joint)


def analyze(
    params: SystemParams,
    violation_thresholds: tuple[int, ...] = DEFAULT_VIOLATION_THRESHOLDS,
) -> AnalyticalReport:
    """Run the full closed-form pipeline and collect every output."""
    sp = success_probs(params)
    p1 = (1.0 - params.q2) * sp.p_1_solo + params.q2 * sp.p_1_joint
    mu1 = params.q1 * p1
    queue = queue_metrics(QueueParams(params.arrival_prob, mu1, params.deadline))
    active = params.q1 * queue.busy_prob
    p2 = (1.0 - active) * sp.p_2_solo + active * sp.p_2_joint
    mu2 = params.q2 * p2
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
        aoi_violation={x: aoi_violation(aoi_params, x) for x in violation_thresholds},
    )


def apply_axis(base: SystemParams, axis: str, value) -> SystemParams:
    """A copy of base with one swept parameter replaced."""
    if axis == "q1":
        return replace(base, q1=float(value))
    if axis == "q2":
        return replace(base, q2=float(value))
    if axis in ("lambda", "arrival_prob"):
        return replace(base, arrival_prob=float(value))
    if axis in ("d", "deadline"):
        iv = int(value)
        if iv != value:
            raise ParameterError(f"deadline sweep values must be integers, got {value!r}")
        return replace(base, deadline=iv)
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


def sweep(
    base: SystemParams,
    axis: str,
    values,
    violation_thresholds: tuple[int, ...] = DEFAULT_VIOLATION_THRESHOLDS,
) -> list[AnalyticalReport]:
    """Analyze one report per value, in input order."""
    values = list(values)
    if not values:
        raise ParameterError("sweep requires at least one value")
    return [analyze(apply_axis(base, axis, v), violation_thresholds) for v in values]
