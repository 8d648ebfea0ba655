"""Head-of-line waiting-time chain for the deadline-constrained user.

State k in 1..d is the age (in slots) of the packet at the head of the
queue; state 0 is an empty queue. A packet may be attempted at ages 1..d
and is dropped if it is still undelivered at the end of its age-d slot,
so the per-slot drop rate is pi_d * (1 - mu1). Arrivals follow the
early-departure / late-arrival convention: a packet arriving in slot t
becomes eligible at age 1 in slot t+1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, PartitionError
from .markov import StationaryDistribution, StochasticMatrix, stationary

LUMP_TOL = 1e-12


def _check_prob(name: str, v: float) -> None:
    if not 0.0 <= v <= 1.0:
        raise ParameterError(f"{name} must be in [0,1], got {v}")


@dataclass(frozen=True)
class QueueParams:
    """Arrival probability per slot, service probability per slot, deadline in slots."""

    arrival_prob: float
    service_prob: float
    deadline: int

    def __post_init__(self):
        _check_prob("arrival_prob", self.arrival_prob)
        _check_prob("service_prob", self.service_prob)
        if not isinstance(self.deadline, int) or self.deadline < 1:
            raise ParameterError(f"deadline must be an integer >= 1, got {self.deadline!r}")


@dataclass(frozen=True, eq=False)
class QueueMetrics:
    """Steady-state figures of the deadline queue.

    drop_rate is expected drops per slot; throughput is delivered packets
    per slot (arrivals minus drops, since every arrival is eventually
    either delivered or dropped); busy_prob is Pr{queue non-empty}.
    """

    stationary: StationaryDistribution
    drop_rate: float
    per_packet_drop_prob: float
    throughput: float
    busy_prob: float


def build_waiting_time_matrix(p: QueueParams) -> StochasticMatrix:
    """(d+1)x(d+1) transition matrix of the head-of-line age process.

    Row 0 (empty queue) moves to age 1 on an arrival. Rows 1..d-1 either
    fail service (age + 1) or deliver and promote the oldest waiting
    packet, whose age is set by how long ago it arrived. Row d does not
    depend on the service probability: the head leaves either way,
    delivered or dropped.
    """
    lam, mu, d = p.arrival_prob, p.service_prob, p.deadline
    lam_bar = 1.0 - lam
    # down[i] = lam_bar**(d - i) as a Python power, so that every entry is
    # bit-identical to mu * lam * lam_bar**(k - j); row k takes the powers
    # k-1 down to 0 from its tail
    down = np.array([lam_bar**i for i in range(d, -1, -1)])
    m = np.zeros((d + 1, d + 1))
    m[0, 0] = lam_bar
    m[0, 1] = lam
    served = mu * lam * down
    for k in range(1, d):
        m[k, 0] = mu * down[d - k]
        m[k, 1 : k + 1] = served[d - k + 1 :]
        m[k, k + 1] = 1.0 - mu
    m[d, 0] = down[0]
    m[d, 1:] = lam * down[1:]
    return StochasticMatrix(m)


def queue_metrics(p: QueueParams) -> QueueMetrics:
    """Solve the waiting-time chain and derive the per-slot rates."""
    pi = stationary(build_waiting_time_matrix(p))
    drop_rate = pi[p.deadline] * (1.0 - p.service_prob)
    busy_prob = 1.0 - pi[0]
    throughput = p.arrival_prob - drop_rate
    per_packet = drop_rate / p.arrival_prob if p.arrival_prob > 0.0 else 0.0
    return QueueMetrics(
        stationary=pi,
        drop_rate=drop_rate,
        per_packet_drop_prob=per_packet,
        throughput=throughput,
        busy_prob=busy_prob,
    )


def build_2d_action_chain(
    silent: StochasticMatrix, active: StochasticMatrix, q2: float
) -> StochasticMatrix:
    """Joint chain over (other-user action, head-of-line age).

    State index a*(d+1)+y couples the interferer's action a with the
    waiting time y. The action driving a transition is the one drawn for
    the slot in which that transition happens, i.e. the action coordinate
    of the DESTINATION state; the origin's action is last slot's and no
    longer matters. The interferer transmits with probability q2; silent
    and active are user 1's waiting-time matrices without and under
    interference, with service q1*p_1_solo and q1*p_1_joint.
    """
    _check_prob("q2", q2)
    row = np.hstack(((1.0 - q2) * silent.entries, q2 * active.entries))
    return StochasticMatrix(np.vstack((row, row)))


def action_partition(deadline: int) -> list[list[int]]:
    """Blocks pairing the two action states of each waiting-time value."""
    n = deadline + 1
    return [[j, n + j] for j in range(n)]


@dataclass(frozen=True, eq=False)
class LumpabilityReport:
    lumpable: bool
    max_deviation: float
    lumped: StochasticMatrix | None


def verify_lumpability(
    m: StochasticMatrix, partition: list[list[int]], tol: float = LUMP_TOL
) -> LumpabilityReport:
    """Check the strong-lumpability condition of a partition numerically.

    The condition: within every block, all states must carry the same
    total transition probability into each block. When it holds the
    block-to-block sums define a Markov chain on the blocks, returned as
    the lumped matrix.

    The states are put in block order, so that every block is one run of
    rows and of columns and each reduction over blocks is one reduceat.
    """
    order = [s for block in partition for s in block]
    if sorted(order) != list(range(m.n)):
        raise PartitionError("partition must cover every state exactly once")
    sizes = np.array([len(block) for block in partition])
    if not sizes.all():
        raise PartitionError("partition blocks must be non-empty")

    starts = np.cumsum(sizes) - sizes
    # block_sums[s, J] = total probability of jumping from the s-th state
    # in block order into block J
    block_sums = np.add.reduceat(m.entries[:, order], starts, axis=1)[order]
    spread = np.maximum.reduceat(block_sums, starts) - np.minimum.reduceat(block_sums, starts)
    max_dev = float(spread.max())
    # a sure jump can round to 1 + 2**-52; clip it so the lumped chain validates
    lumped = np.minimum(np.add.reduceat(block_sums, starts) / sizes[:, None], 1.0)

    if max_dev > tol:
        return LumpabilityReport(lumpable=False, max_deviation=max_dev, lumped=None)
    return LumpabilityReport(
        lumpable=True, max_deviation=max_dev, lumped=StochasticMatrix(lumped)
    )
