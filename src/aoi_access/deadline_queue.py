"""Head-of-line waiting-time chain for the deadline-constrained user.

State k in 1..d is the age (in slots) of the packet at the head of the
queue; state 0 is an empty queue. A packet may be attempted at ages 1..d
and is dropped if it is still undelivered at the end of its age-d slot,
so the per-slot drop rate is pi_d * (1 - mu1). Arrivals follow the
early-departure / late-arrival convention: a packet arriving in slot t
becomes eligible at age 1 in slot t+1.

Chains that share a deadline are built, lumped and solved as a leading
stack axis; each one-chain function is the stack of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ParameterError, PartitionError
from .markov import (
    StationaryDistribution,
    StochasticMatrix,
    check_stack,
    stationary,
    stationary_stack,
)

LUMP_TOL = 1e-12

# a memory guard, not a tuned size: the most matrix entries that
# queue_metrics_stack solves in one call, 8 MiB of them and as much again
# for the LU copy, where 101 chains at d = 2000 would take 3.2 GB; from
# d = 724 on a stack holds one chain
STACK_ENTRIES = 1 << 20


def _check_prob(name: str, v: float) -> None:
    if not 0.0 <= v <= 1.0:
        raise ParameterError(f"{name} must be in [0,1], got {v}")


def _check_deadline(d: int) -> None:
    # a bool is an int to isinstance, and True would pass as 1
    if isinstance(d, bool) or not isinstance(d, int) or d < 1:
        raise ParameterError(f"deadline must be an integer >= 1, got {d!r}")


@dataclass(frozen=True)
class QueueParams:
    """Arrival probability per slot, service probability per slot, deadline in slots."""

    arrival_prob: float
    service_prob: float
    deadline: int

    def __post_init__(self):
        _check_prob("arrival_prob", self.arrival_prob)
        _check_prob("service_prob", self.service_prob)
        _check_deadline(self.deadline)


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


def build_waiting_time_stack(arrival_probs, service_probs, deadline: int) -> np.ndarray:
    """(k, d+1, d+1) transition matrices of the head-of-line age process, one per point.

    Point i has arrival probability arrival_probs[i] and service
    probability service_probs[i]; all share one deadline d. Row 0 (empty
    queue) moves to age 1 on an arrival. Rows 1..d-1 either fail service
    (age + 1) or deliver and promote the oldest waiting packet, whose age
    is set by how long ago it arrived. Row d does not depend on the
    service probability: the head leaves either way, delivered or
    dropped.
    """
    lams = [float(x) for x in arrival_probs]
    mus = [float(x) for x in service_probs]
    if len(lams) != len(mus):
        raise ParameterError(f"{len(lams)} arrival probabilities for {len(mus)} service ones")
    for lam, mu in zip(lams, mus):
        _check_prob("arrival_prob", lam)
        _check_prob("service_prob", mu)
    _check_deadline(deadline)
    d, k = deadline, len(lams)
    # down[:, i] = lam_bar**(d - i) as Python powers, so that every entry is
    # bit-identical to mu * lam * lam_bar**(r - j); row r takes the powers
    # r-1 down to 0 from its tail
    down = np.array([(1.0 - lam) ** i for lam in lams for i in range(d, -1, -1)])
    down = down.reshape(k, d + 1)
    lam, mu = np.array(lams)[:, None], np.array(mus)[:, None]
    m = np.zeros((k, d + 1, d + 1))
    m[:, 0, :2] = np.hstack((1.0 - lam, lam))
    # rows r = 1..d-1: column 0 is mu * lam_bar**r, column j <= r is
    # served[d - r + j], and column r + 1 is 1 - mu. Padded with zeros
    # past its end, served's window from d - r is row r from column 0 on
    served = np.hstack((mu * lam * down, np.zeros((k, d))))
    m[:, 1:d, 1:] = sliding_window_view(served, d + 1, axis=1)[:, d - 1 : 0 : -1, 1:]
    m[:, 1:d, 0] = mu * down[:, d - 1 : 0 : -1]
    rows = np.arange(1, d)
    m[:, rows, rows + 1] = 1.0 - mu
    m[:, d, 0] = down[:, 0]
    m[:, d, 1:] = lam * down[:, 1:]
    return m


def build_waiting_time_matrix(p: QueueParams) -> StochasticMatrix:
    """(d+1)x(d+1) transition matrix of the head-of-line age process: the stack of one."""
    return StochasticMatrix(
        build_waiting_time_stack([p.arrival_prob], [p.service_prob], p.deadline)[0]
    )


def _queue_metrics(lam: float, mu: float, d: int, pi: StationaryDistribution) -> QueueMetrics:
    drop_rate = pi[d] * (1.0 - mu)
    return QueueMetrics(
        stationary=pi,
        drop_rate=drop_rate,
        per_packet_drop_prob=drop_rate / lam if lam > 0.0 else 0.0,
        throughput=lam - drop_rate,
        busy_prob=1.0 - pi[0],
    )


def queue_metrics(p: QueueParams) -> QueueMetrics:
    """Solve the waiting-time chain and derive the per-slot rates."""
    pi = stationary(build_waiting_time_matrix(p))
    return _queue_metrics(p.arrival_prob, p.service_prob, p.deadline, pi)


def queue_metrics_stack(arrival_probs, service_probs, deadline: int) -> list[QueueMetrics]:
    """queue_metrics of points that share one deadline, solved a stack at a time.

    A stack holds at most STACK_ENTRIES matrix entries. A stack of one
    goes through queue_metrics, whose build and solve are the one-chain
    entry points that the benchmark's traced run wraps.
    """
    size = max(1, STACK_ENTRIES // (deadline + 1) ** 2)
    metrics = []
    for start in range(0, len(arrival_probs), size):
        lams = arrival_probs[start : start + size]
        mus = service_probs[start : start + size]
        if len(lams) == 1:
            metrics.append(queue_metrics(QueueParams(lams[0], mus[0], deadline)))
            continue
        pis = stationary_stack(build_waiting_time_stack(lams, mus, deadline))
        metrics += [
            _queue_metrics(lam, mu, deadline, StationaryDistribution(pi))
            for lam, mu, pi in zip(lams, mus, pis)
        ]
    return metrics


def build_2d_action_stack(silent, active, q2) -> np.ndarray:
    """Joint chains over (other-user action, head-of-line age), one per point.

    State index a*(d+1)+y couples the interferer's action a with the
    waiting time y. The action driving a transition is the one drawn for
    the slot in which that transition happens, i.e. the action coordinate
    of the DESTINATION state; the origin's action is last slot's and no
    longer matters. The interferer of point i transmits with probability
    q2[i]; silent[i] and active[i] are user 1's (n, n) waiting-time
    matrices without and under interference, with service q1*p_1_solo
    and q1*p_1_joint. Returns the (k, 2n, 2n) stack.
    """
    silent, active = check_stack(silent), check_stack(active)
    q2 = np.asarray(q2, dtype=float)
    if silent.shape != active.shape or q2.shape != silent.shape[:1]:
        raise ParameterError(
            f"{q2.shape} interferer probabilities for stacks of shapes "
            f"{silent.shape} and {active.shape}"
        )
    for x in q2:
        _check_prob("q2", x)
    w = q2[:, None, None]
    row = np.concatenate(((1.0 - w) * silent, w * active), axis=2)
    return np.concatenate((row, row), axis=1)


def build_2d_action_chain(
    silent: StochasticMatrix, active: StochasticMatrix, q2: float
) -> StochasticMatrix:
    """Joint chain over (other-user action, head-of-line age): the stack of one."""
    return StochasticMatrix(
        build_2d_action_stack(silent.entries[None], active.entries[None], [q2])[0]
    )


def action_partition(deadline: int) -> list[list[int]]:
    """Blocks pairing the two action states of each waiting-time value."""
    n = deadline + 1
    return [[j, n + j] for j in range(n)]


@dataclass(frozen=True, eq=False)
class LumpabilityReport:
    lumpable: bool
    max_deviation: float
    lumped: StochasticMatrix | None


def verify_lumpability_stack(
    m, partition: list[list[int]]
) -> tuple[np.ndarray, np.ndarray]:
    """Strong-lumpability condition of one partition over a (k, n, n) stack.

    The condition: within every block, all states must carry the same
    total transition probability into each block. Returns each matrix's
    largest within-block spread of those totals, shape (k,), and the
    block-to-block mean totals, shape (k, B, B). A matrix is lumpable
    when its spread is at most LUMP_TOL; its mean totals are then its
    chain on the blocks.

    The states are put in block order, so that every block is one run of
    rows and of columns and each reduction over blocks is one reduceat.
    """
    m = check_stack(m)
    order = [s for block in partition for s in block]
    if sorted(order) != list(range(m.shape[1])):
        raise PartitionError("partition must cover every state exactly once")
    sizes = np.array([len(block) for block in partition])
    if not sizes.all():
        raise PartitionError("partition blocks must be non-empty")

    starts = np.cumsum(sizes) - sizes
    # block_sums[:, s, J] = total probability of jumping from the s-th state
    # in block order into block J
    block_sums = np.add.reduceat(m[:, :, order], starts, axis=2)[:, order]
    spread = np.maximum.reduceat(block_sums, starts, axis=1) - np.minimum.reduceat(
        block_sums, starts, axis=1
    )
    # a sure jump can round to 1 + 2**-52; clip it so the lumped chain validates
    lumped = np.minimum(np.add.reduceat(block_sums, starts, axis=1) / sizes[:, None], 1.0)
    return spread.max(axis=(1, 2)), lumped


def verify_lumpability(m: StochasticMatrix, partition: list[list[int]]) -> LumpabilityReport:
    """Check the strong-lumpability condition of a partition numerically: the stack of one.

    When it holds the block-to-block sums define a Markov chain on the
    blocks, returned as the lumped matrix.
    """
    spread, lumped = verify_lumpability_stack(m.entries[None], partition)
    max_dev = float(spread[0])
    if max_dev > LUMP_TOL:
        return LumpabilityReport(lumpable=False, max_deviation=max_dev, lumped=None)
    return LumpabilityReport(
        lumpable=True, max_deviation=max_dev, lumped=StochasticMatrix(lumped[0])
    )
