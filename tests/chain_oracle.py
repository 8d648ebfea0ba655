"""Reference implementations kept as oracles for aoi_access.markov and the chain build.

build_waiting_time_matrix() fills the matrix one entry at a time.
stationary() is a least-squares solve of P^T - I with the normalisation
row appended, guarded by a closed-class count taken from a brute-force
transitive closure, and stationary_power_iteration() reaches the same
vector by repeated multiplication. verify_lumpability() loops over the
blocks of the partition. The library's slice-filled build, square LU
solve, reachability test and reduceat lumpability check must agree with
them. build_aoi_matrix_truncated() is the age chain whose stationary
vector the closed-form age pmf must match.
"""

from __future__ import annotations

import numpy as np

from aoi_access.aoi import AoiParams
from aoi_access.deadline_queue import LUMP_TOL, LumpabilityReport, QueueParams
from aoi_access.errors import ConvergenceError, NotIrreducibleError, ParameterError, PartitionError
from aoi_access.markov import RESIDUAL_TOL, StationaryDistribution, StochasticMatrix


def _check_residual(pi: np.ndarray, m: StochasticMatrix, context: str) -> None:
    residual = float(np.max(np.abs(pi @ m.entries - pi)))
    if residual > RESIDUAL_TOL:
        raise ConvergenceError(
            f"{context}: stationarity residual {residual:g} exceeds {RESIDUAL_TOL:g}"
        )


def build_waiting_time_matrix(p: QueueParams) -> np.ndarray:
    lam, mu, d = p.arrival_prob, p.service_prob, p.deadline
    lam_bar = 1.0 - lam
    m = np.zeros((d + 1, d + 1))
    m[0, 0] = lam_bar
    m[0, 1] = lam
    for k in range(1, d):
        m[k, 0] = mu * lam_bar**k
        for j in range(1, k + 1):
            m[k, j] = mu * lam * lam_bar ** (k - j)
        m[k, k + 1] = 1.0 - mu
    m[d, 0] = lam_bar**d
    for j in range(1, d + 1):
        m[d, j] = lam * lam_bar ** (d - j)
    return m


def transitive_closure(mask: np.ndarray) -> np.ndarray:
    """reach[i, j]: j is reachable from i in zero or more steps (Warshall)."""
    reach = np.asarray(mask, dtype=bool) | np.eye(len(mask), dtype=bool)
    for k in range(len(mask)):
        reach |= reach[:, k : k + 1] & reach[k : k + 1, :]
    return reach


def closed_class_count(mask: np.ndarray) -> int:
    """Number of closed communicating classes of the graph of mask."""
    reach = transitive_closure(mask)
    mutual = reach & reach.T
    # a state's class is closed iff every state it reaches reaches it back
    closed = (reach <= mutual).all(axis=1)
    return len({tuple(row) for row, c in zip(mutual.tolist(), closed) if c})


def stationary(m: StochasticMatrix) -> StationaryDistribution:
    if closed_class_count(m.entries > 0.0) != 1:
        raise NotIrreducibleError("chain has multiple closed classes; stationary vector not unique")
    n = m.n
    a = np.vstack([m.entries.T - np.eye(n), np.ones((1, n))])
    b = np.zeros(n + 1)
    b[n] = 1.0
    pi, *_ = np.linalg.lstsq(a, b, rcond=None)
    pi[np.abs(pi) < 1e-13] = 0.0
    if np.any(pi < 0.0):
        raise ConvergenceError(f"direct solve produced a negative probability: {pi.min()!r}")
    pi /= pi.sum()
    _check_residual(pi, m, "direct solve")
    return StationaryDistribution(pi)


def verify_lumpability(m: StochasticMatrix, partition: list[list[int]]) -> LumpabilityReport:
    n = m.n
    seen = sorted(s for block in partition for s in block)
    if seen != list(range(n)):
        raise PartitionError("partition must cover every state exactly once")
    if any(len(block) == 0 for block in partition):
        raise PartitionError("partition blocks must be non-empty")

    nblocks = len(partition)
    # block_sums[s, J] = total probability of jumping from state s into block J
    block_sums = np.empty((n, nblocks))
    for j, block in enumerate(partition):
        block_sums[:, j] = m.entries[:, block].sum(axis=1)

    max_dev = 0.0
    lumped = np.empty((nblocks, nblocks))
    for i, block in enumerate(partition):
        rows = block_sums[block, :]
        dev = float(np.max(rows.max(axis=0) - rows.min(axis=0)))
        max_dev = max(max_dev, dev)
        lumped[i, :] = rows.mean(axis=0)
    np.minimum(lumped, 1.0, out=lumped)

    if max_dev > LUMP_TOL:
        return LumpabilityReport(lumpable=False, max_deviation=max_dev, lumped=None)
    return LumpabilityReport(
        lumpable=True, max_deviation=max_dev, lumped=StochasticMatrix(lumped)
    )


def stationary_power_iteration(
    m: StochasticMatrix, steps: int = 10_000, tol: float = 1e-13
) -> StationaryDistribution:
    """Stationary distribution by repeated left-multiplication.

    Starts from a uniform vector with a tiny index-proportional tilt: a
    perfectly uniform start sits exactly on the fixed point of symmetric
    periodic chains and would masquerade as converged; the tilt makes
    periodic chains oscillate forever and fail loudly instead.
    """
    n = m.n
    v = 1.0 + 1e-6 * np.arange(n) / max(n - 1, 1)
    v /= v.sum()
    diff = float("inf")
    for _ in range(steps):
        nxt = v @ m.entries
        nxt /= nxt.sum()
        diff = float(np.max(np.abs(nxt - v)))
        v = nxt
        if diff < tol:
            _check_residual(v, m, "power iteration")
            return StationaryDistribution(v)
    raise ConvergenceError(
        f"power iteration did not converge within {steps} steps (last diff {diff:g}); "
        "the chain may be periodic"
    )


def build_aoi_matrix_truncated(p: AoiParams, n: int) -> StochasticMatrix:
    """First n states of the age chain, with ages >= n folded into state n-1.

    Column 0 carries the reset probability mu2 from every state; the
    superdiagonal carries 1 - mu2. The terminal state keeps 1 - mu2 as a
    self-loop so rows stay stochastic; its stationary mass absorbs the
    whole geometric tail while states below it keep the exact pmf.
    """
    if not isinstance(n, int) or n < 2:
        raise ParameterError(f"truncation size must be an integer >= 2, got {n!r}")
    mu = p.update_success_prob
    m = np.zeros((n, n))
    m[:, 0] = mu
    for i in range(n - 1):
        m[i, i + 1] = 1.0 - mu
    m[n - 1, n - 1] += 1.0 - mu
    return StochasticMatrix(m)
