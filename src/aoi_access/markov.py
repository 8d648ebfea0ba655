"""Finite discrete-time Markov chain utilities.

Dense chains of up to a few thousand states. The stationary solver
checks the transition pattern for a unique closed class by numpy
reachability and then makes one dense LU solve, O(n^3). It is the only
solver in the package; the least-squares solve and power iteration it
is checked against live in tests/chain_oracle.py.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, NotIrreducibleError, NotStochasticError

ROW_SUM_TOL = 1e-12
RESIDUAL_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class StochasticMatrix:
    """Row-stochastic transition matrix; entries[i, j] = P(i -> j)."""

    entries: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
            raise NotStochasticError(f"transition matrix must be square, got shape {m.shape}")
        # written so that a NaN, which fails every comparison, fails the checks
        if not (m.min() >= 0.0 and m.max() <= 1.0):
            raise NotStochasticError("transition matrix entries must lie in [0, 1]")
        row_err = np.abs(m.sum(axis=1) - 1.0)
        if not (row_err <= ROW_SUM_TOL).all():
            worst = int(np.argmax(row_err))
            raise NotStochasticError(
                f"row {worst} sums to {m[worst].sum()!r}, off by more than {ROW_SUM_TOL}"
            )
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)

    @property
    def n(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True, eq=False)
class StationaryDistribution:
    """Steady-state probability vector of a chain."""

    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        if p.ndim != 1 or not (len(p) and p.min() >= 0.0 and abs(p.sum() - 1.0) <= ROW_SUM_TOL):
            raise ConvergenceError("stationary vector must be nonnegative and sum to 1")
        p = p.copy()
        p.setflags(write=False)
        object.__setattr__(self, "probs", p)

    def __getitem__(self, i: int) -> float:
        return float(self.probs[i])

    def __len__(self) -> int:
        return len(self.probs)


def _reach(mask: np.ndarray, start: int) -> np.ndarray:
    """States reachable from start (itself included) along mask's edges i -> j."""
    seen = np.zeros(len(mask), dtype=bool)
    seen[start] = True
    frontier = np.array([start])
    while len(frontier):
        step = mask[frontier].any(axis=0) & ~seen
        seen |= step
        frontier = np.flatnonzero(step)
    return seen


def _unique_closed_class(mask: np.ndarray) -> bool:
    """Whether the graph of mask (edge i -> j where mask[i, j]) has exactly one closed class.

    A finite chain has one closed class iff some state is reachable from
    every state. Starting at r = 0, r moves into reach(r) minus
    reach_back(r) while that is not empty: each move drops r from the
    forward set, so it shrinks, and when it stops reach(r) is the closed
    class holding r. The answer is then whether every state reaches r.
    """
    back = np.ascontiguousarray(mask.T)
    r = 0
    while True:
        backward = _reach(back, r)
        if backward.all():
            return True
        escape = np.flatnonzero(_reach(mask, r) & ~backward)
        if not len(escape):
            return False
        r = int(escape[0])


def _check_residual(pi: np.ndarray, m: StochasticMatrix, context: str) -> None:
    residual = float(np.max(np.abs(pi @ m.entries - pi)))
    if residual > RESIDUAL_TOL:
        raise ConvergenceError(f"{context}: stationarity residual {residual:g} exceeds {RESIDUAL_TOL:g}")


def stationary(m: StochasticMatrix) -> StationaryDistribution:
    """Unique stationary distribution via a direct linear solve.

    Solves the square system P^T - I with its last balance row replaced
    by the normalisation row sum(pi) = 1 (W. J. Stewart, Introduction to
    the Numerical Solution of Markov Chains, 1994). The balance rows sum
    to zero, so with a single closed class any one of them is redundant
    and the system is nonsingular. Raises NotIrreducibleError when the
    chain has more than one closed class (the solution would not be
    unique), and ConvergenceError when the solve fails or its result
    is not a stationary distribution.
    """
    if not _unique_closed_class(m.entries > 0.0):
        raise NotIrreducibleError("chain has multiple closed classes; stationary vector not unique")
    n = m.n
    # built as its transpose, P - I with the last column set to 1, in row
    # order: a_t.T is then column-major, LAPACK's layout, and the solve
    # copies it without transposing
    a_t = m.entries.copy()
    a_t.flat[:: n + 1] -= 1.0
    a_t[:, -1] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    try:
        pi = np.linalg.solve(a_t.T, b)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"direct solve failed: {exc}") from exc
    # the solve leaves O(1e-16) round-off on states whose true mass is zero;
    # scrub everything below its noise floor so degenerate cases
    # (absorbing empty queue, unreachable states) come out exact
    pi[np.abs(pi) < 1e-13] = 0.0
    if np.any(pi < 0.0):
        raise ConvergenceError(f"direct solve produced a negative probability: {pi.min()!r}")
    pi /= pi.sum()
    _check_residual(pi, m, "direct solve")
    return StationaryDistribution(pi)
