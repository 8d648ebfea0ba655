"""Finite discrete-time Markov chain utilities.

Dense chains of up to a few thousand states, solved as a (k, n, n)
stack of chains of one size; a single chain is the stack of one. The
stack is checked matrix by matrix (entry bounds, row sums), each
distinct zero pattern is checked once for a unique closed class by
numpy reachability, and one dense LU call then solves every matrix of
the stack, O(k n^3). A stack fails exactly when one of its matrices
would fail alone, with that matrix's error; which failing matrix's
error is not specified, and system.sweep replays a failed batch to
pick it. It is the only solver in the package; the least-squares solve
and power iteration it is checked against live in tests/chain_oracle.py.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, NotIrreducibleError, NotStochasticError

ROW_SUM_TOL = 1e-12
RESIDUAL_TOL = 1e-10


def check_stack(entries) -> np.ndarray:
    """A (k, n, n) stack of transition matrices as a float array, checked matrix by matrix.

    Every entry must lie in [0, 1] and every row must sum to 1 within
    ROW_SUM_TOL. A stack with a matrix that fails raises the
    NotStochasticError that a failing matrix would raise alone; which
    failing matrix's error that is, is not specified.
    """
    m = np.asarray(entries, dtype=float)
    if m.ndim != 3 or m.shape[1] != m.shape[2] or m.shape[1] < 1:
        raise NotStochasticError(
            f"transition matrices must be a stack of square matrices, got shape {m.shape}"
        )
    # written so that a NaN, which fails every comparison, fails the checks
    in_range = (m.min(axis=(1, 2)) >= 0.0) & (m.max(axis=(1, 2)) <= 1.0)
    row_err = np.abs(m.sum(axis=2) - 1.0)
    bad = np.flatnonzero(~(in_range & (row_err <= ROW_SUM_TOL).all(axis=1)))
    if len(bad):
        i = int(bad[0])
        if not in_range[i]:
            raise NotStochasticError("transition matrix entries must lie in [0, 1]")
        worst = int(np.argmax(row_err[i]))
        raise NotStochasticError(
            f"row {worst} sums to {float(m[i, worst].sum())!r}, off by more than {ROW_SUM_TOL}"
        )
    return m


def _distributions(p: np.ndarray) -> np.ndarray:
    """Whether each vector along p's last axis is nonnegative and sums to 1; NaN fails."""
    return (p.min(axis=-1) >= 0.0) & (np.abs(p.sum(axis=-1) - 1.0) <= ROW_SUM_TOL)


@dataclass(frozen=True, eq=False)
class StochasticMatrix:
    """Row-stochastic transition matrix; entries[i, j] = P(i -> j)."""

    entries: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
            raise NotStochasticError(f"transition matrix must be square, got shape {m.shape}")
        check_stack(m[None])
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
        if p.ndim != 1 or not (len(p) and _distributions(p)):
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


def _reducible(p: np.ndarray) -> bool:
    """Whether some matrix of the stack has several closed classes.

    Matrices with one zero pattern share one reachability check.
    """
    if len(p) == 1:
        # a pattern key would be a copy of the mask that no later matrix reads
        return not _unique_closed_class(p[0] > 0.0)
    irreducible: set[bytes] = set()
    for mask in p > 0.0:
        key = mask.tobytes()
        if key not in irreducible:
            if not _unique_closed_class(mask):
                return True
            irreducible.add(key)
    return False


def _solve(p: np.ndarray) -> np.ndarray:
    """stationary_stack of a stack that check_stack has passed."""
    if _reducible(p):
        raise NotIrreducibleError("chain has multiple closed classes; stationary vector not unique")
    # each system is built as its transpose, P - I with the last column set
    # to 1, in row order: a_t[i].T is then column-major, LAPACK's layout,
    # and the solve copies it without transposing
    k, n = p.shape[:2]
    a_t = p.copy()
    a_t.reshape(k, n * n)[:, :: n + 1] -= 1.0
    a_t[:, :, -1] = 1.0
    # b is a stack of one single-column matrix: numpy 2 reads a 1-D b as
    # one vector for every matrix, numpy 1 only a b of one dimension fewer
    # than the stack, as a vector per matrix; a b of a stack's rank means
    # the same to both
    b = np.zeros((1, n, 1))
    b[0, -1] = 1.0
    try:
        pi = np.linalg.solve(a_t.transpose(0, 2, 1), b)[..., 0]
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"direct solve failed: {exc}") from exc
    # the solve leaves O(1e-16) round-off on states whose true mass is zero;
    # scrub everything below its noise floor so degenerate cases
    # (absorbing empty queue, unreachable states) come out exact
    pi[np.abs(pi) < 1e-13] = 0.0
    lowest = pi.min(axis=1)
    pi /= pi.sum(axis=1, keepdims=True)
    residual = np.abs(np.matmul(pi[:, None, :], p)[:, 0, :] - pi).max(axis=1)
    bad = np.flatnonzero((lowest < 0.0) | (residual > RESIDUAL_TOL) | ~_distributions(pi))
    if len(bad):
        i = int(bad[0])
        if lowest[i] < 0.0:
            raise ConvergenceError(
                f"direct solve produced a negative probability: {float(lowest[i])!r}"
            )
        if residual[i] > RESIDUAL_TOL:
            raise ConvergenceError(
                f"direct solve: stationarity residual {residual[i]:g} exceeds {RESIDUAL_TOL:g}"
            )
        raise ConvergenceError("stationary vector must be nonnegative and sum to 1")
    return pi


def stationary_stack(entries) -> np.ndarray:
    """Unique stationary distributions of a (k, n, n) stack, one row per matrix.

    Each matrix P is solved as the square system P^T - I with its last
    balance row replaced by the normalisation row sum(pi) = 1 (W. J.
    Stewart, Introduction to the Numerical Solution of Markov Chains,
    1994). The balance rows sum to zero, so with a single closed class
    any one of them is redundant and the system is nonsingular. One LU
    call solves the whole stack, and each row is the vector a single
    solve of its matrix gives, bit for bit.

    The stack raises exactly when some matrix would fail alone, and it
    raises what a single solve of such a matrix raises:
    NotStochasticError as check_stack does, NotIrreducibleError when
    the matrix has more than one closed class (its solution would not
    be unique), and ConvergenceError when its solve fails or its result
    is not a stationary distribution. Which failing matrix's error is
    raised is not specified; system.sweep replays a failed batch point
    by point to raise the first failing point's own.
    """
    return _solve(check_stack(entries))


def stationary(m: StochasticMatrix) -> StationaryDistribution:
    """Unique stationary distribution of one chain: stationary_stack of a stack of one."""
    return StationaryDistribution(_solve(m.entries[None])[0])
