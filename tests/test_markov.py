import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import aoi_access
import chain_oracle
from aoi_access import markov
from aoi_access.deadline_queue import QueueParams, build_waiting_time_matrix
from aoi_access.errors import ConvergenceError, NotIrreducibleError, NotStochasticError
from aoi_access.markov import StationaryDistribution, StochasticMatrix, stationary
from chain_oracle import stationary_power_iteration


def random_positive_chain(rng, n):
    """Strictly positive rows: irreducible and aperiodic by construction."""
    m = rng.uniform(0.01, 1.0, size=(n, n))
    return StochasticMatrix(m / m.sum(axis=1, keepdims=True))


def test_symmetric_two_state():
    pi = stationary(StochasticMatrix([[0.5, 0.5], [0.5, 0.5]]))
    assert np.allclose(pi.probs, [0.5, 0.5], atol=1e-12)


def test_no_arrivals_chain_concentrates_on_empty_state():
    m = build_waiting_time_matrix(QueueParams(0.0, 0.8, 3))
    pi = stationary(m)
    assert np.allclose(pi.probs, [1.0, 0.0, 0.0, 0.0], atol=1e-10)


def test_direct_solve_agrees_with_power_iteration_on_deadline_chain():
    m = build_waiting_time_matrix(QueueParams(0.5, 0.375, 3))
    direct = stationary(m)
    oracle = stationary_power_iteration(m, steps=10_000)
    assert np.max(np.abs(direct.probs - oracle.probs)) < 1e-9


def test_power_iteration_hand_solved_chain():
    # balance: 0.1 a = 0.5 b with a + b = 1 gives [5/6, 1/6]
    pi = stationary_power_iteration(StochasticMatrix([[0.9, 0.1], [0.5, 0.5]]))
    assert np.allclose(pi.probs, [5.0 / 6.0, 1.0 / 6.0], atol=1e-10)


def test_power_iteration_periodic_chain_raises():
    with pytest.raises(ConvergenceError):
        stationary_power_iteration(StochasticMatrix([[0.0, 1.0], [1.0, 0.0]]))


def test_oracle_equivalence_on_random_chains():
    rng = np.random.default_rng(7)
    for _ in range(100):
        n = int(rng.integers(2, 51))
        m = random_positive_chain(rng, n)
        direct = stationary(m)
        oracle = stationary_power_iteration(m)
        assert np.max(np.abs(direct.probs - oracle.probs)) < 1e-9
        # stationarity residual invariant
        assert np.max(np.abs(direct.probs @ m.entries - direct.probs)) < 1e-10


def test_rejects_bad_row_sums():
    with pytest.raises(NotStochasticError):
        StochasticMatrix([[0.5, 0.4], [0.5, 0.5]])


def test_rejects_entries_outside_unit_interval():
    with pytest.raises(NotStochasticError):
        StochasticMatrix([[1.5, -0.5], [0.5, 0.5]])


def test_rejects_non_square():
    with pytest.raises(NotStochasticError):
        StochasticMatrix(np.full((2, 3), 1.0 / 3.0))


def test_two_closed_classes_rejected():
    with pytest.raises(NotIrreducibleError):
        stationary(StochasticMatrix(np.eye(2)))


def test_transient_states_are_fine():
    pi = stationary(StochasticMatrix([[0.5, 0.5], [0.0, 1.0]]))
    assert np.allclose(pi.probs, [0.0, 1.0], atol=1e-12)


def test_matrix_is_immutable():
    m = StochasticMatrix([[0.5, 0.5], [0.5, 0.5]])
    with pytest.raises(ValueError):
        m.entries[0, 0] = 1.0


def test_stationary_distribution_validates():
    with pytest.raises(ConvergenceError):
        StationaryDistribution([0.7, 0.7])
    with pytest.raises(ConvergenceError):
        StationaryDistribution([-0.1, 1.1])


@pytest.mark.parametrize(
    "entries",
    [
        [[np.nan, 1.0], [0.5, 0.5]],
        [[0.5, 0.5], [np.nan, np.nan]],
        [[np.inf, 0.0], [0.5, 0.5]],
    ],
)
def test_matrix_rejects_nan_and_inf(entries):
    with pytest.raises(NotStochasticError, match="lie in"):
        StochasticMatrix(entries)


@pytest.mark.parametrize("probs", [[np.nan, 1.0], [np.nan, np.nan], [0.5, np.nan, 0.5], []])
def test_stationary_distribution_rejects_nan_and_empty(probs):
    with pytest.raises(ConvergenceError):
        StationaryDistribution(probs)


@st.composite
def patterns(draw, max_n=12):
    """Sparse transition patterns with every row given at least one edge.

    A row left empty gets a self-loop, so absorbing states, transient
    states and several closed classes all occur.
    """
    n = draw(st.integers(1, max_n))
    density = draw(st.sampled_from([0.05, 0.15, 0.3, 0.6]))
    cells = draw(st.lists(st.floats(0.0, 1.0), min_size=n * n, max_size=n * n))
    mask = np.array(cells).reshape(n, n) < density
    empty = np.flatnonzero(~mask.any(axis=1))
    mask[empty, empty] = True
    return mask


@st.composite
def chains(draw):
    mask = draw(patterns())
    weights = draw(st.lists(st.floats(0.05, 1.0), min_size=mask.size, max_size=mask.size))
    m = np.array(weights).reshape(mask.shape) * mask
    return StochasticMatrix(m / m.sum(axis=1, keepdims=True))


@settings(max_examples=300, deadline=None)
@given(mask=patterns())
@example(mask=np.array([[1, 1, 0], [0, 1, 0], [0, 0, 1]], dtype=bool))
@example(mask=np.array([[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [0, 0, 0, 1]], dtype=bool))
@example(mask=np.array([[0, 1, 1], [0, 1, 0], [0, 0, 1]], dtype=bool))
def test_reachability_matches_transitive_closure(mask):
    assert markov._unique_closed_class(mask) == (chain_oracle.closed_class_count(mask) == 1)


@settings(max_examples=200, deadline=None)
@given(m=chains())
def test_stationary_matches_lstsq_and_power_iteration(m):
    try:
        want = chain_oracle.stationary(m)
    except NotIrreducibleError:
        with pytest.raises(NotIrreducibleError):
            stationary(m)
        return
    got = stationary(m)
    assert np.max(np.abs(got.probs - want.probs)) <= 1e-11
    # the lazy chain is aperiodic and has the same stationary vector
    lazy = StochasticMatrix((m.entries + np.eye(m.n)) / 2.0)
    power = stationary_power_iteration(lazy, steps=100_000)
    assert np.max(np.abs(got.probs - power.probs)) <= 1e-9


def test_failed_solve_is_a_convergence_error(monkeypatch):
    def singular(a, b):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(markov.np.linalg, "solve", singular)
    with pytest.raises(ConvergenceError):
        stationary(StochasticMatrix([[0.5, 0.5], [0.5, 0.5]]))


def test_import_does_not_load_scipy():
    src = Path(aoi_access.__file__).resolve().parents[1]
    path = os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    code = (
        "import importlib, pkgutil, sys, aoi_access\n"
        "for mod in pkgutil.iter_modules(aoi_access.__path__):\n"
        "    importlib.import_module('aoi_access.' + mod.name)\n"
        "print(sorted(k for k in sys.modules if k.partition('.')[0] == 'scipy'))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
