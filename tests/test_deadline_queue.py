import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import chain_oracle
from aoi_access.channel import SuccessProbs
from aoi_access.deadline_queue import (
    QueueParams,
    action_partition,
    build_2d_action_chain,
    build_2d_action_stack,
    build_waiting_time_matrix,
    build_waiting_time_stack,
    queue_metrics,
    queue_metrics_stack,
    verify_lumpability,
    verify_lumpability_stack,
)
from aoi_access.errors import (
    ConvergenceError,
    NotIrreducibleError,
    ParameterError,
    PartitionError,
)
from aoi_access.markov import StochasticMatrix, stationary

from conftest import action_chain


def reference_d3_matrix(lam, mu):
    """The 4x4 transition matrix for d=3, written out entry by entry."""
    lb = 1.0 - lam
    mb = 1.0 - mu
    return np.array(
        [
            [lb, lam, 0.0, 0.0],
            [mu * lb, mu * lam, mb, 0.0],
            [mu * lb**2, mu * lam * lb, mu * lam, mb],
            [lb**3, lam * lb**2, lam * lb, lam],
        ]
    )


def random_success_probs(rng):
    solo1, solo2 = rng.uniform(0.3, 1.0, size=2)
    return SuccessProbs(
        p_1_solo=float(solo1),
        p_1_joint=float(solo1 * rng.uniform(0.2, 1.0)),
        p_2_solo=float(solo2),
        p_2_joint=float(solo2 * rng.uniform(0.2, 1.0)),
    )


def test_d3_matrix_matches_reference_form():
    rng = np.random.default_rng(3)
    for _ in range(20):
        lam = float(rng.uniform(0.0, 1.0))
        mu = float(rng.uniform(0.0, 1.0))
        built = build_waiting_time_matrix(QueueParams(lam, mu, 3)).entries
        assert np.max(np.abs(built - reference_d3_matrix(lam, mu))) <= 1e-15


def test_d1_matrix_has_identical_rows():
    built = build_waiting_time_matrix(QueueParams(0.4, 0.9, 1)).entries
    assert np.max(np.abs(built - [[0.6, 0.4], [0.6, 0.4]])) <= 1e-15


def test_rows_always_sum_to_one():
    rng = np.random.default_rng(11)
    for _ in range(60):
        lam = float(rng.uniform(0.0, 1.0))
        mu = float(rng.uniform(0.0, 1.0))
        d = int(rng.integers(1, 13))
        m = build_waiting_time_matrix(QueueParams(lam, mu, d)).entries
        assert np.max(np.abs(m.sum(axis=1) - 1.0)) <= 4e-15


probs = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


@settings(max_examples=200, deadline=None)
@given(lam=probs, mu=probs, d=st.integers(1, 60))
def test_build_equals_entrywise_loop_build(lam, mu, d):
    p = QueueParams(lam, mu, d)
    built = build_waiting_time_matrix(p).entries
    assert np.array_equal(built, chain_oracle.build_waiting_time_matrix(p))


@settings(max_examples=200, deadline=None)
@given(points=st.lists(st.tuples(probs, probs), min_size=1, max_size=8), d=st.integers(1, 12))
def test_stacked_build_equals_per_point_build(points, d):
    lams, mus = zip(*points)
    stack = build_waiting_time_stack(lams, mus, d)
    assert stack.shape == (len(points), d + 1, d + 1)
    for m, (lam, mu) in zip(stack, points):
        p = QueueParams(lam, mu, d)
        assert np.array_equal(m, build_waiting_time_matrix(p).entries)
        assert np.array_equal(m, chain_oracle.build_waiting_time_matrix(p))


@settings(max_examples=100, deadline=None)
@given(points=st.lists(st.tuples(probs, probs), min_size=1, max_size=8), d=st.integers(1, 12))
# the dense LU solve leaves negative mass on this irreducible chain
@example(points=[(1 - 2**-53, 1 - 2**-53)], d=3)
def test_stacked_queue_metrics_equal_per_point_metrics(points, d):
    lams, mus = zip(*points)
    want = []
    for lam, mu in points:
        try:
            want.append(queue_metrics(QueueParams(lam, mu, d)))
        except (NotIrreducibleError, ConvergenceError) as exc:
            want.append(exc)
    failed = {(type(w), str(w)) for w in want if isinstance(w, Exception)}
    if failed:
        # the stack raises what one of its failing points raises alone
        with pytest.raises((NotIrreducibleError, ConvergenceError)) as raised:
            queue_metrics_stack(list(lams), list(mus), d)
        assert (type(raised.value), str(raised.value)) in failed
        return
    for got, one in zip(queue_metrics_stack(list(lams), list(mus), d), want):
        assert np.array_equal(got.stationary.probs, one.stationary.probs)
        assert (got.drop_rate, got.per_packet_drop_prob, got.throughput, got.busy_prob) == (
            one.drop_rate, one.per_packet_drop_prob, one.throughput, one.busy_prob
        )


def test_stacked_build_rejects_bad_points():
    with pytest.raises(ParameterError, match="service_prob"):
        build_waiting_time_stack([0.5, 0.5], [0.5, 1.5], 3)
    with pytest.raises(ParameterError, match="deadline"):
        build_waiting_time_stack([0.5], [0.5], 0)
    with pytest.raises(ParameterError):
        build_waiting_time_stack([0.5, 0.5], [0.5], 3)


def closed_form_stationary(lam, mu, d):
    """pi_0 and pi_j, j = 1..d, proportional to 1 and (lam/lam_bar)((1-mu)/lam_bar)^(j-1)."""
    with mpmath.workdps(40):
        lam_bar = 1 - mpmath.mpf(lam)
        ratio = (1 - mpmath.mpf(mu)) / lam_bar
        terms = [mpmath.mpf(1), mpmath.mpf(lam) / lam_bar]
        for _ in range(d - 1):
            terms.append(terms[-1] * ratio)
        total = mpmath.fsum(terms)
        return np.array([float(t / total) for t in terms])


def test_stationary_matches_closed_form_on_grid():
    rng = np.random.default_rng(300)
    for _ in range(300):
        lam, mu = (float(v) for v in rng.uniform(0.02, 0.98, size=2))
        d = int(rng.integers(1, 300))
        pi = queue_metrics(QueueParams(lam, mu, d)).stationary.probs
        assert np.max(np.abs(pi - closed_form_stationary(lam, mu, d))) <= 1e-12, (lam, mu, d)


@pytest.mark.parametrize(
    "lam,mu,d", [(0.8, 0.832, 300), (0.747, 0.832, 300), (0.829, 0.849, 400), (0.697, 0.854, 400)]
)
def test_long_deadline_solve_has_no_negative_mass(lam, mu, d):
    # a least-squares solve leaves round-off below -1e-13 on these points
    m = build_waiting_time_matrix(QueueParams(lam, mu, d))
    pi = stationary(m).probs
    assert pi.min() >= 0.0
    assert np.max(np.abs(pi @ m.entries - pi)) <= 1e-10


@pytest.mark.xfail(
    raises=ConvergenceError,
    strict=True,
    reason="the dense LU solve returns -2.7e31 on this irreducible chain; "
    "ROADMAP item 1's closed-form O(d) solve is the fix",
)
def test_near_saturated_chain_solves_to_closed_form():
    # lam = mu = 1 - 2**-53: hypothesis found it for
    # test_stacked_queue_metrics_equal_per_point_metrics, which then fails
    # whenever its example database holds it
    lam = mu = 0.9999999999999999
    pi = queue_metrics(QueueParams(lam, mu, 3)).stationary.probs
    assert np.max(np.abs(pi - closed_form_stationary(lam, mu, 3))) <= 1e-12


def test_extreme_arrival_probabilities():
    # lam=0: only state 0 survives; lam=1: the chain saturates at state d
    m0 = build_waiting_time_matrix(QueueParams(0.0, 0.5, 3)).entries
    assert m0[0, 0] == 1.0 and m0[3, 0] == 1.0
    m1 = build_waiting_time_matrix(QueueParams(1.0, 0.5, 3)).entries
    assert m1[0, 1] == 1.0 and m1[3, 3] == 1.0


def test_metrics_perfect_service():
    for lam in (0.2, 0.9):
        qm = queue_metrics(QueueParams(lam, 1.0, 3))
        assert qm.drop_rate == pytest.approx(0.0, abs=1e-12)
        assert qm.throughput == pytest.approx(lam, abs=1e-12)


def test_metrics_no_traffic():
    qm = queue_metrics(QueueParams(0.0, 0.3, 4))
    assert qm.drop_rate == 0.0
    assert qm.busy_prob == pytest.approx(0.0, abs=1e-10)
    assert qm.throughput == 0.0
    assert qm.per_packet_drop_prob == 0.0


def test_metrics_d1_single_attempt():
    # identical rows make the stationary vector equal to either row, and
    # each packet gets exactly one attempt
    qm = queue_metrics(QueueParams(0.4, 0.9, 1))
    assert np.allclose(qm.stationary.probs, [0.6, 0.4], atol=1e-12)
    assert qm.drop_rate == pytest.approx(0.04, abs=1e-12)
    assert qm.throughput == pytest.approx(0.36, abs=1e-12)
    assert qm.per_packet_drop_prob == pytest.approx(0.1, abs=1e-12)


def test_d1_stationary_closed_form():
    for lam in (0.0, 0.15, 0.5, 0.85, 1.0):
        qm = queue_metrics(QueueParams(lam, 0.37, 1))
        assert np.allclose(qm.stationary.probs, [1.0 - lam, lam], atol=1e-10)


def test_drop_rate_bounds():
    rng = np.random.default_rng(23)
    for _ in range(80):
        lam = float(rng.uniform(0.0, 1.0))
        mu = float(rng.uniform(0.0, 1.0))
        d = int(rng.integers(1, 9))
        qm = queue_metrics(QueueParams(lam, mu, d))
        assert -1e-12 <= qm.drop_rate <= min(lam, 1.0 - mu) + 1e-12
        assert qm.throughput == lam - qm.drop_rate
        assert 0.0 <= qm.per_packet_drop_prob <= 1.0 + 1e-12


def test_drop_rate_monotone_in_service_and_arrivals():
    drops = [queue_metrics(QueueParams(0.6, mu, 4)).drop_rate for mu in np.linspace(0.05, 0.95, 10)]
    assert all(a >= b - 1e-12 for a, b in zip(drops, drops[1:]))
    drops = [queue_metrics(QueueParams(lam, 0.4, 4)).drop_rate for lam in np.linspace(0.05, 0.95, 10)]
    assert all(a <= b + 1e-12 for a, b in zip(drops, drops[1:]))


def test_invalid_queue_params():
    with pytest.raises(ParameterError):
        QueueParams(1.2, 0.5, 3)
    with pytest.raises(ParameterError):
        QueueParams(0.5, -0.1, 3)
    with pytest.raises(ParameterError):
        QueueParams(0.5, 0.5, 0)
    # True is an int to isinstance and would pass as a deadline of 1
    with pytest.raises(ParameterError, match="deadline"):
        QueueParams(0.5, 0.5, True)


def test_action_chain_silent_sampler():
    sp = SuccessProbs(0.9, 0.6, 0.8, 0.5)
    m = action_chain(0.5, 3, 0.0, sp, 0.7).entries
    n = 4
    # active-action states unreachable, silent sub-block is the plain chain
    assert np.all(m[:, n:] == 0.0)
    silent = build_waiting_time_matrix(QueueParams(0.5, 0.7 * 0.9, 3)).entries
    assert np.max(np.abs(m[:n, :n] - silent)) <= 1e-15


def test_action_chain_persistent_sampler():
    sp = SuccessProbs(0.9, 0.6, 0.8, 0.5)
    m = action_chain(0.5, 3, 1.0, sp, 0.7).entries
    n = 4
    assert np.all(m[:, :n] == 0.0)
    active = build_waiting_time_matrix(QueueParams(0.5, 0.7 * 0.6, 3)).entries
    assert np.max(np.abs(m[n:, n:] - active)) <= 1e-15


def test_action_chain_lumps_onto_waiting_time_chain():
    rng = np.random.default_rng(31)
    for _ in range(25):
        sp = random_success_probs(rng)
        lam = float(rng.uniform(0.0, 1.0))
        q1 = float(rng.uniform(0.0, 1.0))
        q2 = float(rng.uniform(0.0, 1.0))
        d = int(rng.integers(1, 7))
        mu1 = q1 * ((1.0 - q2) * sp.p_1_solo + q2 * sp.p_1_joint)
        qp = QueueParams(lam, mu1, d)
        report = verify_lumpability(action_chain(lam, d, q2, sp, q1), action_partition(d))
        assert report.lumpable
        direct = build_waiting_time_matrix(qp).entries
        assert np.max(np.abs(report.lumped.entries - direct)) <= 1e-12


def test_lumpability_counterexample():
    m = StochasticMatrix(
        [
            [0.5, 0.25, 0.25],
            [0.1, 0.2, 0.7],
            [0.3, 0.3, 0.4],
        ]
    )
    report = verify_lumpability(m, [[0, 1], [2]])
    assert not report.lumpable
    assert report.lumped is None
    assert report.max_deviation > 0.1


def test_singleton_partition_is_identity():
    rng = np.random.default_rng(5)
    m = rng.uniform(0.05, 1.0, size=(5, 5))
    m = StochasticMatrix(m / m.sum(axis=1, keepdims=True))
    report = verify_lumpability(m, [[i] for i in range(5)])
    assert report.lumpable
    assert np.array_equal(report.lumped.entries, m.entries)


def test_partition_must_cover_disjointly():
    m = StochasticMatrix([[0.5, 0.5], [0.5, 0.5]])
    with pytest.raises(PartitionError):
        verify_lumpability(m, [[0, 0], [1]])
    with pytest.raises(PartitionError):
        verify_lumpability(m, [[0]])
    with pytest.raises(PartitionError):
        verify_lumpability(m, [[0, 1], [1]])
    with pytest.raises(PartitionError):
        verify_lumpability(m, [[0, 1], []])


@pytest.mark.parametrize("row", [[0.2, 0.4, 0.3, 0.1], [0.1, 0.2, 0.4, 0.3]])
def test_sure_jump_rounding_above_one_lumps_to_one(row):
    # summed in one order or another, these rows come to 1 + 2**-52, so a
    # one-block lumped chain would hold an entry above 1 and fail validation
    m = StochasticMatrix([row] * 4)
    report = verify_lumpability(m, [[0, 1, 2, 3]])
    assert report.lumpable
    assert report.lumped.entries.tolist() == [[1.0]]


@st.composite
def partitioned_chains(draw, max_n=12):
    """A random stochastic matrix and a random partition of its states.

    The blocks come in random order and have unequal sizes, singletons
    included. Half of the matrices are built lumpable: every state of
    block I spreads the lumped row L[I] over the states of each block J
    with weights of its own. The rest are plain random rows, which are
    not lumpable once a block of two or more states sits beside another
    block.
    """
    n = draw(st.integers(1, max_n))
    order = draw(st.permutations(range(n)))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=n - 1))) if n > 1 else []
    bounds = [0, *cuts, n]
    partition = [list(order[a:b]) for a, b in zip(bounds, bounds[1:])]
    w = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=n * n, max_size=n * n)))
    w = w.reshape(n, n)
    built_lumpable = draw(st.booleans())
    if not built_lumpable:
        return StochasticMatrix(w / w.sum(axis=1, keepdims=True)), partition, False
    k = len(partition)
    lumped = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=k * k, max_size=k * k)))
    lumped = lumped.reshape(k, k) / lumped.reshape(k, k).sum(axis=1, keepdims=True)
    m = np.zeros((n, n))
    for i, rows in enumerate(partition):
        for s in rows:
            for j, cols in enumerate(partition):
                m[s, cols] = lumped[i, j] * w[s, cols] / w[s, cols].sum()
    return StochasticMatrix(m), partition, True


@settings(max_examples=300, deadline=None)
@given(case=partitioned_chains())
def test_lumpability_matches_block_loop_oracle(case):
    m, partition, built_lumpable = case
    got = verify_lumpability(m, partition)
    want = chain_oracle.verify_lumpability(m, partition)
    assert got.lumpable == want.lumpable
    assert (got.lumped is None) == (want.lumped is None)
    assert abs(got.max_deviation - want.max_deviation) <= 1e-15
    if want.lumped is not None:
        assert np.max(np.abs(got.lumped.entries - want.lumped.entries)) <= 1e-15
    if built_lumpable:
        assert got.lumpable


@settings(max_examples=100, deadline=None)
@given(
    lam=st.floats(0.0, 1.0),
    q1=st.floats(0.0, 1.0),
    q2=st.floats(0.0, 1.0),
    solo=st.floats(0.0, 1.0),
    joint_share=st.floats(0.0, 1.0),
    d=st.integers(1, 12),
)
def test_action_partition_lumps_exactly_as_block_loop_oracle(lam, q1, q2, solo, joint_share, d):
    sp = SuccessProbs(p_1_solo=solo, p_1_joint=solo * joint_share, p_2_solo=0.5, p_2_joint=0.25)
    chain2d = action_chain(lam, d, q2, sp, q1)
    got = verify_lumpability(chain2d, action_partition(d))
    want = chain_oracle.verify_lumpability(chain2d, action_partition(d))
    assert got.lumpable and want.lumpable
    assert got.max_deviation == want.max_deviation
    assert np.array_equal(got.lumped.entries, want.lumped.entries)


@settings(max_examples=100, deadline=None)
@given(
    cells=st.lists(
        st.tuples(probs, probs, probs, probs), min_size=1, max_size=6
    ),
    d=st.integers(1, 12),
)
def test_stacked_action_chain_and_lumpability_equal_per_chain_results(cells, d):
    lams, silent_mus, active_mus, q2s = zip(*cells)
    silent = build_waiting_time_stack(lams, silent_mus, d)
    active = build_waiting_time_stack(lams, active_mus, d)
    chains = build_2d_action_stack(silent, active, q2s)
    spread, lumped = verify_lumpability_stack(chains, action_partition(d))
    for i, q2 in enumerate(q2s):
        one = build_2d_action_chain(StochasticMatrix(silent[i]), StochasticMatrix(active[i]), q2)
        assert np.array_equal(chains[i], one.entries)
        want = chain_oracle.verify_lumpability(one, action_partition(d))
        assert spread[i] == want.max_deviation
        assert np.array_equal(lumped[i], want.lumped.entries)


def test_stacked_action_chain_rejects_mismatched_shapes():
    m = build_waiting_time_stack([0.5, 0.5], [0.5, 0.5], 3)
    with pytest.raises(ParameterError):
        build_2d_action_stack(m, m, [0.5])
    with pytest.raises(ParameterError):
        build_2d_action_stack(m, build_waiting_time_stack([0.5, 0.5], [0.5, 0.5], 2), [0.5, 0.5])
    with pytest.raises(ParameterError, match="q2"):
        build_2d_action_stack(m, m, [0.5, 1.5])
