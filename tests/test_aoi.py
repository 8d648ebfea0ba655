import math

import numpy as np
import pytest

from aoi_access.aoi import AoiParams, aoi_violation, average_aoi
from aoi_access.errors import ParameterError
from aoi_access.markov import stationary
from chain_oracle import build_aoi_matrix_truncated
from conftest import aoi_pmf


def test_pmf_deterministic_success():
    p = AoiParams(1.0)
    assert aoi_pmf(p, 1) == 1.0
    assert aoi_pmf(p, 2) == 0.0


def test_pmf_value():
    assert aoi_pmf(AoiParams(0.5), 3) == pytest.approx(0.125, rel=1e-15)


def test_pmf_mass_sums_to_one():
    ages = np.arange(1_000_000)
    for mu in (0.01, 0.1, 0.5, 0.9):
        total = float(np.sum(mu * (1.0 - mu) ** ages))
        assert total == pytest.approx(1.0, abs=1e-12)


def test_pmf_domain():
    with pytest.raises(ParameterError):
        aoi_pmf(AoiParams(0.5), 0)


def test_average_simple_values():
    assert average_aoi(AoiParams(1.0)) == 1.0
    assert average_aoi(AoiParams(0.5)) == 2.0


def test_average_against_truncated_series():
    # independent oracle: partial sums of i * pmf(i) with a tail below 1e-12
    p = AoiParams(0.2)
    assert average_aoi(p) == 5.0
    series = sum(i * aoi_pmf(p, i) for i in range(1, 201))
    assert abs(series - average_aoi(p)) < 1e-8

    for mu in (0.05, 0.3, 0.7, 0.95):
        p = AoiParams(mu)
        n = int(math.ceil(math.log(1e-14) / math.log(1.0 - mu)))
        series = sum(i * aoi_pmf(p, i) for i in range(1, n + 1))
        assert abs(series - average_aoi(p)) < 1e-8


def test_average_unbounded_when_updates_never_succeed():
    assert average_aoi(AoiParams(0.0)) == math.inf


def test_violation_basics():
    assert aoi_violation(AoiParams(0.37), 0) == 1.0
    assert aoi_violation(AoiParams(1.0), 1) == 0.0
    assert aoi_violation(AoiParams(1.0), 7) == 0.0
    v = aoi_violation(AoiParams(0.5), 3)
    assert v == pytest.approx(0.125, rel=1e-15)
    assert v == pytest.approx(1.0 - (0.5 + 0.25 + 0.125), rel=1e-12)


def test_violation_domain():
    with pytest.raises(ParameterError):
        aoi_violation(AoiParams(0.5), -1)


def test_violation_pmf_telescoping():
    for mu in (0.1, 0.42, 0.8):
        p = AoiParams(mu)
        for x in range(0, 30):
            lhs = aoi_violation(p, x) - aoi_violation(p, x + 1)
            assert lhs == pytest.approx(aoi_pmf(p, x + 1), rel=1e-12, abs=1e-30)


def test_violation_complements_pmf_sum():
    p = AoiParams(0.3)
    for x in (1, 5, 12):
        assert aoi_violation(p, x) == pytest.approx(
            1.0 - sum(aoi_pmf(p, i) for i in range(1, x + 1)), abs=1e-12
        )


def test_truncated_matrix_two_states():
    m = build_aoi_matrix_truncated(AoiParams(0.5), 2)
    assert np.array_equal(m.entries, [[0.5, 0.5], [0.5, 0.5]])
    assert np.allclose(stationary(m).probs, [0.5, 0.5], atol=1e-12)


def test_truncated_matrix_stationary_matches_pmf():
    p = AoiParams(0.5)
    pi = stationary(build_aoi_matrix_truncated(p, 50)).probs
    for state in range(41):
        assert abs(pi[state] - aoi_pmf(p, state + 1)) < 1e-10

    p = AoiParams(0.9)
    pi = stationary(build_aoi_matrix_truncated(p, 50)).probs
    for state in range(50):
        assert abs(pi[state] - aoi_pmf(p, state + 1)) < 1e-12


def test_truncated_matrix_validation():
    with pytest.raises(ParameterError):
        build_aoi_matrix_truncated(AoiParams(0.5), 1)


def test_params_validation():
    with pytest.raises(ParameterError):
        AoiParams(1.5)
    with pytest.raises(ParameterError):
        AoiParams(-0.2)
