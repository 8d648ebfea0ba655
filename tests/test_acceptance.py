"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with `pytest -s` to see them
live). The simulation grid covers q1, q2, lambda in {0.2, 0.5, 0.8}
crossed with deadlines {1, 3, 5} and thresholds {-5, 0, 1} dB assigned
cyclically, 27 scenarios in all.
"""

import contextlib
import hashlib
import itertools
import math

import numpy as np
import pytest

from aoi_access import cli
from aoi_access.aoi import AoiParams, aoi_violation, average_aoi
from aoi_access.channel import mpr_strength
from aoi_access.deadline_queue import (
    LUMP_TOL,
    QueueParams,
    action_partition,
    build_waiting_time_matrix,
    verify_lumpability,
)
from aoi_access.markov import stationary
from aoi_access.sim import SimConfig, occupancy_vs_stationary, simulate, transition_frequency_check
from aoi_access.system import analyze, apply_axis, sweep, user1_service

from conftest import action_chain, aoi_pmf, channel_probs, make_params, scenario_doc
from test_deadline_queue import reference_d3_matrix

DECOUPLED_SLOTS = 1_000_000
COUPLED_SLOTS = 100_000
COUPLED_REPS = 10


@contextlib.contextmanager
def criterion(number, title):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} {title}: FAIL")
        raise
    print(f"ACCEPTANCE {number} {title}: PASS")


def acceptance_grid():
    deadlines = (1, 3, 5)
    gammas = (-5.0, 0.0, 1.0)
    cells = []
    for i, (q1, q2, lam) in enumerate(itertools.product((0.2, 0.5, 0.8), repeat=3)):
        cells.append(
            make_params(
                gamma_db=gammas[(i // 3) % 3],
                q1=q1,
                q2=q2,
                arrival_prob=lam,
                deadline=deadlines[i % 3],
            )
        )
    return cells


GRID = acceptance_grid()


def cell_label(params):
    return (
        f"q1={params.q1:g} q2={params.q2:g} lam={params.arrival_prob:g} "
        f"d={params.deadline} gamma={10 * math.log10(params.link1.sinr_threshold):+.0f}dB"
    )


@pytest.fixture(scope="module")
def grid_reports():
    return [analyze(p) for p in GRID]


@pytest.fixture(scope="module")
def grid_decoupled():
    return [
        simulate(SimConfig(params=p, slots=DECOUPLED_SLOTS, seed=9000 + i, mode="decoupled"))
        for i, p in enumerate(GRID)
    ]


@pytest.fixture(scope="module")
def grid_coupled():
    return [
        simulate(
            SimConfig(
                params=p,
                slots=COUPLED_SLOTS,
                seed=7000 + i,
                mode="coupled",
                replications=COUPLED_REPS,
            )
        )
        for i, p in enumerate(GRID)
    ]


def test_criterion_1_mpr_strength_reference_values():
    expected = {-5.0: 1.5195, -3.0: 1.3323, 0.0: 1.0000, 1.0: 0.8854}
    with criterion(1, "MPR strength reproduction"):
        for gamma_db, target in expected.items():
            params = make_params(gamma_db=gamma_db)
            delta = mpr_strength(channel_probs(params))
            assert abs(delta - target) <= 5e-4, (gamma_db, delta)


def test_criterion_2_d3_matrix_matches_reference_entrywise():
    with criterion(2, "d=3 matrix equality"):
        rng = np.random.default_rng(202)
        for _ in range(20):
            lam = float(rng.uniform(0.0, 1.0))
            mu = float(rng.uniform(0.0, 1.0))
            built = build_waiting_time_matrix(QueueParams(lam, mu, 3)).entries
            assert np.max(np.abs(built - reference_d3_matrix(lam, mu))) <= 1e-15


def test_criterion_3_aoi_closed_forms_against_series_oracle():
    with criterion(3, "closed-form age identities"):
        for k in range(1, 20):
            mu = k * 0.05
            p = AoiParams(mu)
            # truncation depth set by the geometric tail falling below 1e-12
            n = max(10, int(math.ceil(math.log(1e-13) / math.log(1.0 - mu))))
            pmf = [aoi_pmf(p, i) for i in range(1, n + 1)]
            # geometric recurrence, built independently of the closed form
            recur = [mu]
            for _ in range(n - 1):
                recur.append(recur[-1] * (1.0 - mu))
            assert max(abs(a - b) for a, b in zip(pmf, recur)) <= 1e-12
            series_mean = math.fsum(i * v for i, v in enumerate(pmf, start=1))
            assert abs(series_mean - average_aoi(p)) <= 1e-8
            assert abs(average_aoi(p) - 1.0 / mu) <= 1e-12
            for x in (0, 1, 5, 10):
                tail = 1.0 - math.fsum(pmf[:x])
                assert abs(aoi_violation(p, x) - tail) <= 1e-8
                assert abs(aoi_violation(p, x) - (1.0 - mu) ** x) == 0.0


def test_criterion_4_lumpability_grid():
    with criterion(4, "2D action chain lumps onto waiting-time chain"):
        # verify_lumpability's tolerance on the within-block spread
        assert LUMP_TOL == 1e-12
        combos = 0
        for gamma_db in (-5.0, 0.0, 1.0):
            sp = channel_probs(make_params(gamma_db=gamma_db))
            for lam in (0.2, 0.5, 0.8):
                for q1 in (0.3, 0.7):
                    for q2 in (0.25, 0.5, 0.9):
                        for d in (1, 2, 4, 6):
                            combos += 1
                            params = make_params(gamma_db=gamma_db, q1=q1, q2=q2)
                            _, mu1 = user1_service(params, sp)
                            qp = QueueParams(lam, mu1, d)
                            rep = verify_lumpability(
                                action_chain(lam, d, q2, sp, q1), action_partition(d)
                            )
                            assert rep.lumpable
                            direct = build_waiting_time_matrix(qp)
                            gap = np.max(np.abs(rep.lumped.entries - direct.entries))
                            assert gap <= 1e-12
                            busy_gap = abs(stationary(rep.lumped)[0] - stationary(direct)[0])
                            assert busy_gap <= 1e-10
        assert combos >= 100


def test_criterion_5_analytical_vs_decoupled_simulation(grid_reports, grid_decoupled):
    with criterion(5, "analytical vs decoupled simulation"):
        for params, ana, sim in zip(GRID, grid_reports, grid_decoupled):
            checks = [
                ("drop_rate", sim.drop_rate, ana.queue.drop_rate),
                ("busy_prob", sim.busy_prob, ana.queue.busy_prob),
                ("throughput", sim.throughput, ana.queue.throughput),
                ("aoi_average", sim.aoi_average, ana.aoi_average),
            ] + [
                (f"aoi_violation_{x}", sim.aoi_violation[x], ana.aoi_violation[x])
                for x in (1, 5, 10)
            ]
            for name, sim_v, ana_v in checks:
                tol = max(0.01 * abs(ana_v), 0.005)
                assert abs(sim_v - ana_v) <= tol, (cell_label(params), name, sim_v, ana_v)


def test_criterion_6_coupled_user1_metrics_within_confidence(grid_reports, grid_coupled):
    with criterion(6, "coupled simulation matches user-1 closed forms"):
        for params, ana, sim in zip(GRID, grid_reports, grid_coupled):
            for name, sim_v, ana_v in (
                ("drop_rate", sim.drop_rate, ana.queue.drop_rate),
                ("busy_prob", sim.busy_prob, ana.queue.busy_prob),
                ("throughput", sim.throughput, ana.queue.throughput),
            ):
                ci = sim.ci_halfwidth[name]
                assert abs(sim_v - ana_v) <= 3.0 * ci, (
                    cell_label(params), name, sim_v, ana_v, ci,
                )


def test_criterion_7_coupled_aoi_gap_and_qualitative_shapes(grid_reports, grid_coupled):
    with criterion(7, "coupled age gap below 5% and trade-off shapes"):
        worst = 0.0
        for params, ana, sim in zip(GRID, grid_reports, grid_coupled):
            gap = abs(sim.aoi_average - ana.aoi_average) / ana.aoi_average
            worst = max(worst, gap)
            print(f"  aoi gap {gap * 100:6.3f}%  [{cell_label(params)}]")
            assert gap <= 0.05, (cell_label(params), sim.aoi_average, ana.aoi_average)
        print(f"  worst coupled aoi gap: {worst * 100:.3f}%")

        values = [round(0.1 * k, 1) for k in range(1, 11)]
        base = make_params(q2=0.5, arrival_prob=0.8, deadline=3)
        spreads = {}
        for gamma_db in (-5.0, 1.0):
            reports = sweep(apply_axis(base, "gamma_db", gamma_db), "q1", values)
            aoi = [r.aoi_average for r in reports]
            spreads[gamma_db] = max(aoi) - min(aoi)
        assert spreads[-5.0] < 0.5 * spreads[1.0], spreads

        base = make_params(q1=0.5, arrival_prob=0.5, deadline=3, gamma_db=1.0)
        reports = sweep(base, "q2", values)
        aoi = [r.aoi_average for r in reports]
        drops = [r.queue.drop_rate for r in reports]
        assert all(a > b for a, b in zip(aoi, aoi[1:]))
        assert all(a <= b + 1e-12 for a, b in zip(drops, drops[1:]))


def test_criterion_8_dtmc_empirical_validation():
    with criterion(8, "occupancy and transition frequencies"):
        params = make_params(gamma_db=0.0, q1=0.5, q2=0.5, arrival_prob=0.5, deadline=3)
        occ = occupancy_vs_stationary(
            SimConfig(params=params, slots=1_000_000, seed=8101, mode="coupled")
        )
        assert occ.max_abs_deviation < 0.005, occ.max_abs_deviation
        check = transition_frequency_check(
            SimConfig(params=params, slots=1_000_000, seed=8102, mode="coupled")
        )
        assert check.passed, check.flagged
        assert not check.insufficient_states


def test_criterion_9_determinism(tmp_path, write_scenario):
    with criterion(9, "seeded runs are byte-identical"):
        params = make_params()
        cfg = SimConfig(params=params, slots=200_000, seed=555, mode="coupled", replications=2)
        assert simulate(cfg) == simulate(cfg)

        path = write_scenario(
            scenario_doc(sim={"slots": 50_000, "seed": 777, "mode": "decoupled"})
        )
        digests = []
        for name in ("one", "two"):
            out = tmp_path / name
            assert cli.main(["simulate", "--scenario", str(path), "--out", str(out)]) == 0
            digests.append(
                (
                    hashlib.sha256(out.with_suffix(".csv").read_bytes()).hexdigest(),
                    hashlib.sha256(out.with_suffix(".json").read_bytes()).hexdigest(),
                )
            )
        assert digests[0] == digests[1]
