import pytest

from aoi_access import deadline_queue, sim, validate
from aoi_access.sim import SimConfig, occupancy_vs_stationary, transition_frequency_check
from aoi_access.validate import (
    DEFAULT_GRID,
    LUMP_GRID_D,
    LUMP_GRID_GAMMA_DB,
    LUMP_GRID_LAM,
    LUMP_GRID_Q1,
    LUMP_GRID_Q2,
    cell_params,
    run_validation,
)

SLOTS = 20_000
SEED = 7


@pytest.fixture(scope="module")
def counted_validation():
    """run_validation on the default grid, with every simulation it starts recorded."""
    calls = []
    run = sim._run

    def counting_run(cfg, *args, **kwargs):
        calls.append(cfg)
        return run(cfg, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sim, "_run", counting_run)
        _, verdict = run_validation(slots=SLOTS, seed=SEED)
    return calls, {c["name"]: c["details"] for c in verdict["checks"]}


def test_each_cell_is_simulated_once_per_mode(counted_validation):
    calls, _ = counted_validation
    cells = len(DEFAULT_GRID)
    assert len(calls) == 2 * cells
    assert [(c.mode, c.seed) for c in calls if c.mode == "decoupled"] == [
        ("decoupled", SEED + i) for i in range(cells)
    ]
    assert [(c.mode, c.seed) for c in calls if c.mode == "coupled"] == [
        ("coupled", SEED + 1000 + i) for i in range(cells)
    ]


def test_dtmc_check_seeds_replay_with_single_check_functions(counted_validation):
    _, details = counted_validation
    occupancy = details["occupancy_vs_stationary"]
    transitions = details["transition_frequencies"]
    assert occupancy["seeds"] == transitions["seeds"] == [
        SEED + 1000 + i for i in range(len(DEFAULT_GRID))
    ]
    deviations = []
    insufficient = []
    for cell, seed in zip(DEFAULT_GRID, occupancy["seeds"]):
        cfg = SimConfig(params=cell_params(cell), slots=SLOTS, seed=seed)
        deviations.append(occupancy_vs_stationary(cfg).max_abs_deviation)
        check = transition_frequency_check(cfg, min_visits=transitions["min_visits"])
        if check.insufficient_states:
            insufficient.append({"cell": cell, "states": list(check.insufficient_states)})
    assert occupancy["worst"] == max(deviations)
    assert transitions["insufficient"] == insufficient


def test_lumpability_builds_the_sampled_chains_once_per_q2_sweep(monkeypatch):
    # user 1's silent and active chains do not depend on q2; only the
    # direct chain, through mu1, does
    builds = []
    build = deadline_queue.build_waiting_time_stack

    def counting_build(lams, mus, d):
        builds.append(len(lams))
        return build(lams, mus, d)

    monkeypatch.setattr(deadline_queue, "build_waiting_time_stack", counting_build)
    monkeypatch.setattr(validate, "build_waiting_time_stack", counting_build)
    result = validate.check_lumpability()
    combos = len(LUMP_GRID_GAMMA_DB) * len(LUMP_GRID_LAM) * len(LUMP_GRID_Q1) * len(LUMP_GRID_D)
    assert result.passed
    assert result.details["combinations"] == combos * len(LUMP_GRID_Q2)
    assert sum(builds) == combos * (2 + len(LUMP_GRID_Q2))


def test_lumpability_solves_two_stacks_per_deadline(monkeypatch):
    solved = []
    solve = validate.stationary_stack

    def counting_solve(entries):
        solved.append(len(entries))
        return solve(entries)

    monkeypatch.setattr(validate, "stationary_stack", counting_solve)
    result = validate.check_lumpability()
    per_deadline = (
        len(LUMP_GRID_GAMMA_DB) * len(LUMP_GRID_LAM) * len(LUMP_GRID_Q1) * len(LUMP_GRID_Q2)
    )
    assert solved == [per_deadline] * (2 * len(LUMP_GRID_D))
    assert result.details["worst_block_spread"] <= deadline_queue.LUMP_TOL


def test_not_lumpable_cells_are_reported_with_their_spread(monkeypatch):
    # a wrong action chain: user 2's action weights swapped on the active half
    build = deadline_queue.build_2d_action_stack

    def skewed(silent, active, q2):
        chains = build(silent, active, q2)
        n = chains.shape[1] // 2
        chains[:, n:] = chains[:, n:, ::-1]
        return chains

    monkeypatch.setattr(validate, "build_2d_action_stack", skewed)
    result = validate.check_lumpability()
    failures = result.details["failures"]
    assert not result.passed
    # the three gamma cells that share lam, q1, q2 and d are told apart
    keys = {(f["lam"], f["q1"], f["q2"], f["d"], f["gamma_db"]) for f in failures}
    assert len(keys) == len(failures)
    assert {f["gamma_db"] for f in failures} == set(LUMP_GRID_GAMMA_DB)
    assert all(f["max_deviation"] > deadline_queue.LUMP_TOL for f in failures)
    assert result.details["worst_block_spread"] == max(f["max_deviation"] for f in failures)
