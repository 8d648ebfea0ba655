"""Cross-check harness: closed forms against simulation and chain algebra.

Runs four check families over a small parameter grid: decoupled
simulation against the analytical report, strong lumpability of the
joint action chain onto the waiting-time chain, simulated occupancy
against the stationary vector, and empirical transition frequencies
against the constructed matrix. Each grid cell is simulated twice: one
decoupled run (seed + i) for the first family, and one coupled run
(seed + 1000 + i) that the occupancy and transition checks both read.
Statistical tolerances are stated at a 1e6-slot horizon and scaled by
sqrt(1e6/slots) when a different horizon is requested.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .channel import LinkParams, ReceiverParams, db_to_linear, success_probs
from .deadline_queue import (
    LUMP_TOL,
    action_partition,
    build_2d_action_stack,
    build_waiting_time_stack,
    verify_lumpability_stack,
)
from .errors import ParameterError
from .markov import stationary_stack
from .sim import (
    DEFAULT_MIN_VISITS,
    CoupledRun,
    SimConfig,
    compare_occupancy,
    compare_transitions,
    coupled_run,
    default_warmup,
    simulate,
)
from .system import AnalyticalReport, SystemParams, analyze, user1_service

# symmetric reference radio setup: 5 mW at 30 m, path-loss exponent 4,
# unit-mean fading, -100 dBm receiver noise
REFERENCE_TX_POWER_W = 0.005
REFERENCE_DISTANCE_M = 30.0
REFERENCE_PATH_LOSS_EXP = 4.0
REFERENCE_NOISE_W = 1e-13

DEFAULT_GRID = (
    {"q1": 0.5, "q2": 0.5, "lam": 0.5, "d": 3, "gamma_db": 0.0},
    {"q1": 0.3, "q2": 0.6, "lam": 0.4, "d": 3, "gamma_db": 0.0},
    {"q1": 0.7, "q2": 0.3, "lam": 0.6, "d": 1, "gamma_db": -5.0},
    {"q1": 0.6, "q2": 0.8, "lam": 0.7, "d": 5, "gamma_db": 1.0},
    {"q1": 0.2, "q2": 0.4, "lam": 0.8, "d": 6, "gamma_db": -3.0},
)

LUMP_GRID_LAM = (0.2, 0.5, 0.8)
LUMP_GRID_Q1 = (0.3, 0.7)
LUMP_GRID_Q2 = (0.25, 0.5, 0.9)
LUMP_GRID_GAMMA_DB = (-5.0, 0.0, 1.0)
LUMP_GRID_D = (1, 2, 4, 6)

# the shortest horizon validate accepts: the tolerances grow as
# sqrt(1e6/slots), so below it they are wide enough that a pass says
# little, and at a single slot every simulation passes
MIN_SLOTS = 10_000

SIM_VIOLATION_X = (1, 5, 10)


def reference_params(gamma_db: float, q1: float, q2: float, lam: float, d: int) -> SystemParams:
    """The reference radio setup with both thresholds at gamma_db, and the given access knobs."""
    link = LinkParams(
        tx_power=REFERENCE_TX_POWER_W,
        distance=REFERENCE_DISTANCE_M,
        path_loss_exp=REFERENCE_PATH_LOSS_EXP,
        sinr_threshold=db_to_linear(gamma_db),
    )
    return SystemParams(
        link1=link,
        link2=link,
        rx=ReceiverParams(noise_power=REFERENCE_NOISE_W),
        q1=q1,
        q2=q2,
        arrival_prob=lam,
        deadline=d,
    )


def cell_params(cell: dict) -> SystemParams:
    return reference_params(cell["gamma_db"], cell["q1"], cell["q2"], cell["lam"], cell["d"])


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    details: dict


def _within(sim_value: float, ana_value: float, rel: float, abs_: float) -> bool:
    return abs(sim_value - ana_value) <= max(rel * abs(ana_value), abs_)


def check_analytical_vs_decoupled(
    grid,
    slots: int,
    seed: int,
    scale: float,
    tweak: Callable[[AnalyticalReport], AnalyticalReport] | None,
) -> CheckResult:
    rel_tol = 0.01 * scale
    abs_tol = 0.005 * scale
    worst = {"cell": None, "metric": None, "gap": 0.0}
    failures = []
    for i, cell in enumerate(grid):
        params = cell_params(cell)
        report = analyze(params)
        if tweak is not None:
            report = tweak(report)
        sim_report = simulate(
            SimConfig(params=params, slots=slots, seed=seed + i, mode="decoupled")
        )
        pairs = [
            ("drop_rate", sim_report.drop_rate, report.queue.drop_rate),
            ("busy_prob", sim_report.busy_prob, report.queue.busy_prob),
            ("throughput", sim_report.throughput, report.queue.throughput),
            ("aoi_average", sim_report.aoi_average, report.aoi_average),
        ] + [
            (f"aoi_violation_{x}", sim_report.aoi_violation[x], report.aoi_violation[x])
            for x in SIM_VIOLATION_X
        ]
        for metric, sim_v, ana_v in pairs:
            gap = abs(sim_v - ana_v)
            if gap > worst["gap"]:
                worst = {"cell": cell, "metric": metric, "gap": gap}
            if not _within(sim_v, ana_v, rel_tol, abs_tol):
                failures.append(
                    {"cell": cell, "metric": metric, "sim": sim_v, "analytical": ana_v}
                )
    return CheckResult(
        name="analytical_vs_decoupled",
        passed=not failures,
        details={
            "slots": slots,
            "rel_tol": rel_tol,
            "abs_tol": abs_tol,
            "cells": len(list(grid)),
            "worst": worst,
            "failures": failures,
        },
    )


def check_lumpability() -> CheckResult:
    """Lump the joint action chain of every grid combination onto user 1's chain.

    Each combination's joint chain must be lumpable, its lumped chain
    must equal the waiting-time chain built directly at user 1's mu1,
    and both must give the same busy probability. The combinations of
    one deadline are built, lumped and solved as stacks.
    """
    # listed, and their failures reported, in the order gamma_db, lam, q1, q2, d
    grid = list(
        itertools.product(
            LUMP_GRID_GAMMA_DB, LUMP_GRID_LAM, LUMP_GRID_Q1, LUMP_GRID_Q2, LUMP_GRID_D
        )
    )
    # user 1's chains with user 2 silent and active are its chains at
    # q2 = 0 and q2 = 1, so they do not depend on the grid's q2
    mu = {}
    for gamma_db in LUMP_GRID_GAMMA_DB:
        base = reference_params(gamma_db, 0.5, 0.5, 0.5, 1)
        sp = success_probs(base.link1, base.link2, base.rx)
        for q1 in LUMP_GRID_Q1:
            for q2 in (0.0, 1.0, *LUMP_GRID_Q2):
                mu[gamma_db, q1, q2] = user1_service(replace(base, q1=q1, q2=q2), sp)[1]
    spread = np.empty(len(grid))
    entry_gap = np.zeros(len(grid))
    busy_gap = np.zeros(len(grid))
    for d in LUMP_GRID_D:
        cells = np.array([i for i, c in enumerate(grid) if c[4] == d])
        combos = [grid[i] for i in cells]
        # one silent and one active chain per (gamma_db, lam, q1), side by side
        keys = dict.fromkeys(c[:3] for c in combos)
        sampled = build_waiting_time_stack(
            [lam for _, lam, _ in keys for _ in (0, 1)],
            [mu[g, q1, x] for g, _, q1 in keys for x in (0.0, 1.0)],
            d,
        )
        silent_at = {key: 2 * j for j, key in enumerate(keys)}
        silent = np.array([silent_at[c[:3]] for c in combos])
        chain2d = build_2d_action_stack(
            sampled[silent], sampled[silent + 1], [c[3] for c in combos]
        )
        deviation, lumped = verify_lumpability_stack(chain2d, action_partition(d))
        spread[cells] = deviation
        direct = build_waiting_time_stack(
            [c[1] for c in combos], [mu[g, q1, q2] for g, _, q1, q2, _ in combos], d
        )
        ok = deviation <= LUMP_TOL
        lumped, direct = lumped[ok], direct[ok]
        entry_gap[cells[ok]] = np.abs(lumped - direct).max(axis=(1, 2))
        busy_gap[cells[ok]] = np.abs(
            (1.0 - stationary_stack(lumped)[:, 0]) - (1.0 - stationary_stack(direct)[:, 0])
        )
    lumpable = spread <= LUMP_TOL
    failures = []
    for i, (gamma_db, lam, q1, q2, d) in enumerate(grid):
        cell = {"lam": lam, "q1": q1, "q2": q2, "d": d, "gamma_db": gamma_db}
        if not lumpable[i]:
            failures.append({**cell, "max_deviation": float(spread[i])})
        elif entry_gap[i] > 1e-12 or busy_gap[i] > 1e-10:
            failures.append(
                {**cell, "entry_gap": float(entry_gap[i]), "busy_gap": float(busy_gap[i])}
            )
    return CheckResult(
        name="lumpability",
        passed=not failures,
        details={
            "combinations": len(grid),
            "worst_entry_gap": float(entry_gap.max()),
            "worst_busy_gap": float(busy_gap.max()),
            "worst_block_spread": float(spread.max()),
            "failures": failures,
        },
    )


def check_occupancy(grid, runs: list[CoupledRun], slots: int, scale: float) -> CheckResult:
    tol = 0.005 * scale
    worst = 0.0
    failures = []
    for cell, run in zip(grid, runs):
        cmp = compare_occupancy(run)
        worst = max(worst, cmp.max_abs_deviation)
        if cmp.max_abs_deviation > tol:
            failures.append(
                {"cell": cell, "seed": run.cfg.seed, "max_abs_deviation": cmp.max_abs_deviation}
            )
    return CheckResult(
        name="occupancy_vs_stationary",
        passed=not failures,
        details={
            "slots": slots,
            "tol": tol,
            "worst": worst,
            "failures": failures,
            "seeds": [run.cfg.seed for run in runs],
        },
    )


def check_transitions(grid, runs: list[CoupledRun], slots: int) -> CheckResult:
    measured = slots - default_warmup(slots)
    min_visits = min(DEFAULT_MIN_VISITS, max(100, measured // 20))
    failures = []
    insufficient = []
    for cell, run in zip(grid, runs):
        check = compare_transitions(run, min_visits)
        if check.insufficient_states:
            insufficient.append({"cell": cell, "states": list(check.insufficient_states)})
        if not check.passed:
            failures.append(
                {"cell": cell, "seed": run.cfg.seed, "flagged": [list(f) for f in check.flagged]}
            )
    return CheckResult(
        name="transition_frequencies",
        passed=not failures,
        details={
            "slots": slots,
            "min_visits": min_visits,
            "insufficient": insufficient,
            "failures": failures,
            "seeds": [run.cfg.seed for run in runs],
        },
    )


def run_validation(
    slots: int = 200_000,
    seed: int = 101,
    analytical_tweak: Callable[[AnalyticalReport], AnalyticalReport] | None = None,
) -> tuple[bool, dict]:
    """Run every check family over DEFAULT_GRID; returns (all_passed, verdict document)."""
    if not isinstance(slots, int) or slots < MIN_SLOTS:
        raise ParameterError(f"slots must be an integer of at least {MIN_SLOTS}, got {slots!r}")
    scale = math.sqrt(1_000_000 / slots)
    checks = [
        check_analytical_vs_decoupled(DEFAULT_GRID, slots, seed, scale, analytical_tweak),
        check_lumpability(),
    ]
    # the occupancy and transition checks read one coupled run per cell
    runs = [
        coupled_run(SimConfig(params=cell_params(cell), slots=slots, seed=seed + 1000 + i))
        for i, cell in enumerate(DEFAULT_GRID)
    ]
    checks += [
        check_occupancy(DEFAULT_GRID, runs, slots, scale),
        check_transitions(DEFAULT_GRID, runs, slots),
    ]
    passed = all(c.passed for c in checks)
    verdict = {
        "schema_version": 1,
        "passed": passed,
        "slots": slots,
        "seed": seed,
        "checks": [{"name": c.name, "passed": c.passed, "details": c.details} for c in checks],
    }
    return passed, verdict
