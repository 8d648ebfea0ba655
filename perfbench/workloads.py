"""The four benchmark workloads: seeded inputs, one timed pass, and its checks.

Each workload makes its inputs from the run's seed in prepare(), runs one
pass over them in run() (the only timed part), and checks the outputs in
check() with the closed forms of oracle.py. check() returns the number of
operations the pass attempted and how many of them failed; a wrong output
raises oracle.CheckFailed. finish() runs the checks that pool all passes.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import oracle

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import aoi_access  # noqa: E402
from aoi_access import cli, scenarios, sim, system  # noqa: E402

SCENARIO_FILES = {
    "reference": ROOT / "scenarios" / "reference.json",
    "strong_mpr": ROOT / "scenarios" / "strong_mpr_q2_sweep.json",
}
# run seed s owns simulator seeds [s * SEED_STRIDE, (s + 1) * SEED_STRIDE)
SEED_STRIDE = 1_000_000
WARMUP_DEADLINE = 300
WARMUP_CALLS = 3
WARMUP_SLOTS = 20_000


@dataclass(frozen=True)
class Env:
    """What set-up leaves behind: the parsed scenarios and their raw documents."""

    scenarios: dict
    docs: dict


def setup() -> Env:
    """Load the scenarios and warm up BLAS and the simulator.

    The first dense solves at d=300 start OpenBLAS's thread pool and take
    about ten times as long as later ones, so they belong to set-up.
    """
    if Path(aoi_access.__file__).resolve().parent != ROOT / "src" / "aoi_access":
        raise RuntimeError(f"aoi_access imported from {aoi_access.__file__}, not from {ROOT / 'src'}")
    loaded = {name: scenarios.load_scenario(path) for name, path in SCENARIO_FILES.items()}
    docs = {name: json.loads(path.read_text(encoding="utf-8")) for name, path in SCENARIO_FILES.items()}
    ref = loaded["reference"].params
    for _ in range(WARMUP_CALLS):
        system.analyze(replace(ref, deadline=WARMUP_DEADLINE))
    sim.simulate(sim.SimConfig(params=ref, slots=WARMUP_SLOTS, seed=0))
    return Env(scenarios=loaded, docs=docs)


def oracle_point(doc: dict, q1: float, q2: float, lam: float, d: int) -> dict:
    """Oracle inputs read from a scenario document's dBm / dB fields."""

    def link(l):
        return {
            "tx_power_w": oracle.dbm_to_w(l["tx_power_dbm"]),
            "distance_m": l["distance_m"],
            "path_loss_exp": l["path_loss_exp"],
            "fading_scale": l.get("fading_scale", 1.0),
            "gamma": oracle.db_to_linear(l["sinr_threshold_db"]),
        }

    return {
        "link1": link(doc["link1"]),
        "link2": link(doc["link2"]),
        "noise_w": oracle.dbm_to_w(doc["receiver"]["noise_dbm"]),
        "q1": q1,
        "q2": q2,
        "lam": lam,
        "d": d,
    }


def report_outputs(report) -> dict:
    """An AnalyticalReport under the flat result-row names the oracle reads."""
    q = report.queue
    return {
        "p_1_solo": report.sp.p_1_solo,
        "p_1_joint": report.sp.p_1_joint,
        "p_2_solo": report.sp.p_2_solo,
        "p_2_joint": report.sp.p_2_joint,
        "mu1": report.mu1,
        "mu2": report.mu2,
        "ana_stationary": q.stationary.probs,
        "ana_drop_rate": q.drop_rate,
        "ana_busy_prob": q.busy_prob,
        "ana_throughput": q.throughput,
        "ana_aoi_average": report.aoi_average,
        "ana_aoi_violation": report.aoi_violation,
    }


def _call(fn, *args):
    """One operation; an exception raised by the library marks it failed."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - any library error is a failed operation
        return exc


def _quiet_cli(argv: list) -> int | Exception:
    with contextlib.redirect_stdout(io.StringIO()):
        return _call(cli.main, argv)


def _draw_knobs(rng: np.random.Generator) -> tuple[float, float, float]:
    """q1, q2 and lambda away from the edges, where every shape check holds."""
    return float(rng.uniform(0.2, 0.9)), float(rng.uniform(0.2, 0.9)), float(rng.uniform(0.1, 0.9))


class SimLong:
    """simulate() on the reference channel, both modes, d=3 and d=20."""

    name = "sim-long"
    CONFIGS = ((3, "coupled"), (3, "decoupled"), (20, "coupled"), (20, "decoupled"))
    SLOTS = 500_000
    unit_name, unit_per_pass = "slots", SLOTS * len(CONFIGS)

    def __init__(self, seed: int, env: Env, out_dir: Path):
        ref = env.scenarios["reference"].params
        self.params = {d: replace(ref, deadline=d) for d, _ in self.CONFIGS}
        doc = env.docs["reference"]["access"]
        self.points = {
            d: oracle_point(env.docs["reference"], doc["q1"], doc["q2"], doc["arrival_prob"], d)
            for d in self.params
        }
        self.next_seed = seed * SEED_STRIDE
        self.sums = {cfg: {m: 0.0 for m in ("drop_rate", "busy_prob", "throughput", "aoi_average")}
                     for cfg in self.CONFIGS}
        self.runs = {cfg: 0 for cfg in self.CONFIGS}

    def _take_seeds(self, replications: int) -> int:
        # replication r runs on seed + r, so each run owns a block of seeds
        seed = self.next_seed
        self.next_seed += replications
        return seed

    def prepare(self, k: int) -> list:
        return [
            sim.SimConfig(params=self.params[d], slots=self.SLOTS, seed=self._take_seeds(1), mode=mode)
            for d, mode in self.CONFIGS
        ]

    def run(self, cfgs: list) -> list:
        return [_call(sim.simulate, cfg) for cfg in cfgs]

    def check(self, cfgs: list, reports: list) -> tuple[int, int]:
        failed = 0
        for cfg, report in zip(cfgs, reports):
            if isinstance(report, Exception):
                failed += 1
                continue
            oracle.check_sim_exact(report)
            key = (cfg.params.deadline, cfg.mode)
            for metric in self.sums[key]:
                self.sums[key][metric] += getattr(report, metric)
            self.runs[key] += 1
        return len(cfgs), failed

    def finish(self) -> None:
        for (d, mode), sums in self.sums.items():
            n = self.runs[(d, mode)]
            if n:
                closed = oracle.closed_forms(self.points[d])
                oracle.check_sim_statistics(d, mode, closed, {m: s / n for m, s in sums.items()}, n)


class AnalyzeDeep:
    """analyze() at long deadlines on the reference scenario.

    The inputs do not depend on the seed: at these deadlines the dense
    stationary solve fails on some (q1, q2, lambda) points (see
    CHANGES.md), so the workload stays on the reference point, where it
    does not.
    """

    name = "analyze-deep"
    DEADLINES = (250, 500, 1000, 2000)
    unit_name, unit_per_pass = "points", len(DEADLINES)

    def __init__(self, seed: int, env: Env, out_dir: Path):
        ref = env.scenarios["reference"].params
        self.points = [
            (replace(ref, deadline=d), oracle_point(env.docs["reference"], ref.q1, ref.q2, ref.arrival_prob, d))
            for d in self.DEADLINES
        ]

    def prepare(self, k: int) -> list:
        return self.points

    def run(self, points: list) -> list:
        return [_call(system.analyze, params) for params, _ in points]

    def check(self, points: list, reports: list) -> tuple[int, int]:
        failed = 0
        for (_, point), report in zip(points, reports):
            if isinstance(report, Exception):
                failed += 1
                continue
            oracle.check_point(point, report_outputs(report))
        return len(points), failed

    def finish(self) -> None:
        pass


def _json_float(value):
    if isinstance(value, dict):
        return math.inf if value.get("unbounded") else None
    return value


class SweepTradeoff:
    """`aoi-access sweep` over q2, q1 and lambda on two channels, writing CSV and JSON."""

    name = "sweep-tradeoff"
    AXES = ("q2", "q1", "lambda")
    VALUES = tuple(k / 100 for k in range(101))
    unit_name, unit_per_pass = "points", len(AXES) * len(VALUES) * len(SCENARIO_FILES)

    def __init__(self, seed: int, env: Env, out_dir: Path):
        self.rng = np.random.default_rng(seed)
        self.docs = env.docs
        self.out_dir = out_dir
        self.values_arg = ",".join(repr(v) for v in self.VALUES)

    def prepare(self, k: int) -> list:
        q1, q2, lam = _draw_knobs(self.rng)
        d = int(self.rng.integers(2, 7))
        calls = []
        for name, doc in self.docs.items():
            doc = {**doc, "access": {"q1": q1, "q2": q2, "arrival_prob": lam, "deadline": d}}
            path = self.out_dir / f"{name}.json"
            path.write_text(json.dumps(doc, indent=1), encoding="utf-8")
            for axis in self.AXES:
                calls.append((name, axis, path, self.out_dir / f"sweep_{name}_{axis}",
                              oracle_point(doc, q1, q2, lam, d)))
        return calls

    def run(self, calls: list) -> list:
        return [
            _quiet_cli(["sweep", "--scenario", str(path), "--axis", axis,
                        "--values", self.values_arg, "--out", str(base)])
            for _, axis, path, base, _ in calls
        ]

    def check(self, calls: list, codes: list) -> tuple[int, int]:
        failed = 0
        for (_, axis, _, base, point), code in zip(calls, codes):
            if code != 0:
                failed += len(self.VALUES)
                continue
            self._check_files(axis, base, point)
        return len(calls) * len(self.VALUES), failed

    def _check_files(self, axis: str, base: Path, point: dict) -> None:
        rows = json.loads(base.with_suffix(".json").read_text(encoding="utf-8"))["rows"]
        with open(base.with_suffix(".csv"), encoding="utf-8", newline="") as fh:
            csv_rows = list(csv.DictReader(fh))
        oracle.require(len(rows) == len(self.VALUES), f"{base}.json has {len(rows)} rows")
        oracle.require(len(csv_rows) == len(self.VALUES), f"{base}.csv has {len(csv_rows)} rows")
        key = {"q1": "q1", "q2": "q2", "lambda": "lam"}[axis]
        drops, aois = [], []
        for value, row, csv_row in zip(self.VALUES, rows, csv_rows):
            oracle.require(row["sweep_axis"] == axis and row["sweep_value"] == value,
                           f"{base}.json row for {axis}={value!r} reads {row['sweep_axis']}={row['sweep_value']!r}")
            oracle.require(float(csv_row["sweep_value"]) == value,
                           f"{base}.csv row for {axis}={value!r} reads {csv_row['sweep_value']}")
            out = dict(row)
            out["ana_aoi_average"] = _json_float(row["ana_aoi_average"])
            out["ana_aoi_violation"] = {int(x): v for x, v in row["ana_aoi_violation"].items()}
            oracle.require(float(csv_row["ana_drop_rate"]) == out["ana_drop_rate"]
                           and float(csv_row["ana_aoi_average"]) == out["ana_aoi_average"],
                           f"{base}.csv and .json disagree at {axis}={value!r}")
            oracle.check_point({**point, key: value}, out)
            drops.append(out["ana_drop_rate"])
            aois.append(out["ana_aoi_average"])
        oracle.check_tradeoff(axis, list(self.VALUES), drops, aois)

    def finish(self) -> None:
        pass


class ValidateSuite:
    """`aoi-access validate`: short simulations, lumpability grid, DTMC checks."""

    name = "validate-suite"
    SLOTS = 200_000
    # validate seeds its cells with seed + i, + 1000 + i and + 2000 + i
    SEED_BLOCK = 3000
    CHECKS = ("analytical_vs_decoupled", "lumpability", "occupancy_vs_stationary", "transition_frequencies")
    LUMP_COMBINATIONS = 216
    GRID_CELLS = 5
    unit_name, unit_per_pass = "runs", 1

    def __init__(self, seed: int, env: Env, out_dir: Path):
        self.seed = seed
        self.out_dir = out_dir

    def prepare(self, k: int) -> int:
        (self.out_dir / "verdict.json").unlink(missing_ok=True)
        return self.seed * SEED_STRIDE + k * self.SEED_BLOCK

    def run(self, seed: int) -> list:
        return [_quiet_cli(["validate", "--slots", str(self.SLOTS), "--seed", str(seed),
                            "--out", str(self.out_dir / "verdict")])]

    def check(self, seed: int, codes: list) -> tuple[int, int]:
        if isinstance(codes[0], Exception):
            return 1, 1
        verdict = json.loads((self.out_dir / "verdict.json").read_text(encoding="utf-8"))
        check_verdict(verdict, seed, self.SLOTS)
        return 1, int(codes[0] != 0)

    def finish(self) -> None:
        pass


def check_verdict(verdict: dict, seed: int, slots: int) -> None:
    """Properties a validate verdict has when the library is right."""
    v = ValidateSuite
    checks = {c["name"]: c for c in verdict["checks"]}
    oracle.require(tuple(checks) == v.CHECKS, f"verdict holds checks {tuple(checks)}")
    oracle.require(verdict["seed"] == seed and verdict["slots"] == slots,
                   f"verdict is for seed {verdict['seed']} and {verdict['slots']} slots")
    for name, c in checks.items():
        oracle.require(c["passed"], f"validate check {name} failed: {c['details'].get('failures')}")
    oracle.require(verdict["passed"], "validate verdict failed")
    scale = math.sqrt(1_000_000 / slots)
    dec = checks["analytical_vs_decoupled"]["details"]
    oracle.require(dec["cells"] == v.GRID_CELLS, f"{dec['cells']} decoupled cells")
    oracle.require(oracle.close(dec["rel_tol"], 0.01 * scale) and oracle.close(dec["abs_tol"], 0.005 * scale),
                   f"decoupled tolerances {dec['rel_tol']!r}, {dec['abs_tol']!r} at {slots} slots")
    lump = checks["lumpability"]["details"]
    oracle.require(lump["combinations"] == v.LUMP_COMBINATIONS, f"{lump['combinations']} lumpability combinations")
    oracle.require(lump["worst_entry_gap"] <= 1e-12 and lump["worst_busy_gap"] <= 1e-10,
                   f"lumped chain off by {lump['worst_entry_gap']!r} / {lump['worst_busy_gap']!r}")


WORKLOADS = {w.name: w for w in (SimLong, AnalyzeDeep, SweepTradeoff, ValidateSuite)}
