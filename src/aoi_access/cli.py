"""Command-line front end: analyze, simulate, sweep, validate.

Output paths are bases: `--out results` writes results.csv and
results.json (a trailing .csv/.json on the flag is stripped). The
default output directory is $AOI_ACCESS_OUT_DIR, falling back to the
working directory. Exit codes: 0 success, 1 validation or check
failure, a chain that cannot be solved or an output path that cannot be
written, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from pathlib import Path

from . import results
from .channel import linear_to_db
from .errors import ConvergenceError, NotIrreducibleError, ParameterError, ScenarioError
from .scenarios import SIM_KEYS, Scenario, load_scenario
from .sim import MODES, SimConfig, simulate
from .system import SWEEP_AXES, analyze, sweep
from .validate import run_validation

ENV_OUT_DIR = "AOI_ACCESS_OUT_DIR"

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2


def _out_base(arg: str | None, default_stem: str) -> Path:
    if arg:
        base = Path(arg)
        if base.suffix in (".csv", ".json"):
            base = base.with_suffix("")
    else:
        base = Path(os.environ.get(ENV_OUT_DIR, ".")) / default_stem
    return base


def _write_rows(base: Path, rows: list[dict]) -> tuple[Path, Path]:
    csv_path = base.with_suffix(".csv")
    json_path = base.with_suffix(".json")
    table = results.encode_rows(rows)
    results.write_csv(csv_path, table)
    results.write_json(json_path, table)
    return csv_path, json_path


def _fmt(value: float) -> str:
    if math.isinf(value):
        return "inf"
    return f"{value:.6g}"


def _print_analytical_summary(report) -> None:
    p = report.params
    print(
        f"scenario: q1={p.q1:g} q2={p.q2:g} lambda={p.arrival_prob:g} d={p.deadline} "
        f"gamma1={linear_to_db(p.link1.sinr_threshold):.4g} dB "
        f"gamma2={linear_to_db(p.link2.sinr_threshold):.4g} dB"
    )
    if report.delta is None:
        print("delta: undefined (a solo success probability is 0)")
    else:
        kind = "strong" if report.mpr_strong else "weak"
        print(f"delta: {report.delta:.4f} ({kind} MPR)")
    print(
        f"success probs: p11={report.sp.p_1_solo:.6f} p112={report.sp.p_1_joint:.6f} "
        f"p22={report.sp.p_2_solo:.6f} p221={report.sp.p_2_joint:.6f}"
    )
    print(f"service probs: mu1={report.mu1:.6f} mu2={report.mu2:.6f}")
    q = report.queue
    print(
        f"user 1: drop_rate={_fmt(q.drop_rate)} per_packet_drop={_fmt(q.per_packet_drop_prob)} "
        f"throughput={_fmt(q.throughput)} busy_prob={_fmt(q.busy_prob)}"
    )
    viol = " ".join(f"P(A>{x})={_fmt(v)}" for x, v in sorted(report.aoi_violation.items())[:3])
    print(f"user 2: aoi_average={_fmt(report.aoi_average)} {viol}")


def _print_sim_summary(sim_report) -> None:
    print(f"simulation: mode={sim_report.mode} seed={sim_report.seed} slots={sim_report.slots} "
          f"replications={sim_report.replications}")
    print(
        f"  drop_rate={_fmt(sim_report.drop_rate)} throughput={_fmt(sim_report.throughput)} "
        f"busy_prob={_fmt(sim_report.busy_prob)} aoi_average={_fmt(sim_report.aoi_average)}"
    )


def _sim_settings(scenario: Scenario, args) -> dict:
    """The scenario's sim block with the sim flags given on the command line laid over it."""
    flags = {k: getattr(args, k) for k in SIM_KEYS if getattr(args, k) is not None}
    return {**scenario.sim, **flags}


def cmd_analyze(args) -> int:
    scenario = load_scenario(args.scenario)
    report = analyze(scenario.params)
    row = results.analytical_row(report)
    base = _out_base(args.out, f"analyze_{Path(args.scenario).stem}")
    csv_path, json_path = _write_rows(base, [row])
    _print_analytical_summary(report)
    print(f"wrote {csv_path} and {json_path}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    scenario = load_scenario(args.scenario)
    report = analyze(scenario.params)
    sim_report = simulate(SimConfig(params=scenario.params, **_sim_settings(scenario, args)))
    row = results.attach_simulation(results.analytical_row(report), sim_report)
    base = _out_base(args.out, f"simulate_{Path(args.scenario).stem}")
    csv_path, json_path = _write_rows(base, [row])
    _print_analytical_summary(report)
    _print_sim_summary(sim_report)
    print(f"wrote {csv_path} and {json_path}")
    return EXIT_OK


def _parse_values(text: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise ParameterError(f"--values must be comma-separated numbers, got {text!r}")


def cmd_sweep(args) -> int:
    scenario = load_scenario(args.scenario)
    settings = _sim_settings(scenario, args)
    axis = args.axis or scenario.sweep_axis
    if axis is None:
        raise ParameterError("no sweep axis: pass --axis or put a sweep block in the scenario")
    if args.values is not None:
        values = _parse_values(args.values)
    elif scenario.sweep_values is not None:
        values = scenario.sweep_values
    else:
        raise ParameterError("no sweep values: pass --values or put them in the scenario")

    rows = []
    for value, report in zip(values, sweep(scenario.params, axis, values)):
        row = results.analytical_row(report, sweep_axis=axis, sweep_value=float(value))
        if args.with_sim:
            row = results.attach_simulation(row, simulate(SimConfig(params=report.params, **settings)))
        rows.append(row)

    base = _out_base(args.out, f"sweep_{axis}_{Path(args.scenario).stem}")
    csv_path, json_path = _write_rows(base, rows)
    print(f"swept {axis} over {len(values)} values" + (" with simulation" if args.with_sim else ""))
    print(f"wrote {csv_path} and {json_path}")
    return EXIT_OK


def cmd_validate(args) -> int:
    passed, verdict = run_validation(slots=args.slots, seed=args.seed)
    name_width = max(len(c["name"]) for c in verdict["checks"])
    for check in verdict["checks"]:
        status = "PASS" if check["passed"] else "FAIL"
        print(f"{check['name']:<{name_width}}  {status}")
    print(f"overall: {'PASS' if passed else 'FAIL'}")
    base = _out_base(args.out, "validate")
    json_path = base.with_suffix(".json")
    results._atomic_write(json_path, lambda fh: fh.write(json.dumps(verdict, indent=2) + "\n"))
    print(f"wrote {json_path}")
    return EXIT_OK if passed else EXIT_FAILURE


@functools.cache
def make_parser() -> argparse.ArgumentParser:
    """The command line's parser, built once per process.

    Parsing leaves the parser as it was: every call fills a fresh
    namespace from the same defaults.
    """
    parser = argparse.ArgumentParser(
        prog="aoi-access",
        description=(
            "Analytical and Monte Carlo performance of a two-user random-access "
            "channel with deadline-constrained traffic and status updates."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # overrides of the scenario's sim block, shared by simulate and sweep
    sim_flags = argparse.ArgumentParser(add_help=False)
    sim_flags.add_argument("--slots", type=int, help="slots per replication")
    sim_flags.add_argument(
        "--warmup", type=int, dest="warmup_slots", help="warmup slots excluded from statistics"
    )
    sim_flags.add_argument("--seed", type=int)
    sim_flags.add_argument("--replications", type=int)
    sim_flags.add_argument("--mode", choices=MODES)

    p_analyze = sub.add_parser("analyze", help="closed-form report for one scenario")
    p_analyze.add_argument("--scenario", required=True, help="scenario JSON file")
    p_analyze.add_argument("--out", help="output base path (writes .csv and .json)")
    p_analyze.set_defaults(func=cmd_analyze)

    p_sim = sub.add_parser(
        "simulate", parents=[sim_flags], help="Monte Carlo run for one scenario"
    )
    p_sim.add_argument("--scenario", required=True)
    p_sim.add_argument("--out")
    p_sim.set_defaults(func=cmd_simulate)

    p_sweep = sub.add_parser(
        "sweep", parents=[sim_flags], help="one report per value of a swept parameter"
    )
    p_sweep.add_argument("--scenario", required=True)
    p_sweep.add_argument("--out")
    p_sweep.add_argument("--axis", choices=SWEEP_AXES)
    p_sweep.add_argument("--values", help="comma-separated sweep values")
    p_sweep.add_argument("--with-sim", action="store_true", help="also simulate each point")
    p_sweep.set_defaults(func=cmd_sweep)

    p_val = sub.add_parser("validate", help="run the cross-check suite")
    p_val.add_argument("--slots", type=int, default=200_000)
    p_val.add_argument("--seed", type=int, default=101)
    p_val.add_argument("--out", help="verdict JSON base path")
    p_val.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ScenarioError as exc:
        print("scenario error:", file=sys.stderr)
        for problem in exc.problems:
            print(f"  {problem}", file=sys.stderr)
        return EXIT_FAILURE
    except (ParameterError, NotIrreducibleError, ConvergenceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
