"""Benchmark of aoi_access: four workloads, end-to-end metrics, a traced per-layer run.

Run from the repository root:

    python3 perfbench/run.py --workload sim-long --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

--trace 0 times passes with tracing off and reports the end-to-end
metrics; --trace 1 alternates plain and traced passes and reports
per-layer self times (see README.md). `--workload all` runs every
workload in a fresh process of its own. The last line of standard output
is one JSON object with correct, attempted, failed and metrics. The exit
code is 0 only when every output passed its checks.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"
WORKLOAD_NAMES = ("sim-long", "analyze-deep", "sweep-tradeoff", "validate-suite")
# set-up runs this many times per run, once in the workload process and
# the rest in fresh processes, and its median is reported
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 170
EXIT_OK, EXIT_INCORRECT, EXIT_USAGE = 0, 1, 2


def limit_blas_threads() -> None:
    """Cap OpenBLAS at the CPUs this process may use; must run before numpy loads."""
    cpus = len(os.sched_getaffinity(0))
    current = os.environ.get("OPENBLAS_NUM_THREADS", "")
    if not current.isdigit() or not 0 < int(current) <= cpus:
        os.environ["OPENBLAS_NUM_THREADS"] = str(cpus)


def openblas_threads() -> int | None:
    """Thread count OpenBLAS reports through numpy's bundled library, if found."""
    import ctypes

    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def import_library():
    """Import the benchmark's workloads, which import aoi_access from src/."""
    sys.path.insert(0, str(BENCH_DIR))
    import workloads

    return workloads


def setup_probe() -> int:
    t0 = time.perf_counter()
    workloads = import_library()
    workloads.setup()
    print(json.dumps({"setup_s": time.perf_counter() - t0}))
    return EXIT_OK


def probe_setup_in_child() -> float:
    done = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--setup-probe"],
                          cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe exited {done.returncode}: {done.stderr.strip()}")
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_passes(workload, seconds: float, reference=None, tracer=None, hooks=None):
    """Whole passes until the timed passes add up to `seconds`.

    With a reference, each plain pass also gets the mean of the reference
    time just before and just after it. With a tracer, even passes run
    plain and odd passes traced, and the loop also runs until there is
    one of each.
    """
    plain, traced, refs = [], [], []
    attempted = failed = 0
    k = 0
    while sum(plain) + sum(traced) < seconds or (tracer is not None and not traced):
        inputs = workload.prepare(k)
        tracing = tracer is not None and k % 2 == 1
        if tracing:
            tracer.phase = "pass"
            tracer.install(hooks)
            root = tracer.open("pass")
        gc.collect()
        before = reference.seconds() if reference is not None else 0.0
        t0 = time.perf_counter()
        outputs = workload.run(inputs)
        wall = time.perf_counter() - t0
        if reference is not None:
            refs.append((before + reference.seconds()) / 2)
        if tracing:
            tracer.close(root)
            tracer.uninstall()
        (traced if tracing else plain).append(wall)
        a, f = workload.check(inputs, outputs)
        attempted += a
        failed += f
        k += 1
    workload.finish()
    return plain, traced, refs, attempted, failed


def run_workload(args) -> int:
    out_dir = OUT_DIR / args.workload
    if out_dir.exists():
        for stale in out_dir.iterdir():
            stale.unlink()
    out_dir.mkdir(parents=True, exist_ok=True)

    t0 = time.perf_counter()
    workloads = import_library()
    from reference import REFERENCE_S, Reference

    tracer = hooks = stats = None
    if args.trace:
        import layers

        tracer, stats = layers.Tracer(), layers.LayerStats()
        hooks = layers.hooks(stats)
        tracer.install(hooks)
        env = workloads.setup()
        tracer.uninstall()
    else:
        env = workloads.setup()
    setup_samples = [time.perf_counter() - t0]
    blas = openblas_threads()
    if not args.trace:
        setup_samples += [probe_setup_in_child() for _ in range(SETUP_SAMPLES - 1)]

    workload = workloads.WORKLOADS[args.workload](args.seed, env, out_dir)
    ref = None if args.trace else Reference()
    correct, problem = True, None
    try:
        plain, traced, refs, attempted, failed = run_passes(workload, args.seconds, ref, tracer, hooks)
    except workloads.oracle.CheckFailed as exc:
        correct, problem = False, str(exc)
        attempted, failed = 1, 0

    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"blas_threads {'unknown' if blas is None else blas} "
          f"(OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']})")
    if problem is not None:
        print(f"check failed: {problem}", file=sys.stderr)
        print(f"correct false: {problem}")
        metrics = {}
    elif args.trace:
        metrics = layers.per_layer_metrics(tracer, stats, plain, traced)
        tracer.write(out_dir / f"spans-seed{args.seed}.jsonl")
        print(f"passes {len(plain)} plain, {len(traced)} traced; spans in {out_dir}")
    else:
        wall = statistics.median(plain)
        wall_ref = REFERENCE_S * statistics.median(w / r for w, r in zip(plain, refs))
        metrics = {
            "setup_s": metric(statistics.median(setup_samples), "s"),
            "wall_ref_s": metric(wall_ref, "s"),
            "peak_rss_mib": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        }
        per_s = f"{workload.unit_name}_per_s"
        print(f"setup_s {metrics['setup_s']['value']:.4f} s (median of {len(setup_samples)} set-ups)")
        print(f"wall_s {wall:.4f} s (median of {len(plain)} passes)")
        print(f"wall_ref_s {wall_ref:.4f} s (median pass time over reference time "
              f"{statistics.median(refs):.5f} s, times {REFERENCE_S} s)")
        print(f"peak_rss_mib {metrics['peak_rss_mib']['value']:.1f} MiB")
        print(f"{per_s} {workload.unit_per_pass / wall:.6g} {workload.unit_name}/s "
              f"({workload.unit_per_pass} {workload.unit_name} per pass)")
    print(f"attempted {attempted} failed {failed}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return EXIT_OK if correct else EXIT_INCORRECT


def run_all(args) -> int:
    """Every workload in a fresh process; metric names are prefixed with the workload."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOAD_NAMES:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S + 60,
        )
        lines = done.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(line)
        sys.stderr.write(done.stderr)
        result = json.loads(lines[-1]) if lines else None
        if done.returncode != 0 or result is None:
            correct = False
        if result is not None:
            correct = correct and result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
            metrics.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return EXIT_OK if correct else EXIT_INCORRECT


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not args.setup_probe and args.workload is None:
        parser.error("--workload is required")

    limit_blas_threads()
    missing = [p for p in ("src/aoi_access/__init__.py", "scenarios/reference.json",
                           "scenarios/strong_mpr_q2_sweep.json") if not (ROOT / p).is_file()]
    if missing:
        print(f"cannot run: {', '.join(missing)} missing under {ROOT}", file=sys.stderr)
        return EXIT_USAGE
    if args.setup_probe:
        return setup_probe()
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
