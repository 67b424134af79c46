#!/usr/bin/env python3
"""The repository benchmark: one command, three workloads, end-to-end
metrics untraced and per-layer metrics traced.

Run from the repository root::

    python3 perfbench/run.py                      # all workloads, untraced then traced
    python3 perfbench/run.py --workload modelopt_par --seed 3 --seconds 30 --trace 0

With ``--workload`` the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}`` holding the end-to-end
metrics (``--trace 0``) or the per-layer metrics (``--trace 1``).  The
exit code is nonzero when any correctness or work-identity check fails.
See ``perfbench/README.md`` for the workloads and what each metric means.
"""
from __future__ import annotations

import os
import sys

# Pin the measurement environment before numpy loads; forked workers
# inherit it.  A threaded BLAS on a 2-vCPU host would oversubscribe the
# two worker processes.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
for _var in ("REPRO_KERNEL", "REPRO_FLIGHT_DIR"):
    os.environ.pop(_var, None)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"

WORKLOAD_NAMES = ("pipeline_seq", "modelopt_par", "serve_mixed")

#: (name, unit) of the end-to-end metrics printed with ``--trace 0``.
END_TO_END = (
    ("setup_s", "s"),
    ("unit_cpu_p50_s", "s"),
    ("peak_rss_mb", "MB"),
)

#: (name, unit) of the per-layer metrics printed with ``--trace 1``; a
#: layer a workload does not run reads 0.
PER_LAYER = (
    ("plk.self_s", "s"),
    ("plk.calls", "count"),
    ("plk.pattern_ops.newview", "count"),
    ("plk.pattern_ops.evaluate", "count"),
    ("plk.pattern_ops.sumtable", "count"),
    ("plk.pattern_ops.derivative", "count"),
    ("plk.ns_per_pattern_op", "ns"),
    ("plk.unique_ratio", "frac"),
    ("optimize.self_s", "s"),
    ("optimize.newton_iters", "count"),
    ("optimize.brent_evals", "count"),
    ("core.self_s", "s"),
    ("search.self_s", "s"),
    ("search.moves_evaluated", "count"),
    ("search.moves_accepted", "count"),
    ("search.ml_s", "s"),
    ("seqgen.self_s", "s"),
    ("parallel.self_s", "s"),
    ("parallel.barriers", "count"),
    ("parallel.worker_commands", "count"),
    ("parallel.pipe_bytes", "B"),
    ("parallel.shm_bytes", "B"),
    ("parallel.busy_s", "s"),
    ("parallel.idle_s", "s"),
    ("parallel.sync_s", "s"),
    ("parallel.master_s", "s"),
    ("parallel.sync_ms_per_barrier", "ms"),
    ("parallel.imbalance", "ratio"),
    ("parallel.speedup_vs_seq", "x"),
    ("parallel.construct_s", "s"),
    ("parallel.first_lnl_s", "s"),
    ("serve.self_s", "s"),
    ("serve.read_p50_ms", "ms"),
    ("serve.read_p95_ms", "ms"),
    ("serve.write_p50_ms", "ms"),
    ("serve.read_wait_p50_ms", "ms"),
    ("serve.write_wait_p50_ms", "ms"),
    ("serve.read_exec_p50_ms", "ms"),
    ("serve.write_exec_p50_ms", "ms"),
    ("serve.client_p50_ms", "ms"),
    ("serve.batch_size_mean", "count"),
    ("serve.checkout_ms", "ms"),
    ("serve.restore_ms", "ms"),
    ("serve.pool_misses", "count"),
    ("serve.tenant_imbalance", "ratio"),
    ("host.ref_ms", "ms"),
    ("host.steal_frac", "frac"),
    ("wall.unit_p50_s", "s"),
    ("wall.setup_s", "s"),
    ("trace.overhead_frac", "frac"),
    ("trace.unattributed_frac", "frac"),
)


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES,
                    help="run one workload in this process (default: all, each "
                         "in a fresh interpreter, untraced then traced)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0,
                    help="length of the measured window")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "toy"), default="full",
                    help="toy: tiny inputs for the benchmark's own test")
    return ap.parse_args(argv)


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _host_header() -> str:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')} ({blas.get('openblas configuration', '')})"
    except (TypeError, KeyError):
        blas = "unknown"
    return (f"# host: nproc={os.cpu_count()} python={platform.python_version()} "
            f"numpy={np.__version__} blas={blas.strip()} "
            f"OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']}")


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; RUSAGE_CHILDREN is the largest reaped child.
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def run_one(args) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        return _fail(f"no program sources at {ROOT / 'src' / 'repro'}; run from a full checkout")
    sys.path.insert(0, str(ROOT / "src"))
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(work)

    import repro
    from cpuclock import SpeedGauge, TreeClock, steal_s
    from idle import IdleKeepers
    from inputs import generate, write
    from tracing import SpanTracer
    from workloads import SHAPES, WORKLOADS

    if Path(repro.__file__).resolve().parent != ROOT / "src" / "repro":
        return _fail(f"imported repro from {repro.__file__}, not this checkout")

    shape = SHAPES[args.workload][args.size == "toy"]
    setups = 2 if args.size == "toy" else 7
    keepers = IdleKeepers()
    print(_host_header() + f" idle_keepers={keepers.count}")
    print(f"# workload={args.workload} seed={args.seed} shape={shape.taxa} taxa x "
          f"{shape.partitions} partitions x {shape.columns} columns "
          f"seconds={args.seconds} trace={args.trace} setups={setups}")
    try:
        inputs = generate(shape, args.seed)
        paths = write(inputs, str(work / "inputs"))
        tracer = SpanTracer() if args.trace else None
        with keepers, SpeedGauge() as gauge:
            clock = TreeClock(gauge, exclude=keepers.pids)
            steal0, wall0 = steal_s(), time.perf_counter()
            out = WORKLOADS[args.workload](paths, inputs, args.seed, args.seconds, setups,
                                           clock, tracer)
            steal_frac = (steal_s() - steal0) / (time.perf_counter() - wall0) / os.cpu_count()
            peak_rss_mb = _peak_rss_mb()  # before the idle-keepers are reaped
        if tracer is not None:
            tracer.write(str(WORK / f"spans-{args.workload}.jsonl"))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for message in out.errors:
        print(f"# CHECK FAILED: {message}")
    if len(out.unit_s) <= 64:
        print("# unit wall seconds: " + " ".join(f"{v:.4f}" for v in out.unit_s))
    if len(out.unit_cpu_s) <= 64:
        print("# unit CPU seconds: " + " ".join(f"{v:.4f}" for v in out.unit_cpu_s))
        print("# unit gauge loop ms: " + " ".join(f"{v * 1e3:.3f}" for v in out.unit_ref_s))
        print("# unit normalised seconds: " + " ".join(f"{v:.4f}" for v in out.unit_norm_s))
    print("# set-up CPU seconds: " + " ".join(f"{v:.4f}" for v in out.setup_cpu_s))
    n_units = len(out.unit_s)
    if args.trace:
        out.layer["host.ref_ms"] = statistics.median(out.unit_ref_s) * 1e3
        out.layer["host.steal_frac"] = steal_frac
        out.layer["wall.unit_p50_s"] = statistics.median(out.unit_s)
        out.layer["wall.setup_s"] = statistics.median(out.setup_s)
        metrics = {name: {"value": float(out.layer.get(name, 0.0)), "unit": unit}
                   for name, unit in PER_LAYER}
        samples = {name: n_units for name, _ in PER_LAYER}
    else:
        values = {
            "setup_s": statistics.median(out.setup_norm_s),
            "unit_cpu_p50_s": statistics.median(out.unit_norm_s),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {name: {"value": float(values[name]), "unit": unit}
                   for name, unit in END_TO_END}
        samples = {"setup_s": len(out.setup_norm_s), "unit_cpu_p50_s": len(out.unit_norm_s),
                   "peak_rss_mb": 1}
        out.report = {
            "unit_wall_p50_s": (statistics.median(out.unit_s), "s", n_units),
            "unit_raw_cpu_p50_s": (statistics.median(out.unit_cpu_s), "s", len(out.unit_cpu_s)),
            "setup_raw_cpu_s": (statistics.median(out.setup_cpu_s), "s", len(out.setup_cpu_s)),
            "gauge_loop_ms": (statistics.median(out.unit_ref_s) * 1e3, "ms", len(out.unit_ref_s)),
            "setup_wall_s": (statistics.median(out.setup_s), "s", len(out.setup_s)),
            "units_per_s": (n_units / out.busy_s, "1/s", n_units),
            "steal_frac": (steal_frac, "frac", 1),
            **out.report,
        }
    for name, m in metrics.items():
        print(f"{name:32s} {m['value']:14.6g} {m['unit']:6s} n={samples[name]}")
    for name, (value, unit, n) in out.report.items():
        print(f"{name:32s} {value:14.6g} {unit:6s} n={n}")
    fail_frac = out.failed / max(out.attempted, 1)
    print(f"{'fail_frac':32s} {fail_frac:14.6g} {'frac':6s} n={out.attempted}")
    correct = not out.errors and out.failed == 0
    print(json.dumps({"correct": correct, "attempted": out.attempted,
                      "failed": out.failed, "metrics": metrics}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in a fresh interpreter, untraced then traced."""
    status = 0
    for trace in (0, 1):
        for workload in WORKLOAD_NAMES:
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace), "--size", args.size]
            print(f"## {workload} trace={trace}", flush=True)
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            print("\n".join(proc.stdout.splitlines()[:-1]), flush=True)
            status = status or proc.returncode
    return status


def main(argv=None) -> int:
    args = _parse(argv)
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
