"""SERV1 — Warm-pool service throughput vs cold one-shot runs.

The service tier's claim: keeping worker teams forked-and-ready between
requests removes the per-request setup bill — fork the team, prime every
worker's partition engines — that a one-shot run pays every time.
Measured on the processes backend (the configuration where setup is most
expensive and the paper-relevant one for many-core serving):

*Cold lane* — each submission builds a fresh
:class:`~repro.parallel.engine.ParallelPLK`, computes one lnl, tears
down.  *Warm lane* — the same submissions against one
:class:`~repro.serve.daemon.LikelihoodService`: only the FIRST builds a
team (``pool.misses == 1`` is asserted — every later submission skipped
fork setup), the rest ride the warm pool through the full
queue/schedule/execute path.

Hard assertions: pool reuse (misses == 1, hits == N-1), warm results
identical to cold to 1e-9, and warm mean latency below cold mean
latency.  The speedup magnitude is reported, not asserted — it is
host-dependent fork cost vs a tiny kernel.

Committed output: ``results/BENCH_serve.json`` (quoted by EXPERIMENTS.md
SERV1) plus the usual text table.
"""
import json
import statistics
import time

import pytest

from conftest import write_result
from repro.parallel import ParallelPLK
from repro.parallel.shm import live_segments
from repro.serve import LikelihoodService, LocalClient, ServiceConfig
from repro.serve.cache import build_context

WORKERS = 2
N_JOBS = 8
DS = {"kind": "simulated", "taxa": 8, "sites": 600, "partitions": 6, "seed": 17}


def _cold_submission(context) -> tuple[float, float]:
    """One cold one-shot: full build (fork) + lnl + teardown."""
    t0 = time.perf_counter()
    with ParallelPLK(context.data, context.tree, context.models,
                     context.alphas, n_workers=WORKERS,
                     initial_lengths=context.lengths) as eng:
        lnl = eng.loglikelihood(0)
    return time.perf_counter() - t0, lnl


@pytest.mark.timeout(600)
def test_serv1_warm_pool_vs_cold_oneshot(results_dir):
    context = build_context(DS)

    cold_times, cold_lnls = [], []
    for _ in range(N_JOBS):
        dt, lnl = _cold_submission(context)
        cold_times.append(dt)
        cold_lnls.append(lnl)
    assert len(set(cold_lnls)) == 1  # deterministic reference

    svc = LikelihoodService(ServiceConfig(
        workers=WORKERS, executors=1, pool_capacity=1,
    ))
    warm_times, warm_lnls = [], []
    with svc:
        client = LocalClient(svc)
        for _ in range(N_JOBS):
            t0 = time.perf_counter()
            view = client.run({"op": "loglikelihood", "dataset": DS}, wait=120)
            warm_times.append(time.perf_counter() - t0)
            assert view["state"] == "done"
            warm_lnls.append(view["result"]["lnl"])
        pool = svc.pool.stats()
    assert not live_segments(), "leaked shared-memory segments"

    # The service claim: one cold build, every other submission warm.
    assert pool["misses"] == 1
    assert pool["hits"] == N_JOBS - 1
    for lnl in warm_lnls:
        assert abs(lnl - cold_lnls[0]) < 1e-9

    cold_mean = statistics.mean(cold_times)
    warm_tail = warm_times[1:]  # [0] pays the one cold build
    warm_mean = statistics.mean(warm_tail)
    assert warm_mean < cold_mean, (
        f"warm submissions ({warm_mean:.4f}s) should beat cold one-shots "
        f"({cold_mean:.4f}s)"
    )

    payload = {
        "workload": {**DS, "workers": WORKERS, "backend": "processes"},
        "n_jobs": N_JOBS,
        "cold": {
            "mean_s": round(cold_mean, 5),
            "min_s": round(min(cold_times), 5),
        },
        "warm": {
            "first_s": round(warm_times[0], 5),
            "mean_warm_s": round(warm_mean, 5),
            "min_s": round(min(warm_tail), 5),
            "speedup_vs_cold": round(cold_mean / warm_mean, 2),
        },
        "pool": {"hits": pool["hits"], "misses": pool["misses"]},
    }
    (results_dir / "BENCH_serve.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )
    lines = [
        "SERV1  warm-pool service vs cold one-shot "
        f"({N_JOBS} lnl submissions, {WORKERS}-worker processes teams)",
        f"  cold one-shot   mean {cold_mean * 1e3:8.1f} ms  "
        f"(fork + lnl + teardown each time)",
        f"  warm first      {warm_times[0] * 1e3:13.1f} ms  "
        f"(pays the one cold build)",
        f"  warm steady     mean {warm_mean * 1e3:8.1f} ms  "
        f"(queue + schedule + fused lnl only)",
        f"  speedup (steady vs cold)  {cold_mean / warm_mean:6.2f}x   "
        f"pool hits/misses {pool['hits']}/{pool['misses']}",
    ]
    write_result(results_dir, "BENCH_serve", "\n".join(lines))
