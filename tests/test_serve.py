"""The service tier: queue scheduling, warm pool, cache, failure paths.

Correctness contract under test: a warm-pool submission must return the
SAME log-likelihood a one-shot engine computes for the same dataset and
configuration (to 1e-9 — identical team geometry gives an identical
reduction order), including after a parameter-mutating job ran on the
team in between (the snapshot-restore hermeticity guarantee).
"""
import os
import re
import threading
import time

import numpy as np
import pytest

from repro.parallel import PartitionLayout
from repro.parallel.engine import ParallelPLK
from repro.serve import (
    Job,
    JobQueue,
    JobState,
    LikelihoodService,
    LocalClient,
    ServeCache,
    ServiceConfig,
    SocketClient,
    fingerprint,
)
from repro.serve.cache import build_context
from repro.serve.daemon import serve_forever
from repro.serve.pool import price_job
from repro.serve import protocol

#: The shared tiny dataset: every test that asks for this spec hits the
#: same cached context (and, within one service, the same warm team).
DS = {"kind": "simulated", "taxa": 6, "sites": 120, "partitions": 3, "seed": 7}
DS2 = {"kind": "simulated", "taxa": 6, "sites": 80, "partitions": 2, "seed": 11}


def _job(jid, tenant="t", priority=0, cost=1.0, timeout=None, op="loglikelihood"):
    return Job(id=jid, tenant=tenant, spec={"op": op, "dataset": DS},
               priority=priority, cost=cost, timeout=timeout)


# ---------------------------------------------------------------------------
# queue


class TestJobQueue:
    def test_priority_classes_beat_fifo(self):
        q = JobQueue()
        q.submit(_job("low", priority=0))
        q.submit(_job("high", priority=5))
        assert q.claim(0).id == "high"
        assert q.claim(0).id == "low"

    def test_tenant_fairness_within_class(self):
        """After tenant A is charged for a huge job, tenant B's queued
        work goes first even though A submitted earlier."""
        q = JobQueue()
        big = q.submit(_job("a1", tenant="A", cost=100.0))
        q.claim(0)  # A now owes 100 cost units
        q.finish(big, result={})
        q.submit(_job("a2", tenant="A", cost=1.0))
        q.submit(_job("b1", tenant="B", cost=1.0))
        assert q.claim(0).id == "b1"

    def test_cancel_only_pending(self):
        q = JobQueue()
        job = q.submit(_job("j1"))
        assert q.cancel("j1") is True
        assert job.state == JobState.CANCELLED
        assert job.wait(0) is True  # terminal: waiters released
        running = q.submit(_job("j2"))
        q.claim(0)
        assert q.cancel("j2") is False
        assert running.state == JobState.RUNNING
        assert q.cancel("nope") is False

    def test_queue_wait_timeout_expires(self):
        q = JobQueue()
        job = q.submit(_job("j1", timeout=0.01))
        time.sleep(0.05)
        assert q.claim(timeout=0) is None
        assert job.state == JobState.EXPIRED
        assert job.error["type"] == "expired"

    def test_claim_batch_drains_matching(self):
        q = JobQueue()
        for n in range(4):
            q.submit(_job(f"j{n}"))
        q.submit(_job("other", op="optimize_alpha"))
        first = q.claim(0)
        extras = q.claim_batch(
            lambda j: j.spec["op"] == "loglikelihood", limit=2
        )
        assert first.id == "j0"
        assert [j.id for j in extras] == ["j1", "j2"]
        assert all(j.state == JobState.RUNNING for j in extras)
        assert q.depth() == 2  # j3 + the alpha job

    def test_close_releases_blocked_claimers(self):
        q = JobQueue()
        got = []
        t = threading.Thread(target=lambda: got.append(q.claim()))
        t.start()
        q.close()
        t.join(timeout=5)
        assert got == [None]

    def test_terminal_jobs_stay_queryable_and_share_one_event(self):
        """Every finished job stays in the table (its result can be read
        any time later), but holds no event of its own once terminal."""
        q = JobQueue()
        jobs = []
        for k in range(3):
            jobs.append(q.submit(_job(f"j{k}")))
            q.finish(q.claim(0), result={"k": k})
        q.cancel(q.submit(_job("c")).id)
        pending = q.submit(_job("p"))
        assert [q.get(f"j{k}").result for k in range(3)] == [{"k": 0}, {"k": 1}, {"k": 2}]
        assert q.get("c").state == JobState.CANCELLED
        assert all(j.wait(0) for j in jobs) and q.get("c").wait(0)
        assert len({id(j._done) for j in jobs} | {id(q.get("c")._done)}) == 1
        assert not pending.wait(0) and pending._done is not jobs[0]._done

    def test_waiter_blocked_before_finish_is_woken(self):
        q = JobQueue()
        job = q.submit(_job("w"))
        woke = []
        t = threading.Thread(target=lambda: woke.append(job.wait(10)))
        t.start()
        q.finish(q.claim(0), result={})
        t.join(timeout=5)
        assert woke == [True]


# ---------------------------------------------------------------------------
# pricing + packing


def test_price_job_scales_with_op_and_edges():
    layout = build_context(DS).layout
    lnl = price_job({"op": "loglikelihood"}, layout)
    opt3 = price_job({"op": "optimize_branches", "edges": [0, 1, 2]}, layout)
    assert lnl > 0
    assert opt3 == pytest.approx(18 * lnl)


def test_price_job_is_width_times_pattern_weight():
    """A job's price is the sum over partitions of width x
    ``pattern_weight`` (an AA pattern 25x a DNA one), times the op weight."""
    layout = PartitionLayout((30, 10, 0), (4, 20, 4), categories=2)
    assert price_job({"op": "loglikelihood"}, layout) == 30 * 32 + 10 * 800
    assert price_job({"op": "optimize_alpha"}, layout) == 10 * (30 * 32 + 10 * 800)


# ---------------------------------------------------------------------------
# cache


class TestServeCache:
    def test_fingerprint_is_key_order_insensitive(self):
        assert fingerprint({"a": 1, "b": 2}) == fingerprint({"b": 2, "a": 1})
        assert fingerprint({"a": 1}) != fingerprint({"a": 2})

    def test_hit_returns_same_context(self):
        cache = ServeCache()
        c1 = cache.get(DS)
        c2 = cache.get(dict(DS))  # equal spec, different dict object
        assert c1 is c2
        assert (cache.hits, cache.misses) == (1, 1)

    def test_memory_pressure_evicts_lru(self):
        small = build_context(DS).nbytes
        cache = ServeCache(max_bytes=small + 1)  # room for ~one context
        c1 = cache.get(DS)
        cache.get(DS2)  # over budget: evicts DS (LRU)
        assert cache.evictions == 1
        assert len(cache) == 1
        assert DS2 in cache and DS not in cache
        c1b = cache.get(DS)  # rebuilt, not the old object
        assert c1b is not c1
        assert np.isfinite(c1b.lengths).all()


# ---------------------------------------------------------------------------
# service integration (2-worker process teams)


@pytest.fixture(scope="module")
def service():
    svc = LikelihoodService(ServiceConfig(
        workers=2, executors=4, pool_capacity=2,
        allow_chaos=True,
    ))
    with svc:
        yield svc


@pytest.fixture(scope="module")
def oneshot_lnl():
    """The one-shot reference: an identically-configured cold engine."""
    ctx = build_context(DS)
    with ParallelPLK(ctx.data, ctx.tree, ctx.models, ctx.alphas,
                     n_workers=2,
                     initial_lengths=ctx.lengths) as eng:
        return eng.loglikelihood(0)


@pytest.mark.timeout(120)
def test_four_concurrent_analyses_match_oneshot(service, oneshot_lnl):
    client = LocalClient(service)
    ids = [
        client.submit({"op": "loglikelihood", "dataset": DS}, tenant=f"t{n}")
        for n in range(4)
    ]
    views = [client.result(j, wait=60) for j in ids]
    assert all(v["state"] == "done" for v in views)
    for v in views:
        assert abs(v["result"]["lnl"] - oneshot_lnl) < 1e-9


@pytest.mark.timeout(120)
def test_warm_team_is_hermetic_after_mutating_job(service, oneshot_lnl):
    """optimize_branches mutates team parameters; the snapshot restore on
    check-in must make the next lnl equal the one-shot value again."""
    client = LocalClient(service)
    before = client.run({"op": "loglikelihood", "dataset": DS}, wait=60)
    opt = client.run(
        {"op": "optimize_branches", "dataset": DS, "edges": [0, 1]}, wait=60
    )
    after = client.run({"op": "loglikelihood", "dataset": DS}, wait=60)
    assert opt["state"] == "done"
    assert opt["result"]["lnl"] != pytest.approx(oneshot_lnl)  # it did move
    assert abs(before["result"]["lnl"] - oneshot_lnl) < 1e-9
    assert abs(after["result"]["lnl"] - oneshot_lnl) < 1e-9


@pytest.mark.timeout(120)
def test_warm_pool_reuses_team(service):
    client = LocalClient(service)
    for _ in range(3):
        assert client.run(
            {"op": "loglikelihood", "dataset": DS}, wait=60
        )["state"] == "done"
    stats = service.pool.stats()
    assert stats["hits"] > 0
    # Every team in the pool belongs to a cached context.
    assert service.cache.hits > 0


@pytest.mark.timeout(120)
def test_batching_fuses_same_dataset_lnl_jobs(oneshot_lnl):
    """With ONE executor, a burst of lnl jobs for one dataset drains into
    a single fused program (batched counter > 0), all results correct."""
    svc = LikelihoodService(ServiceConfig(
        workers=2, executors=1, pool_capacity=1,
        batch_limit=8,
    ))
    client = LocalClient(svc)
    # Enqueue BEFORE starting the executor so the burst is all pending.
    ids = [client.submit({"op": "loglikelihood", "dataset": DS})
           for _ in range(5)]
    with svc:
        views = [client.result(j, wait=60) for j in ids]
    assert all(v["state"] == "done" for v in views)
    for v in views:
        assert abs(v["result"]["lnl"] - oneshot_lnl) < 1e-9
    assert svc.metrics.counter("serve.jobs.batched").value > 0
    assert any(v["result"].get("batched", 0) > 1 for v in views)


@pytest.mark.timeout(120)
def test_worker_exception_fails_job_not_service(service, oneshot_lnl):
    """A worker-side exception (unknown op) FAILS the job with a
    structured error; the team survives and keeps serving."""
    client = LocalClient(service)
    view = client.run({"op": "chaos_raise", "dataset": DS}, wait=60)
    assert view["state"] == "failed"
    assert view["error"]["type"] == "worker_error"
    assert "rank" in view["error"]
    after = client.run({"op": "loglikelihood", "dataset": DS}, wait=60)
    assert after["state"] == "done"
    assert abs(after["result"]["lnl"] - oneshot_lnl) < 1e-9


@pytest.mark.timeout(180)
def test_worker_death_returns_structured_error(tmp_path):
    """A worker process dying mid-job must produce a FAILED job carrying
    a worker_death error + flight-recorder post-mortem — never a hung
    client — and the next job gets a fresh team."""
    svc = LikelihoodService(ServiceConfig(
        workers=2, executors=1, pool_capacity=1,
        allow_chaos=True, postmortem_dir=str(tmp_path),
    ))
    with svc:
        client = LocalClient(svc)
        view = client.run({"op": "chaos_die", "dataset": DS, "rank": 1},
                          wait=120)
        assert view["state"] == "failed"
        assert view["error"]["type"] == "worker_death"
        assert view["error"]["rank"] == 1
        assert os.path.exists(view["error"]["postmortem"])
        assert svc.pool.discards == 1
        # Recovery: a cold replacement team serves the next request.
        after = client.run({"op": "loglikelihood", "dataset": DS}, wait=120)
        assert after["state"] == "done"
        assert svc.pool.misses == 2


@pytest.mark.timeout(120)
def test_service_level_timeout_and_cancellation():
    """With no executors running, pending jobs expire past their queue
    deadline and cancellation removes them."""
    svc = LikelihoodService(ServiceConfig(workers=2))
    client = LocalClient(svc)  # note: never started — jobs stay pending
    expired_id = client.submit({"op": "loglikelihood", "dataset": DS},
                               timeout=0.01)
    cancelled_id = client.submit({"op": "loglikelihood", "dataset": DS})
    time.sleep(0.05)
    assert client.cancel(cancelled_id) is True
    stats = client.stats()  # stats() reaps expired jobs
    assert client.result(expired_id)["state"] == "expired"
    assert client.result(cancelled_id)["state"] == "cancelled"
    assert stats["queue"]["depth"] == 0
    assert svc.metrics.counter("serve.jobs.expired").value == 1
    assert svc.metrics.counter("serve.jobs.cancelled").value == 1


@pytest.mark.timeout(120)
def test_tenant_fairness_and_obs_plane(service):
    client = LocalClient(service)
    client.run({"op": "loglikelihood", "dataset": DS}, tenant="heavy", wait=60)
    stats = client.stats()
    assert stats["tenant_imbalance"] >= 1.0
    assert "heavy" in stats["queue"]["tenants"]
    text = client.metrics()
    assert "repro_serve_jobs_submitted_total" in text
    assert "repro_serve_queue_depth" in text
    assert "repro_serve_tenant_imbalance" in text
    assert 'mode="serve"' in text


@pytest.mark.parametrize("field", ["executors", "workers"])
def test_config_rejects_nonpositive_counts(field, tmp_path, capsys):
    """executors=0 would leave every job pending forever and workers=0
    would fail every team build, so both are rejected up front — and
    `repro serve` turns the rejection into exit code 2."""
    from repro.cli import main

    with pytest.raises(ValueError, match=field):
        ServiceConfig(**{field: 0})
    rc = main(["serve", "--socket", str(tmp_path / "s.sock"), f"--{field}", "0"])
    assert rc == 2
    assert field in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "s.sock")


@pytest.mark.parametrize("kwargs,match", [
    ({"distribution": "nope"}, "distribution"),
    ({"backend": "nope"}, "backend"),
    ({"backend": "threads"}, "backend"),
    ({"categories": 0}, "categories"),
    ({"distribution": "weighted"}, "distribution"),
    ({"distribution": "lpt"}, "distribution"),
])
def test_config_rejects_unbuildable_teams(kwargs, match):
    """A config no team factory can build would fail every job with a
    pool error, so it is rejected at construction instead."""
    with pytest.raises(ValueError, match=match):
        ServiceConfig(**kwargs)


@pytest.mark.timeout(120)
def test_team_build_failure_fails_batch_not_executor(oneshot_lnl):
    """An exception from the team factory during checkout fails the batch
    with a pool error; the (only) executor survives to serve the next job."""
    svc = LikelihoodService(ServiceConfig(
        workers=2, executors=1, pool_capacity=1,
    ))
    real_factory = svc.pool.factory

    def broken(context):
        raise ValueError("cannot build a team")

    svc.pool.factory = broken
    with svc:
        client = LocalClient(svc)
        view = client.run({"op": "loglikelihood", "dataset": DS}, wait=30)
        assert view["state"] == "failed"
        assert view["error"]["type"] == "pool"
        assert "cannot build a team" in view["error"]["message"]
        svc.pool.factory = real_factory
        after = client.run({"op": "loglikelihood", "dataset": DS}, wait=60)
        assert after["state"] == "done"
        assert abs(after["result"]["lnl"] - oneshot_lnl) < 1e-9


# ---------------------------------------------------------------------------
# socket protocol


def test_protocol_round_trip():
    frame = protocol.encode(protocol.ok_response("ping", version=1))
    assert frame.endswith(b"\n")
    decoded = protocol.decode(frame)
    assert decoded == {"ok": True, "op": "ping", "version": 1}
    with pytest.raises(ValueError):
        protocol.decode(b"[1, 2]\n")


@pytest.mark.timeout(120)
def test_socket_daemon_round_trip(tmp_path, oneshot_lnl):
    path = str(tmp_path / "repro.sock")
    svc = LikelihoodService(ServiceConfig(
        workers=2, executors=2,
    ))
    ready = threading.Event()
    t = threading.Thread(target=serve_forever, args=(svc, path, ready),
                         daemon=True)
    t.start()
    assert ready.wait(30)
    with SocketClient(path) as client:
        assert client.ping()["version"] == protocol.PROTOCOL_VERSION
        view = client.run({"op": "loglikelihood", "dataset": DS}, wait=60)
        assert view["state"] == "done"
        assert abs(view["result"]["lnl"] - oneshot_lnl) < 1e-9
        assert "repro_serve_jobs_completed_total" in client.metrics()
        with pytest.raises(RuntimeError, match="unknown"):
            client._call({"op": "bogus"})
        client.shutdown()
    t.join(timeout=30)
    assert not t.is_alive()
    assert not os.path.exists(path)


@pytest.mark.timeout(120)
def test_chaos_requires_opt_in():
    svc = LikelihoodService(ServiceConfig(workers=2))
    with pytest.raises(ValueError, match="allow_chaos"):
        svc.submit({"op": "chaos_die", "dataset": DS})
    with pytest.raises(ValueError, match="unknown op"):
        svc.submit({"op": "frobnicate", "dataset": DS})


# ---------------------------------------------------------------------------
# spec validation at submit


@pytest.mark.timeout(120)
@pytest.mark.parametrize("spec, match", [
    pytest.param({"op": "optimize_branches", "edges": [-1]}, "edges",
                 id="negative-edge"),
    pytest.param({"op": "optimize_branches", "edges": [999]}, "edges",
                 id="edge-out-of-range"),
    pytest.param({"op": "optimize_branches", "edges": [True]}, "edges",
                 id="bool-edge"),
    pytest.param({"op": "optimize_branches", "edges": []}, "non-empty",
                 id="empty-edges"),
    pytest.param({"op": "optimize_branches", "edges": 3}, "non-empty",
                 id="edges-not-a-list"),
    pytest.param({"op": "loglikelihood", "root_edge": -1}, "root_edge",
                 id="negative-root-edge"),
    pytest.param({"op": "loglikelihood_parts", "root_edge": 999}, "root_edge",
                 id="root-edge-out-of-range"),
    pytest.param({"op": "loglikelihood", "root_edge": 1.5}, "root_edge",
                 id="float-root-edge"),
    pytest.param({"op": "loglikelihood", "kernel": "numpy"}, "does not read",
                 id="kernel-key"),
    pytest.param({"op": "optimize_alpha", "edges": [0]}, "does not read",
                 id="key-of-another-op"),
])
def test_bad_spec_rejected_at_submit(service, spec, match):
    """Bad edge numbers and unread keys fail at submit with a ValueError,
    before any job is queued."""
    submitted = service.metrics.snapshot().get("serve.jobs.submitted")
    with pytest.raises(ValueError, match=match):
        service.submit({**spec, "dataset": DS})
    assert service.metrics.snapshot().get("serve.jobs.submitted") == submitted


@pytest.mark.timeout(120)
def test_numpy_integer_edges_accepted(service):
    last = build_context(DS).tree.n_edges - 1
    view = LocalClient(service).run(
        {"op": "optimize_branches", "dataset": DS, "edges": [np.int64(last)]},
        wait=60,
    )
    assert view["state"] == "done"
    assert view["result"]["edges"] == [last]



# ---------------------------------------------------------------------------
# files datasets


def _toy_files(tmp_path) -> dict:
    """``repro simulate`` output as a ``files`` spec: its PHYLIP rows are
    t0..t7, its Newick lists the leaves in another order."""
    from repro.cli import main

    out = tmp_path / "toy"
    assert main(["simulate", "--taxa", "8", "--sites", "400",
                 "--partition-length", "200", "--seed", "3",
                 "--out", str(out)]) == 0
    return {"kind": "files", "alignment": f"{out}.phy",
            "partitions": f"{out}.part", "tree": f"{out}.nwk"}


@pytest.mark.timeout(120)
def test_files_rows_matched_to_leaves_by_name(tmp_path):
    from repro.core import PartitionedEngine
    from repro.plk import (
        Alignment,
        PartitionedAlignment,
        SubstitutionModel,
        parse_newick,
        parse_partition_file,
        parse_phylip,
    )

    ds = _toy_files(tmp_path)
    aln = parse_phylip(open(ds["alignment"]).read())
    tree, lengths = parse_newick(open(ds["tree"]).read())
    assert aln.taxa != tree.taxa  # the rows are not in leaf order
    order = [aln.taxa.index(name) for name in tree.taxa]
    data = PartitionedAlignment(
        Alignment(tree.taxa, aln.matrix[order], aln.datatype),
        parse_partition_file(open(ds["partitions"]).read()),
    )
    n = data.n_partitions
    expected = PartitionedEngine(
        data, tree, models=[SubstitutionModel.random_gtr(p) for p in range(n)],
        alphas=[1.0] * n, initial_lengths=lengths,
    ).loglikelihood()
    with LikelihoodService(ServiceConfig(workers=2, executors=1,
                                         pool_capacity=1)) as svc:
        view = LocalClient(svc).run({"op": "loglikelihood", "dataset": ds},
                                    wait=60)
    assert view["state"] == "done"
    assert view["result"]["lnl"] == pytest.approx(expected, rel=1e-9)


def test_files_differing_taxon_set_rejected_at_submit(tmp_path):
    ds = _toy_files(tmp_path)
    newick = open(ds["tree"]).read()
    assert "t7:" in newick
    other = tmp_path / "other.nwk"
    other.write_text(newick.replace("t7:", "x7:"))
    svc = LikelihoodService(ServiceConfig(workers=2))  # never started
    with pytest.raises(ValueError, match="taxa differ"):
        svc.submit({"op": "loglikelihood",
                    "dataset": {**ds, "tree": str(other)}})
    assert svc.queue.depth() == 0


def test_files_non_finite_branch_length_rejected_at_submit(tmp_path):
    ds = _toy_files(tmp_path)
    newick = open(ds["tree"]).read()
    bad = tmp_path / "nan.nwk"
    bad.write_text(re.sub(r"t7:[^,)]+", "t7:nan", newick))
    assert "t7:nan" in bad.read_text()
    svc = LikelihoodService(ServiceConfig(workers=2))  # never started
    with pytest.raises(ValueError, match="finite"):
        svc.submit({"op": "loglikelihood", "dataset": {**ds, "tree": str(bad)}})
    assert svc.queue.depth() == 0
