"""The three workloads.

Each ``run_*`` function takes the generated input files, measures for
``seconds`` and returns an :class:`Outcome`: end-to-end samples, the
per-layer metrics of a traced run, and every failed check.  All ``repro``
calls go through the public API with default settings; the only values
passed are ``backend="processes"``, ``n_workers=2`` and the service's three
sizing fields.

Every set-up and unit is timed twice: in normalised CPU seconds of the
process tree (``cpuclock``: this process, its threads and the worker
processes, rescaled by a speed gauge), which the end-to-end metrics
report, and in wall seconds, which the per-layer and report figures
show.  Cold set-ups are spread evenly
through the measured window instead of run back to back, so that their
median samples the same host conditions as the units.

Traced runs interleave untraced and traced units on identical work, so the
tracing overhead is measured in the same run on the same inputs.
"""
from __future__ import annotations

import statistics
import threading
import time
from dataclasses import dataclass, field, replace

import numpy as np

from inputs import Shape, gtr_parameters
from oracle import jc69_gamma_loglikelihood

from repro.core import (
    PartitionedEngine,
    TraceRecorder,
    optimize_alpha,
    optimize_branch,
    optimize_branch_lengths,
    smoothing_edge_order,
)
from repro.obs import ConvergenceTelemetry
from repro.parallel import ParallelPLK
from repro.perf import Profiler
from repro.plk import (
    PartitionedAlignment,
    SubstitutionModel,
    parse_newick,
    parse_partition_file,
    parse_phylip,
    repeat_profile,
)
from repro.search import stepwise_addition_tree, tree_search
from repro.seqgen import bootstrap_replicate, split_support
from repro.serve import LikelihoodService, LocalClient, ServeCache, ServiceConfig

__all__ = ["SHAPES", "Outcome", "WORKLOADS"]

#: (full, toy) input shapes per workload.
SHAPES = {
    "pipeline_seq": (Shape(8, 4, 120), Shape(6, 2, 40)),
    "modelopt_par": (Shape(8, 16, 60), Shape(6, 4, 20)),
    "serve_mixed": (Shape(8, 16, 60), Shape(6, 4, 20)),
}
N_WORKERS = 2
N_TENANTS = 2
#: A tenant session: this many jobs, one of them a write (20% writes).
SESSION_JOBS = 5
#: Length of one replay block of the service (set-ups run between blocks;
#: traced runs alternate untraced and traced blocks).
SERVE_BLOCK_S = 1.0
RTOL = 1e-9


@dataclass
class Outcome:
    #: Wall seconds per set-up and per untraced unit.
    setup_s: list[float] = field(default_factory=list)
    unit_s: list[float] = field(default_factory=list)
    #: The same set-ups and units in normalised seconds and in raw CPU
    #: seconds of the process tree (``cpuclock.TreeClock``), and the mean
    #: gauge loop seconds during each unit.
    setup_norm_s: list[float] = field(default_factory=list)
    unit_norm_s: list[float] = field(default_factory=list)
    setup_cpu_s: list[float] = field(default_factory=list)
    unit_cpu_s: list[float] = field(default_factory=list)
    unit_ref_s: list[float] = field(default_factory=list)
    #: Wall seconds of the untraced units (for throughput).
    busy_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    layer: dict[str, float] = field(default_factory=dict)
    #: name -> (value, unit, samples): figures printed for people only.
    report: dict[str, tuple[float, str, int]] = field(default_factory=dict)

    def check(self, ok: bool, message: str) -> bool:
        if not ok:
            self.errors.append(message)
        return ok

    def add_unit(self, measured) -> None:
        """Record ``TreeClock.stop()`` of an untraced unit."""
        norm, cpu, ref = measured
        self.unit_norm_s.append(norm)
        self.unit_cpu_s.append(cpu)
        self.unit_ref_s.append(ref)


class _Setups:
    """Cold set-ups: one before the window, the rest at even intervals
    through it, any still missing after it.  ``build`` returns a value the
    workload checks (a first lnL, a job view)."""

    def __init__(self, out: Outcome, count: int, build, tracer, clock):
        self.out, self.count, self.build, self.tracer = out, count, build, tracer
        self.clock = clock
        self.values: list = []

    def run(self) -> None:
        if self.tracer is not None:
            self.tracer.unit = "setup"
            self.tracer.install()
        try:
            mark, t0 = self.clock.start(), time.perf_counter()
            self.values.append(self.build())
            self.out.setup_s.append(time.perf_counter() - t0)
            norm, cpu, _ = self.clock.stop(mark)
            self.out.setup_norm_s.append(norm)
            self.out.setup_cpu_s.append(cpu)
        finally:
            if self.tracer is not None:
                self.tracer.uninstall()

    def due(self, t_start: float, seconds: float) -> None:
        while (len(self.values) < self.count
               and time.perf_counter() - t_start >= seconds * len(self.values) / self.count):
            self.run()

    def finish(self) -> None:
        while len(self.values) < self.count:
            self.run()


def _close(a: float, b: float) -> bool:
    return bool(np.isfinite(a) and np.isfinite(b) and abs(a - b) <= RTOL * abs(b))


def _p(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def _load(paths: dict):
    with open(paths["alignment"]) as fh:
        alignment = parse_phylip(fh.read())
    with open(paths["partitions"]) as fh:
        scheme = parse_partition_file(fh.read())
    return alignment, PartitionedAlignment(alignment, scheme)


def _read_tree(paths: dict):
    with open(paths["tree"]) as fh:
        return parse_newick(fh.read())


def _unique_ratio(data, tree) -> float:
    ratios = [repeat_profile(d.tip_states, tree)["mean_unique_ratio"] for d in data.data]
    return float(np.average(ratios, weights=data.pattern_counts()))


def _pattern_ops(recorder: TraceRecorder) -> dict[str, int]:
    out = {"newview": 0, "evaluate": 0, "sumtable": 0, "derivative": 0}
    for region in recorder.trace.regions:
        for item in region.items:
            out[item.op] += item.patterns * item.count
    return out


def _iterations(telemetry: ConvergenceTelemetry) -> tuple[int, int]:
    """(Newton lane-iterations, Brent lane-evaluations)."""
    newton = brent = 0
    for log in telemetry.logs:
        n = int(log.iterations_per_lane().sum())
        if log.name.startswith("brent"):
            brent += n
        else:
            newton += n
    return newton, brent


def _trace_fractions(out: Outcome, tracer, units, n_units, untraced_s, traced_s, threads):
    """Self time per layer and unit, tracing overhead (traced over
    untraced unit medians) and the share of traced unit wall on the
    driving ``threads`` outside every layer span."""
    agg = tracer.aggregate(units=units)
    for layer, value in agg["self_s"].items():
        out.layer[f"{layer}.self_s"] = value / n_units
    out.layer["plk.calls"] = agg["calls"].get("plk", 0) / n_units
    covered = sum(v for t, v in agg["top_s"].items() if t in threads)
    out.layer["trace.unattributed_frac"] = max(0.0, 1.0 - covered / max(sum(traced_s), 1e-12))
    out.layer["trace.overhead_frac"] = (
        statistics.median(traced_s) / statistics.median(untraced_s) - 1.0
    )
    return agg


def _parallel_layer(out: Outcome, records, n_units: int, wall_s: float) -> None:
    """Profiler records of the traced units -> per-unit parallel metrics.
    Busy and idle are means over workers, so busy + idle + sync is the
    barrier wall; ``master_s`` is ``wall_s`` outside every barrier."""
    busy = np.zeros(N_WORKERS)
    idle = np.zeros(N_WORKERS)
    sync = barrier_wall = 0.0
    for r in records:
        busy += np.asarray(r.busy)
        idle += np.asarray(r.idle)
        sync += r.sync
        barrier_wall += r.wall
    out.layer["parallel.barriers"] = len(records) / n_units
    out.layer["parallel.worker_commands"] = sum(r.n_commands for r in records) / n_units
    out.layer["parallel.busy_s"] = float(busy.mean()) / n_units
    out.layer["parallel.idle_s"] = float(idle.mean()) / n_units
    out.layer["parallel.sync_s"] = sync / n_units
    out.layer["parallel.master_s"] = max(wall_s - barrier_wall, 0.0) / n_units
    out.layer["parallel.sync_ms_per_barrier"] = sync / max(len(records), 1) * 1e3
    out.layer["parallel.imbalance"] = float(busy.max() / busy.mean()) if busy.any() else 0.0


def _setup_spans(out: Outcome, tracer) -> None:
    spans = tracer.aggregate(units={"setup"})["by_name"]
    out.layer["parallel.construct_s"] = statistics.median(spans["ParallelPLK.__init__"])
    out.layer["parallel.first_lnl_s"] = statistics.median(spans["ParallelPLK.loglikelihood"])


# ---------------------------------------------------------------------------
# pipeline_seq
# ---------------------------------------------------------------------------


def run_pipeline(paths, inputs, seed, seconds, n_setups, clock, tracer=None) -> Outcome:
    out = Outcome()
    shape = inputs.shape

    def setup():
        """Files -> alignment -> parsimony start -> engine -> first lnL.
        The taxon addition order is the same for every seed: with the
        fixed tree shape of the inputs it yields the same start tree and
        edge numbering, hence the same SPR candidates, so every seed does
        the same search work on different data."""
        alignment, data = _load(paths)
        start = stepwise_addition_tree(alignment, np.random.default_rng(0))
        engine = PartitionedEngine(data, start)
        return engine.loglikelihood(), data, start, engine.branch_lengths()

    setups = _Setups(out, n_setups, setup, tracer, clock)
    setups.run()
    first, data, start, lengths = setups.values[0]
    rows = [line.split()[1].encode() for line in inputs.phylip.splitlines()[1:]]
    oracle = sum(
        jc69_gamma_loglikelihood(
            [r[p * shape.columns:(p + 1) * shape.columns] for r in rows], start, lengths[:, p]
        )
        for p in range(shape.partitions)
    )
    out.check(_close(first, oracle), f"pipeline: first lnL {first} != oracle {oracle}")

    # The ML tree, once per run.
    engine = PartitionedEngine(data, start.copy())
    t0 = time.perf_counter()
    ml = tree_search(engine)
    out.layer["search.ml_s"] = time.perf_counter() - t0
    ml_tree = engine.tree.copy()
    ml_lengths = engine.branch_lengths().mean(axis=1)
    out.report["ml_lnl"] = (ml.loglikelihood, "lnL", 1)

    def replicate(k: int, traced: bool):
        """One unit: bootstrap weights -> engine on the ML tree -> one
        search round.  Returns ((wall s, clock.stop()), state for checks,
        hooks)."""
        hooks = {}
        if traced:
            hooks = {"recorder": TraceRecorder(), "telemetry": ConvergenceTelemetry()}
            tracer.unit = k
            tracer.install()
        mark, t0 = clock.start(), time.perf_counter()
        try:
            rep = bootstrap_replicate(data, np.random.default_rng([seed, 101, k]))
            e = PartitionedEngine(rep, ml_tree.copy(), initial_lengths=ml_lengths, **hooks)
            res = tree_search(e, max_rounds=1)
        finally:
            elapsed = (time.perf_counter() - t0, clock.stop(mark))
            if traced:
                tracer.uninstall()
        state = (rep, e.tree, [p.model for p in e.parts], [p.alpha for p in e.parts],
                 e.branch_lengths(), res)
        return elapsed, state, hooks

    def same_work(a, b, what: str) -> bool:
        ra, rb = a[5], b[5]
        return out.check(
            (ra.evaluated_moves, ra.accepted_moves, ra.loglikelihood)
            == (rb.evaluated_moves, rb.accepted_moves, rb.loglikelihood),
            f"pipeline: {what} repeat of a replicate did different work",
        )

    _, warm, _ = replicate(0, False)
    states = []
    paired = []  # (untraced s, traced s, hooks, result) in traced runs
    t_start = time.perf_counter()
    k = 0
    while True:
        if tracer is None:
            s, state, _ = replicate(k, False)
        else:
            traced_first = k % 2 == 1
            a = replicate(k, traced_first)
            b = replicate(k, not traced_first)
            (s, state, _), ((st, _), tstate, hooks) = (b, a) if traced_first else (a, b)
            same_work(state, tstate, "traced")
            paired.append((s[0], st, hooks, tstate[5]))
        out.unit_s.append(s[0])
        out.add_unit(s[1])
        if k == 0:
            same_work(warm, state, "warm-up")
        states.append(state)
        k += 1
        setups.due(t_start, seconds)
        if time.perf_counter() - t_start >= seconds:
            break
    setups.finish()
    out.busy_s = sum(out.unit_s)
    out.check(all(v[0] == first for v in setups.values),
              "pipeline: set-up lnL differs between set-ups")

    t0 = time.perf_counter()
    if tracer is not None:
        tracer.unit = "support"
        tracer.install()
    try:
        support = split_support(ml_tree, [s[1] for s in states])
    finally:
        if tracer is not None:
            tracer.uninstall()
    out.report["support_s"] = (time.perf_counter() - t0, "s", 1)
    out.check(len(support) == shape.taxa - 3 and all(0.0 <= v <= 1.0 for v in support.values()),
              "pipeline: split support malformed")

    # Each replicate's final lnL, recomputed by a fresh engine.
    out.attempted = len(states)
    for rep, tree, models, alphas, lengths, res in states:
        fresh = PartitionedEngine(rep, tree.copy(), models=models, alphas=alphas)
        for p in range(fresh.n_partitions):
            for edge in range(fresh.n_edges):
                fresh.set_branch_length(edge, float(lengths[edge, p]), partition=p)
        if not out.check(_close(fresh.loglikelihood(), res.loglikelihood),
                         f"pipeline: replicate lnL {res.loglikelihood} not reproduced"):
            out.failed += 1

    if tracer is not None:
        n = len(paired)
        _trace_fractions(out, tracer, set(range(k)) | {"support"}, n,
                         [p[0] for p in paired], [p[1] for p in paired],
                         threads={threading.get_ident()})
        # Work counts are those of replicate 0, so they repeat exactly
        # whatever number of replicates fits in the window.
        _, _, hooks, res = paired[0]
        ops = _pattern_ops(hooks["recorder"])
        for op, v in ops.items():
            out.layer[f"plk.pattern_ops.{op}"] = v
        plk_s = tracer.aggregate(units={0})["self_s"].get("plk", 0.0)
        out.layer["plk.ns_per_pattern_op"] = plk_s / max(sum(ops.values()), 1) * 1e9
        out.layer["optimize.newton_iters"], out.layer["optimize.brent_evals"] = (
            _iterations(hooks["telemetry"]))
        out.layer["search.moves_evaluated"] = res.evaluated_moves
        out.layer["search.moves_accepted"] = res.accepted_moves
        out.layer["plk.unique_ratio"] = _unique_ratio(data, ml_tree)
    return out


# ---------------------------------------------------------------------------
# modelopt_par
# ---------------------------------------------------------------------------


def _sequential_unit(data, tree, lengths, models, alphas) -> tuple[float, float, float]:
    """The modelopt unit on one process: (first lnL, final lnL, unit s)."""
    engine = PartitionedEngine(data, tree.copy(), models=models, alphas=alphas,
                               initial_lengths=lengths)
    first = engine.loglikelihood()
    t0 = time.perf_counter()
    optimize_branch_lengths(engine, passes=1, edges=smoothing_edge_order(tree))
    optimize_alpha(engine)
    final = engine.loglikelihood()
    return first, final, time.perf_counter() - t0


def run_modelopt(paths, inputs, seed, seconds, n_setups, clock, tracer=None) -> Outcome:
    out = Outcome()
    shape = inputs.shape
    models = [SubstitutionModel.gtr(r, f) for r, f in gtr_parameters(shape, seed)]
    alphas = [1.0] * shape.partitions

    def build(**hooks) -> ParallelPLK:
        _, data = _load(paths)
        tree, lengths = _read_tree(paths)
        return ParallelPLK(data, tree, models, alphas, n_workers=N_WORKERS,
                           backend="processes", initial_lengths=lengths, **hooks)

    def setup():
        with build() as team:
            return team.loglikelihood()

    setups = _Setups(out, n_setups, setup, tracer, clock)
    setups.run()
    _, data = _load(paths)
    tree, lengths = _read_tree(paths)
    ref_first, ref_final, seq_s = _sequential_unit(data, tree, lengths, models, alphas)

    def unit(team: ParallelPLK):
        c0, b0 = team.commands_issued, team.comms_stats()
        mark, t0 = clock.start(), time.perf_counter()
        team.restore_parameters(lengths, alphas)
        team.optimize_branches(smoothing_edge_order(tree))
        team.optimize_alpha()
        lnl = team.loglikelihood()
        elapsed = time.perf_counter() - t0
        measured = clock.stop(mark)
        b1 = team.comms_stats()
        # Pipe bytes stay out of the identity check: every unit pickles
        # larger branch-workspace tokens than the one before.
        nbytes = (
            b1["pipe_tx_bytes"] + b1["pipe_rx_bytes"] - b0["pipe_tx_bytes"] - b0["pipe_rx_bytes"],
            b1["shm_rx_bytes"] - b0["shm_rx_bytes"],
        )
        return (elapsed, measured), lnl, team.commands_issued - c0, nbytes

    plain = build()
    hooked = None
    try:
        _, lnl0, barriers0, _ = unit(plain)  # warm-up
        if tracer is not None:
            profiler, telemetry = Profiler(), ConvergenceTelemetry()
            hooked = build(profiler=profiler, telemetry=telemetry)
            unit(hooked)
            profiler.reset()
            telemetry.logs.clear()
        traced_s, traced_bytes = [], []
        t_start = time.perf_counter()
        k = 0
        while True:
            (s, measured), lnl, barriers, _ = unit(plain)
            out.unit_s.append(s)
            out.add_unit(measured)
            out.attempted += 1
            ok = out.check(_close(lnl, ref_final), f"modelopt: lnL {lnl} != one-process {ref_final}")
            ok &= out.check(lnl == lnl0 and barriers == barriers0,
                            f"modelopt: unit {k} did different work ({barriers} barriers)")
            out.failed += not ok
            if hooked is not None:
                tracer.unit = k
                tracer.install()
                try:
                    (s, _), lnl, barriers, nbytes = unit(hooked)
                finally:
                    tracer.uninstall()
                traced_s.append(s)
                traced_bytes.append(nbytes)
                out.check(lnl == lnl0 and barriers == barriers0,
                          f"modelopt: traced unit {k} did different work")
            k += 1
            setups.due(t_start, seconds)
            if time.perf_counter() - t_start >= seconds:
                break
        setups.finish()
    finally:
        plain.close()
        if hooked is not None:
            hooked.close()
    out.busy_s = sum(out.unit_s)
    out.check(all(_close(v, ref_first) for v in setups.values),
              f"modelopt: a team's first lnL differs from one-process {ref_first}")
    out.report["barriers"] = (barriers0, "count", out.attempted)

    if tracer is not None:
        n = len(traced_s)
        _trace_fractions(out, tracer, set(range(n)), n, out.unit_s, traced_s,
                         threads={threading.get_ident()})
        _parallel_layer(out, profiler.records, n, sum(traced_s))
        # Bytes of the first traced unit: the same on every run of a seed.
        out.layer["parallel.pipe_bytes"], out.layer["parallel.shm_bytes"] = traced_bytes[0]
        newton, brent = _iterations(telemetry)
        out.layer["optimize.newton_iters"] = newton / n
        out.layer["optimize.brent_evals"] = brent / n
        seq = [seq_s] + [_sequential_unit(data, tree, lengths, models, alphas)[2]
                         for _ in range(2)]
        out.layer["parallel.speedup_vs_seq"] = statistics.median(seq) / statistics.median(out.unit_s)
        _setup_spans(out, tracer)
        out.layer["plk.unique_ratio"] = _unique_ratio(data, tree)
    return out


# ---------------------------------------------------------------------------
# serve_mixed
# ---------------------------------------------------------------------------


def _sessions(seed: int, tenant: int, n_edges: int):
    """Endless seeded stream of one tenant's sessions: ``SESSION_JOBS``
    ``(op, edge)`` jobs, one ``optimize_branches`` write on a random edge
    at a random position, the rest ``loglikelihood`` reads."""
    rng = np.random.default_rng([seed, 202, tenant])
    while True:
        session = [("loglikelihood", None)] * SESSION_JOBS
        session[int(rng.integers(SESSION_JOBS))] = ("optimize_branches", int(rng.integers(n_edges)))
        yield session


def run_serve(paths, inputs, seed, seconds, n_setups, clock, tracer=None) -> Outcome:
    out = Outcome()
    dataset = {"kind": "files", **paths}
    config = ServiceConfig(workers=N_WORKERS, backend="processes", executors=1,
                           pool_capacity=1)

    def spec(op, edge=None):
        s = {"op": op, "dataset": dataset}
        if edge is not None:
            s["edges"] = [edge]
        return s

    # One-shot reference: the same dataset context, one process.
    ctx = ServeCache().get(dataset)
    refs: dict = {}

    def reference(op, edge):
        if (op, edge) not in refs:
            engine = PartitionedEngine(ctx.data, ctx.tree.copy(), models=ctx.models,
                                       alphas=ctx.alphas, initial_lengths=ctx.lengths)
            if op == "loglikelihood":
                refs[op, edge] = (engine.loglikelihood(), None)
            else:
                optimize_branch(engine, edge)
                refs[op, edge] = (engine.loglikelihood(edge), engine.branch_lengths()[edge])
        return refs[op, edge]

    def correct(view) -> bool:
        if view.get("state") != "done":
            return False
        result = view["result"]
        lnl, lengths = reference(view["op"], (result.get("edges") or [None])[0])
        if not _close(result["lnl"], lnl):
            return False
        return lengths is None or np.allclose(result["lengths"][0], lengths,
                                              rtol=1e-6, atol=1e-8)

    def setup():
        with LikelihoodService(config) as service:
            return LocalClient(service).run(spec("loglikelihood"))

    setups = _Setups(out, n_setups, setup, tracer, clock)
    setups.run()
    streams = [_sessions(seed, t, ctx.tree.n_edges) for t in range(N_TENANTS)]

    def replay(service, jobs: list, sessions: list, tenants: set) -> tuple[float, float]:
        """One block of closed-loop load: each tenant thread submits its
        next job when the previous one is terminal and starts no session
        after ``SERVE_BLOCK_S``.  Appends (op, latency s, view) to
        ``jobs``, session seconds to ``sessions`` and the tenant thread
        idents to ``tenants``; returns the block's wall seconds and its
        ``clock.stop()`` per session."""
        client = LocalClient(service)
        deadline = time.perf_counter() + SERVE_BLOCK_S
        lock = threading.Lock()

        def tenant(t: int):
            with lock:
                tenants.add(threading.get_ident())
            for session in streams[t]:
                if time.perf_counter() >= deadline:
                    return
                start = time.perf_counter()
                done = []
                for op, edge in session:
                    t0 = time.perf_counter()
                    view = client.result(client.submit(spec(op, edge), tenant=f"t{t}"),
                                         wait=60.0)
                    done.append((op, time.perf_counter() - t0, view))
                with lock:
                    jobs.extend(done)
                    sessions.append(time.perf_counter() - start)

        threads = [threading.Thread(target=tenant, args=(t,)) for t in range(N_TENANTS)]
        n0 = len(sessions)
        mark, t0 = clock.start(), time.perf_counter()
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        wall = time.perf_counter() - t0
        norm, cpu, ref = clock.stop(mark)
        n = max(len(sessions) - n0, 1)
        return wall, (norm / n, cpu / n, ref)

    plain = LikelihoodService(config).start()
    hooked = None
    jobs: list = []
    traced_jobs: list = []
    traced_sessions: list = []
    tenants: set = set()
    try:
        LocalClient(plain).run(spec("loglikelihood"))  # warm the pool
        if tracer is not None:
            profiler, telemetry = Profiler(), ConvergenceTelemetry()
            hooked = LikelihoodService(replace(
                config, engine_kwargs={"profiler": profiler, "telemetry": telemetry}))
            hooked.start()
            LocalClient(hooked).run(spec("loglikelihood"))
            team = hooked.pool.idle_teams()[0].engine
            bytes0 = team.comms_stats()
            profiler.reset()
            telemetry.logs.clear()
            traced_wall = 0.0
        block = 0
        t_start = time.perf_counter()
        while time.perf_counter() - t_start < seconds:
            block_jobs: list = []
            wall, measured = replay(plain, block_jobs, out.unit_s, set())
            out.busy_s += wall
            out.add_unit(measured)
            # Check each job now and keep only its op and latency, so that
            # memory does not grow with the number of jobs served.
            for op, latency, view in block_jobs:
                out.attempted += 1
                if not correct(view):
                    out.failed += 1
                    out.check(False, f"serve: job {view.get('id')} wrong or not done: "
                                     f"{view.get('state')}")
                jobs.append((op, latency))
            if hooked is not None:
                tracer.unit = block
                tracer.install()
                try:
                    traced_wall += replay(hooked, traced_jobs, traced_sessions, tenants)[0]
                finally:
                    tracer.uninstall()
            block += 1
            setups.due(t_start, seconds)
        setups.finish()
        if hooked is not None:
            bytes1 = team.comms_stats()
            stats = hooked.stats()
            batched = hooked.metrics.counter("serve.jobs.batched").value
    finally:
        plain.stop()
        if hooked is not None:
            hooked.stop()

    for view in setups.values:
        out.check(correct(view), f"serve: a set-up's first job is wrong: {view}")
    reads = [lat * 1e3 for op, lat in jobs if op == "loglikelihood"]
    writes = [lat * 1e3 for op, lat in jobs if op != "loglikelihood"]
    out.report["read_p50_ms"] = (_p(reads, 50), "ms", len(reads))
    out.report["read_p95_ms"] = (_p(reads, 95), "ms", len(reads))
    out.report["write_p50_ms"] = (_p(writes, 50), "ms", len(writes))
    out.report["jobs_per_s"] = (len(jobs) / out.busy_s, "1/s", len(jobs))

    if tracer is not None:
        bad = [v for _, _, v in traced_jobs if not correct(v)]
        out.check(not bad, f"serve: {len(bad)} traced jobs wrong or not done")
        n = len(traced_jobs)
        agg = _trace_fractions(out, tracer, set(range(block)), n, out.unit_s,
                               traced_sessions, threads=tenants)
        _serve_layer(out, traced_jobs, agg["by_name"], stats, batched)
        # The team's time outside barriers: executor-side serve work plus
        # any wait for the next job.
        _parallel_layer(out, profiler.records, n, traced_wall)
        out.layer["parallel.pipe_bytes"] = (
            bytes1["pipe_tx_bytes"] + bytes1["pipe_rx_bytes"]
            - bytes0["pipe_tx_bytes"] - bytes0["pipe_rx_bytes"]
        ) / n
        out.layer["parallel.shm_bytes"] = (bytes1["shm_rx_bytes"] - bytes0["shm_rx_bytes"]) / n
        newton, brent = _iterations(telemetry)
        out.layer["optimize.newton_iters"] = newton / n
        out.layer["optimize.brent_evals"] = brent / n
        _setup_spans(out, tracer)
        out.layer["plk.unique_ratio"] = _unique_ratio(ctx.data, ctx.tree)
    return out


def _serve_layer(out: Outcome, jobs, spans_by_name, stats, batched) -> None:
    """Queue wait, execution and client latency per op from the job views;
    check-out and restore times from their spans."""
    views = {"read": [], "write": []}
    for op, latency, view in jobs:
        views["read" if op == "loglikelihood" else "write"].append((latency, view))
    for kind, items in views.items():
        client_ms = [lat * 1e3 for lat, _ in items]
        wait_ms = [(v["started_at"] - v["submitted_at"]) * 1e3 for _, v in items]
        exec_ms = [(v["finished_at"] - v["started_at"]) * 1e3 for _, v in items]
        out.layer[f"serve.{kind}_p50_ms"] = _p(client_ms, 50)
        out.layer[f"serve.{kind}_wait_p50_ms"] = _p(wait_ms, 50)
        out.layer[f"serve.{kind}_exec_p50_ms"] = _p(exec_ms, 50)
        if kind == "read":
            out.layer["serve.read_p95_ms"] = _p(client_ms, 95)
    out.layer["serve.client_p50_ms"] = _p([lat * 1e3 for _, lat, _ in jobs], 50)
    # Every batch holds one claimed job plus ``batched`` drained extras.
    out.layer["serve.batch_size_mean"] = len(jobs) / max(len(jobs) - batched, 1)
    out.layer["serve.checkout_ms"] = float(np.mean(spans_by_name.get("TeamPool.checkout", [0.0]))) * 1e3
    out.layer["serve.restore_ms"] = float(np.mean(spans_by_name.get("WarmTeam.restore", [0.0]))) * 1e3
    out.layer["serve.pool_misses"] = stats["pool"]["misses"]
    # max/mean served cost over the tenants' measured jobs (the service's
    # own gauge also counts the warm-up job's tenant).
    served: dict[str, float] = {}
    for _, _, view in jobs:
        served[view["tenant"]] = served.get(view["tenant"], 0.0) + view["cost"]
    costs = np.array(list(served.values()))
    out.layer["serve.tenant_imbalance"] = float(costs.max() / costs.mean()) if costs.size else 0.0


WORKLOADS = {
    "pipeline_seq": run_pipeline,
    "modelopt_par": run_modelopt,
    "serve_mixed": run_serve,
}
