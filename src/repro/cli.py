"""Command-line interface (a miniature RAxML).

Subcommands
-----------
``simulate``
    Generate a benchmark dataset (alignment + partition file + true tree).
``analyze``
    Model-parameter optimization and/or tree search on a PHYLIP/FASTA
    alignment with a RAxML-style partition file, under the oldPAR,
    newPAR or tree schedule.
``replay``
    Capture a paper experiment's schedule and replay it on the simulated
    platforms (regenerates Figure-3-style tables from the shell).
``profile``
    Run oldPAR, newPAR and the tree-wide branch schedule on the *real*
    worker team with the :mod:`repro.perf` profiler attached and report
    each run's measured per-worker busy/idle decomposition (the hardware
    analogue of what ``replay`` predicts).
``timeline``
    Run one profiled + traced workload (or load a saved profile JSON) and
    export it as a Chrome trace-event timeline — one lane per worker plus
    the master command lane, loadable in Perfetto / ``chrome://tracing``
    — alongside an ASCII rendering, the metrics snapshot and the
    per-partition convergence telemetry.
``balance``
    Compare the two pattern-distribution policies (``cyclic``, ``block``)
    on one workload: per-thread load as *predicted* by the machine
    simulator and as *measured* on the real worker team, each summarized
    by the imbalance ratio (max/mean thread busy time; 1.0 = perfect).
``top``
    A refreshing ASCII dashboard over the live telemetry plane
    (:mod:`repro.obs.live`): per-worker lanes showing busy fraction,
    heartbeat age, commands/s and the live imbalance ratio.  Runs a
    workload itself (rendering while it executes) or attaches to another
    process's plane by shared-memory segment name (``--plane``).
``serve`` / ``submit``
    The likelihood daemon (warm team pool behind a unix socket) and its
    one-shot client (``docs/SERVICE.md``).

Examples
--------
::

    python -m repro simulate --taxa 20 --sites 5000 --partition-length 1000 \
        --out data/d20_5000
    python -m repro analyze --alignment data/d20_5000.phy \
        --partitions data/d20_5000.part --search
    python -m repro replay --dataset d50_50000_p1000 --analysis search \
        --candidates 60
    python -m repro profile --workers 4 --partitions 10 --warmup \
        --out profile.json
    python -m repro balance --workers 4 --partitions 10
    python -m repro timeline --workers 4 --out timeline_trace.json
"""
from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from .core.strategies import (BRANCH_STRATEGIES, PARTITION_SCHEDULE, optimize_alpha,
                              optimize_branch_lengths)

__all__ = ["main", "build_parser"]

#: Commands that run :func:`repro.seqgen.profiling_workload` on a team.
_TEAM_COMMANDS = ("profile", "timeline", "balance", "top")


def build_parser() -> argparse.ArgumentParser:
    from .parallel.distribution import DISTRIBUTIONS

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Load-balanced partitioned phylogenetic likelihood "
        "analyses (Stamatakis & Ott, ICPP 2009 reproduction).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="generate a benchmark dataset")
    sim.add_argument("--taxa", type=int, required=True)
    sim.add_argument("--sites", type=int, required=True)
    sim.add_argument("--partition-length", type=int, default=1_000)
    sim.add_argument("--seed", type=int, default=42)
    sim.add_argument(
        "--out", required=True,
        help="output prefix; writes <out>.phy, <out>.part, <out>.nwk",
    )

    ana = sub.add_parser("analyze", help="run a partitioned ML analysis")
    ana.add_argument("--alignment", required=True, help="PHYLIP or FASTA file")
    ana.add_argument("--partitions", help="RAxML-style partition file "
                     "(default: single partition)")
    ana.add_argument("--tree", help="starting tree (Newick; default: "
                     "randomized stepwise-addition parsimony)")
    ana.add_argument("--strategy", choices=BRANCH_STRATEGIES, default="tree",
                     help="old/newPAR, or tree: newPAR Brent with tree-wide "
                     "branch smoothing and, with --search, lazy SPR "
                     "scoring (default: %(default)s)")
    ana.add_argument("--branch-mode", choices=("joint", "per_partition"),
                     default="per_partition")
    ana.add_argument("--search", action="store_true",
                     help="run an SPR tree search (default: model "
                     "optimization on the fixed/starting tree only)")
    ana.add_argument("--radius", type=int, default=5, help="SPR radius")
    ana.add_argument("--rounds", type=int, default=5)
    ana.add_argument("--seed", type=int, default=0)
    ana.add_argument("--out-tree", help="write the final tree here")
    ana.add_argument("--checkpoint", help="write a JSON checkpoint of the "
                     "optimized state here")
    ana.add_argument("--resume", help="resume from a checkpoint written by "
                     "--checkpoint (overrides --tree)")
    ana.add_argument("--trace-summary", action="store_true",
                     help="print the captured parallel-schedule statistics")

    rep = sub.add_parser("replay", help="capture + replay a paper experiment")
    rep.add_argument("--dataset", required=True,
                     help="paper dataset id, e.g. d50_50000_p1000 or r125_19839")
    rep.add_argument("--analysis", choices=("search", "modelopt"),
                     default="search")
    rep.add_argument("--candidates", type=int, default=60,
                     help="SPR candidates to evaluate during capture")
    rep.add_argument("--threads", type=int, nargs="+", default=[1, 8, 16])
    rep.add_argument("--distribution", choices=DISTRIBUTIONS,
                     default="cyclic")

    def add_workload_args(p, distribution: bool = True) -> None:
        p.add_argument("--taxa", type=int, default=12)
        p.add_argument("--sites", type=int, default=2_000)
        p.add_argument("--partitions", type=int, default=10)
        p.add_argument("--workers", type=int, default=4)
        if distribution:  # `balance` runs every policy
            p.add_argument("--distribution", choices=DISTRIBUTIONS,
                           default="cyclic")
        p.add_argument("--edges", type=int, default=6,
                       help="branches to optimize per strategy")
        p.add_argument("--alpha", action="store_true",
                       help="also profile Gamma-shape (Brent) optimization")
        p.add_argument("--seed", type=int, default=42)

    prof = sub.add_parser(
        "profile",
        help="measure oldPAR, newPAR and the tree schedule on the real worker team",
    )
    add_workload_args(prof)
    prof.add_argument("--live", action="store_true",
                      help="enable the live telemetry plane "
                      "(repro.obs.live): per-worker shared-memory "
                      "heartbeat rows, flight recorder with post-mortem "
                      "JSONL dumps on worker death, live imbalance")
    prof.add_argument("--prom", metavar="PATH",
                      help="with --live: write a Prometheus text-format "
                      "snapshot (metrics + per-worker gauges) here after "
                      "the run")
    prof.add_argument("--events", metavar="PATH",
                      help="with --live: append the flight-recorder "
                      "event stream here as JSONL while running")
    prof.add_argument("--warmup", action="store_true",
                      help="run the workload once untimed first (worker "
                      "start-up, allocator and cache warm-up), then reset "
                      "the profiler and measure a second pass")
    prof.add_argument("--out", help="write the three RunProfiles as JSON here")

    tl = sub.add_parser(
        "timeline",
        help="export a run as a Chrome trace-event (Perfetto) timeline",
    )
    add_workload_args(tl)
    tl.add_argument("--strategy", choices=BRANCH_STRATEGIES, default="new")
    tl.add_argument("--profile", dest="profile_json",
                    help="render a saved profile JSON (from 'repro profile "
                    "--out') instead of running a fresh workload")
    tl.add_argument("--out", default="timeline_trace.json",
                    help="Chrome trace-event JSON output path "
                    "(default: %(default)s)")
    tl.add_argument("--width", type=int, default=72,
                    help="ASCII timeline width in columns")

    bal = sub.add_parser(
        "balance",
        help="compare the distribution policies: predicted vs "
        "measured per-thread load and imbalance ratio",
    )
    add_workload_args(bal, distribution=False)
    bal.add_argument("--platform", default="nehalem",
                     help="simulated platform for the prediction "
                     "(nehalem / clovertown / barcelona / x4600; "
                     "default: %(default)s)")
    bal.add_argument("--strategy", choices=BRANCH_STRATEGIES, default="new")

    top = sub.add_parser(
        "top",
        help="refreshing ASCII dashboard over the live telemetry plane "
        "(per-worker busy fraction, heartbeat age, commands/s, imbalance)",
    )
    add_workload_args(top)
    top.add_argument("--plane", metavar="SEGMENT",
                     help="attach to a running process's worker-stats "
                     "plane by shared-memory segment name instead of "
                     "running a workload")
    top.add_argument("--interval", type=float, default=0.5,
                     help="seconds between dashboard frames "
                     "(default: %(default)s)")
    top.add_argument("--frames", type=int, default=0,
                     help="maximum frames to render (0 = until the "
                     "workload finishes; required with --plane)")
    top.add_argument("--width", type=int, default=78,
                     help="dashboard width in columns")
    top.add_argument("--stall-threshold", type=float, default=5.0,
                     help="seconds without heartbeat progress before a "
                     "busy worker is reported stalled")

    srv = sub.add_parser(
        "serve",
        help="run the likelihood daemon: warm team pool + job queue "
        "behind an NDJSON unix socket (see docs/SERVICE.md)",
    )
    srv.add_argument("--socket", default="/tmp/repro.sock",
                     help="unix socket path (default: %(default)s)")
    srv.add_argument("--workers", type=int, default=2,
                     help="workers per team (default: %(default)s)")
    srv.add_argument("--distribution", choices=DISTRIBUTIONS, default="cyclic")
    srv.add_argument("--executors", type=int, default=2,
                     help="concurrent job executors (default: %(default)s)")
    srv.add_argument("--pool-capacity", type=int, default=2,
                     help="max live warm teams (default: %(default)s)")
    srv.add_argument("--cache-bytes", type=int, default=None,
                     help="dataset-context cache budget in bytes "
                     "(default: unbounded)")
    srv.add_argument("--batch-limit", type=int, default=8,
                     help="max loglikelihood jobs fused into one worker "
                     "program (default: %(default)s)")
    srv.add_argument("--live", action="store_true",
                     help="per-team live telemetry planes; segment names "
                     "appear under stats.live_planes for "
                     "'repro top --plane'")
    srv.add_argument("--allow-chaos", action="store_true",
                     help="enable the chaos_* fault-injection ops "
                     "(failure drills; never in production)")
    srv.add_argument("--postmortem-dir",
                     help="directory for worker-death flight-recorder "
                     "dumps (default: $REPRO_FLIGHT_DIR or the tempdir)")

    sbm = sub.add_parser(
        "submit",
        help="submit one job to a running 'repro serve' daemon and "
        "print the result as JSON",
    )
    sbm.add_argument("--socket", default="/tmp/repro.sock",
                     help="daemon unix socket path (default: %(default)s)")
    sbm.add_argument("--op", default="loglikelihood",
                     choices=("loglikelihood", "loglikelihood_parts",
                              "optimize_branches", "optimize_alpha",
                              "ping", "stats", "metrics", "shutdown"),
                     help="job operation, or a daemon query "
                     "(default: %(default)s)")
    sbm.add_argument("--tenant", default="cli")
    sbm.add_argument("--priority", type=int, default=0)
    sbm.add_argument("--timeout", type=float, default=None,
                     help="max seconds the job may wait in the queue")
    sbm.add_argument("--wait", type=float, default=120.0,
                     help="seconds to block for completion "
                     "(default: %(default)s)")
    sbm.add_argument("--taxa", type=int, default=8)
    sbm.add_argument("--sites", type=int, default=400)
    sbm.add_argument("--partitions", type=int, default=4)
    sbm.add_argument("--seed", type=int, default=42)
    sbm.add_argument("--edges", type=int, nargs="+",
                     help="edges for optimize_branches (default: [0])")
    sbm.add_argument("--spec", help="raw JSON job spec (overrides the "
                     "dataset/op flags entirely)")

    return parser


def _validate_workload(args: argparse.Namespace) -> str | None:
    """Sanity-check the shared profile/timeline/balance/top workload flags;
    returns an error string (for stderr) or None."""
    if min(args.partitions, args.workers, args.edges, args.sites) < 1:
        return "--partitions, --workers, --edges and --sites must be >= 1"
    if args.taxa < 4:
        return "--taxa must be >= 4 (smallest unrooted binary tree)"
    n_edges = 2 * args.taxa - 3
    if args.edges > n_edges:
        return (f"--edges {args.edges} exceeds the {n_edges} branches of a "
                f"{args.taxa}-taxon unrooted tree")
    if (getattr(args, "prom", None) or getattr(args, "events", None)) and \
            not getattr(args, "live", False):
        return "--prom and --events require --live"
    return None


def _team(args: argparse.Namespace, workload: tuple, distribution: str,
          **observers):
    """The worker team of a team command, on ``workload``."""
    from .parallel import ParallelPLK

    data, tree, lengths, models, alphas = workload
    return ParallelPLK(data, tree, models, alphas, args.workers,
                       distribution=distribution, initial_lengths=lengths,
                       **observers)


def _run_pass(engine, args: argparse.Namespace, strategy: str) -> None:
    """One pass of a team command on either engine: smooth the first
    ``--edges`` branches under ``strategy`` and, with ``--alpha``, run its
    paired alpha schedule (``PARTITION_SCHEDULE``: tree's Brent runs as
    newPAR)."""
    optimize_branch_lengths(engine, strategy, passes=1,
                            edges=list(range(args.edges)))
    if args.alpha:
        optimize_alpha(engine, PARTITION_SCHEDULE[strategy])


def _cmd_simulate(args: argparse.Namespace) -> int:
    from .plk import write_newick, write_phylip
    from .seqgen import simulated_dataset

    dataset = simulated_dataset(
        args.taxa, args.sites, args.partition_length, seed=args.seed
    )
    prefix = Path(args.out)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    (prefix.with_suffix(".phy")).write_text(write_phylip(dataset.alignment))
    part_lines = [
        f"DNA, {p.name} = {p.ranges[0][0] + 1}-{p.ranges[0][1]}"
        for p in dataset.scheme
    ]
    (prefix.with_suffix(".part")).write_text("\n".join(part_lines) + "\n")
    (prefix.with_suffix(".nwk")).write_text(
        write_newick(dataset.tree, dataset.true_lengths) + "\n"
    )
    print(f"wrote {prefix}.phy ({args.taxa} taxa x {args.sites} sites), "
          f"{prefix}.part ({dataset.n_partitions} partitions), {prefix}.nwk")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    import json

    from .core import (
        PartitionedEngine,
        TraceRecorder,
        engine_from_checkpoint,
        optimize_model,
    )
    from .plk import parse_newick, read_partitioned_alignment, write_newick
    from .search import stepwise_addition_tree, tree_search

    # The rows follow the leaf order of the checkpoint's or the given tree.
    state = taxa = lengths = None
    if args.resume:
        state = json.loads(Path(args.resume).read_text())
        taxa = state["taxa"]
    elif args.tree:
        tree, lengths = parse_newick(Path(args.tree).read_text())
        taxa = tree.taxa
    try:
        data = read_partitioned_alignment(args.alignment, args.partitions, taxa)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"alignment: {data.n_taxa} taxa x {data.alignment.n_sites} sites")
    print(f"partitions: {data.n_partitions}, distinct patterns: {data.n_patterns}")

    recorder = TraceRecorder()
    if state is not None:
        engine = engine_from_checkpoint(data, state)
        engine.recorder = recorder
        tree = engine.tree
        print(f"resumed from checkpoint {args.resume}")
    else:
        if taxa is None:
            rng = np.random.default_rng(args.seed)
            tree = stepwise_addition_tree(data.alignment, rng)
            print("starting tree: randomized stepwise-addition parsimony")
        engine = PartitionedEngine(
            data,
            tree,
            branch_mode=args.branch_mode,
            initial_lengths=lengths,
            recorder=recorder,
        )
    t0 = time.perf_counter()
    if args.search:
        result = tree_search(
            engine, strategy=args.strategy, radius=args.radius,
            max_rounds=args.rounds,
        )
        lnl = result.loglikelihood
        print(f"search: {result.rounds} rounds, "
              f"{result.accepted_moves}/{result.evaluated_moves} moves accepted")
    else:
        lnl = optimize_model(engine, strategy=args.strategy, max_rounds=args.rounds)
    elapsed = time.perf_counter() - t0
    print(f"final log-likelihood: {lnl:.4f}   ({elapsed:.1f}s, "
          f"strategy={args.strategy}, branch_mode={args.branch_mode})")

    for i, part in enumerate(engine.parts):
        print(f"  partition {data.scheme[i].name}: alpha={part.alpha:.4f} "
              f"tree-length={part.branch_lengths.sum():.4f}")

    if args.trace_summary:
        trace = recorder.finalize(engine.pattern_counts(), engine.states())
        print(f"schedule: {trace.n_regions} parallel regions, "
              f"op totals {trace.op_totals()}")

    if args.checkpoint:
        from .core import save_checkpoint

        save_checkpoint(engine, args.checkpoint)
        print(f"wrote checkpoint {args.checkpoint}")

    if args.out_tree:
        Path(args.out_tree).write_text(
            write_newick(tree, engine.parts[0].branch_lengths) + "\n"
        )
        print(f"wrote {args.out_tree}")
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    from .bench import capture_experiment
    from .simmachine import PLATFORMS, simulate_trace

    traces = {}
    for strategy in ("old", "new"):
        print(f"capturing {args.dataset} {args.analysis} {strategy} "
              f"(cached after first run) ...")
        traces[strategy] = capture_experiment(
            args.dataset, args.analysis, strategy,
            max_candidates=args.candidates,
        )
    header = f"{'platform':<12} {'threads':>7} {'old':>10} {'new':>10} {'old/new':>8}"
    print(header)
    print("-" * len(header))
    for machine in PLATFORMS.values():
        for t in args.threads:
            if t > machine.cores:
                continue
            old = simulate_trace(traces["old"], machine, t, args.distribution)
            new = simulate_trace(traces["new"], machine, t, args.distribution)
            print(f"{machine.name:<12} {t:>7} {old.total_seconds:>10.2f} "
                  f"{new.total_seconds:>10.2f} "
                  f"{old.total_seconds / new.total_seconds:>8.2f}")
    return 0




def _cmd_profile(args: argparse.Namespace) -> int:
    import json

    from .perf import Profiler, compare_decompositions, compare_strategies
    from .seqgen import profiling_workload

    print(
        f"profiling {args.partitions} partitions x "
        f"~{max(args.sites // args.partitions, 1)} sites, "
        f"{args.workers} workers, {args.edges} branches"
        + (", alpha" if args.alpha else "")
        + (", warmup pass" if args.warmup else "")
        + (", live plane" if args.live else "")
    )
    workload = profiling_workload(args.taxa, args.sites, args.partitions, args.seed)
    sites = workload[0].scheme.n_sites
    profiles, lives = {}, {}
    for strategy in BRANCH_STRATEGIES:
        live = None
        if args.live:
            from .obs import LiveTelemetry

            live = lives[strategy] = LiveTelemetry(events_path=args.events)
        profiler = Profiler(meta={
            "strategy": strategy, "taxa": args.taxa, "sites": sites,
            "partitions": args.partitions, "edges": args.edges,
            "seed": args.seed, "warmup": bool(args.warmup),
        })
        with _team(args, workload, args.distribution,
                   profiler=profiler, live=live) as team:
            if args.warmup:
                # Untimed pass absorbs worker start-up / allocator / cache
                # warm-up; the measured pass then starts from the warmed
                # (partially optimized) state.
                _run_pass(team, args, strategy)
                profiler.reset()
            _run_pass(team, args, strategy)
            stats = team.comms_stats()
        prof = profiles[strategy] = profiler.profile()
        prof.meta.update(stats)
        print(f"\n{strategy}PAR\n{prof.summary()}")
        pipe = prof.meta["pipe_tx_bytes"] + prof.meta["pipe_rx_bytes"]
        print(f"  pipe traffic: {pipe} B")
        if live is not None:
            print(f"  live: imbalance {live.imbalance():.3f}, "
                  f"{len(live.recorder)} flight events buffered")
    print("\n" + compare_strategies(profiles["old"], profiles["new"]).summary())
    print("\n" + compare_decompositions(
        profiles["new"], profiles["tree"], labels=("new", "tree")).summary())

    if args.prom and "new" in lives:
        out = Path(args.prom)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(lives["new"].prometheus())
        print(f"wrote {out}")
    if args.events:
        print(f"event stream appended to {args.events}")

    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(
            {s: p.to_dict() for s, p in profiles.items()}, indent=2
        ) + "\n")
        print(f"wrote {out}")
    return 0


def _cmd_timeline(args: argparse.Namespace) -> int:
    import json

    from .obs import (
        ConvergenceTelemetry,
        MetricsRegistry,
        Tracer,
        ascii_timeline,
        profile_run_config,
        replay_profile,
        tracer_to_chrome,
        validate_chrome_trace,
        write_chrome_trace,
    )
    from .perf import Profiler, RunProfile

    if args.profile_json:
        payload = json.loads(Path(args.profile_json).read_text())
        if "records" in payload:
            profiles = {payload.get("meta", {}).get("strategy", "run"):
                        RunProfile.from_dict(payload)}
        else:
            profiles = {k: RunProfile.from_dict(v) for k, v in payload.items()}
        key = args.strategy if args.strategy in profiles else next(iter(profiles))
        profile = profiles[key]
        print(f"timeline of {args.profile_json} [{key}]: "
              f"{profile.n_regions} regions, {profile.n_workers} "
              f"{profile.backend} workers")
        tracer = replay_profile(profile)
    else:
        from .seqgen import profiling_workload

        workload = profiling_workload(args.taxa, args.sites, args.partitions,
                                      args.seed)
        tracer = Tracer()
        metrics = MetricsRegistry()
        telemetry = ConvergenceTelemetry()
        profiler = Profiler(meta={"strategy": args.strategy})
        print(
            f"tracing {args.partitions} partitions, {args.workers} "
            f"workers, {args.edges} branches, "
            f"strategy={args.strategy}"
        )
        with _team(args, workload, args.distribution, profiler=profiler,
                   tracer=tracer, metrics=metrics, telemetry=telemetry) as team:
            _run_pass(team, args, args.strategy)
        profile = profiler.profile()
        snap = metrics.snapshot()
        counts = {
            name.removeprefix("broadcasts."): int(inst["value"])
            for name, inst in snap.items()
            if name.startswith("broadcasts.") and name != "broadcasts.total"
        }
        total = int(snap.get("broadcasts.total", {}).get("value", 0))
        n_cmds = int(snap.get("commands.total", {}).get("value", 0))
        print(f"broadcasts: {total} total  "
              + "  ".join(f"{k}={v}" for k, v in sorted(counts.items())))
        if total:
            print(f"commands: {n_cmds} over {total} barriers "
                  f"({n_cmds / total:.2f} commands/barrier)")
        waits = snap.get("barrier_wait_seconds")
        if waits and waits["count"]:
            print(f"barrier wait: n={waits['count']} "
                  f"mean={waits['mean']*1e6:.1f}us max={waits['max']*1e6:.1f}us")
        print(telemetry.summary())

    print(ascii_timeline(tracer, width=args.width))
    events = tracer_to_chrome(tracer, run_config=profile_run_config(profile))
    validate_chrome_trace(events)
    out = write_chrome_trace(args.out, events)
    lanes = sorted({ev["tid"] for ev in events if ev.get("ph") == "X"})
    print(f"wrote {out}: {len(events)} events across {len(lanes)} lanes "
          "(Perfetto / chrome://tracing compatible)")
    return 0


def _cmd_balance(args: argparse.Namespace) -> int:
    from .core import PartitionedEngine, TraceRecorder
    from .parallel import DISTRIBUTIONS
    from .perf import Profiler
    from .seqgen import profiling_workload
    from .simmachine import get_platform, simulate_trace

    try:
        machine = get_platform(args.platform)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    if args.workers > machine.cores:
        print(f"error: {machine.name} has {machine.cores} cores; cannot "
              f"predict {args.workers} threads", file=sys.stderr)
        return 2

    workload = profiling_workload(args.taxa, args.sites, args.partitions, args.seed)
    data, tree, lengths, models, alphas = workload
    print(f"balance study: {data.n_partitions} partitions x "
          f"~{max(args.sites // args.partitions, 1)} sites, "
          f"{args.workers} workers, {args.edges} branches, "
          f"strategy={args.strategy}, platform={machine.name}")

    # Capture the schedule once with a one-process run of the same pass
    # the team executes; every policy is then predicted from this trace.
    recorder = TraceRecorder()
    engine = PartitionedEngine(
        data, tree.copy(), models=list(models), alphas=list(alphas),
        initial_lengths=lengths, recorder=recorder,
    )
    _run_pass(engine, args, args.strategy)
    trace = recorder.finalize(engine.pattern_counts(), engine.states())

    def fmt_busy(busy):
        return " ".join(f"{b * 1e3:8.2f}" for b in busy)

    rows = []
    for policy in DISTRIBUTIONS:
        sim = simulate_trace(trace, machine, args.workers, policy)
        profiler = Profiler(meta={"policy": policy, "seed": args.seed})
        with _team(args, workload, policy, profiler=profiler) as team:
            _run_pass(team, args, args.strategy)
        prof = profiler.profile()
        rows.append((policy, sim.imbalance, prof.imbalance))
        print(f"\n== {policy} ==")
        print(f"  predicted ({machine.name} T={args.workers}) "
              f"busy/thread [ms]: {fmt_busy(sim.busy_seconds)}   "
              f"imbalance {sim.imbalance:.3f}")
        print(f"  measured  (processes x{args.workers}) "
              f"busy/thread [ms]: {fmt_busy(prof.busy_seconds)}   "
              f"imbalance {prof.imbalance:.3f}")

    header = f"\n{'policy':<10} {'predicted':>10} {'measured':>10}"
    print(header)
    print("-" * (len(header) - 1))
    for policy, pred, meas in rows:
        print(f"{policy:<10} {pred:>10.3f} {meas:>10.3f}")
    print("(imbalance ratio = max/mean per-thread busy time; 1.000 = perfect)")

    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    from .obs.live import render_dashboard, sample_plane

    clear = "\x1b[2J\x1b[H" if sys.stdout.isatty() else ""

    if args.plane:
        # Attach mode: observe another process's run by segment name
        # (printed by any --live run).  The attached plane is never
        # unlinked — close() only unmaps.
        from .parallel.shm import WorkerStatsPlane

        if args.frames < 1:
            print("error: --plane requires --frames >= 1", file=sys.stderr)
            return 2
        try:
            plane = WorkerStatsPlane.attach(args.plane)
        except (FileNotFoundError, ValueError) as exc:
            print(f"error: cannot attach {args.plane!r}: {exc}", file=sys.stderr)
            return 2
        try:
            for frame in range(args.frames):
                print(clear + render_dashboard(
                    sample_plane(plane), width=args.width
                ), flush=True)
                if frame + 1 < args.frames:
                    time.sleep(args.interval)
                    if not clear:
                        print()
        finally:
            plane.close()
        return 0

    import threading

    from .obs import LiveTelemetry, MetricsRegistry
    from .parallel import WorkerError
    from .seqgen import profiling_workload

    workload = profiling_workload(args.taxa, args.sites, args.partitions, args.seed)
    live = LiveTelemetry(stall_threshold=args.stall_threshold)
    failures: list[BaseException] = []

    def run(team) -> None:
        try:
            _run_pass(team, args, "new")
        except BaseException as exc:  # noqa: BLE001 - reported after join
            failures.append(exc)

    with _team(args, workload, args.distribution,
               metrics=MetricsRegistry(), live=live) as team:
        print(f"live plane segment: {live.plane.name}  "
              f"(attach with: repro top --plane {live.plane.name} "
              "--frames N)")
        runner = threading.Thread(target=run, args=(team,), daemon=True)
        runner.start()
        frames = 0
        while runner.is_alive() and (args.frames == 0 or frames < args.frames):
            print(clear + live.dashboard(width=args.width), flush=True)
            if not clear:
                print()
            frames += 1
            runner.join(timeout=args.interval)
        runner.join()
    # Final frame from the rows captured at close() — the just-recorded
    # run stays renderable after the team is gone.
    print(clear + live.dashboard(width=args.width), flush=True)
    if failures:
        exc = failures[0]
        rank = getattr(exc, "rank", None)
        print(f"workload failed: {exc}", file=sys.stderr)
        if isinstance(exc, WorkerError) and live.last_postmortem:
            print(f"post-mortem dump: {live.last_postmortem} (rank {rank})",
                  file=sys.stderr)
        return 1
    print(f"done: imbalance {live.imbalance():.3f}, "
          f"{len(live.recorder)} flight events buffered")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .serve.daemon import LikelihoodService, ServiceConfig, serve_forever

    try:
        config = ServiceConfig(
            workers=args.workers,
            distribution=args.distribution,
            executors=args.executors,
            pool_capacity=args.pool_capacity,
            cache_bytes=args.cache_bytes,
            batch_limit=args.batch_limit,
            allow_chaos=args.allow_chaos,
            live=args.live,
            postmortem_dir=args.postmortem_dir,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    service = LikelihoodService(config)
    print(f"repro serve: {args.executors} executors, pool capacity "
          f"{args.pool_capacity}, {args.workers}-worker teams; "
          f"listening on {args.socket}",
          flush=True)
    serve_forever(service, args.socket)
    print("repro serve: shut down")
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    import json

    from .serve.client import SocketClient

    with SocketClient(args.socket) as client:
        if args.op == "ping":
            print(json.dumps(client.ping()))
            return 0
        if args.op == "stats":
            print(json.dumps(client.stats(), indent=2))
            return 0
        if args.op == "metrics":
            print(client.metrics(), end="")
            return 0
        if args.op == "shutdown":
            client.shutdown()
            print("shutdown requested")
            return 0
        if args.spec:
            spec = json.loads(args.spec)
        else:
            spec = {
                "op": args.op,
                "dataset": {
                    "kind": "simulated",
                    "taxa": args.taxa,
                    "sites": args.sites,
                    "partitions": args.partitions,
                    "seed": args.seed,
                },
            }
            if args.op == "optimize_branches":
                spec["edges"] = args.edges if args.edges else [0]
        job_id = client.submit(spec, tenant=args.tenant,
                               priority=args.priority, timeout=args.timeout)
        view = client.result(job_id, wait=args.wait)
        print(json.dumps(view, indent=2))
        return 0 if view.get("state") == "done" else 1


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command in _TEAM_COMMANDS:
        error = _validate_workload(args)
        if error:
            print(f"error: {error}", file=sys.stderr)
            return 2
    handlers = {
        "simulate": _cmd_simulate,
        "analyze": _cmd_analyze,
        "replay": _cmd_replay,
        "profile": _cmd_profile,
        "balance": _cmd_balance,
        "timeline": _cmd_timeline,
        "top": _cmd_top,
        "serve": _cmd_serve,
        "submit": _cmd_submit,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
