"""Command-line interface tests (in-process main() invocations)."""
import pytest

from repro.cli import build_parser, main


@pytest.fixture()
def dataset_files(tmp_path):
    rc = main(
        [
            "simulate",
            "--taxa", "8",
            "--sites", "900",
            "--partition-length", "300",
            "--seed", "5",
            "--out", str(tmp_path / "demo"),
        ]
    )
    assert rc == 0
    return tmp_path / "demo"


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_simulate_args(self):
        args = build_parser().parse_args(
            ["simulate", "--taxa", "10", "--sites", "100", "--out", "x"]
        )
        assert args.command == "simulate"
        assert args.partition_length == 1_000

    @pytest.mark.parametrize("argv", [
        ["perfcheck"],
        ["profile", "--backend", "processes"],
        ["serve", "--backend", "processes"],
        ["profile", "--distribution", "lpt"],
        ["replay", "--dataset", "r125_19839", "--distribution", "weighted"],
        ["serve", "--distribution", "lpt"],
        ["balance", "--rebalance"],
        ["balance", "--distribution", "cyclic"],
        *([command, *flag] for command in ("timeline", "balance", "top")
          for flag in (["--live"], ["--prom", "m.prom"], ["--events", "e.jsonl"])),
    ])
    def test_removed_team_options_rejected(self, argv, capsys):
        """One worker team: no ``--backend`` flag, no ``perfcheck``; two
        distribution policies: no ``weighted``/``lpt``, no ``--rebalance``,
        and ``balance`` (which runs both) takes no ``--distribution``;
        the live-plane flags exist only on ``profile``, which reads them."""
        with pytest.raises(SystemExit) as exc_info:
            build_parser().parse_args(argv)
        assert exc_info.value.code == 2

    def test_option_count(self):
        """Every flag is declared only where its command reads it."""
        import argparse

        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        n_options = sum(
            1 for command in sub.choices.values() for action in command._actions
            if action.option_strings and not isinstance(action, argparse._HelpAction)
        )
        assert n_options == 92

    def test_analyze_defaults(self):
        args = build_parser().parse_args(["analyze", "--alignment", "a.phy"])
        assert args.strategy == "tree"
        assert args.branch_mode == "per_partition"
        assert not args.search


class TestSimulate(object):
    def test_writes_three_files(self, dataset_files):
        for suffix in (".phy", ".part", ".nwk"):
            assert dataset_files.with_suffix(suffix).exists()

    def test_outputs_parse_back(self, dataset_files):
        from repro.plk import parse_newick, parse_partition_file, parse_phylip

        aln = parse_phylip(dataset_files.with_suffix(".phy").read_text())
        assert aln.n_taxa == 8 and aln.n_sites == 900
        scheme = parse_partition_file(dataset_files.with_suffix(".part").read_text())
        assert len(scheme) == 3
        tree, lengths = parse_newick(dataset_files.with_suffix(".nwk").read_text())
        assert set(tree.taxa) == set(aln.taxa)


class TestAnalyze:
    def test_model_optimization(self, dataset_files, capsys, tmp_path):
        rc = main(
            [
                "analyze",
                "--alignment", str(dataset_files.with_suffix(".phy")),
                "--partitions", str(dataset_files.with_suffix(".part")),
                "--tree", str(dataset_files.with_suffix(".nwk")),
                "--rounds", "1",
                "--trace-summary",
                "--out-tree", str(tmp_path / "out.nwk"),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "final log-likelihood" in out
        assert "schedule:" in out
        assert (tmp_path / "out.nwk").exists()

    def test_search_with_parsimony_start(self, dataset_files, capsys):
        rc = main(
            [
                "analyze",
                "--alignment", str(dataset_files.with_suffix(".phy")),
                "--partitions", str(dataset_files.with_suffix(".part")),
                "--search",
                "--radius", "2",
                "--rounds", "1",
                "--strategy", "old",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "parsimony" in out
        assert "search:" in out

    def test_single_partition_default(self, dataset_files, capsys):
        rc = main(
            [
                "analyze",
                "--alignment", str(dataset_files.with_suffix(".phy")),
                "--tree", str(dataset_files.with_suffix(".nwk")),
                "--rounds", "1",
            ]
        )
        assert rc == 0
        assert "partitions: 1," in capsys.readouterr().out

    def test_taxa_mismatch_fails(self, dataset_files, tmp_path, capsys):
        (tmp_path / "bad.nwk").write_text("(x:1,y:1,z:1);\n")
        rc = main(
            [
                "analyze",
                "--alignment", str(dataset_files.with_suffix(".phy")),
                "--tree", str(tmp_path / "bad.nwk"),
            ]
        )
        assert rc == 2
        assert "error: tree and alignment taxa differ" in capsys.readouterr().err


class TestReplay:
    def test_replay_small(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "cache"))
        rc = main(
            [
                "replay",
                "--dataset", "d10_5000_p1000",
                "--analysis", "modelopt",
                "--threads", "1", "8",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "Nehalem" in out and "x4600" in out
        # improvement column present and >= 1 for 8 threads
        lines = [l for l in out.splitlines() if l.startswith("Nehalem") and " 8 " in l]
        assert lines


class TestProfile:
    def test_profile_writes_json_report(self, capsys, tmp_path):
        import json

        out_path = tmp_path / "profile.json"
        rc = main(
            [
                "profile",
                "--taxa", "8",
                "--sites", "600",
                "--partitions", "6",
                "--workers", "2",
                "--edges", "2",
                "--seed", "3",
                "--out", str(out_path),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "oldPAR" in out and "newPAR" in out
        assert "efficiency" in out
        payload = json.loads(out_path.read_text())
        assert set(payload) == {"old", "new", "tree"}
        for strategy, blob in payload.items():
            from repro.perf import RunProfile

            profile = RunProfile.from_dict(blob)
            assert profile.n_workers == 2
            assert profile.n_regions > 0
            assert profile.meta["strategy"] == strategy
        # oldPAR issues more region broadcasts than newPAR, and newPAR
        # more than the tree-wide schedule
        assert (len(payload["old"]["records"])
                > len(payload["new"]["records"])
                > len(payload["tree"]["records"]))

    def test_warmup_flag(self, capsys):
        rc = main(
            [
                "profile",
                "--taxa", "6", "--sites", "300", "--partitions", "3",
                "--workers", "2",
                "--edges", "2", "--warmup",
            ]
        )
        assert rc == 0
        assert "warmup pass" in capsys.readouterr().out

    def test_edges_exceeding_tree_rejected(self, capsys):
        # an 8-taxon unrooted tree has 13 branches; asking for more must
        # be a clean error, not a traceback
        rc = main(["profile", "--taxa", "8", "--edges", "99"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "13 branches" in err

    def test_tiny_taxa_rejected(self, capsys):
        rc = main(["profile", "--taxa", "3"])
        assert rc == 2
        assert "taxa" in capsys.readouterr().err


_TINY_WORKLOAD = [
    "--taxa", "6", "--sites", "300", "--partitions", "3",
    "--workers", "2", "--edges", "2",
]


class TestTimeline:
    def test_fresh_run_writes_valid_trace(self, capsys, tmp_path):
        import json

        from repro.obs import validate_chrome_trace

        out_path = tmp_path / "trace.json"
        rc = main(["timeline", *_TINY_WORKLOAD, "--out", str(out_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "master" in out and "worker 0" in out and "worker 1" in out
        assert "broadcasts:" in out
        assert "convergence telemetry" in out
        events = validate_chrome_trace(json.loads(out_path.read_text()))
        lanes = {ev["tid"] for ev in events if ev["ph"] == "X"}
        assert lanes == {0, 1, 2}  # master + one lane per worker

    def test_render_saved_profile(self, capsys, tmp_path):
        import json

        from repro.obs import validate_chrome_trace

        profile_path = tmp_path / "profile.json"
        rc = main(["profile", *_TINY_WORKLOAD, "--out", str(profile_path)])
        assert rc == 0
        capsys.readouterr()
        out_path = tmp_path / "trace.json"
        for strategy in ("old", "tree"):  # every schedule profile writes
            rc = main(
                [
                    "timeline",
                    "--profile", str(profile_path),
                    "--strategy", strategy,
                    "--out", str(out_path),
                ]
            )
            assert rc == 0
            out = capsys.readouterr().out
            assert f"[{strategy}]" in out and "worker 1" in out
            assert "across 3 lanes" in out
            events = validate_chrome_trace(json.loads(out_path.read_text()))
            config = next(e["args"] for e in events if e["name"] == "run_config")
            assert config["strategy"] == strategy


class TestCheckpointFlow:
    def test_checkpoint_and_resume(self, dataset_files, tmp_path, capsys):
        ckpt = tmp_path / "run.ckpt"
        rc = main(
            [
                "analyze",
                "--alignment", str(dataset_files.with_suffix(".phy")),
                "--partitions", str(dataset_files.with_suffix(".part")),
                "--tree", str(dataset_files.with_suffix(".nwk")),
                "--rounds", "1",
                "--checkpoint", str(ckpt),
            ]
        )
        assert rc == 0
        first = capsys.readouterr().out
        lnl_first = float(
            next(l for l in first.splitlines() if "final log-likelihood" in l)
            .split(":")[1].split()[0]
        )
        rc = main(
            [
                "analyze",
                "--alignment", str(dataset_files.with_suffix(".phy")),
                "--partitions", str(dataset_files.with_suffix(".part")),
                "--resume", str(ckpt),
                "--rounds", "1",
            ]
        )
        assert rc == 0
        second = capsys.readouterr().out
        assert "resumed from checkpoint" in second
        lnl_second = float(
            next(l for l in second.splitlines() if "final log-likelihood" in l)
            .split(":")[1].split()[0]
        )
        # resuming from an optimized state cannot be worse
        assert lnl_second >= lnl_first - 0.5
