"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


def run_cli(capsys, *argv) -> str:
    assert main(list(argv)) == 0
    return capsys.readouterr().out


class TestList:
    def test_lists_registries(self, capsys):
        out = run_cli(capsys, "list")
        assert "freqtier" in out
        assert "cdn" in out
        assert "gap-bfs" in out

    def test_json_output(self, capsys):
        out = run_cli(capsys, "list", "--json")
        data = json.loads(out)
        assert "autonuma" in data["policies"]
        assert "xgboost" in data["workloads"]

    def test_policies_are_the_registry_names(self, capsys):
        from repro.core.parallel import PolicySpec

        data = json.loads(run_cli(capsys, "list", "--json"))
        assert data["policies"] == PolicySpec.names()
        assert "alllocal" in data["policies"]


class TestRun:
    def test_basic_run(self, capsys):
        out = run_cli(
            capsys,
            "run",
            "--workload",
            "zipf",
            "--policy",
            "freqtier",
            "--batches",
            "10",
            "--local-fraction",
            "0.1",
        )
        assert "hit_ratio" in out

    def test_json_run_with_baseline(self, capsys):
        out = run_cli(
            capsys,
            "run",
            "--workload",
            "zipf",
            "--policy",
            "static",
            "--batches",
            "5",
            "--baseline",
            "--json",
        )
        data = json.loads(out)
        assert data["policy"] == "Static"
        assert 0.0 < data["pct_all_local_throughput"] <= 1.001

    def test_alllocal_runs_the_all_local_machine(self, capsys):
        out = run_cli(
            capsys,
            "run",
            "--workload",
            "zipf",
            "--policy",
            "alllocal",
            "--batches",
            "20",
            "--baseline",
            "--json",
        )
        data = json.loads(out)
        assert data["policy"] == "AllLocal"
        assert data["hit_ratio"] == 1.0
        assert data["pct_all_local_throughput"] == 1.0

    @pytest.mark.parametrize("flag", ["--checkpoint-dir", "--resume"])
    def test_alllocal_refuses_checkpoints(self, capsys, tmp_path, flag):
        argv = ["run", "--workload", "zipf", "--policy", "alllocal"]
        extra = [flag, str(tmp_path)] if flag == "--checkpoint-dir" else [flag]
        with pytest.raises(SystemExit, match="alllocal .* does not checkpoint"):
            main([*argv, "--batches", "2", *extra])
        assert not any(tmp_path.iterdir())

    def test_unknown_policy_rejected(self):
        with pytest.raises(SystemExit):
            main(
                [
                    "run",
                    "--workload",
                    "zipf",
                    "--policy",
                    "nope",
                    "--batches",
                    "2",
                ]
            )

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            main(
                [
                    "run",
                    "--workload",
                    "nope",
                    "--policy",
                    "static",
                    "--batches",
                    "2",
                ]
            )

    def test_cxl2_flag(self, capsys):
        out = run_cli(
            capsys,
            "run",
            "--workload",
            "zipf",
            "--policy",
            "static",
            "--batches",
            "5",
            "--cxl",
            "2",
            "--json",
        )
        assert json.loads(out)["workload"] == "synthetic-zipf"


class TestCompare:
    def test_default_lineup(self, capsys):
        out = run_cli(
            capsys,
            "compare",
            "--workload",
            "zipf",
            "--batches",
            "8",
            "--policies",
            "freqtier,static",
        )
        assert "AllLocal" in out
        assert "freqtier" in out
        assert "static" in out

    def test_json(self, capsys):
        out = run_cli(
            capsys,
            "compare",
            "--workload",
            "zipf",
            "--batches",
            "5",
            "--policies",
            "static",
            "--json",
        )
        data = json.loads(out)
        assert set(data) == {"AllLocal", "static"}

    def test_alllocal_is_the_baseline_cell(self, capsys):
        out = run_cli(
            capsys,
            "compare",
            "--workload",
            "zipf",
            "--batches",
            "5",
            "--policies",
            "alllocal,static",
            "--json",
        )
        data = json.loads(out)
        assert data["alllocal"] == data["AllLocal"]
        assert data["alllocal"]["hit_ratio"] == 1.0
        assert data["static"]["hit_ratio"] < 1.0


class TestSweep:
    def test_sweep_rows(self, capsys):
        out = run_cli(
            capsys,
            "sweep",
            "--workload",
            "zipf",
            "--policy",
            "static",
            "--batches",
            "5",
            "--fractions",
            "0.05,0.2",
        )
        assert "5.00%" in out
        assert "20.00%" in out

    def test_alllocal_sweeps_the_baseline_cell(self, capsys):
        out = run_cli(
            capsys,
            "sweep",
            "--workload",
            "zipf",
            "--policy",
            "alllocal",
            "--batches",
            "5",
            "--fractions",
            "0.05",
            "--json",
        )
        data = json.loads(out)
        assert data["0.05"]["policy"] == "AllLocal"
        assert data["0.05"]["hit_ratio"] == 1.0


class TestCompareReport:
    def test_report_written(self, capsys, tmp_path):
        report_path = tmp_path / "report.md"
        run_cli(
            capsys,
            "compare",
            "--workload",
            "zipf",
            "--batches",
            "5",
            "--policies",
            "static",
            "--report",
            str(report_path),
        )
        text = report_path.read_text()
        assert "# zipf @" in text
        assert "## Traffic breakdown" in text


class TestRecordReplay:
    def test_record_then_replay(self, capsys, tmp_path):
        trace_path = str(tmp_path / "t.trace")
        out = run_cli(
            capsys,
            "record",
            "--workload",
            "zipf",
            "--batches",
            "4",
            "--out",
            trace_path,
            "--json",
        )
        rec = json.loads(out)
        assert rec["batches"] == 4

        out = run_cli(
            capsys,
            "replay",
            "--trace",
            trace_path,
            "--policy",
            "static",
            "--json",
        )
        data = json.loads(out)
        assert data["workload"].startswith("trace:")

    def test_replay_alllocal_runs_the_all_local_machine(self, capsys, tmp_path):
        trace_path = str(tmp_path / "t.trace")
        run_cli(
            capsys, "record", "--workload", "zipf", "--batches", "4",
            "--out", trace_path,
        )
        out = run_cli(
            capsys, "replay", "--trace", trace_path, "--policy", "alllocal",
            "--json",
        )
        data = json.loads(out)
        assert data["workload"].startswith("trace:")
        assert data["hit_ratio"] == 1.0

    def test_unbounded_record_stops_at_memory_budget(
        self, capsys, tmp_path, monkeypatch
    ):
        import repro.workloads.recording as recording_mod

        monkeypatch.setattr(recording_mod, "_memory_budget", lambda: 1_000_000)
        trace_path = tmp_path / "endless.trace"
        argv = ["record", "--workload", "zipf", "--batches", "0"]
        assert main([*argv, "--out", str(trace_path)]) == 1
        assert "memory budget" in capsys.readouterr().err
        assert not trace_path.exists()

    def test_unbounded_record_keeps_a_finite_stream_whole(
        self, capsys, tmp_path
    ):
        trace_path = str(tmp_path / "xgboost.trace")
        out = run_cli(
            capsys,
            "record",
            "--workload",
            "xgboost",
            "--batches",
            "0",
            "--out",
            trace_path,
            "--json",
        )
        # 80 boosting rounds of one batch per tree level (depth 6).
        assert json.loads(out)["batches"] == 480


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    @pytest.mark.parametrize(
        "argv, max_batches",
        [
            (["run", "--workload", "cdn", "--policy", "tpp"], 300),
            (["compare", "--workload", "cdn"], 300),
            (["sweep", "--workload", "cdn", "--policy", "tpp"], 300),
            (["record", "--workload", "cdn", "--out", "x.trace"], 300),
            (["serve", "--workload", "cdn", "--policy", "tpp"], None),
            (["replay", "--trace", "x.trace", "--policy", "tpp"], None),
        ],
        ids=lambda v: v[0] if isinstance(v, list) else str(v),
    )
    def test_every_cell_subcommand_defaults_to_the_paper_cell(
        self, argv, max_batches
    ):
        from repro import paper
        from repro.cli import _config_from_args

        args = build_parser().parse_args(argv)
        assert _config_from_args(args) == paper.config(
            "cachelib", max_batches=max_batches, seed=0
        )
        assert args.json is False

    def test_nonpositive_batches_mean_no_limit(self):
        from repro.cli import _config_from_args

        for batches in ("0", "-1"):
            args = build_parser().parse_args(
                ["run", "--workload", "cdn", "--policy", "tpp", "--batches", batches]
            )
            assert _config_from_args(args).max_batches is None


class TestTracing:
    def run_traced(self, capsys, tmp_path) -> str:
        trace_path = str(tmp_path / "run.jsonl")
        run_cli(
            capsys,
            "run",
            "--workload",
            "zipf",
            "--policy",
            "freqtier",
            "--batches",
            "40",
            "--trace",
            trace_path,
        )
        return trace_path

    def test_run_trace_is_schema_valid(self, capsys, tmp_path):
        from repro.analysis.tracetool import validate_trace

        validation = validate_trace(self.run_traced(capsys, tmp_path))
        assert validation.ok
        assert validation.num_lines > 0
        types = {e["type"] for e in validation.events}
        assert "batch" in types
        assert "state_transition" in types
        assert "promotion" in types

    def test_trace_validate_subcommand(self, capsys, tmp_path):
        trace_path = self.run_traced(capsys, tmp_path)
        out = run_cli(capsys, "trace", "validate", trace_path)
        assert "OK" in out

    def test_trace_validate_fails_on_bad_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"type": "nope", "t_ns": 0.0, "seq": 0}\n')
        assert main(["trace", "validate", str(bad)]) == 1

    def test_trace_summarize_subcommand(self, capsys, tmp_path):
        trace_path = self.run_traced(capsys, tmp_path)
        out = run_cli(capsys, "trace", "summarize", trace_path)
        assert "events:" in out
        assert "state/level timeline" in out

    def test_trace_summarize_json(self, capsys, tmp_path):
        trace_path = self.run_traced(capsys, tmp_path)
        out = run_cli(capsys, "trace", "summarize", trace_path, "--json")
        data = json.loads(out)
        assert data["num_events"] > 0
        assert data["event_counts"]["batch"] == 40

    def test_compare_writes_per_policy_traces(self, capsys, tmp_path):
        from repro.analysis.tracetool import validate_trace

        trace_dir = tmp_path / "traces"
        run_cli(
            capsys,
            "compare",
            "--workload",
            "zipf",
            "--batches",
            "5",
            "--policies",
            "freqtier,static",
            "--trace",
            str(trace_dir),
        )
        for name in ("AllLocal", "freqtier", "static"):
            validation = validate_trace(trace_dir / f"{name}.jsonl")
            assert validation.ok, name
            assert validation.num_lines > 0, name


class TestCheckpointCLI:
    def _run_json(self, capsys, *extra) -> dict:
        out = run_cli(
            capsys,
            "run",
            "--workload",
            "zipf",
            "--policy",
            "freqtier",
            "--local-fraction",
            "0.1",
            "--json",
            *extra,
        )
        return json.loads(out)

    def test_kill_resume_matches_uninterrupted_run(self, capsys, tmp_path):
        ckpt = str(tmp_path / "ck")
        reference = self._run_json(capsys, "--batches", "30")
        # "Kill" after 14 batches (checkpoints at 5 and 10), then resume.
        self._run_json(
            capsys,
            "--batches",
            "14",
            "--checkpoint-dir",
            ckpt,
            "--checkpoint-every",
            "5",
        )
        resumed = self._run_json(
            capsys,
            "--batches",
            "30",
            "--checkpoint-dir",
            ckpt,
            "--checkpoint-every",
            "5",
            "--resume",
        )
        assert resumed == reference

    def test_checkpoint_inspect_reports_generations(self, capsys, tmp_path):
        ckpt = str(tmp_path / "ck")
        self._run_json(
            capsys,
            "--batches",
            "10",
            "--checkpoint-dir",
            ckpt,
            "--checkpoint-every",
            "5",
        )
        out = run_cli(capsys, "checkpoint", "inspect", ckpt, "--json")
        data = json.loads(out)
        assert data["resumable"] is True
        assert len(data["generations"]) == 2
        assert all(g["valid"] for g in data["generations"])

    def test_serve_refuses_a_directory_of_an_earlier_run(
        self, capsys, tmp_path
    ):
        serve = [
            "serve", "--workload", "zipf", "--policy", "freqtier",
            "--offers", "4", "--checkpoint-dir", str(tmp_path),
            "--checkpoint-every", "2", "--json",
        ]
        run_cli(capsys, *serve)
        files = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        with pytest.raises(SystemExit) as info:
            main(serve)
        message = str(info.value.code)
        assert str(tmp_path) in message and "already holds" in message
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == files
        assert run_cli(capsys, "checkpoint", "inspect", str(tmp_path))

    def test_inspect_missing_directory_fails(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["checkpoint", "inspect", str(tmp_path / "nope")])

    def test_interrupted_compare_resumes_under_other_jobs(
        self, capsys, tmp_path
    ):
        """A checkpointed ``compare --jobs 2`` that crashes mid-run,
        re-run with ``--jobs 1``, equals the uninterrupted sweep: its
        cells checkpoint the live generator's position, never a shared
        stream's, so either path resumes them."""
        common = [
            "compare", "--workload", "zipf", "--batches", "30",
            "--policies", "freqtier,tpp", "--seed", "5", "--json",
        ]
        plan = {"migration_fail_prob": 0.05, "seed": 5}
        reference = json.loads(
            run_cli(capsys, *common, "--jobs", "2", "--faults", json.dumps(plan))
        )
        crashing = [
            *common,
            "--checkpoint-dir", str(tmp_path / "ck"),
            "--checkpoint-every", "5",
            "--faults", json.dumps({**plan, "crash_after_batches": 18}),
            "--keep-going", "--ok-on-partial",
        ]
        # Every cell crashes after its snapshot at batch 15.
        assert json.loads(run_cli(capsys, *crashing, "--jobs", "2")) == {}
        resumed = json.loads(run_cli(capsys, *crashing, "--jobs", "1"))
        # AllLocal cells never checkpoint, so the crash recurs there.
        assert resumed == {k: reference[k] for k in ("freqtier", "tpp")}

    def test_resume_requires_checkpoint_dir(self):
        with pytest.raises(SystemExit, match="checkpoint-dir"):
            main(
                [
                    "run",
                    "--workload",
                    "zipf",
                    "--policy",
                    "freqtier",
                    "--batches",
                    "5",
                    "--resume",
                ]
            )


class TestPartialFailureExitCodes:
    CRASH = '{"crash_after_batches": 3}'

    def _compare_argv(self, *extra) -> list:
        return [
            "compare",
            "--workload",
            "zipf",
            "--policies",
            "freqtier",
            "--batches",
            "8",
            "--keep-going",
            "--faults",
            self.CRASH,
            *extra,
        ]

    def test_compare_with_failed_cells_exits_1(self, capsys):
        assert main(self._compare_argv()) == 1
        assert "FAILED" in capsys.readouterr().err

    def test_ok_on_partial_restores_exit_0(self, capsys):
        assert main(self._compare_argv("--ok-on-partial")) == 0

    def test_sweep_with_failed_cells_exits_1(self, capsys):
        argv = [
            "sweep",
            "--workload",
            "zipf",
            "--policy",
            "freqtier",
            "--fractions",
            "0.1",
            "--batches",
            "8",
            "--keep-going",
            "--faults",
            self.CRASH,
        ]
        assert main(argv) == 1
        assert main(argv + ["--ok-on-partial"]) == 0

    def test_fault_free_compare_still_exits_0(self, capsys):
        assert (
            main(
                [
                    "compare",
                    "--workload",
                    "zipf",
                    "--policies",
                    "static",
                    "--batches",
                    "5",
                ]
            )
            == 0
        )
