"""Tests for the command-line interface."""

import json
from pathlib import Path

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_all_commands_parse(self):
        parser = build_parser()
        for argv in (
            ["list"],
            ["table1"],
            ["fig9"],
            ["fig5", "--duration", "60"],
            ["table4", "--samples", "500"],
            ["fig6-7", "--duration", "60"],
            ["fig10", "--densities", "10,40", "--sim-time", "45"],
            ["fig11a", "--densities", "20", "--runs", "2"],
            ["fig13", "--duration", "120", "--period", "40"],
            ["timing"],
            ["ablations", "--duration", "60"],
            ["serve", "--observers", "5", "--shards", "2"],
        ):
            args = parser.parse_args(argv)
            assert args.command == argv[0]

    def test_densities_parsing(self):
        parser = build_parser()
        args = parser.parse_args(["fig10", "--densities", "10,40,80"])
        assert args.densities == [10.0, 40.0, 80.0]

    def test_bad_densities_rejected(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["fig10", "--densities", "ten"])
        with pytest.raises(SystemExit):
            parser.parse_args(["fig10", "--densities", "-5"])

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_no_pairwise_engine_flags(self):
        # The engine's path follows the command (exact for experiments,
        # incremental for serve); no flag selects it.
        parser = build_parser()
        assert "--pairwise" not in parser.format_help()
        with pytest.raises(SystemExit):
            parser.parse_args(["--pairwise-incremental", "on", "list"])


class TestExecution:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig11a" in out
        assert "fig13" in out

    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Voiceprint" in out
        assert "Model-free" in out

    def test_fig9(self, capsys):
        assert main(["fig9"]) == 0
        out = capsys.readouterr().out
        assert "5" in out
        assert "warp path" in out

    def test_fig5_small(self, capsys):
        assert main(["fig5", "--duration", "30"]) == 0
        out = capsys.readouterr().out
        assert "stationary session 1" in out

    def test_fig13_small(self, capsys):
        assert main(["fig13", "--duration", "90", "--period", "45"]) == 0
        out = capsys.readouterr().out
        assert "campus" in out
        assert "highway" in out

    def test_serve_demo(self, capsys):
        assert (
            main(
                [
                    "serve",
                    "--observers", "4",
                    "--duration", "45",
                    "--shards", "2",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "serve summary" in out
        assert "beacons ingested" in out
        assert "drained cleanly" in out
        assert "ghost" in out  # confirmed Sybil clusters listed

    def test_serve_stdin_jsonl(self, capsys, monkeypatch):
        import io
        import json as json_mod

        lines = "\n".join(
            json_mod.dumps(
                {"observer": "v1", "identity": f"car{i % 3}",
                 "t": i * 0.1, "rssi": -70.0 + i % 5}
            )
            for i in range(600)
        )
        monkeypatch.setattr("sys.stdin", io.StringIO(lines))
        assert main(["serve", "--input", "-"]) == 0
        out = capsys.readouterr().out
        assert "beacons ingested" in out
        assert "600" in out

    def test_serve_missing_input_file_fails_cleanly(self):
        with pytest.raises(SystemExit):
            main(["serve", "--input", "/nonexistent/beacons.jsonl"])


class TestObservabilityFlags:
    def test_flags_parse_before_and_after_subcommand(self):
        parser = build_parser()
        before = parser.parse_args(["--metrics-out", "m.jsonl", "fig13"])
        after = parser.parse_args(["fig13", "--metrics-out", "m.jsonl"])
        assert before.metrics_out == after.metrics_out == "m.jsonl"
        assert before.command == after.command == "fig13"

    def test_flags_default_to_off(self):
        args = build_parser().parse_args(["list"])
        assert args.metrics_out is None
        assert args.trace_out is None
        assert args.log_level is None

    def test_bad_log_level_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["list", "--log-level", "LOUD"])

    def test_metrics_out_writes_valid_jsonl(self, tmp_path, capsys):
        metrics_path = tmp_path / "m.jsonl"
        assert (
            main(
                [
                    "fig13",
                    "--duration", "60",
                    "--period", "30",
                    "--metrics-out", str(metrics_path),
                ]
            )
            == 0
        )
        records = [
            json.loads(line)
            for line in metrics_path.read_text().splitlines()
        ]
        assert records, "metrics file must not be empty"
        names = {r["name"] for r in records}
        assert "detector.pairs_compared" in names
        assert "detector.dtw_cells" in names
        assert "sim.events_dispatched" in names
        by_name = {r["name"]: r for r in records}
        detect_ms = by_name["detector.detect_ms"]
        assert detect_ms["type"] == "histogram"
        assert detect_ms["count"] > 0
        # The end-of-run summary table is printed to stdout.
        out = capsys.readouterr().out
        assert "detector.pairs_compared" in out

    def test_telemetry_flags_parse_before_and_after_subcommand(self):
        parser = build_parser()
        before = parser.parse_args(
            ["--telemetry-port", "9110", "--snapshot-interval", "5", "fig13"]
        )
        after = parser.parse_args(
            ["fig13", "--telemetry-port", "9110", "--snapshot-interval", "5"]
        )
        assert before.telemetry_port == after.telemetry_port == 9110
        assert before.snapshot_interval == after.snapshot_interval == 5.0

    def test_telemetry_flags_default_to_off(self):
        args = build_parser().parse_args(["list"])
        assert args.telemetry_port is None
        assert args.snapshot_interval is None
        assert args.snapshot_out is None
        assert args.flight_recorder_out is None
        assert args.health_thresholds is None

    def test_health_thresholds_parsed_into_dataclass(self):
        args = build_parser().parse_args(
            ["list", "--health-thresholds", "silence=30,detect_ms=250"]
        )
        assert args.health_thresholds.max_silence_s == 30.0
        assert args.health_thresholds.max_detect_ms == 250.0

    def test_bad_health_thresholds_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["list", "--health-thresholds", "bogus=1"]
            )

    def test_telemetry_run_serves_and_snapshots(self, tmp_path, capsys):
        snapshot_path = tmp_path / "snap.jsonl"
        assert (
            main(
                [
                    "fig13",
                    "--duration", "60",
                    "--period", "30",
                    "--telemetry-port", "0",
                    "--snapshot-interval", "60",
                    "--snapshot-out", str(snapshot_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "[telemetry: http://127.0.0.1:" in out
        assert "health: ok" in out
        # close() takes a final snapshot even if the interval never fired.
        records = [
            json.loads(line)
            for line in snapshot_path.read_text().splitlines()
        ]
        assert records and records[-1]["type"] == "snapshot"
        assert "detector.pairs_compared" in records[-1]["counters"]

    def test_health_summary_reports_alerts(self, tmp_path, capsys):
        postmortem = tmp_path / "pm.jsonl"
        # detect_ms=0.0001 is impossibly tight: every detection alerts,
        # which must be reported and must dump a post-mortem bundle.
        assert (
            main(
                [
                    "fig13",
                    "--duration", "60",
                    "--period", "30",
                    "--health-thresholds", "detect_ms=0.0001",
                    "--flight-recorder-out", str(postmortem),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "health: ALERT" in out
        assert "[detect_latency]" in out
        assert "post-mortem bundle(s)" in out
        header = json.loads(postmortem.read_text().splitlines()[0])
        assert header["type"] == "postmortem"
        assert header["reason"] == "alert:detect_latency"

    def test_trace_out_writes_detection_spans(self, tmp_path):
        trace_path = tmp_path / "t.jsonl"
        assert (
            main(
                [
                    "fig13",
                    "--duration", "60",
                    "--period", "30",
                    "--trace-out", str(trace_path),
                ]
            )
            == 0
        )
        records = [
            json.loads(line) for line in trace_path.read_text().splitlines()
        ]
        roots = [r for r in records if r["parent_id"] is None]
        root_names = {r["name"] for r in roots}
        # Detection roots carry the phase children; the simulated drives
        # export their own "sim" roots (profiler phase coverage).
        assert {"detection", "sim"} <= root_names
        detection_root = next(r for r in roots if r["name"] == "detection")
        children = [
            r for r in records if r["parent_id"] == detection_root["span_id"]
        ]
        assert len(children) >= 3


class TestProfilingFlags:
    def test_flags_parse_before_and_after_subcommand(self):
        parser = build_parser()
        before = parser.parse_args(
            ["--profile", "--profile-hz", "50", "--profile-out", "p.c", "fig13"]
        )
        after = parser.parse_args(
            ["fig13", "--profile", "--profile-hz", "50", "--profile-out", "p.c"]
        )
        assert before.profile is after.profile is True
        assert before.profile_hz == after.profile_hz == 50.0
        assert before.profile_out == after.profile_out == "p.c"

    def test_flags_default_to_off(self):
        args = build_parser().parse_args(["list"])
        assert args.profile is False
        assert args.profile_hz is None
        assert args.profile_out is None
        assert args.profile_memory is False

    def test_unprofiled_run_starts_no_profiler_thread(self):
        import threading
        import tracemalloc

        from repro.obs.profiling import default_profiler

        assert main(["table1"]) == 0
        assert default_profiler() is None
        assert "repro-profiler" not in [t.name for t in threading.enumerate()]
        assert not tracemalloc.is_tracing()

    def test_profile_run_emits_tables_and_collapsed_file(
        self, tmp_path, capsys
    ):
        import threading

        from repro.obs.profiling import PHASES, default_profiler

        out_path = tmp_path / "profile.collapsed"
        assert (
            main(
                [
                    "fig13",
                    "--duration", "60",
                    "--period", "30",
                    "--profile",
                    "--profile-hz", "250",
                    "--profile-out", str(out_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "profile phases" in out
        assert "profile hotspots" in out
        assert f"-> {out_path}]" in out
        # Profiler torn down with the run.
        assert default_profiler() is None
        assert "repro-profiler" not in [t.name for t in threading.enumerate()]
        # Valid collapsed-stack lines, attributed to known phases.
        lines = out_path.read_text().splitlines()
        assert lines
        phases_seen = set()
        total = attributed = 0
        for line in lines:
            stack, _, count = line.rpartition(" ")
            root = stack.split(";", 1)[0]
            total += int(count)
            if root in PHASES:
                attributed += int(count)
                phases_seen.add(root)
            else:
                assert root == "other"
        assert attributed / total >= 0.9
        assert "sim" in phases_seen and "compare" in phases_seen

    def test_profile_out_indexes_instead_of_overwriting(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        out_path = tmp_path / "profile.collapsed"
        out_path.write_text("previous run\n")
        assert (
            main(
                [
                    "fig14",
                    "--duration", "30",
                    "--profile-hz", "250",  # implies --profile
                    "--profile-out", str(out_path),
                ]
            )
            == 0
        )
        assert out_path.read_text() == "previous run\n"
        assert (tmp_path / "profile.collapsed.1").exists()
        assert "profile.collapsed.1]" in capsys.readouterr().out

    def test_profile_memory_reports_per_phase_memory(
        self, tmp_path, capsys, monkeypatch
    ):
        import tracemalloc

        monkeypatch.chdir(tmp_path)
        assert (
            main(
                [
                    "fig14",
                    "--duration", "30",
                    "--profile-memory",  # implies --profile
                    "--profile-hz", "250",
                    "--profile-out", str(tmp_path / "p.collapsed"),
                ]
            )
            == 0
        )
        assert not tracemalloc.is_tracing()
        out = capsys.readouterr().out
        assert "peak KiB" in out
        assert "phase memory records" in out
        mem_lines = (tmp_path / "p.collapsed.memory.jsonl").read_text()
        records = [json.loads(line) for line in mem_lines.splitlines()]
        assert records
        assert all(r["type"] == "memory" for r in records)
        assert any(r["phase"] == "sim" for r in records)

    def test_profile_gauges_reach_the_metrics_output(self, tmp_path, capsys):
        metrics_path = tmp_path / "m.jsonl"
        assert (
            main(
                [
                    "fig14",
                    "--duration", "30",
                    "--profile",
                    "--profile-hz", "250",
                    "--profile-out", str(tmp_path / "p.collapsed"),
                    "--metrics-out", str(metrics_path),
                ]
            )
            == 0
        )
        records = [
            json.loads(line)
            for line in metrics_path.read_text().splitlines()
        ]
        names = {r["name"] for r in records}
        assert "pipeline.profile.samples" in names
        assert "pipeline.profile.attributed_ratio" in names


class TestAuditFlags:
    def test_flags_parse_before_and_after_subcommand(self):
        parser = build_parser()
        before = parser.parse_args(
            ["--audit-out", "a.jsonl", "--margin-epsilon", "0.1", "fig13"]
        )
        after = parser.parse_args(
            ["fig13", "--audit-out", "a.jsonl", "--margin-epsilon", "0.1"]
        )
        assert before.audit_out == after.audit_out == "a.jsonl"
        assert before.margin_epsilon == after.margin_epsilon == 0.1

    def test_flags_default_to_off(self):
        args = build_parser().parse_args(["list"])
        assert args.audit_out is None
        assert args.margin_epsilon is None

    def test_unaudited_run_installs_no_global_log(self):
        from repro.obs.audit import default_audit_log

        assert main(["table1"]) == 0
        assert default_audit_log() is None

    def test_audited_run_writes_log_and_footer(self, tmp_path, capsys):
        from repro.obs.audit import default_audit_log, load_audit_log

        audit_path = tmp_path / "audit.jsonl"
        assert (
            main(
                [
                    "fig13",
                    "--duration", "60",
                    "--period", "30",
                    "--audit-out", str(audit_path),
                ]
            )
            == 0
        )
        # Torn down with the run, like the profiler.
        assert default_audit_log() is None
        out = capsys.readouterr().out
        assert f"-> {audit_path}]" in out
        assert "detection bundle(s)" in out
        bundles = load_audit_log(str(audit_path))
        assert all(b["schema"] == 1 for b in bundles)
        assert any(b["pairs"] for b in bundles)

    def test_margin_epsilon_restored_after_run(self):
        from repro.obs.audit import get_near_miss_epsilon

        before = get_near_miss_epsilon()
        assert main(["table1", "--margin-epsilon", "0.2"]) == 0
        assert get_near_miss_epsilon() == before


class TestExplainCommand:
    @pytest.fixture(scope="class")
    def audit_log(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("audit") / "audit.jsonl"
        assert (
            main(
                [
                    "fig13",
                    "--duration", "60",
                    "--period", "30",
                    "--audit-out", str(path),
                ]
            )
            == 0
        )
        return str(path)

    def test_worst_renders_forensic_report(self, audit_log, capsys):
        capsys.readouterr()
        assert main(["explain", audit_log, "--worst"]) == 0
        out = capsys.readouterr().out
        assert "verdict :" in out
        assert "margin  :" in out
        assert "prov    :" in out
        assert "window  :" in out

    def test_pair_selector_shows_every_period(self, audit_log, capsys):
        import json

        bundle = json.loads(Path(audit_log).read_text().splitlines()[0])
        record = bundle["pairs"][0]
        capsys.readouterr()
        spec = f"{record['a']},{record['b']}"
        assert main(["explain", audit_log, "--pair", spec]) == 0
        out = capsys.readouterr().out
        assert f"{record['a']} × {record['b']}" in out
        assert out.count("verdict :") >= 1

    def test_verify_replays_bit_identically(self, audit_log, capsys):
        capsys.readouterr()
        assert main(["explain", audit_log, "--verify"]) == 0
        out = capsys.readouterr().out
        assert "all bit-identical" in out

    def test_near_misses_caps_reports(self, audit_log, capsys):
        capsys.readouterr()
        assert main(["explain", audit_log, "--near-misses", "2"]) == 0
        out = capsys.readouterr().out
        assert out.count("verdict :") <= 2

    def test_requires_a_selector(self, audit_log):
        with pytest.raises(SystemExit):
            main(["explain", audit_log])

    def test_bad_pair_spec_rejected(self, audit_log):
        with pytest.raises(SystemExit):
            main(["explain", audit_log, "--pair", "only-one"])

    def test_missing_log_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["explain", str(tmp_path / "nope.jsonl"), "--worst"])

    def test_tampered_log_fails_verification(self, audit_log, tmp_path):
        import json

        lines = Path(audit_log).read_text().splitlines()
        victim = next(
            b for b in map(json.loads, lines)
            if any(p["provenance"] == "exact" for p in b["pairs"])
        )
        record = next(
            p for p in victim["pairs"] if p["provenance"] == "exact"
        )
        record["raw_distance"] += 1e-9
        tampered = tmp_path / "tampered.jsonl"
        tampered.write_text(json.dumps(victim) + "\n")
        with pytest.raises(RuntimeError, match="replay mismatch"):
            main(["explain", str(tampered), "--verify"])


class TestWatchtowerFlags:
    def test_flags_parse_before_and_after_subcommand(self):
        parser = build_parser()
        before = parser.parse_args(
            ["--watch-record", "w.jsonl", "--report-out", "r.html", "fig13"]
        )
        after = parser.parse_args(
            ["fig13", "--watch-record", "w.jsonl", "--report-out", "r.html"]
        )
        assert before.watch_record == after.watch_record == "w.jsonl"
        assert before.report_out == after.report_out == "r.html"

    def test_flags_default_to_off(self):
        args = build_parser().parse_args(["list"])
        assert args.watch_record is None
        assert args.slo is None
        assert args.report_out is None

    def test_slo_flag_parses_and_repeats(self):
        args = build_parser().parse_args(
            [
                "list",
                "--slo", "p99:metric=hist:detector.detect_ms:p99,max=250",
                "--slo", "floor:metric=health.flagged_pair_rate,max=0.5",
            ]
        )
        assert [spec.name for spec in args.slo] == ["p99", "floor"]
        assert args.slo[0].max_value == 250.0

    def test_bad_slo_spec_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["list", "--slo", "no-metric:max=1"])

    def test_watch_subcommand_parses(self):
        args = build_parser().parse_args(
            ["watch", "run.tsdb.jsonl", "--once", "--interval", "0.5"]
        )
        assert args.command == "watch"
        assert args.source == "run.tsdb.jsonl"
        assert args.once is True
        assert args.interval == 0.5

    def test_watch_record_run_dumps_store_and_watch_renders_it(
        self, tmp_path, capsys
    ):
        dump = tmp_path / "run.tsdb.jsonl"
        assert (
            main(
                [
                    "fig13",
                    "--duration", "60",
                    "--period", "30",
                    "--watch-record", str(dump),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "view with 'watch" in out
        assert dump.is_file()
        header = json.loads(dump.read_text().splitlines()[0])
        assert header["type"] == "tsdb"

        # The watch subcommand renders the dump once, without ANSI.
        assert main(["watch", str(dump), "--once"]) == 0
        watched = capsys.readouterr().out
        assert "repro watch" in watched
        assert "\x1b" not in watched

    def test_watch_record_run_writes_report(self, tmp_path, capsys):
        report = tmp_path / "run.html"
        assert (
            main(
                [
                    "fig13",
                    "--duration", "60",
                    "--period", "30",
                    "--report-out", str(report),
                ]
            )
            == 0
        )
        assert "[run report -> " in capsys.readouterr().out
        assert report.read_text().startswith("<!doctype html>")

    def test_watch_rejects_bad_source(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["watch", str(tmp_path / "missing.jsonl"), "--once"])


class TestTraceCommand:
    def _serve_with_lineage(self, tmp_path, extra=()):
        dump = tmp_path / "traces.jsonl"
        audit = tmp_path / "audit.jsonl"
        argv = [
            "serve",
            "--observers", "2",
            "--identities", "3",
            "--sybil", "2",
            "--duration", "25",
            "--shards", "2",
            "--lineage-out", str(dump),
            "--lineage-sample", "1.0",
            "--audit-out", str(audit),
            *extra,
        ]
        assert main(argv) == 0
        return dump, audit

    def test_serve_lineage_run_then_flagged_audit_join(
        self, tmp_path, capsys
    ):
        dump, audit = self._serve_with_lineage(tmp_path)
        out = capsys.readouterr().out
        assert "traces retained" in out
        assert dump.exists()

        assert (
            main(
                [
                    "trace", str(dump),
                    "--flagged",
                    "--audit", str(audit),
                    "--once",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "audit join:" in out
        assert "0/0" not in out  # flagged verdicts existed and joined

    def test_trace_follow_renders_waterfall_and_evidence(
        self, tmp_path, capsys
    ):
        dump, audit = self._serve_with_lineage(tmp_path)
        capsys.readouterr()
        from repro.obs.lineage import load_lineage

        flagged = [r for r in load_lineage(str(dump)) if r["flagged"]]
        assert flagged
        cid = flagged[0]["correlation_id"]
        assert (
            main(["trace", str(dump), "--follow", cid, "--audit", str(audit)])
            == 0
        )
        out = capsys.readouterr().out
        assert "queue_wait" in out
        assert "ingest-to-verdict" in out
        assert "repro explain" in out  # joined audit pair evidence

    def test_trace_export_writes_chrome_json(self, tmp_path, capsys):
        dump, _ = self._serve_with_lineage(tmp_path)
        capsys.readouterr()
        chrome = tmp_path / "chrome.json"
        assert (
            main(["trace", str(dump), "--slowest", "2", "--export", str(chrome)])
            == 0
        )
        payload = json.loads(chrome.read_text(encoding="utf-8"))
        assert payload["traceEvents"]

    def test_trace_unknown_cid_fails_cleanly(self, tmp_path):
        dump, _ = self._serve_with_lineage(tmp_path)
        with pytest.raises(SystemExit):
            main(["trace", str(dump), "--follow", "c-nope"])

    def test_trace_rejects_non_lineage_file(self, tmp_path):
        bogus = tmp_path / "bogus.jsonl"
        bogus.write_text('{"type": "tsdb"}\n', encoding="utf-8")
        with pytest.raises(SystemExit):
            main(["trace", str(bogus)])

    def test_lineage_flags_default_to_off(self):
        args = build_parser().parse_args(["serve"])
        assert args.lineage is False
        assert args.lineage_out is None
        assert args.lineage_sample == 0.01
        assert args.lineage_capacity == 512

    def test_serve_without_lineage_leaves_global_off(self, capsys):
        from repro.obs.lineage import default_lineage

        assert (
            main(["serve", "--observers", "1", "--duration", "25"]) == 0
        )
        assert default_lineage() is None
