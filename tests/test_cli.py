"""End-to-end tests of the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["nope"])

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("repro-jacobi ")
        assert out.split()[1][0].isdigit()

    def test_table2_help_mentions_workers(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table2", "--help"])
        assert "--workers" in capsys.readouterr().out


class TestCommands:
    def test_table1(self, capsys):
        assert main(["table1", "--min-e", "7", "--max-e", "9"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out and "lower bound" in out

    def test_table2_small(self, capsys):
        assert main(["table2", "--matrices", "2", "--max-m", "8"]) == 0
        out = capsys.readouterr().out
        assert "Table 2" in out and "degree4" in out

    def test_table2_workers_matches_in_process(self, capsys):
        assert main(["table2", "--matrices", "2", "--max-m", "8"]) == 0
        baseline = capsys.readouterr().out
        assert main(["table2", "--matrices", "2", "--max-m", "8",
                     "--workers", "2"]) == 0
        sharded = capsys.readouterr().out
        # identical rows, worker count surfaced in the footer
        assert baseline.split("\n(")[0] == sharded.split("\n(")[0]
        assert "workers: 2" in sharded

    def test_svd_bench_small(self, capsys):
        assert main(["svd-bench", "--shapes", "16x8,12x12",
                     "--matrices", "2"]) == 0
        out = capsys.readouterr().out
        assert "SVD ensembles" in out and "16x8" in out
        assert "lapack" in out

    def test_svd_bench_workers_matches_in_process(self, capsys):
        assert main(["svd-bench", "--shapes", "16x8",
                     "--matrices", "2"]) == 0
        baseline = capsys.readouterr().out
        assert main(["svd-bench", "--shapes", "16x8", "--matrices", "2",
                     "--workers", "2"]) == 0
        sharded = capsys.readouterr().out

        def sweeps_cols(text):
            # mean-sweeps and range columns are deterministic; wall-clock
            # derived columns are not
            return [" ".join(line.split("|")[2:4])
                    for line in text.splitlines() if "|" in line]

        assert sweeps_cols(baseline) == sweeps_cols(sharded)
        assert "workers: 2" in sharded

    def test_svd_bench_rejects_bad_shapes(self, monkeypatch):
        # Malformed shapes and shapes the one-sided SVD cannot solve
        # (wide, empty, negative) are all refused before the first
        # ensemble is solved.
        import repro.analysis.svdbench as svdbench

        def never(*args, **kwargs):
            raise AssertionError("an ensemble ran before the shape check")

        monkeypatch.setattr(svdbench, "run_svd_ensemble", never)
        for shapes in ("16by8", "8x32", "0x0", "-4x2", "64x32,8x32"):
            with pytest.raises(ValueError, match="NxM"):
                main(["svd-bench", f"--shapes={shapes}"])

    def test_load_bench_small(self, capsys, tmp_path):
        report = tmp_path / "load-bench.json"
        assert main(["load-bench", "--scenarios", "trickle",
                     "--items", "8", "--json", str(report)]) == 0
        out = capsys.readouterr().out
        assert "flushes s/d/i/f" in out
        data = json.loads(report.read_text())
        assert data["benchmark"] == "load-bench"
        # the two fixed baselines for the one scenario
        assert len(data["results"]) == 2

    def test_load_bench_rejects_unknown_scenario(self):
        from repro.errors import SimulationError

        with pytest.raises(SimulationError, match="unknown scenario"):
            main(["load-bench", "--scenarios", "tsunami", "--items", "4"])

    def test_load_bench_trace_out_writes_bundle(self, capsys, tmp_path):
        trace = tmp_path / "trace.json"
        assert main(["load-bench", "--scenarios", "trickle",
                     "--items", "6", "--trace-out", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "trace bundle written" in out
        bundle = json.loads(trace.read_text())
        assert bundle["schema"] == "repro-trace-bundle/v1"
        # one traced timeline per (scenario, setting) replay
        assert len(bundle["traces"]) == 2
        for record in bundle["traces"]:
            assert record["timeline"]["schema"] == "repro-trace/v1"
            assert record["settings"]["max_batch"] >= 1

    def test_load_bench_replay_reports_outcome_match(self, capsys,
                                                     tmp_path):
        trace = tmp_path / "trace.json"
        assert main(["load-bench", "--scenarios", "trickle",
                     "--items", "6", "--trace-out", str(trace)]) == 0
        capsys.readouterr()
        assert main(["load-bench", "--replay", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "replayed 2 recorded runs" in out
        assert "outcome sequences match" in out

    def test_load_bench_replay_fails_on_divergence(self, capsys,
                                                   tmp_path):
        trace = tmp_path / "trace.json"
        assert main(["load-bench", "--scenarios", "trickle",
                     "--items", "6", "--trace-out", str(trace)]) == 0
        bundle = json.loads(trace.read_text())
        events = bundle["traces"][0]["timeline"]["events"]
        resolved = next(ev for ev in events if ev["stage"] == "resolved")
        resolved["stage"] = "failed"  # tamper with one recorded outcome
        trace.write_text(json.dumps(bundle))
        capsys.readouterr()
        assert main(["load-bench", "--replay", str(trace)]) == 1
        out = capsys.readouterr().out
        assert "DIVERGE" in out
        assert "1/2 outcome sequences match" in out

    def test_load_bench_replay_excludes_trace_out(self, capsys):
        assert main(["load-bench", "--replay", "x.json",
                     "--trace-out", "y.json"]) == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_trace_report_on_bundle(self, capsys, tmp_path):
        trace = tmp_path / "trace.json"
        assert main(["load-bench", "--scenarios", "trickle",
                     "--items", "6", "--trace-out", str(trace)]) == 0
        capsys.readouterr()
        assert main(["trace-report", str(trace), "--width", "40"]) == 0
        out = capsys.readouterr().out
        assert "per-request latency by stage" in out
        assert "per-worker utilisation" in out
        assert out.count("incomplete lifecycles: 0") == 2
        assert "worker" in out

    def test_trace_report_on_single_timeline(self, capsys, tmp_path):
        from repro.jacobi import make_symmetric_test_matrix
        from repro.service import JacobiService

        path = tmp_path / "one.json"
        with JacobiService(d=1, max_batch=1, max_delay=0.0,
                           trace=True) as svc:
            fut = svc.submit(make_symmetric_test_matrix(8, rng=0))
            assert fut.result(timeout=30.0).converged
        path.write_text(svc.trace().to_json())
        assert main(["trace-report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "service" in out
        assert "solve" in out
        assert "incomplete lifecycles: 0" in out

    def test_figure2_small(self, capsys):
        assert main(["figure2", "--dims", "5..6", "--m-exponents", "18",
                     "--no-chart"]) == 0
        out = capsys.readouterr().out
        assert "Figure 2(a)" in out and "permuted-br" in out

    def test_figure2_chart(self, capsys):
        assert main(["figure2", "--dims", "5..6", "--m-exponents", "18"]) \
            == 0
        assert "chart" in capsys.readouterr().out

    def test_figure2_one_port(self, capsys):
        assert main(["figure2", "--dims", "5..5", "--m-exponents", "18",
                     "--ports", "1", "--no-chart"]) == 0

    def test_appendix(self, capsys):
        assert main(["appendix"]) == 0
        out = capsys.readouterr().out
        assert "lemma2" in out and "1.25" in out

    def test_sequences(self, capsys):
        assert main(["sequences", "--max-e", "6", "--show", "5"]) == 0
        out = capsys.readouterr().out
        assert "0102010310121014323132302321232" in out  # D5 p-BR
        assert "0123012401230121012301240123012" in out  # D5 D4

    def test_demo(self, capsys):
        assert main(["demo", "--m", "32", "--d", "2", "--tol", "1e-8"]) == 0
        out = capsys.readouterr().out
        assert "speed-up" in out and "sweeps" in out

    def test_crossover(self, capsys):
        assert main(["crossover", "--dims", "6,8"]) == 0
        out = capsys.readouterr().out
        assert "Crossover" in out and "2^" in out

    def test_calibration(self, capsys):
        assert main(["calibration", "--m", "16", "--d", "2",
                     "--matrices", "2"]) == 0
        out = capsys.readouterr().out
        assert "calibration" in out.lower() and "frobenius" in out
