"""Tests of the benchmark harness itself, not of the program it measures.

    PYTHONPATH=src python -m pytest bench -q

They sit outside the tier-1 test paths: the two smoke runs take about
40 seconds.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import BatchedOneSidedJacobi, get_ordering, make_symmetric_test_matrix
from repro.analysis.events import EventTimeline
from repro.errors import SimulationError
from repro.service import SolveResult

import compare
import oracle
import spec
from traffic import Outcome, Request

RUN = Path(__file__).resolve().parent / "run.py"
SOLVER = {"ordering": "degree4", "d": 2, "tol": 1e-9, "max_sweeps": 60}


def _run(*args: str, cwd: Path = spec.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(RUN), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


# ----------------------------------------------------------------------
def test_benchmark_json_is_well_formed():
    doc = spec.load_spec()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert doc["paths"] == ["bench"]
    assert 1 <= doc["run_seconds"] <= 60
    names = [w["name"] for w in doc["workloads"]]
    e2e = spec.metric_table(doc, "end_to_end")
    layer = spec.metric_table(doc, "per_layer")
    for name in names + list(e2e) + list(layer):
        assert spec.NAME_RE.fullmatch(name) and len(name) <= 64
    assert len(set(names + list(e2e) + list(layer))) == (
        len(names) + len(e2e) + len(layer))
    assert e2e["setup_s"]["unit"] == "s"
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values())
    assert all(0 < m["bound"] <= 0.25 for m in e2e.values())
    assert all(set(m) == {"name", "unit", "better"} for m in doc["per_layer"])


@pytest.fixture(scope="module", params=[0, 1], ids=["untraced", "traced"])
def smoke(request, tmp_path_factory):
    out = tmp_path_factory.mktemp("smoke") / "run.json"
    proc = _run("--smoke", "--trace", str(request.param), "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    return request.param, line, out


def test_smoke_reports_every_declared_metric(smoke):
    trace, line, out = smoke
    doc = json.loads(out.read_text())
    table = spec.metric_table(spec.load_spec(),
                              "per_layer" if trace else "end_to_end")
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= 1
    assert list(doc["workloads"]) == spec.workload_names(spec.load_spec())
    for workload, record in doc["workloads"].items():
        assert list(record["metrics"]) == list(table)
        for name, m in record["metrics"].items():
            assert m["unit"] == table[name]["unit"]
            assert isinstance(m["value"], float)
            assert line["metrics"][f"{workload}.{name}"] == m
        assert record["phases"]
    assert doc["header"]["nproc"] >= 1 and "loadavg_after" in doc["header"]


def test_traced_smoke_writes_a_trace_report_can_read(smoke):
    trace, _, out = smoke
    if not trace:
        pytest.skip("only the traced run writes traces")
    doc = json.loads(Path(f"{out}.svc-small.trace.json").read_text())
    timeline = EventTimeline.from_dict(doc)
    assert timeline.events
    spans = doc["harness_spans"]
    assert {s["name"] for s in spans} >= {"harness.request", "service.submit"}
    assert any(s["request"] is not None for s in spans)
    assert doc["harness_self_ms"]["harness.request"]["count"] > 0


def test_single_workload_line_has_plain_metric_names():
    proc = _run("--smoke", "--workload", "svc-small", "--seconds", "1")
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    table = spec.metric_table(spec.load_spec(), "end_to_end")
    assert list(line["metrics"]) == list(table)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(spec.SPEC_PATH, tmp_path / "BENCHMARK.json")
    shutil.copytree(RUN.parent, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload",
                           "svc-small"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_importing_run_as_a_spawned_main_runs_nothing():
    # Spawned pool workers import the parent's main module under the name
    # __mp_main__; without the __main__ guard they would rerun the
    # benchmark.
    code = (f"import runpy; runpy.run_path({str(RUN)!r}, "
            f"run_name='__mp_main__')")
    proc = subprocess.run([sys.executable, "-c", code], cwd=RUN.parent,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ""


# ----------------------------------------------------------------------
def _solved(A: np.ndarray) -> SolveResult:
    res = BatchedOneSidedJacobi(get_ordering("degree4", 2)).solve([A])
    return SolveResult(eigenvalues=res.eigenvalues[0],
                       eigenvectors=res.eigenvectors[0],
                       sweeps=int(res.sweeps[0]), converged=True)


def _outcome(A: np.ndarray, result=None, error=None,
             probe: bool = False) -> Outcome:
    return Outcome(request=Request(A, probe=probe), due=0.0, sent=0.0,
                   done=0.01, result=result, error=error)


def test_a_perturbed_eigenvalue_is_counted_as_failed():
    A = make_symmetric_test_matrix(16, 3)
    good = _solved(A)
    lam = good.eigenvalues.copy()
    lam[5] += 1e-6
    bad = dataclasses.replace(good, eigenvalues=lam)
    outcomes = [_outcome(A, good), _outcome(A, bad)]
    tally = oracle.Tally()
    tally.judge(outcomes, SOLVER)
    assert (tally.attempted, tally.failed) == (2, 1)
    assert outcomes[0].ok and not outcomes[1].ok
    assert "eigenvalues disagree" in tally.problems[0]


def test_a_result_differing_from_its_sequential_twin_fails():
    A = make_symmetric_test_matrix(16, 4)
    good = _solved(A)
    nudged = dataclasses.replace(
        good, eigenvalues=np.nextafter(good.eigenvalues, np.inf))
    tally = oracle.Tally()
    tally.judge([_outcome(A, nudged)], SOLVER)  # the first is twin-checked
    assert tally.failed == 1
    assert "sequential twin" in tally.problems[0]


def test_probe_verdicts():
    A = make_symmetric_test_matrix(16, 5)
    A[0, 0] = np.inf
    converged = SolveResult(eigenvalues=np.full(16, -np.inf),
                            eigenvectors=np.zeros((16, 16)), sweeps=0,
                            converged=True)
    missed = dataclasses.replace(converged, converged=False)
    outcomes = [_outcome(A, converged, probe=True),
                _outcome(A, missed, probe=True),
                _outcome(A, error=SimulationError("non-finite"), probe=True),
                _outcome(A, error=ValueError("untyped"), probe=True)]
    tally = oracle.Tally()
    tally.judge(outcomes, SOLVER)
    assert (tally.probes, tally.probe_failed, tally.failed) == (4, 2, 0)


# ----------------------------------------------------------------------
@pytest.mark.parametrize("a, b, better, expected", [
    ([10, 10.1, 9.9], [10, 10.05, 9.95], "lower", "unchanged"),
    ([10, 10.1, 9.9], [12, 12.1, 11.9], "lower", "worse"),
    ([10, 10.1, 9.9], [8, 8.1, 7.9], "lower", "better"),
    ([10, 10.1, 9.9], [8, 8.1, 7.9], "higher", "worse"),
    ([10, 14, 6, 12, 8], [10, 10.1, 9.9], "lower", "unresolved"),
    ([10, 10.1, 9.9], [10, 14, 6, 12, 8], "lower", "unresolved"),
    ([10, 14, 6, 12, 8], [5, 5.1, 4.9], "lower", "better"),
])
def test_compare_verdicts(a, b, better, expected):
    assert compare.verdict(a, b, 0.1, better) == expected


def test_compare_reads_run_files(tmp_path, capsys):
    def write(name, p50):
        doc = {"header": {"trace": 0}, "workloads": {"svc-small": {
            "metrics": {"p50_ms": {"value": p50, "unit": "ms"},
                        "slo_frac": {"value": 1.0, "unit": "ratio"}}}}}
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    a = [write(f"a{k}.json", 20 + 0.1 * k) for k in range(3)]
    same = [write(f"b{k}.json", 20.05 + 0.1 * k) for k in range(3)]
    slow = [write(f"c{k}.json", 30 + 0.1 * k) for k in range(3)]
    assert compare.main(a + ["--"] + same) == 0
    assert capsys.readouterr().out.count("unchanged") == 2
    assert compare.main(a + ["--"] + slow) == 1
    assert "worse" in capsys.readouterr().out
