#!/usr/bin/env python3
"""Run the benchmark of the solve service and the Table-2 engine.

    python3 bench/run.py --workload svc-small --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --seed 1 --out bench/out/a1.json
    python3 bench/run.py --smoke --trace 1

Each workload runs in a fresh child process (this script again, with
``--child``), so the schedule caches, BLAS first-touch and resident
memory of one workload never leak into the next; an untraced run first
times the workload's set-up in 3 to 5 more fresh processes
(``--setup``).
The parent prints
every metric by name and unit and then, as the last line of standard
output, one JSON object::

    {"correct": true, "attempted": 4211, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``,
``--trace 1`` (or ``--traced``) the per-layer ones.  When several
workloads run, the metric names in that line are prefixed with the
workload's.  ``--out FILE`` also writes the run header and every
workload's full record as JSON, which ``compare.py`` reads; a traced
run writes each workload's service timeline and harness spans beside
it, as ``FILE.<workload>.trace.json``.

The program is imported from the ``src/`` directory next to this one.
Without it the script exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from spec import ROOT, SPEC_PATH, load_spec, metric_table, workload_names

HERE = Path(__file__).resolve().parent
PROGRAM = ROOT / "src" / "repro"

#: A workload's set-ups and its own process must all end within this,
#: so a run ends within 180 s.
RUN_BUDGET_S = 170.0

#: ``setup_s`` is the median over this many fresh processes, each timing
#: one set-up (see ``workloads.SETUPS`` for why processes, not repeats).
#: Three where a set-up spawns workers or solves a whole ensemble: those
#: processes cost seconds each, and their set-up is too long for the
#: 5 ms thread-handoff mode to matter.
SETUP_PROCESSES = {"svc-small": 5, "svc-pool": 3, "ensemble": 3,
                   "tenants-overload": 5}

#: ``--smoke``: measured seconds per run and the lighter settings.
SMOKE_SECONDS = 2.0
SMOKE_SETTINGS = {"warmup": 0.5, "min_samples": 0}
SMOKE_SETUP_PROCESSES = 1

SCHEMA = "repro-bench/v1"


def _parse(argv: Optional[list]) -> argparse.Namespace:
    p = argparse.ArgumentParser(
        description="Benchmark the solve service and the Table-2 engine.")
    p.add_argument("--workload", "--workloads", dest="workloads",
                   nargs="+", action="extend", metavar="NAME",
                   help="workloads to run (default: every one declared "
                        "in BENCHMARK.json)")
    p.add_argument("--seed", type=int, default=0,
                   help="seed the inputs are made from")
    p.add_argument("--seconds", type=float, default=None,
                   help="measured seconds per run (default: run_seconds "
                        "of BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1 reports per-layer metrics from a traced run")
    p.add_argument("--traced", dest="trace", action="store_const", const=1,
                   help="same as --trace 1")
    p.add_argument("--out", type=Path,
                   help="also write the header and full records as JSON")
    p.add_argument("--smoke", action="store_true",
                   help=f"{SMOKE_SECONDS:g} s phases that check the harness "
                        f"end to end; not a measurement")
    p.add_argument("--child", help=argparse.SUPPRESS)
    p.add_argument("--setup", help=argparse.SUPPRESS)
    p.add_argument("--trace-out", type=Path, help=argparse.SUPPRESS)
    return p.parse_args(argv)


# ----------------------------------------------------------------------
# Children: one workload, or one set-up, in its own process.
def _import_program() -> bool:
    """Import ``repro``, refusing any copy but the one beside ``bench/``."""
    import repro

    if Path(repro.__file__).resolve().parent != PROGRAM.resolve():
        print(f"run.py: imported repro from {repro.__file__}, not "
              f"{PROGRAM}", file=sys.stderr)
        return False
    return True


def _setup_child(args: argparse.Namespace) -> int:
    if not _import_program():
        return 2
    import workloads

    print(json.dumps({"setup_s": workloads.SETUPS[args.setup](args.seed)}))
    return 0


def _child(args: argparse.Namespace) -> int:
    if not _import_program():
        return 2
    import numpy

    import workloads

    settings = workloads.Settings(seed=args.seed, seconds=args.seconds,
                                  traced=bool(args.trace),
                                  **(SMOKE_SETTINGS if args.smoke else {}))
    t0 = time.monotonic()
    rep = workloads.WORKLOADS[args.child](settings)
    tally = rep.tally
    attempted = max(1, tally.attempted)
    metrics = dict(rep.metrics)
    metrics.update({
        "admitted_frac": 1.0 - tally.refused / attempted,
        "oracle.failed_frac": tally.failed / attempted,
        "oracle.refused_frac": tally.refused / attempted,
        "oracle.probe_failed_frac": tally.probe_failed / max(1, tally.probes),
    })
    blas = numpy.show_config(mode="dicts").get(
        "Build Dependencies", {}).get("blas", {})
    if args.trace_out is not None and rep.trace is not None:
        args.trace_out.parent.mkdir(parents=True, exist_ok=True)
        args.trace_out.write_text(json.dumps(rep.trace), encoding="utf-8")
    record = {
        "correct": tally.failed == 0 and not rep.invalid,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "refused": tally.refused,
        "probes": tally.probes,
        "probe_failed": tally.probe_failed,
        "problems": tally.problems,
        "invalid": rep.invalid,
        "metrics": {k: float(v) for k, v in metrics.items()},
        "phases": rep.phases,
        "wall_s": time.monotonic() - t0,
        # ru_maxrss is in KiB on Linux; RUSAGE_CHILDREN covers the pool.
        "peak_rss_kb": max(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss),
        "numpy": numpy.__version__,
        "blas": {k: blas.get(k)
                 for k in ("name", "version", "openblas configuration")},
    }
    print(json.dumps(record))
    return 0


# ----------------------------------------------------------------------
# Parent: header, one child per workload, the result line.
def _git() -> Optional[Dict[str, Any]]:
    if not (ROOT / ".git").exists():
        return None
    try:
        def git(*cmd: str) -> str:
            return subprocess.run(["git", "-C", str(ROOT), *cmd],
                                  capture_output=True, text=True,
                                  timeout=10, check=True).stdout.strip()
        return {"commit": git("rev-parse", "HEAD"),
                "dirty": bool(git("status", "--porcelain"))}
    except (OSError, subprocess.SubprocessError):
        return None


def _header(args: argparse.Namespace, seconds: float) -> Dict[str, Any]:
    return {
        "seed": args.seed,
        "seconds": seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "loadavg_before": os.getloadavg(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "threads_env": {k: v for k, v in sorted(os.environ.items())
                        if k.endswith("_NUM_THREADS")},
        "git": _git(),
    }


def _wait_group(group: int, timeout: float = 10.0) -> None:
    """Wait until no process of a child's session is left (its pool
    workers and the shared-memory resource tracker exit just after it);
    kill what remains after ``timeout`` seconds."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            os.killpg(group, 0)
        except ProcessLookupError:
            return
        time.sleep(0.02)
    with contextlib.suppress(ProcessLookupError):
        os.killpg(group, signal.SIGKILL)


def _spawn(flags: List[str], what: str,
           deadline: float) -> Optional[Dict[str, Any]]:
    """Run this script again with ``flags``; returns the JSON of its last
    output line, or ``None`` when it failed."""
    cmd = [sys.executable, str(HERE / "run.py"), *flags]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]]
                               if env.get("PYTHONPATH") else []))
    # Its own session, so a timeout can stop the pool workers too.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            cwd=ROOT, env=env, start_new_session=True)
    try:
        out, _ = proc.communicate(
            timeout=max(1.0, deadline - time.monotonic()))
    except BaseException as exc:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        if isinstance(exc, subprocess.TimeoutExpired):
            print(f"run.py: {what} did not finish within "
                  f"{RUN_BUDGET_S:.0f} s", file=sys.stderr)
        raise
    finally:
        _wait_group(proc.pid)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"run.py: {what} failed (exit status {proc.returncode})",
              file=sys.stderr)
        return None
    return json.loads(lines[-1])


def main(argv: Optional[list] = None) -> int:
    args = _parse(argv)
    if args.child:
        return _child(args)
    if args.setup:
        return _setup_child(args)
    if not (PROGRAM / "__init__.py").is_file() or not SPEC_PATH.is_file():
        print(f"run.py: nothing to measure: {PROGRAM} or {SPEC_PATH} is "
              f"missing", file=sys.stderr)
        return 2
    spec = load_spec()
    declared = workload_names(spec)
    names = args.workloads or declared
    unknown = sorted(set(names) - set(declared))
    if unknown:
        print(f"run.py: unknown workloads {unknown}; known: {declared}",
              file=sys.stderr)
        return 2
    seconds = args.seconds or (SMOKE_SECONDS if args.smoke
                               else float(spec["run_seconds"]))
    header = _header(args, seconds)
    nproc = header["nproc"] or 1
    if header["loadavg_before"][0] > nproc / 2:
        print(f"run.py: warning: load average "
              f"{header['loadavg_before'][0]:.2f} exceeds nproc/2 = "
              f"{nproc / 2:g}; the numbers may be noisy", file=sys.stderr)

    section = "per_layer" if args.trace else "end_to_end"
    table = metric_table(spec, section)
    records: Dict[str, Dict[str, Any]] = {}
    for name in names:
        deadline = time.monotonic() + RUN_BUDGET_S
        seed = ["--seed", str(args.seed)]
        flags = ["--child", name, *seed, "--seconds", repr(seconds),
                 "--trace", str(args.trace)]
        if args.smoke:
            flags.append("--smoke")
        if args.out is not None and args.trace:
            flags += ["--trace-out", f"{args.out}.{name}.trace.json"]
        setup_processes = (0 if args.trace else SMOKE_SETUP_PROCESSES
                           if args.smoke else SETUP_PROCESSES[name])
        try:
            setups = [_spawn(["--setup", name, *seed], f"{name} set-up",
                             deadline) for _ in range(setup_processes)]
            record = _spawn(flags, f"workload {name}", deadline)
        except KeyboardInterrupt:
            return 130
        except subprocess.TimeoutExpired:
            return 1
        if record is None or None in setups:
            return 1
        values = record["metrics"]
        if setups:
            record["setup_samples"] = [got["setup_s"] for got in setups]
            values["setup_s"] = statistics.median(record["setup_samples"])
        values["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            + record["peak_rss_kb"]) / 1024
        missing = [m for m in table if m not in values]
        if section == "end_to_end" and missing:
            print(f"run.py: {name} did not measure {missing}",
                  file=sys.stderr)
            return 1
        # A per-layer metric the workload cannot observe reads 0.
        record["metrics"] = {m: {"value": values.get(m, 0.0),
                                 "unit": t["unit"]}
                             for m, t in table.items()}
        record["extra"] = {k: v for k, v in values.items() if k not in table}
        records[name] = record
        print(f"{name}: correct={record['correct']} "
              f"attempted={record['attempted']} failed={record['failed']} "
              f"refused={record['refused']} probes failed="
              f"{record['probe_failed']}/{record['probes']} "
              f"wall={record['wall_s']:.1f}s")
        for why in record["invalid"] + record["problems"]:
            print(f"  ! {why}")
        for metric, m in record["metrics"].items():
            print(f"  {metric:<32} {m['value']:>14.6g} {m['unit']}")
    header["loadavg_after"] = os.getloadavg()
    if records:
        first = next(iter(records.values()))
        header["numpy"], header["blas"] = first["numpy"], first["blas"]
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(
            {"schema": SCHEMA, "header": header, "workloads": records},
            indent=1) + "\n", encoding="utf-8")

    if len(records) == 1:
        metrics = records[names[0]]["metrics"]
    else:
        metrics = {f"{name}.{metric}": m for name, rec in records.items()
                   for metric, m in rec["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in records.values()),
        "attempted": sum(r["attempted"] for r in records.values()),
        "failed": sum(r["failed"] for r in records.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    # Spawned pool workers import this file as their main module; the
    # guard keeps them from running the benchmark again.
    sys.exit(main())
