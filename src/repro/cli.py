"""Command-line interface: regenerate the paper's tables and figures.

Usage (after ``pip install -e .``)::

    repro-jacobi --version
    repro-jacobi table1
    repro-jacobi table2 [--matrices N] [--max-m M] [--tol T] [--engine E]
                        [--workers W]
    repro-jacobi svd-bench [--shapes 32x8,64x16] [--matrices N]
                           [--engine E] [--workers W]
    repro-jacobi load-bench [--scenarios trickle,bursty] [--items N]
                            [--transport pickle|shm] [--json PATH]
                            [--trace-out PATH] [--replay PATH]
    repro-jacobi trace-report PATH [--width N]
    repro-jacobi figure2 [--dims 5..15] [--m-exponents 18,23,32]
    repro-jacobi appendix
    repro-jacobi sequences [--max-e E]
    repro-jacobi demo [--m M] [--d D] [--ordering NAME]

or ``python -m repro.cli <command>``.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional, Sequence

import numpy as np

__all__ = ["main", "build_parser"]


def _package_version() -> str:
    """Installed distribution version, falling back to the source tree's
    ``repro.__version__`` when the package is run uninstalled."""
    try:
        from importlib.metadata import version

        return version("repro-jacobi")
    except Exception:
        from . import __version__

        return __version__


def _cmd_table1(args: argparse.Namespace) -> int:
    from .analysis.table1 import compute_table1, render_table1

    rows = compute_table1(tuple(range(args.min_e, args.max_e + 1)))
    print(render_table1(rows))
    return 0


def _cmd_table2(args: argparse.Namespace) -> int:
    from .analysis.table2 import compute_table2, default_configs, render_table2

    workers = args.workers
    if workers < 0:
        from .service.pool import default_worker_count

        workers = default_worker_count()
    rows = compute_table2(configs=default_configs(args.max_m),
                          num_matrices=args.matrices,
                          tol=args.tol, seed=args.seed,
                          engine=args.engine, workers=workers)
    print(render_table2(rows))
    print(f"\n(matrices per config: {args.matrices}, tol: {args.tol:g}, "
          f"seed: {args.seed}, engine: {args.engine}, "
          f"workers: {workers or 'in-process'})")
    return 0


def _cmd_svd_bench(args: argparse.Namespace) -> int:
    from .analysis.svdbench import (
        DEFAULT_SVD_SHAPES,
        compute_svd_bench,
        parse_shapes,
        render_svd_bench,
    )

    workers = args.workers
    if workers < 0:
        from .service.pool import default_worker_count

        workers = default_worker_count()
    shapes = (list(DEFAULT_SVD_SHAPES) if args.shapes is None
              else parse_shapes(args.shapes))
    rows = compute_svd_bench(shapes=shapes, num_matrices=args.matrices,
                             seed=args.seed, tol=args.tol,
                             engine=args.engine, workers=workers)
    print(render_svd_bench(rows))
    print(f"\n(matrices per shape: {args.matrices}, tol: {args.tol:g}, "
          f"seed: {args.seed}, engine: {args.engine}, "
          f"workers: {workers or 'in-process'})")
    return 0


def _cmd_load_bench(args: argparse.Namespace) -> int:
    import json

    from .analysis.events import EventTimeline
    from .analysis.loadgen import (
        compute_load_bench,
        outcomes_from_timeline,
        render_load_bench,
        render_tenant_bench,
        replay_recorded,
        results_to_json,
        trace_bundle_to_json,
    )

    if args.replay is not None and args.trace_out is not None:
        print("--replay and --trace-out are mutually exclusive",
              file=sys.stderr)
        return 2
    if args.replay is not None:
        with open(args.replay, "r", encoding="utf-8") as fh:
            bundle = json.load(fh)
        replayed = replay_recorded(bundle, trace=True)
        print(render_load_bench([res for _, res, _ in replayed]))
        print()
        matches = 0
        for record, res, _tl in replayed:
            recorded = outcomes_from_timeline(
                EventTimeline.from_dict(record["timeline"]))
            ok = recorded == res.outcomes
            matches += ok
            print(f"  {record['scenario']}/{record['label']}: recorded "
                  f"outcomes {'match' if ok else 'DIVERGE'} "
                  f"({len(res.outcomes)} requests)")
        print(f"replayed {len(replayed)} recorded runs from "
              f"{args.replay}; {matches}/{len(replayed)} outcome "
              f"sequences match")
        return 0 if matches == len(replayed) else 1
    scenarios = (None if args.scenarios is None
                 else [s.strip() for s in args.scenarios.split(",")
                       if s.strip()])
    sink = [] if args.trace_out is not None else None
    rows = compute_load_bench(scenario_names=scenarios, items=args.items,
                              seed=args.seed, warmup_frac=args.warmup,
                              trace_sink=sink, transport=args.transport)
    print(render_load_bench(rows))
    tenant_table = render_tenant_bench(rows)
    if tenant_table:
        print()
        print(tenant_table)
    print(f"\n(seed: {args.seed}, warm-up excluded from percentiles: "
          f"{args.warmup:.0%}, transport: "
          f"{args.transport or 'pickle'}; latency is "
          f"scheduled-arrival -> resolution, open loop)")
    if args.json is not None:
        report = results_to_json(rows, seed=args.seed,
                                 warmup_frac=args.warmup,
                                 transport=args.transport)
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(report + "\n")
        print(f"report written to {args.json}")
    if sink is not None:
        text = trace_bundle_to_json(sink, seed=args.seed,
                                    warmup_frac=args.warmup)
        with open(args.trace_out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(f"trace bundle written to {args.trace_out} "
              f"({len(sink)} traced runs)")
    return 0


def _cmd_trace_report(args: argparse.Namespace) -> int:
    import json

    from .analysis.events import (
        LIFECYCLE,
        EventTimeline,
        stage_percentiles,
        tenant_breakdown,
        validate_lifecycles,
        worker_utilisation,
    )
    from .analysis.loadgen import TRACE_BUNDLE_SCHEMA
    from .analysis.report import render_table
    from .analysis.timeline import render_worker_timeline

    with open(args.path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("schema") == TRACE_BUNDLE_SCHEMA:
        entries = [(f"{t['scenario']} / {t['label']}",
                    EventTimeline.from_dict(t["timeline"]))
                   for t in doc["traces"]]
    else:
        entries = [(str(doc.get("source", "trace")),
                    EventTimeline.from_dict(doc))]
    for name, timeline in entries:
        spans = stage_percentiles(timeline)
        body = [[span, int(s["count"]), f"{s['mean'] * 1e3:,.2f}",
                 f"{s['p50'] * 1e3:,.2f}", f"{s['p99'] * 1e3:,.2f}"]
                for span, s in spans.items()]
        print(render_table(
            ["stage", "n", "mean ms", "p50 ms", "p99 ms"], body,
            title=f"-- {name}: per-request latency by stage --"))
        util = worker_utilisation(timeline)
        if util:
            ubody = [[w, int(u["batches"]), int(u["items"]),
                      f"{u['busy'] * 1e3:,.1f}",
                      f"{u['utilisation']:.0%}"]
                     for w, u in sorted(util.items())]
            print()
            print(render_table(
                ["worker", "batches", "items", "busy ms", "util"],
                ubody, title="per-worker utilisation"))
        tenants = tenant_breakdown(timeline)
        if tenants:
            tbody = []
            for tenant in sorted(tenants):
                row = tenants[tenant]
                total = row.get("total")
                tbody.append([
                    tenant, row["requests"],
                    " ".join(f"{b}={row[b]}" for _, b in
                             LIFECYCLE.values() if b and row[b]) or "-",
                    (f"{total['p50'] * 1e3:,.2f}" if total else "-"),
                    (f"{total['p99'] * 1e3:,.2f}" if total else "-")])
            print()
            print(render_table(
                ["tenant", "reqs", "ledger", "p50 ms", "p99 ms"],
                tbody, title="per-tenant breakdown"))
        print()
        print(render_worker_timeline(timeline, width=args.width))
        requests = {ev.request for ev in timeline.events
                    if ev.request is not None}
        problems = validate_lifecycles(timeline)
        print(f"requests: {len(requests)}; events: "
              f"{len(timeline.events)}; incomplete lifecycles: "
              f"{len(problems)}")
        print()
    return 0


def _cmd_figure2(args: argparse.Namespace) -> int:
    from .analysis.figure2 import compute_figure2, render_figure2
    from .ccube.machine import MachineParams

    machine = MachineParams(ts=args.ts, tw=args.tw,
                            ports=None if args.ports <= 0 else args.ports)
    ms = [1 << int(x) for x in args.m_exponents.split(",")]
    lo, hi = (int(x) for x in args.dims.split(".."))
    panels = compute_figure2(ms=ms, dims=range(lo, hi + 1), machine=machine)
    print(render_figure2(panels, chart=not args.no_chart))
    return 0


def _cmd_appendix(_args: argparse.Namespace) -> int:
    from .analysis.appendix import render_appendix

    print(render_appendix())
    return 0


def _cmd_timeline(args: argparse.Namespace) -> int:
    from .analysis.timeline import render_phase_timelines

    print(render_phase_timelines(args.e, args.q))
    return 0


def _cmd_crossover(args: argparse.Namespace) -> int:
    from .analysis.crossover import compute_crossover_table, \
        render_crossover_table

    dims = tuple(int(x) for x in args.dims.split(","))
    print(render_crossover_table(compute_crossover_table(dims=dims)))
    return 0


def _cmd_calibration(args: argparse.Namespace) -> int:
    from .analysis.calibration import compute_calibration, render_calibration

    rows = compute_calibration(m=args.m, d=args.d,
                               num_matrices=args.matrices)
    print(render_calibration(rows, m=args.m, d=args.d))
    print("\n(quadratic convergence: decades of tolerance cost ~1 sweep;")
    print(" see EXPERIMENTS.md on comparing absolute counts with Table 2)")
    return 0


def _cmd_sequences(args: argparse.Namespace) -> int:
    from .analysis.report import render_table
    from .orderings import (alpha, alpha_lower_bound, degree, get_ordering)

    rows = []
    for e in range(1, args.max_e + 1):
        row: List[object] = [e, alpha_lower_bound(e)]
        for name in ("br", "permuted-br", "degree4", "min-alpha"):
            try:
                seq = get_ordering(name, max(e, 1)).phase_sequence(e)
                row.append(f"{alpha(seq)}/{degree(seq)}")
            except Exception:
                row.append("-")
        rows.append(row)
    print(render_table(
        ["e", "LB(alpha)", "br a/deg", "p-br a/deg", "deg4 a/deg",
         "min-a a/deg"],
        rows, title="Link sequences: alpha / degree per family"))
    if args.show:
        for name in ("br", "permuted-br", "degree4", "min-alpha"):
            try:
                seq = get_ordering(name, args.show).phase_sequence(args.show)
                print(f"{name:12s} D_{args.show} = "
                      f"<{''.join(str(x) for x in seq)}>")
            except Exception as exc:
                print(f"{name:12s} D_{args.show} unavailable: {exc}")
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    from .jacobi import ParallelOneSidedJacobi, make_symmetric_test_matrix
    from .orderings import get_ordering
    from .simulator import PipelinedParallelJacobi

    print(f"Simulated {1 << args.d}-node multi-port {args.d}-cube, "
          f"ordering '{args.ordering}', matrix {args.m}x{args.m}")
    A = make_symmetric_test_matrix(args.m, rng=args.seed)
    ordering = get_ordering(args.ordering, args.d)
    t0 = time.perf_counter()
    res = ParallelOneSidedJacobi(ordering, tol=args.tol).solve(A)
    t1 = time.perf_counter()
    ref = np.linalg.eigh(A)[0]
    err = float(np.abs(res.eigenvalues - ref).max())
    print(f"  un-pipelined: {res.sweeps} sweeps, max |eig - eigh| = "
          f"{err:.2e}, simulated comm time = {res.trace.total_cost:,.0f}, "
          f"wall = {t1 - t0:.2f}s")
    t0 = time.perf_counter()
    pres = PipelinedParallelJacobi(ordering, tol=args.tol).solve(A)
    t1 = time.perf_counter()
    perr = float(np.abs(pres.eigenvalues - ref).max())
    print(f"  pipelined:    {pres.sweeps} sweeps, max |eig - eigh| = "
          f"{perr:.2e}, simulated comm time = {pres.trace.total_cost:,.0f}, "
          f"wall = {t1 - t0:.2f}s")
    gain = res.trace.total_cost / pres.trace.total_cost
    print(f"  multi-port communication speed-up: {gain:.2f}x "
          f"(widest step used {pres.trace.max_links_in_step()} links)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    p = argparse.ArgumentParser(
        prog="repro-jacobi",
        description="Reproduce 'Jacobi Orderings for Multi-Port Hypercubes'"
                    " (IPPS 1998)")
    p.add_argument("--version", action="version",
                   version=f"%(prog)s {_package_version()}")
    sub = p.add_subparsers(dest="command", required=True)

    t1 = sub.add_parser("table1", help="alpha of permuted-BR vs lower bound")
    t1.add_argument("--min-e", type=int, default=7)
    t1.add_argument("--max-e", type=int, default=14)
    t1.set_defaults(func=_cmd_table1)

    t2 = sub.add_parser("table2", help="convergence rate of the orderings")
    t2.add_argument("--matrices", type=int, default=30,
                    help="matrices per configuration (paper: 30)")
    t2.add_argument("--max-m", type=int, default=64)
    t2.add_argument("--tol", type=float, default=1e-9)
    t2.add_argument("--seed", type=int, default=1998)
    t2.add_argument("--engine", choices=("sequential", "batched"),
                    default="batched",
                    help="solver engine: batched multi-matrix (default) "
                         "or the historical per-matrix loop; results are "
                         "bit-identical")
    t2.add_argument("--workers", type=int, default=0,
                    help="worker processes to shard the configuration "
                         "grid across (0 = in-process, -1 = one per CPU "
                         "core); sweep counts are bit-identical for "
                         "every worker count")
    t2.set_defaults(func=_cmd_table2)

    sb = sub.add_parser("svd-bench",
                        help="batched SVD ensembles across a shape grid")
    sb.add_argument("--shapes", default=None,
                    help="comma-separated NxM shapes, e.g. 32x8,64x16 "
                         "(default: the built-in grid)")
    sb.add_argument("--matrices", type=int, default=10,
                    help="matrices per shape")
    sb.add_argument("--tol", type=float, default=1e-9)
    sb.add_argument("--seed", type=int, default=1998)
    sb.add_argument("--engine", choices=("sequential", "batched"),
                    default="batched",
                    help="solver engine: batched multi-matrix (default) "
                         "or the historical per-matrix loop; sweep "
                         "counts are bit-identical")
    sb.add_argument("--workers", type=int, default=0,
                    help="worker processes to shard the shape grid "
                         "across (0 = in-process, -1 = one per CPU "
                         "core); sweep counts are bit-identical for "
                         "every worker count")
    sb.set_defaults(func=_cmd_svd_bench)

    lb = sub.add_parser("load-bench",
                        help="open-loop load scenarios: fixed "
                             "micro-batching settings, admission "
                             "control under overload, and multi-tenant "
                             "QoS under a noisy neighbour")
    lb.add_argument("--scenarios", default=None,
                    help="comma-separated scenario names (default: all; "
                         "known: trickle, bursty, bimodal, mixed, "
                         "overload, tenants)")
    lb.add_argument("--items", type=int, default=None,
                    help="submissions per scenario (default: per-scenario "
                         "sizes)")
    lb.add_argument("--seed", type=int, default=0)
    lb.add_argument("--warmup", type=float, default=0.2,
                    help="leading fraction of each trace excluded from "
                         "the latency percentiles")
    lb.add_argument("--transport", choices=("pickle", "shm"),
                    default=None,
                    help="batch data plane for every replayed service: "
                         "the pickle pipe (default) or the zero-copy "
                         "shared-memory plane — run once with each for "
                         "an A/B comparison")
    lb.add_argument("--json", default=None, metavar="PATH",
                    help="also write the machine-readable report here")
    lb.add_argument("--trace-out", default=None, metavar="PATH",
                    help="run every replay with per-request tracing on "
                         "and write the trace bundle (event timelines "
                         "+ settings) here")
    lb.add_argument("--replay", default=None, metavar="PATH",
                    help="instead of generating scenarios, reconstruct "
                         "the recorded arrivals of this trace bundle, "
                         "replay them against the recorded settings "
                         "and report whether the per-request outcomes "
                         "still match (exit status 1 when any run "
                         "diverges)")
    lb.set_defaults(func=_cmd_load_bench)

    tr = sub.add_parser("trace-report",
                        help="analyse a recorded trace: per-stage "
                             "latency percentiles, worker utilisation, "
                             "a per-tenant breakdown and a worker-usage "
                             "Gantt")
    tr.add_argument("path",
                    help="trace JSON: a load-bench --trace-out bundle "
                         "or a single exported timeline")
    tr.add_argument("--width", type=int, default=64,
                    help="Gantt chart width in columns")
    tr.set_defaults(func=_cmd_trace_report)

    f2 = sub.add_parser("figure2", help="relative communication cost curves")
    f2.add_argument("--dims", default="5..15",
                    help="hypercube dimension range lo..hi")
    f2.add_argument("--m-exponents", default="18,23,32",
                    help="comma-separated log2 of matrix dimensions")
    f2.add_argument("--ts", type=float, default=1000.0)
    f2.add_argument("--tw", type=float, default=100.0)
    f2.add_argument("--ports", type=int, default=0,
                    help="simultaneous links per node (<=0 = all-port)")
    f2.add_argument("--no-chart", action="store_true")
    f2.set_defaults(func=_cmd_figure2)

    ap = sub.add_parser("appendix", help="verify the appendix lemmas/theorems")
    ap.set_defaults(func=_cmd_appendix)

    tl = sub.add_parser("timeline",
                        help="link-usage Gantt of a pipelined phase")
    tl.add_argument("--e", type=int, default=5)
    tl.add_argument("--q", type=int, default=4)
    tl.set_defaults(func=_cmd_timeline)

    co = sub.add_parser("crossover",
                        help="where degree-4 vs permuted-BR wins")
    co.add_argument("--dims", default="6,8,10,12,14")
    co.set_defaults(func=_cmd_crossover)

    ca = sub.add_parser("calibration",
                        help="stopping-rule sensitivity of Table 2")
    ca.add_argument("--m", type=int, default=32)
    ca.add_argument("--d", type=int, default=3)
    ca.add_argument("--matrices", type=int, default=10)
    ca.set_defaults(func=_cmd_calibration)

    sq = sub.add_parser("sequences", help="inspect the link sequences")
    sq.add_argument("--max-e", type=int, default=10)
    sq.add_argument("--show", type=int, default=0,
                    help="print the full sequences for this e")
    sq.set_defaults(func=_cmd_sequences)

    dm = sub.add_parser("demo", help="solve one eigenproblem on the simulator")
    dm.add_argument("--m", type=int, default=64)
    dm.add_argument("--d", type=int, default=3)
    dm.add_argument("--ordering", default="degree4")
    dm.add_argument("--tol", type=float, default=1e-9)
    dm.add_argument("--seed", type=int, default=0)
    dm.set_defaults(func=_cmd_demo)
    return p


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
