#!/usr/bin/env python
"""Quickstart for the sharded streaming solve service.

Instead of handing a whole ensemble to a solver, submit matrices *as
they arrive* to a :class:`repro.service.JacobiService`.  The service
micro-batches them by ``(m, ordering)`` — flushing whenever a solver
is free (idle), a batch fills up (size) or, while every solver is busy,
its oldest matrix has waited too long (deadline) — and runs every
flush through the batched engine, optionally sharded
across worker processes.  Per-matrix results stay bit-identical to the
sequential solver: batching and sharding are throughput knobs only.

Run::

    python examples/streaming_service.py [--count 24] [--m 32] [--d 2]
        [--max-batch 8] [--max-delay 0.02] [--workers 0]
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from repro import JacobiService, ParallelOneSidedJacobi, get_ordering
from repro.jacobi import make_symmetric_test_matrix


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=24,
                        help="matrices to stream through the service")
    parser.add_argument("--m", type=int, default=32)
    parser.add_argument("--d", type=int, default=2)
    parser.add_argument("--ordering", default="degree4")
    parser.add_argument("--max-batch", type=int, default=8,
                        help="matrices per micro-batch (size flush)")
    parser.add_argument("--max-delay", type=float, default=0.02,
                        help="seconds a matrix may wait while every "
                             "solver is busy (deadline flush)")
    parser.add_argument("--workers", type=int, default=0,
                        help="worker processes (0 = in-process)")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    mats = [make_symmetric_test_matrix(args.m, rng=(args.seed, k))
            for k in range(args.count)]

    # --- stream the traffic through the service ----------------------
    t0 = time.perf_counter()
    with JacobiService(d=args.d, ordering=args.ordering,
                       max_batch=args.max_batch,
                       max_delay=args.max_delay,
                       workers=args.workers) as service:
        futures = [service.submit(A) for A in mats]
        results = [f.result() for f in futures]
        stats = service.stats()
    t_stream = time.perf_counter() - t0
    print(f"streamed {args.count} {args.m}x{args.m} matrices in "
          f"{t_stream:.3f}s "
          f"({stats.throughput:,.1f} solves/s once flowing)")
    print(f"  micro-batches: {stats.batches} "
          f"({', '.join(f'{c}: {n}' for c, n in stats.flushes.items())}); "
          f"mean batch size {stats.mean_batch_size:.1f}")
    print(f"  workers: {stats.workers or 'in-process'}, "
          f"failed: {stats.failed}, queue drained to "
          f"{stats.queue_depth}")

    # --- same answers as the sequential solver, bit for bit ----------
    solver = ParallelOneSidedJacobi(get_ordering(args.ordering, args.d))
    sample = range(0, args.count, max(1, args.count // 4))
    identical = all(
        np.array_equal(solver.solve(mats[k]).eigenvalues,
                       results[k].eigenvalues)
        for k in sample)
    print(f"  spot-checked {len(list(sample))} matrices against the "
          f"sequential solver: bit-identical = {identical}")

    sweeps = [r.sweeps for r in results]
    print(f"  sweeps per matrix: min {min(sweeps)}, max {max(sweeps)}, "
          f"mean {sum(sweeps) / len(sweeps):.2f}")


if __name__ == "__main__":
    main()
