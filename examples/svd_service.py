#!/usr/bin/env python
"""Streaming SVD traffic through the solve service.

The service's second traffic class: submit tall/square *general*
matrices with ``kind="svd"`` and get futures resolving to thin-SVD
factors, bit-identical to the sequential
:func:`repro.jacobi.svd.onesided_svd` of each matrix.  Eigen and SVD
submissions coexist on one service — the micro-batcher keys them apart,
so every flush is exactly one batched-engine call of one kind.

Run::

    python examples/svd_service.py [--count 16] [--n 48] [--m 24]
        [--max-batch 8] [--max-delay 0.02] [--workers 0]
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from repro import JacobiService
from repro.jacobi import make_symmetric_test_matrix, onesided_svd


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=16,
                        help="SVD matrices to stream through the service")
    parser.add_argument("--n", type=int, default=48, help="rows")
    parser.add_argument("--m", type=int, default=24, help="columns")
    parser.add_argument("--d", type=int, default=2,
                        help="cube dimension of the eigen side traffic")
    parser.add_argument("--max-batch", type=int, default=8,
                        help="matrices per micro-batch (size flush)")
    parser.add_argument("--max-delay", type=float, default=0.02,
                        help="seconds a matrix may wait while every "
                             "solver is busy (deadline flush)")
    parser.add_argument("--workers", type=int, default=0,
                        help="worker processes (0 = in-process)")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    svd_mats = [rng.normal(size=(args.n, args.m))
                for _ in range(args.count)]
    eig_mats = [make_symmetric_test_matrix(4 << args.d, rng=(args.seed, k))
                for k in range(4)]

    # --- mixed traffic: SVD and eigen share one service ---------------
    t0 = time.perf_counter()
    with JacobiService(d=args.d, max_batch=args.max_batch,
                       max_delay=args.max_delay,
                       workers=args.workers) as service:
        svd_futures = [service.submit(A, kind="svd") for A in svd_mats]
        eig_futures = [service.submit(A) for A in eig_mats]
        svd_results = [f.result() for f in svd_futures]
        eig_results = [f.result() for f in eig_futures]
        stats = service.stats()
    t_stream = time.perf_counter() - t0
    print(f"streamed {args.count} {args.n}x{args.m} SVDs and "
          f"{len(eig_mats)} eigenproblems in {t_stream:.3f}s "
          f"({stats.throughput:,.1f} solves/s once flowing)")
    print(f"  submissions by kind: {stats.submitted_by_kind}; "
          f"micro-batches: {stats.batches} "
          f"({', '.join(f'{c}: {n}' for c, n in stats.flushes.items())})")

    # --- same answers as the sequential SVD, bit for bit --------------
    sample = list(range(0, args.count, max(1, args.count // 4)))
    refs = {k: onesided_svd(svd_mats[k]) for k in sample}
    identical = all(
        np.array_equal(refs[k].S, svd_results[k].S)
        and np.array_equal(refs[k].U, svd_results[k].U)
        for k in sample)
    print(f"  spot-checked {len(sample)} SVDs against "
          f"onesided_svd: bit-identical = {identical}")

    # --- factors behave like an SVD should ----------------------------
    worst_recon = max(
        float(np.abs((r.U * r.S) @ r.Vt - A).max())
        for A, r in zip(svd_mats, svd_results))
    worst_lapack = max(
        float(np.abs(r.S - np.linalg.svd(A, compute_uv=False)).max())
        for A, r in zip(svd_mats, svd_results))
    sweeps = [r.sweeps for r in svd_results]
    print(f"  worst |U S Vt - A|: {worst_recon:.2e}; "
          f"worst |sigma - lapack|: {worst_lapack:.2e}")
    print(f"  SVD sweeps per matrix: min {min(sweeps)}, "
          f"max {max(sweeps)}, mean {sum(sweeps) / len(sweeps):.2f}; "
          f"eigen sweeps: {[r.sweeps for r in eig_results]}")


if __name__ == "__main__":
    main()
