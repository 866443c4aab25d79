"""repro — Jacobi orderings for multi-port hypercubes.

A full reproduction of D. Royo, A. Gonzalez, M. Valero-Garcia,
*"Jacobi Orderings for Multi-Port Hypercubes"* (IPPS 1998): the BR,
minimum-alpha, permuted-BR and degree-4 parallel Jacobi orderings, the
communication-pipelining technique they exploit, a multi-port hypercube
simulator, a one-sided Jacobi eigensolver running on it, and the
experiment drivers regenerating every table and figure of the paper.

Quick start
-----------
>>> import numpy as np
>>> from repro import ParallelOneSidedJacobi, get_ordering
>>> from repro.jacobi import make_symmetric_test_matrix
>>> A = make_symmetric_test_matrix(32, rng=0)
>>> solver = ParallelOneSidedJacobi(get_ordering("degree4", 3))
>>> result = solver.solve(A)
>>> bool(np.allclose(result.eigenvalues, np.linalg.eigh(A)[0], atol=1e-6))
True

Package layout
--------------
* :mod:`repro.hypercube` — d-cube topology, Hamiltonian-path machinery,
  link permutations.
* :mod:`repro.orderings` — the paper's link-sequence families, metrics,
  sweep schedules, pair-coverage validation.
* :mod:`repro.ccube` — CC-cube algorithms, communication pipelining, the
  multi-port cost model.
* :mod:`repro.jacobi` — rotation kernels and the sequential / parallel /
  SPMD eigensolvers.
* :mod:`repro.engine` — the batched multi-matrix eigensolver engine,
  schedule cache, and Monte-Carlo ensemble runner.
* :mod:`repro.service` — the sharded streaming solve service: worker
  process fan-out, work-conserving micro-batching, and the
  :class:`JacobiService` submit/future facade.
* :mod:`repro.simulator` — in-process message passing, communication
  traces, the packetised pipelined executor.
* :mod:`repro.analysis` — Table 1 / Table 2 / Figure 2 / appendix
  reproduction drivers.
"""

from .ccube import (
    MachineParams,
    PAPER_MACHINE,
    lower_bound_sweep_cost,
    optimal_pipelining_degree,
    sweep_communication_cost,
    unpipelined_sweep_cost,
)
from .errors import (
    ConvergenceError,
    OrderingError,
    PipeliningError,
    ReproError,
    ScheduleError,
    SequenceError,
    SimulationError,
    TopologyError,
)
from .engine import (
    BatchedOneSidedJacobi,
    BatchedOneSidedSVD,
    BatchedResult,
    BatchedSvdResult,
    GLOBAL_SCHEDULE_CACHE,
    ScheduleCache,
    run_ensemble,
    run_svd_ensemble,
)
from .hypercube import Hypercube
from .jacobi import (
    ParallelOneSidedJacobi,
    make_symmetric_test_matrix,
    onesided_jacobi,
)
from .service import (
    JacobiService,
    MicroBatcher,
    ShardedExecutor,
    SolveResult,
    SvdResult,
)
from .orderings import (
    BROrdering,
    CustomOrdering,
    Degree4Ordering,
    JacobiOrdering,
    MinAlphaOrdering,
    ORDERING_NAMES,
    PermutedBROrdering,
    check_pair_coverage,
    get_ordering,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # machine / cost
    "MachineParams", "PAPER_MACHINE", "sweep_communication_cost",
    "lower_bound_sweep_cost", "unpipelined_sweep_cost",
    "optimal_pipelining_degree",
    # topology
    "Hypercube",
    # orderings
    "JacobiOrdering", "BROrdering", "PermutedBROrdering", "Degree4Ordering",
    "MinAlphaOrdering", "CustomOrdering", "get_ordering", "ORDERING_NAMES",
    "check_pair_coverage",
    # solvers
    "ParallelOneSidedJacobi", "onesided_jacobi",
    "make_symmetric_test_matrix",
    # batched engines
    "BatchedOneSidedJacobi", "BatchedResult", "ScheduleCache",
    "GLOBAL_SCHEDULE_CACHE", "run_ensemble",
    "BatchedOneSidedSVD", "BatchedSvdResult", "run_svd_ensemble",
    # solve service
    "JacobiService", "SolveResult", "SvdResult", "MicroBatcher",
    "ShardedExecutor",
    # errors
    "ReproError", "TopologyError", "SequenceError", "OrderingError",
    "ScheduleError", "PipeliningError", "ConvergenceError",
    "SimulationError",
]
