"""The benchmark's declared metrics, and the statistics shared by its tools.

``BENCHMARK.json`` at the repository root is the one place metric names,
units, directions and regression bounds are written down; the runner,
``compare.py`` and the tests all read them from here, so no second copy
can drift.  This module imports nothing outside the standard library:
the runner's parent process and ``compare.py`` stay free of NumPy, which
keeps the parent's share of ``peak_rss_mb`` small and steady.
"""

from __future__ import annotations

import json
import math
import re
import statistics
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
SPEC_PATH = ROOT / "BENCHMARK.json"

#: What every metric and workload name must match.
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")


def load_spec(path: Path = SPEC_PATH) -> dict:
    """Parse ``BENCHMARK.json``."""
    return json.loads(Path(path).read_text(encoding="utf-8"))


def metric_table(spec: dict, section: str) -> Dict[str, dict]:
    """``name -> {"unit", "better", "bound"?}`` for one section
    (``"end_to_end"`` or ``"per_layer"``), in declaration order."""
    return {m["name"]: m for m in spec[section]}


def workload_names(spec: dict) -> List[str]:
    """The declared workload names, in declaration order."""
    return [w["name"] for w in spec["workloads"]]


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile with linear interpolation between order
    statistics (NumPy's default method); 0.0 for no values."""
    xs = sorted(values)
    if not xs:
        return 0.0
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = math.ceil(pos)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)``
    gives them (a single value is its own quartiles)."""
    xs = list(values)
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3
