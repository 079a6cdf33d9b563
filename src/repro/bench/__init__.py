"""Benchmark workloads and the figure/table regeneration harness.

The paper evaluates its collective library with the NAS Integer Sort and
GUPs benchmarks adapted from Oak Ridge's OpenSHMEM benchmark suite
(section 5.2), both of which exercise the reduction and broadcast
collectives.  :mod:`~repro.bench.gups` and :mod:`~repro.bench.nas_is`
are faithful ports; :mod:`~repro.bench.harness` sweeps them over PE
counts, :mod:`~repro.bench.paper` commits Figures 4-5 and the ablations
as model-time records of :mod:`~repro.bench.sweeps`, and
:mod:`~repro.bench.reporting` prints the same rows Figures 4-5 plot
(operations per second, total and per PE).  The harness is not
imported here, so ``python -m repro.bench.harness`` runs without warning.
"""

from .gups import GupsParams, GupsResult, run_gups
from .nas_is import IsParams, IsResult, run_is, CLASS_PARAMS
from .micro import (
    MicroResult,
    put_latency,
    get_latency,
    put_bandwidth,
    message_rate,
)
from . import reporting

__all__ = [
    "GupsParams",
    "GupsResult",
    "run_gups",
    "IsParams",
    "IsResult",
    "run_is",
    "CLASS_PARAMS",
    "MicroResult",
    "put_latency",
    "get_latency",
    "put_bandwidth",
    "message_rate",
    "reporting",
]
