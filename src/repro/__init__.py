"""repro: a full reproduction of "SAM: Accelerating Strided Memory
Accesses" (MICRO 2021).

Public API tour:

* ``repro.core`` -- the SAM designs (SAM-sub, SAM-IO, SAM-en) and the
  comparators (GS-DRAM, GS-DRAM-ecc, RC-NVM-bit/wd, baseline, column
  store), behind :func:`repro.core.make_scheme`.
* ``repro.sim.run_query`` -- simulate one query on one design.
* ``repro.imdb`` -- the benchmark tables and queries of Table 3.
* ``repro.dram`` -- the cycle-level DDR4/RRAM substrate and the
  functional chip datapath that proves the gather semantics.
* ``repro.ecc`` -- chipkill codecs (SSC, SSC-DSD), layouts, fault
  injection.
* ``repro.harness`` -- regenerates every table and figure of the paper.
"""

from .core import FIGURE12_DESIGNS, available_schemes, make_scheme
from .imdb import Table, TA, TB, all_queries, by_name
from .sim import RunResult, SystemConfig, run_query

__version__ = "1.0.0"

__all__ = [
    "FIGURE12_DESIGNS",
    "available_schemes",
    "make_scheme",
    "Table",
    "TA",
    "TB",
    "all_queries",
    "by_name",
    "RunResult",
    "SystemConfig",
    "run_query",
    "__version__",
]
