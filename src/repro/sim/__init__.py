"""Simulation glue: kernel, configuration, system, runner, results."""

from .config import DEFAULT_CONFIG, SystemConfig
from ..kernel import Kernel, SimulationError
from ..obs import Observation, SimulationStallError, StallReport
from .results import RunResult
from .runner import allocate_placements, run_query
from .system import MemorySystem, SystemStats

__all__ = [
    "DEFAULT_CONFIG",
    "SystemConfig",
    "Kernel",
    "Observation",
    "SimulationError",
    "SimulationStallError",
    "StallReport",
    "RunResult",
    "allocate_placements",
    "run_query",
    "MemorySystem",
    "SystemStats",
]
