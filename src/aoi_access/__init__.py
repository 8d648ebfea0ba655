"""Two-user slotted random access: deadline-constrained traffic meets status updates.

Closed-form performance analysis (drop rate, throughput, queue occupancy,
age-of-information distribution) plus a seeded packet-level Monte Carlo
simulator to validate it. The package exports what the command line's
four commands rest on; everything else is reached through its module.
"""

from .channel import LinkParams, ReceiverParams
from .scenarios import load_scenario
from .sim import SimConfig, simulate
from .system import SystemParams, analyze, sweep
from .validate import run_validation

__version__ = "0.1.0"

__all__ = [
    "LinkParams",
    "ReceiverParams",
    "SimConfig",
    "SystemParams",
    "analyze",
    "load_scenario",
    "run_validation",
    "simulate",
    "sweep",
    "__version__",
]
