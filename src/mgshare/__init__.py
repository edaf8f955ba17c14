"""Inverter microgrid toolkit: reactive sharing under hard voltage limits.

Simulation, steady-state analysis, stability certification, and gain
tuning for a fleet of droop-controlled inverters running a distributed
reactive-power-sharing controller whose voltage commands are confined to
per-unit limit bands by construction.

``import mgshare`` and scenario parsing need numpy only. The integrator
(scipy) loads with the ``mgshare.simulate`` submodule, which this package
imports on first use of ``simulate``, ``TimeSeries``,
``detect_saturated_set`` or ``sharing_error``. ``mgshare.simulate`` is the
submodule, and calling it runs the simulation: ``mgshare.simulate(scenario)``.
"""

import importlib

from .controller import IbrParams, leakage, voltage_output
from .errors import (
    ConvergenceError,
    DisconnectedGraphError,
    MgshareError,
    NetworkDataError,
    ScenarioFormatError,
    SimulationError,
)
from .graph import CommGraph
from .network import (
    Bases,
    Connector,
    Line,
    Load,
    NetworkData,
    ReducedNetwork,
    jacobians,
    kron_reduce,
    power_flow,
)
from .scenario_io import Event, Scenario, bundled_scenario_path, parse_scenario, serialize_scenario
from .stability import (
    Analysis,
    LmiCertificate,
    ReducedBlocks,
    analyze,
    assemble_blocks,
    boundary_layer_check,
    epsilon_sweep,
    solve_lmi,
)
from .steady_state import Equilibrium, PropertyReport, solve_equilibrium, verify_properties
from .tuning import TunedParams, TuningSpec, tune, validate

__version__ = "0.1.0"

__all__ = [
    "IbrParams", "leakage", "voltage_output",
    "MgshareError", "DisconnectedGraphError", "NetworkDataError",
    "ScenarioFormatError", "ConvergenceError", "SimulationError",
    "CommGraph",
    "Bases", "Line", "Connector", "Load", "NetworkData", "ReducedNetwork",
    "kron_reduce", "power_flow", "jacobians",
    "parse_scenario", "serialize_scenario", "bundled_scenario_path",
    "Event", "Scenario", "TimeSeries", "simulate", "detect_saturated_set",
    "sharing_error",
    "ReducedBlocks", "assemble_blocks", "LmiCertificate", "solve_lmi",
    "boundary_layer_check", "epsilon_sweep", "Analysis", "analyze",
    "Equilibrium", "solve_equilibrium", "PropertyReport", "verify_properties",
    "TuningSpec", "TunedParams", "tune", "validate",
    "__version__",
]

_SIMULATE_NAMES = ("simulate", "TimeSeries", "detect_saturated_set", "sharing_error")


def __getattr__(name):
    if name not in _SIMULATE_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # importing the submodule binds the package attribute ``simulate`` to it
    sim = importlib.import_module(".simulate", __name__)
    value = sim if name == "simulate" else getattr(sim, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_SIMULATE_NAMES))
