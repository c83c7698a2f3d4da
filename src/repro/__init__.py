"""ADAssure reproduction: assertion-based debugging for AD control algorithms.

The package reproduces *ADAssure: Debugging Methodology for Autonomous
Driving Control Algorithms* (Roberts et al., DATE 2024 ASD initiative).
See DESIGN.md for the system inventory and EXPERIMENTS.md for the
reconstructed evaluation.

Quickstart::

    from repro import run_scenario, standard_scenarios, standard_attack
    from repro.core import default_catalog, check_trace, diagnose

    scenario = standard_scenarios(seed=7)["s_curve"]
    result = run_scenario(scenario, controller="pure_pursuit",
                          campaign=standard_attack("gps_drift"))
    report = check_trace(result.trace, default_catalog())
    ranking = diagnose(report)
    print(ranking.top().cause)
"""

from repro.attacks import (
    AttackCampaign,
    combined_attack,
    make_attack,
    standard_attack,
)
from repro.faults import (
    FaultCampaign,
    combined_fault,
    make_fault,
    standard_fault,
)
from repro.sim import RunResult, Scenario, run_scenario, standard_scenarios
from repro.sim.scenario import acc_scenario
from repro.trace import Trace, compute_metrics, diff_traces

# 1.2: columnar trace backend + vectorized assertion checking; the run
# cache moves to the binary trace format (cache layout v2 — older
# entries live under a separate root and are simply not found).
# 1.4: scheduler/executor/result-store split + the distributed campaign
# backend (grid specs embed this version; mixed-version fleets refuse
# to share a campaign).
# 1.7: one RunSpec keys every run (grid points, extension runs and
# probes share one key space; cache layout v3).  pyproject.toml reads
# the version from here.
__version__ = "1.8.0"

__all__ = [
    "run_scenario",
    "standard_scenarios",
    "acc_scenario",
    "Scenario",
    "RunResult",
    "standard_attack",
    "combined_attack",
    "make_attack",
    "AttackCampaign",
    "standard_fault",
    "combined_fault",
    "make_fault",
    "FaultCampaign",
    "Trace",
    "compute_metrics",
    "diff_traces",
    "__version__",
]
