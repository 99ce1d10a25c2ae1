"""Declarative scenarios: the one spec schema, its builder, its runs.

One scenario spec (TOML or JSON) = one system in its initial
configuration + one workload + one timed fault schedule + budgets + pass
criteria, compilable onto **either** execution target: the simulator's
step clock (:mod:`repro.scenario.simdriver`) or the live runtime's wall
clock (:mod:`repro.scenario.runtimedriver`).  The campaign driver
(:mod:`repro.scenario.campaign`) expands a spec's ``matrix`` axes, fans
runs out over a process pool, and leaves diffable ``repro.obs/v1``
artifacts behind; :mod:`repro.scenario.record` fingerprints a run so it
can be re-verified bit for bit.
"""

from repro.scenario.actions import ACTIONS, ScheduleEvent, validate_schedule
from repro.scenario.campaign import (
    CampaignResult,
    expand_matrix,
    run_campaign,
    run_one_scenario,
)
from repro.scenario.record import RunRecord, record_scenario, verify_record
from repro.scenario.result import ScenarioResult, evaluate_pass
from repro.scenario.runtimedriver import run_runtime_scenario
from repro.scenario.simdriver import run_sim_scenario
from repro.scenario.spec import ScenarioSpec, load_scenario_file

__all__ = [
    "ACTIONS",
    "CampaignResult",
    "RunRecord",
    "ScenarioResult",
    "ScenarioSpec",
    "ScheduleEvent",
    "evaluate_pass",
    "expand_matrix",
    "load_scenario_file",
    "record_scenario",
    "run_campaign",
    "run_one_scenario",
    "run_runtime_scenario",
    "run_sim_scenario",
    "validate_schedule",
    "verify_record",
]
