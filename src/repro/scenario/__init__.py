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

from repro import _lazy_facade

__getattr__, __dir__ = _lazy_facade(__name__, {
    "actions": "ACTIONS ScheduleEvent validate_schedule",
    "campaign": "CampaignResult expand_matrix run_campaign run_one_scenario",
    "record": "RunRecord record_file record_scenario verify_record",
    "result": "ScenarioResult evaluate_pass",
    "runtimedriver": "run_runtime_scenario",
    "simdriver": "run_sim_scenario",
    "spec": "ScenarioSpec load_scenario_file",
})

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
    "record_file",
    "record_scenario",
    "run_campaign",
    "run_one_scenario",
    "run_runtime_scenario",
    "run_sim_scenario",
    "validate_schedule",
    "verify_record",
]
