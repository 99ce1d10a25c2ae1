"""Golden determinism tests.

Reference specs with frozen outcome fingerprints.  Any change to the
engine, the rules, the daemons or the seeded generators that alters an
execution — even one that keeps the tests green semantically — shows up
here, forcing the change to be deliberate (update the fingerprint and say
why in the commit).
"""

import pytest

from repro.scenario import RunRecord, verify_record

GOLDEN = [
    (
        "ring_corrupted",
        {
            "topology": {"name": "ring", "kwargs": {"n": 8}},
            "workload": {"name": "uniform", "kwargs": {"count": 16, "seed": 4}},
            "sim": {
                "routing": {"mode": "selfstab", "corruption": {"kind": "worst"}},
                "garbage": {"fraction": 0.4},
                "scramble_choice_queues": True,
            },
            "seed": 11,
        },
        {
            "delivered": 16,
            "generated": 16,
            "invalid_delivered": 56,
            "rounds": 63,
            "routing_correct": True,
            "rule_counts": {
                "R1": 16, "R2": 198, "R3": 160, "R4": 158, "R5": 3,
                "R6": 72, "RTfix": 122, "RTself": 8,
            },
            "steps": 228,
        },
    ),
    (
        "grid_static_hotspot",
        {
            "topology": {"name": "grid", "kwargs": {"rows": 3, "cols": 3}},
            "workload": {"name": "hotspot", "kwargs": {"dest": 0, "per_source": 2}},
            "sim": {"routing": {"mode": "static"}},
            "seed": 21,
        },
        {
            "delivered": 16,
            "generated": 16,
            "invalid_delivered": 0,
            "rounds": 45,
            "routing_correct": True,
            "rule_counts": {"R1": 16, "R2": 52, "R3": 36, "R4": 36, "R6": 16},
            "steps": 104,
        },
    ),
    (
        "line_aged_policy",
        {
            "topology": {"name": "line", "kwargs": {"n": 6}},
            "workload": {
                "name": "same_payload",
                "kwargs": {"source": 0, "dest": 5, "count": 6},
            },
            "sim": {
                "protocol_options": {"choice_policy": "aged"},
                "daemon": {"name": "round_robin"},
            },
            "seed": 31,
        },
        {
            "delivered": 6,
            "generated": 6,
            "invalid_delivered": 0,
            "rounds": 31,
            "routing_correct": True,
            "rule_counts": {"R1": 6, "R2": 36, "R3": 30, "R4": 30, "R6": 6},
            "steps": 108,
        },
    ),
]


@pytest.mark.parametrize("name,spec,outcome", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_golden_fingerprint(name, spec, outcome):
    record = RunRecord(spec=spec, outcome=outcome)
    problems = verify_record(record)
    assert problems == [], (
        f"{name}: execution changed — if deliberate, update the golden "
        f"fingerprint: {problems}"
    )
