"""Tests for workload generators."""

import pytest

from repro.app.workload import (
    Workload,
    adversarial_same_payload_workload,
    burst_workload,
    hotspot_workload,
    permutation_workload,
    single_message_workload,
    uniform_workload,
    workload_by_name,
)
from repro.errors import ConfigurationError


class TestWorkloadType:
    def test_submissions_sorted_by_step(self):
        w = Workload("t", [(5, 0, "b", 1), (0, 0, "a", 1)])
        assert [s[0] for s in w.submissions] == [0, 5]

    def test_self_addressed_rejected(self):
        with pytest.raises(ConfigurationError, match="self-addressed"):
            Workload("t", [(0, 1, "a", 1)])

    def test_due_filters_by_step(self):
        w = Workload("t", [(0, 0, "a", 1), (2, 0, "b", 1)])
        assert len(w.due(0)) == 1
        assert len(w.due(1)) == 0
        assert w.size == 2


class TestGenerators:
    def test_single_message(self):
        w = single_message_workload(0, 3, payload="probe")
        assert w.submissions == [(0, 0, "probe", 3)]

    def test_uniform_count_and_domain(self):
        w = uniform_workload(6, count=30, seed=1)
        assert w.size == 30
        for _, src, _, dest in w.submissions:
            assert 0 <= src < 6 and 0 <= dest < 6 and src != dest

    def test_uniform_deterministic(self):
        assert (
            uniform_workload(6, 10, seed=2).submissions
            == uniform_workload(6, 10, seed=2).submissions
        )

    def test_uniform_spread_steps(self):
        w = uniform_workload(6, 50, seed=3, spread_steps=4)
        steps = {s[0] for s in w.submissions}
        assert steps.issubset(set(range(5)))
        assert len(steps) > 1

    def test_uniform_needs_two_processors(self):
        with pytest.raises(ConfigurationError):
            uniform_workload(1, 5, seed=0)

    def test_permutation_every_processor_sends_once(self):
        w = permutation_workload(7, seed=4)
        sources = [s[1] for s in w.submissions]
        assert sorted(sources) == list(range(7))

    def test_hotspot_targets_one_destination(self):
        w = hotspot_workload(5, dest=2, per_source=3, seed=0)
        assert w.size == 4 * 3
        assert all(dest == 2 for _, _, _, dest in w.submissions)
        assert all(src != 2 for _, src, _, _ in w.submissions)

    def test_burst_structure(self):
        w = burst_workload(5, bursts=3, burst_size=4, gap=10, seed=5)
        assert w.size == 12
        assert {s[0] for s in w.submissions} == {0, 10, 20}

    def test_same_payload_all_identical(self):
        w = adversarial_same_payload_workload(0, 3, count=4)
        payloads = {s[2] for s in w.submissions}
        assert payloads == {"dup"}
        assert w.size == 4

    def test_same_payload_rejects_self(self):
        with pytest.raises(ConfigurationError):
            adversarial_same_payload_workload(2, 2, count=1)


class TestWorkloadByName:
    def test_seeded_generators_get_n_and_seed(self):
        assert (
            workload_by_name("uniform", 6, 3, count=5).submissions
            == uniform_workload(6, 5, seed=3).submissions
        )
        assert workload_by_name("hotspot", 5, 0, dest=0, per_source=2).size == 8
        assert workload_by_name("permutation", 5, 1).size == 5
        assert workload_by_name("burst", 5, 1, bursts=2, burst_size=3, gap=4).size == 6

    def test_explicit_endpoint_generators_take_neither(self):
        assert workload_by_name("single", 9, 9, source=0, dest=2).size == 1
        wl = workload_by_name("same_payload", 9, 9, source=0, dest=2, count=3)
        assert [s[2] for s in wl.submissions] == ["dup"] * 3

    def test_unknown_name_lists_the_vocabulary(self):
        with pytest.raises(ConfigurationError, match="unknown workload.*uniform"):
            workload_by_name("mystery", 4, 0)

    def test_bad_kwargs_are_the_generators_type_error(self):
        with pytest.raises(TypeError, match="per_source"):
            workload_by_name("hotspot", 4, 0, dest=0)
