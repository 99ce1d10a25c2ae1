"""Parallel-engine tests: bit-identical equality with the serial
engines, graceful degradation, the SelectionOverflow truncated+note
convention across every engine, and progress reporting."""

import pytest

from repro.experiments.exhaustive import _instances
from repro.network.topologies import line_network
from repro.obs import MetricsRegistry
from repro.verify import LivenessChecker, ModelChecker
from repro.verify.parallel import _split_chunks, fork_available, shard_of

from tests.helpers import make_ssmfp
from tests.reference_engines import DeepcopyLivenessChecker
from tests.test_liveness import make_starvation_instance

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="parallel engine requires the fork start method"
)

INSTANCES = {name: make for name, make, _ in _instances()}
FAST = [
    "line(3), garbage in 2 buffers",
    "line(3), corrupted tables + live A",
    "fig3 net, crossing flows",
]


def _fan_out_make():
    """The fan-out overflow instance shared with test_modelcheck."""
    net = line_network(5)
    proto = make_ssmfp(net)
    for p in range(4):
        proto.hl.submit(p, f"m{p}", 4)
    return proto


def _safety_tuple(result):
    return (
        result.states,
        result.transitions,
        result.terminal_states,
        result.truncated,
        tuple(result.violations),
        result.dedup_hits,
        result.skipped_selections,
        result.canons,
    )


def _liveness_tuple(result):
    return (
        result.states,
        result.transitions,
        result.sccs,
        result.truncated,
        tuple(
            (ll.states, ll.starved_uids, ll.sample_cycle_length)
            for ll in result.livelocks
        ),
    )


# -- shard protocol primitives -------------------------------------------------


class TestSharding:
    def test_shard_of_is_stable_and_in_range(self):
        key = ((), (), ((), ()), (), ((), 0, 0, 0))
        for workers in (1, 2, 3, 8):
            owner = shard_of(key, workers)
            assert 0 <= owner < workers
            assert shard_of(key, workers) == owner  # no per-process salt

    def test_split_chunks_contiguous_and_balanced(self):
        items = list(range(10))
        chunks = _split_chunks(items, 3)
        assert len(chunks) == 3
        assert [x for chunk in chunks for x in chunk] == items
        sizes = [len(c) for c in chunks]
        assert max(sizes) - min(sizes) <= 1
        assert sizes == sorted(sizes, reverse=True)

    def test_split_chunks_more_workers_than_items(self):
        chunks = _split_chunks([1, 2], 4)
        assert chunks == [[1], [2], [], []]


# -- safety engine equality ----------------------------------------------------


@needs_fork
class TestParallelSafety:
    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize("name", FAST)
    def test_bit_identical_to_serial_snapshot(self, name, workers):
        make = INSTANCES[name]
        serial = ModelChecker(make, collect_canons=True).run()
        par = ModelChecker(
            make, engine="parallel", workers=workers, collect_canons=True
        ).run()
        assert _safety_tuple(par) == _safety_tuple(serial), name

    def test_bit_identical_under_full_reduction(self):
        make = INSTANCES["line(3), garbage in 2 buffers"]
        serial = ModelChecker(
            make, reduction="full", collect_canons=True
        ).run()
        par = ModelChecker(
            make, engine="parallel", workers=3, reduction="full",
            collect_canons=True,
        ).run()
        assert _safety_tuple(par) == _safety_tuple(serial)
        assert par.reduction == "full"
        assert par.group_size == serial.group_size

    def test_single_worker_degrades_to_snapshot_with_note(self):
        make = INSTANCES["fig3 net, crossing flows"]
        serial = ModelChecker(make, collect_canons=True).run()
        par = ModelChecker(
            make, engine="parallel", workers=1, collect_canons=True
        ).run()
        assert _safety_tuple(par) == _safety_tuple(serial)
        assert "degraded" in par.reduction_note

    def test_fan_out_guard_truncates_instead_of_raising(self):
        # The engine-asymmetry regression (parallel arm): the overflow
        # surfaces as truncated+note through the worker pipes too.
        result = ModelChecker(
            _fan_out_make, max_selection_width=2,
            engine="parallel", workers=2,
        ).run()
        assert result.truncated
        assert not result.ok
        assert result.note is not None and "fan-out" in result.note

    def test_state_cap_truncates_between_rounds(self):
        def make():
            net = line_network(3)
            proto = make_ssmfp(net)
            for i in range(3):
                proto.hl.submit(0, f"m{i}", 2)
            return proto

        result = ModelChecker(
            make, max_states=5, engine="parallel", workers=2
        ).run()
        assert result.truncated
        assert result.note is not None and "state cap" in result.note
        # Level-synchronous rounds may overshoot by at most one level's
        # expansion, never run away.
        assert result.states < 200


# -- liveness engine equality --------------------------------------------------


class TestLivenessOverflow:
    """Satellite regression: LivenessChecker.run() must report a fan-out
    overflow as truncated+note — the same convention as ModelChecker —
    on every engine, instead of raising."""

    @pytest.mark.parametrize(
        "checker", [LivenessChecker, DeepcopyLivenessChecker],
        ids=["snapshot", "deepcopy"],
    )
    def test_truncates_with_note(self, checker):
        result = checker(_fan_out_make, max_selection_width=2).run()
        assert result.truncated
        assert not result.ok
        assert result.note is not None and "fan-out" in result.note

    @needs_fork
    def test_truncates_with_note_parallel(self):
        result = LivenessChecker(
            _fan_out_make, max_selection_width=2,
            engine="parallel", workers=2,
        ).run()
        assert result.truncated
        assert not result.ok
        assert result.note is not None and "fan-out" in result.note

    def test_state_cap_notes(self):
        def make():
            net = line_network(3)
            proto = make_ssmfp(net)
            proto.hl.submit(0, "m", 2)
            return proto

        result = LivenessChecker(make, max_states=4).run()
        assert result.truncated
        assert result.note is not None and "state cap" in result.note


@needs_fork
class TestParallelLiveness:
    def test_graph_identical_on_clean_instance(self):
        make = INSTANCES["line(3), 2 same-payload msgs"]
        serial = LivenessChecker(make).run()
        par = LivenessChecker(make, engine="parallel", workers=2).run()
        assert _liveness_tuple(par) == _liveness_tuple(serial)
        assert par.ok == serial.ok

    def test_starvation_cycle_found_identically(self):
        make = make_starvation_instance("fixed")
        kwargs = dict(
            max_states=60_000, max_selection_width=4000, ignore_pending={0}
        )
        serial = LivenessChecker(make, **kwargs).run()
        par = LivenessChecker(
            make, engine="parallel", workers=2, **kwargs
        ).run()
        assert serial.livelocks  # the A2 starvation
        assert _liveness_tuple(par) == _liveness_tuple(serial)

    def test_single_worker_degrades_with_note(self):
        make = INSTANCES["line(3), 2 same-payload msgs"]
        serial = LivenessChecker(make).run()
        par = LivenessChecker(make, engine="parallel", workers=1).run()
        assert _liveness_tuple(par) == _liveness_tuple(serial)
        assert par.note is not None and "degraded" in par.note


# -- progress reporting --------------------------------------------------------


class TestProgressReporting:
    def test_safety_log_every_rows_and_metrics(self):
        rows = []
        registry = MetricsRegistry()
        make = INSTANCES["line(3), garbage in 2 buffers"]
        result = ModelChecker(
            make, log_every=100, on_progress=rows.append, obs=registry
        ).run()
        assert result.states > 100
        assert rows, "expected at least one progress row"
        for row in rows:
            assert set(row) == {
                "states", "frontier", "states_per_s", "dedup_hits",
                "elapsed_s",
            }
        assert [r["states"] for r in rows] == sorted(r["states"] for r in rows)
        names = {r["metric"] for r in registry.rows()}
        assert "verify_states_total" in names
        assert "verify_transitions_total" in names
        assert "verify_dedup_ratio" in names

    def test_liveness_metrics_labelled_by_engine(self):
        registry = MetricsRegistry()
        make = INSTANCES["line(3), 2 same-payload msgs"]
        LivenessChecker(make, obs=registry).run()
        rows = [
            r for r in registry.rows() if r["metric"] == "verify_states_total"
        ]
        assert rows and all(
            r["labels"]["engine"] == "liveness-snapshot" for r in rows
        )
