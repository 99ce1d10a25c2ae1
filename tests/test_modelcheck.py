"""Tests for the exhaustive model checker — and the exhaustive safety
results it establishes on small instances."""

import pytest

from repro.app.higher_layer import HigherLayer
from repro.core.corruption import plant_invalid_message
from repro.core.ledger import DeliveryLedger
from repro.core.protocol import SSMFP
from repro.experiments.exhaustive import _instances
from repro.network.topologies import line_network, paper_figure3_network
from repro.obs import MetricsRegistry
from repro.routing.selfstab_bfs import SelfStabilizingBFSRouting
from repro.routing.static import StaticRouting
from repro.verify.liveness import LivenessChecker
from repro.verify.modelcheck import ModelChecker

from tests.helpers import make_ssmfp
from tests.reference_engines import DeepcopyModelChecker


class TestCheckerMechanics:
    def test_trivial_instance_one_terminal(self):
        def make():
            net = line_network(2)
            proto = make_ssmfp(net)
            proto.hl.submit(0, "m", 1)
            return proto

        result = ModelChecker(make).run()
        assert result.ok
        assert result.terminal_states >= 1
        assert result.states > 1

    def test_truncation_reported(self):
        def make():
            net = line_network(3)
            proto = make_ssmfp(net)
            for i in range(3):
                proto.hl.submit(0, f"m{i}", 2)
            return proto

        result = ModelChecker(make, max_states=5).run()
        assert result.truncated
        assert not result.ok

    @pytest.mark.parametrize(
        "checker", [ModelChecker, DeepcopyModelChecker], ids=["snapshot", "deepcopy"]
    )
    def test_fan_out_guard_truncates_instead_of_raising(self, checker):
        # run() never raises: a selection fan-out beyond the safety valve
        # yields a truncated result with an explanatory note, not an
        # escaping ReproError.
        def make():
            net = line_network(5)
            proto = make_ssmfp(net)
            for p in range(4):
                proto.hl.submit(p, f"m{p}", 4)
            return proto

        result = checker(make, max_selection_width=2).run()
        assert result.truncated
        assert not result.ok
        assert result.note is not None and "fan-out" in result.note

    def test_state_cap_note(self):
        def make():
            net = line_network(3)
            proto = make_ssmfp(net)
            for i in range(3):
                proto.hl.submit(0, f"m{i}", 2)
            return proto

        result = ModelChecker(make, max_states=5).run()
        assert result.truncated
        assert result.note is not None and "state cap" in result.note

    def test_unknown_engine_rejected(self):
        # The search is serial: "snapshot" is the one value the keyword
        # still takes, and the pooled engine's knobs are gone.
        for engine in ("teleport", "parallel"):
            with pytest.raises(ValueError, match="engine"):
                ModelChecker(lambda: None, engine=engine)
        with pytest.raises(TypeError, match="workers"):
            ModelChecker(lambda: None, workers=2)
        with pytest.raises(TypeError, match="engine"):
            LivenessChecker(lambda: None, engine="snapshot")


class TestExhaustiveSafety:
    """Every reachable configuration of these instances satisfies the
    invariants, and every terminal configuration delivered everything —
    checked exhaustively, not sampled."""

    def test_same_payload_pair_line3(self):
        def make():
            net = line_network(3)
            proto = make_ssmfp(net)
            proto.hl.submit(0, "dup", 2)
            proto.hl.submit(0, "dup", 2)
            return proto

        result = ModelChecker(make, max_selection_width=2000).run()
        assert result.ok, result.violations
        assert result.terminal_states == 1

    def test_with_planted_garbage(self):
        def make():
            net = line_network(3)
            proto = make_ssmfp(net)
            plant_invalid_message(proto, 2, 1, "E", "g", last=1, color=0)
            plant_invalid_message(proto, 0, 1, "R", "g", last=0, color=1)
            proto.hl.submit(0, "m", 2)
            return proto

        result = ModelChecker(make, max_selection_width=2000).run()
        assert result.ok, result.violations

    def test_with_corrupted_routing_and_live_A(self):
        def make():
            net = line_network(3)
            routing = SelfStabilizingBFSRouting(net)
            routing.set_entry(2, 1, 1, 0)  # misroute toward the wrong side
            proto = make_ssmfp(net, routing=routing)
            proto.hl.submit(0, "m", 2)
            return proto, [routing]

        result = ModelChecker(make, max_selection_width=2000).run()
        assert result.ok, result.violations

    def test_crossing_flows_fig3_network(self):
        def make():
            net = paper_figure3_network()
            proto = make_ssmfp(net)
            proto.hl.submit(net.id_of("a"), "x", net.id_of("d"))
            proto.hl.submit(net.id_of("c"), "y", net.id_of("b"))
            return proto

        result = ModelChecker(
            make, max_states=150_000, max_selection_width=4000
        ).run()
        assert result.ok, result.violations


class TestCheckerFindsRealBugs:
    def test_literal_r5_counterexample_found(self):
        """The erratum, machine-found: exhaustive search produces a
        concrete execution in which the paper's printed R5 (without the
        q != p conjunct) loses a valid message."""

        def make():
            net = line_network(3)
            proto = make_ssmfp(net, r5_literal=True)
            proto.hl.submit(0, "dup", 2)
            proto.hl.submit(0, "dup", 2)
            return proto

        result = ModelChecker(make, max_selection_width=2000).run()
        assert not result.ok
        assert any("lost" in v for v in result.violations)

    def test_corrected_r5_same_instance_is_safe(self):
        def make():
            net = line_network(3)
            proto = make_ssmfp(net)  # corrected rule (default)
            proto.hl.submit(0, "dup", 2)
            proto.hl.submit(0, "dup", 2)
            return proto

        assert ModelChecker(make, max_selection_width=2000).run().ok

    def test_colors_off_counterexample_found(self):
        """Ablation A1, exhaustively: without colors some reachable
        configuration loses a message (R4 confirms against a foreign
        copy)."""

        def make():
            net = line_network(3)
            proto = make_ssmfp(net, enable_colors=False)
            proto.hl.submit(0, "dup", 2)
            proto.hl.submit(0, "dup", 2)
            proto.hl.submit(0, "dup", 2)
            return proto

        result = ModelChecker(
            make, max_states=200_000, max_selection_width=4000
        ).run()
        assert any("lost" in v or "undelivered" in v for v in result.violations)


class TestTerminalVerdicts:
    """A terminal configuration that still owes something is a violation:
    a generated valid message not delivered yet, or a submission the
    higher layer never handed over."""

    def test_terminal_with_an_undelivered_uid(self):
        class GenerateOnly(SSMFP):
            def evaluate(self, p, d):
                return [action for action in SSMFP.evaluate(self, p, d)
                        if action.rule == self.generation_rule]

        def make():
            net = line_network(2)
            proto = GenerateOnly(
                net, StaticRouting(net), HigherLayer(net.n), DeliveryLedger()
            )
            proto.hl.submit(0, "m", 1)
            return proto

        result = ModelChecker(make).run()
        assert (result.states, result.terminal_states) == (2, 1)
        assert result.violations == [
            "depth 1: terminal configuration with undelivered uids [1]"
        ]

    def test_terminal_with_a_pending_submission(self):
        class Mute(HigherLayer):
            def before_step(self, step):
                pass

        def make():
            net = line_network(2)
            proto = SSMFP(net, StaticRouting(net), Mute(net.n), DeliveryLedger())
            proto.hl.submit(0, "m", 1)
            return proto

        result = ModelChecker(make).run()
        assert (result.states, result.terminal_states) == (1, 1)
        assert result.violations == [
            "depth 0: terminal configuration with pending submissions"
        ]


class TestProgressReporting:
    INSTANCES = {name: make for name, make, _ in _instances()}

    def test_safety_log_every_rows_and_metrics(self):
        rows = []
        registry = MetricsRegistry()
        make = self.INSTANCES["line(3), garbage in 2 buffers"]
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
        make = self.INSTANCES["line(3), 2 same-payload msgs"]
        LivenessChecker(make, obs=registry).run()
        rows = [
            r for r in registry.rows() if r["metric"] == "verify_states_total"
        ]
        assert rows and all(
            r["labels"]["engine"] == "liveness-snapshot" for r in rows
        )
