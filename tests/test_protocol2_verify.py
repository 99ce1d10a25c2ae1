"""Verification-layer coverage for the second protocol: the exhaustive
checkers, the reductions, and the incremental engine all consume the
family contract — every differential oracle that pins SSMFP must hold
for SSMFP2 unchanged.
"""

import pytest

from repro.core.corruption import plant_invalid_message
from repro.network.topologies import line_network, ring_network
from repro.sim.runner import build_simulation, fully_quiescent
from repro.verify.liveness import LivenessChecker
from repro.verify.modelcheck import ModelChecker

from tests.helpers import CanonModelChecker, make_ssmfp2
from tests.reference_engines import (
    CheckedSimulator,
    DeepcopyModelChecker,
    FullScanSimulator,
    use_engine,
)


def _dup_pair_line3():
    net = line_network(3)
    proto = make_ssmfp2(net)
    proto.hl.submit(0, "dup", 2)
    proto.hl.submit(0, "dup", 2)
    return proto


class TestExhaustiveSafety:
    def test_dup_pair_line3_safe_and_converges(self):
        result = ModelChecker(_dup_pair_line3, max_selection_width=2000).run()
        assert result.ok, result.violations
        assert result.terminal_states == 1

    def test_with_planted_garbage(self):
        def make():
            net = line_network(3)
            proto = make_ssmfp2(net)
            # The fused scheme has only the R plane; an owned-looking
            # invalid and an unadopted-looking one.
            plant_invalid_message(proto, 2, 1, "R", "g", last=2, color=0)
            plant_invalid_message(proto, 0, 1, "R", "g", last=1, color=1)
            proto.hl.submit(0, "m", 2)
            return proto

        result = ModelChecker(make, max_selection_width=2000).run()
        assert result.ok, result.violations

    def test_e_plane_garbage_rejected(self):
        # The contract gates corruption helpers on buffer_kinds: SSMFP2
        # has no emission plane to plant into.
        net = line_network(3)
        proto = make_ssmfp2(net)
        with pytest.raises(ValueError, match="does not use the 'E' plane"):
            plant_invalid_message(proto, 1, 0, "E", "g", last=1, color=0)


class TestEngineOracles:
    def test_snapshot_matches_deepcopy_canons(self):
        """Bit-equivalence of the reachable sets: the snapshot/restore
        engine and the deepcopy oracle agree canon-for-canon."""
        snap = CanonModelChecker(_dup_pair_line3).run()
        deep = DeepcopyModelChecker(_dup_pair_line3).run()
        assert snap.ok and deep.ok
        assert snap.canons == deep.canons

    def test_por_preserves_the_reachable_set(self):
        full = CanonModelChecker(_dup_pair_line3).run()
        por = CanonModelChecker(_dup_pair_line3, reduction="por").run()
        assert por.ok
        assert por.canons == full.canons

    def test_symmetry_quotient_is_safe_on_a_ring(self):
        def make():
            net = ring_network(4)
            proto = make_ssmfp2(net)
            proto.hl.submit(0, "m", 2)
            return proto

        result = ModelChecker(
            make, reduction="symmetry", max_selection_width=2000
        ).run()
        assert result.ok, result.violations


class TestLiveness:
    def test_no_livelock_on_dup_pair(self):
        result = LivenessChecker(_dup_pair_line3).run()
        assert result.ok, result.livelocks


class TestIncrementalEngine:
    """The component-granular enabled-set cache serves SSMFP2 through the
    same notifier sinks; the classic full scan is the oracle."""

    def _sim(self, engine_cls=None):
        from repro.app.workload import uniform_workload

        net = ring_network(8)
        sim = build_simulation(
            net,
            workload=uniform_workload(net.n, count=16, seed=5),
            protocol="ssmfp2",
            seed=7,
            garbage={"fraction": 0.3, "seed": 2},
            scramble_choice_queues=True,
        )
        return use_engine(sim, engine_cls) if engine_cls else sim

    def test_incremental_matches_full_scan(self):
        results = {}
        for mode in (False, True):
            sim = self._sim(FullScanSimulator if mode else None)
            res = sim.run(100_000, halt=fully_quiescent)
            results[mode] = (res.steps, res.rule_counts)
            assert sim.ledger.all_valid_delivered()
        assert results[False] == results[True]

    def test_debug_check_cross_validates_every_step(self):
        sim = self._sim(CheckedSimulator)
        sim.run(100_000, halt=fully_quiescent)
        assert sim.ledger.all_valid_delivered()
