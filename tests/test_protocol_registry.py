"""Tests for the protocol-family seam: the registry, the family contract,
and every layer that resolves protocols by name (runner, spec, cluster,
CLI).
"""

import json

import pytest

from repro.buffergraph.destination_based import destination_based_buffer_graph
from repro.buffergraph.ssmfp_graph import ssmfp_buffer_graph
from repro.cli import main
from repro.core.family import ForwardingProtocol
from repro.core.protocol import SSMFP
from repro.core.protocol2 import SSMFP2
from repro.core.registry import PROTOCOLS, available, resolve, runtime_window
from repro.errors import ConfigurationError
from repro.network.topologies import line_network
from repro.runtime.cluster import ClusterSpec
from repro.scenario import ScenarioSpec
from repro.scenario.runtimedriver import build_cluster_spec
from repro.sim.runner import build_simulation, delivered_and_drained

#: Each member's Merlin-Schweitzer buffer graph: SSMFP's R/E pair per
#: (processor, destination) is Figure 2, SSMFP2's fused buffer Figure 1.
#: Acyclicity is the deadlock-freedom argument, so a newly registered
#: protocol must name its graph here.
BUFFER_GRAPHS = {
    "ssmfp": ssmfp_buffer_graph,
    "ssmfp2": destination_based_buffer_graph,
}


class TestRegistry:
    def test_available_names(self):
        assert available() == ["ssmfp", "ssmfp2"]

    def test_resolve_is_case_insensitive(self):
        assert resolve("ssmfp") is SSMFP
        assert resolve("SSMFP2") is SSMFP2

    def test_unknown_name_is_a_configuration_error(self):
        with pytest.raises(ConfigurationError, match="unknown protocol"):
            resolve("bogus")

    def test_error_lists_known_names(self):
        with pytest.raises(ConfigurationError, match="ssmfp, ssmfp2"):
            resolve("nope")


class TestFamilyContract:
    """Every registered protocol declares the full contract the substrates
    consume — rule tables, buffer shape, offer plane, runtime budget."""

    @pytest.mark.parametrize("name", ["ssmfp", "ssmfp2"])
    def test_contract_attributes(self, name):
        cls = resolve(name)
        assert issubclass(cls, ForwardingProtocol)
        assert isinstance(cls.name, str) and cls.name
        assert len(cls.rule_order) == 6 and callable(cls.evaluate)
        assert cls.generation_rule == cls.rule_order[0]
        assert cls.generation_rule in ("R1", "F1")
        assert set(cls.forwarding_rules)  # non-empty move labels
        assert cls.offer_kind in cls.buffer_kinds
        assert name in BUFFER_GRAPHS

    def test_rule_labels_are_disjoint_across_the_family(self):
        # moves_per_delivery's default (union over the family) is only
        # correct while no two protocols share a rule label.
        seen = {}
        for key, cls in PROTOCOLS.items():
            net = line_network(3)
            proto_labels = {
                a.rule
                for a in _probe_actions(cls, net)
            }
            for label in proto_labels:
                assert label not in seen, (
                    f"rule label {label} used by both {seen[label]} and {key}"
                )
                seen[label] = key

    def test_runtime_window_caps(self):
        assert SSMFP.runtime_window_cap is None   # two buffers: pipelined
        assert SSMFP2.runtime_window_cap == 1     # fused buffer: stop-and-wait

    def test_buffer_graphs_build_on_the_same_network(self):
        net = line_network(4)
        from repro.routing.static import StaticRouting

        routing = StaticRouting(net)
        assert set(BUFFER_GRAPHS) == set(PROTOCOLS)
        for build in BUFFER_GRAPHS.values():
            assert build(net, routing).is_acyclic()


def _probe_actions(cls, net):
    """Enabled actions of a tiny loaded instance of ``cls``."""
    from tests.helpers import make_ssmfp, make_ssmfp2

    maker = make_ssmfp if cls is SSMFP else make_ssmfp2
    proto = maker(net)
    proto.hl.submit(0, "m", net.n - 1)
    proto.before_step(0)
    return [a for p in range(net.n) for a in proto.enabled_actions(p)]


class TestRunnerDispatch:
    def test_build_simulation_resolves_by_name(self):
        net = line_network(4)
        sim = build_simulation(net, protocol="ssmfp2", routing_mode="static")
        assert isinstance(sim.forwarding, SSMFP2)
        assert sim.forwarding.name == "SSMFP2"

    def test_default_stays_ssmfp(self):
        net = line_network(4)
        sim = build_simulation(net, routing_mode="static")
        assert isinstance(sim.forwarding, SSMFP)

    def test_unknown_protocol_raises(self):
        with pytest.raises(ConfigurationError, match="unknown protocol"):
            build_simulation(line_network(3), protocol="bogus")

    def test_protocol_options_reach_the_constructor(self):
        net = line_network(4)
        sim = build_simulation(
            net,
            protocol="ssmfp2",
            protocol_options={"enable_colors": False},
            routing_mode="static",
        )
        assert sim.forwarding.enable_colors is False

    def test_spec_protocol_key(self):
        sim = ScenarioSpec.from_dict(
            {
                "topology": {"name": "line", "kwargs": {"n": 4}},
                "workload": {"name": "uniform", "kwargs": {"count": 4}},
                "protocol": "ssmfp2",
                "seed": 1,
            }
        ).build_simulation()
        assert isinstance(sim.forwarding, SSMFP2)
        sim.run(10_000, halt=delivered_and_drained)
        assert sim.ledger.all_valid_delivered()


class TestRuntimeProtocolWindow:
    """The live cluster knows no protocol: its two callers that pick one by
    name, ``repro runtime --protocol`` and a runtime scenario's lowering,
    cap the lane window at the protocol's ``runtime_window_cap``."""

    RUNTIME = ["runtime", "--topology", "line", "--n", "3", "--messages", "3"]

    @staticmethod
    def scenario_data(protocol, **runtime):
        return {
            "target": "runtime",
            "protocol": protocol,
            "topology": {"name": "line", "kwargs": {"n": 3}},
            "workload": {"name": "uniform", "kwargs": {"count": 3}},
            "runtime": runtime,
        }

    def lowered_window(self, protocol, **runtime):
        spec = ScenarioSpec.from_dict(self.scenario_data(protocol, **runtime))
        return build_cluster_spec(spec).window

    def test_runtime_window_caps_at_the_protocol_cap(self):
        assert runtime_window("ssmfp2", 32) == 1
        assert runtime_window("ssmfp", 8) == 8
        with pytest.raises(ConfigurationError, match="unknown protocol"):
            runtime_window("bogus", 8)

    def test_cli_ssmfp2_runs_every_lane_at_window_1(self, capsys):
        assert main(self.RUNTIME + ["--protocol", "ssmfp2"]) == 0
        assert "runtime [OK] window=1 " in capsys.readouterr().out

    def test_cli_ssmfp_keeps_the_configured_window(self, capsys):
        assert main(self.RUNTIME + ["--protocol", "ssmfp", "--window", "8"]) == 0
        assert "runtime [OK] window=8 " in capsys.readouterr().out

    def test_cli_unknown_protocol_exits_2(self, capsys):
        assert main(self.RUNTIME + ["--protocol", "bogus"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "unknown protocol" in err
        assert len(err.strip().splitlines()) == 1

    def test_scenario_ssmfp2_lowers_to_window_1(self):
        assert self.lowered_window("ssmfp2") == 1

    def test_scenario_ssmfp_keeps_the_configured_window(self):
        assert self.lowered_window("ssmfp", window=8) == 8
        assert self.lowered_window("ssmfp") == ClusterSpec.window

    def test_scenario_unknown_protocol_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bogus.json"
        path.write_text(json.dumps(self.scenario_data("bogus")))
        code = main(["scenario", "run", str(path), "--target", "runtime"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "unknown protocol" in err
        assert len(err.strip().splitlines()) == 1


class TestCliProtocolFlag:
    VERIFY = ["verify", "--topology", "line", "--n", "3", "--messages", "2"]

    def test_verify_ssmfp2(self, capsys):
        assert main(self.VERIFY + ["--protocol", "ssmfp2"]) == 0
        assert "exhaustively safe" in capsys.readouterr().out

    def test_verify_unknown_protocol_exits_2(self, capsys):
        assert main(self.VERIFY + ["--protocol", "bogus"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "unknown protocol" in err

    def test_simulate_ssmfp2(self, capsys):
        code = main(
            ["simulate", "--topology", "line", "--n", "5", "--messages", "5",
             "--seed", "1", "--protocol", "ssmfp2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "delivered=5" in out

    def test_simulate_unknown_protocol_exits_2(self, capsys):
        code = main(
            ["simulate", "--topology", "line", "--n", "4", "--messages", "2",
             "--protocol", "nope"]
        )
        assert code == 2
        assert "unknown protocol" in capsys.readouterr().err
