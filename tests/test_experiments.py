"""Tests for the experiment modules.

Three layers: every report is pinned byte for byte against
``tests/golden/experiments/<id>.txt`` (the tables of EXPERIMENTS.md;
regenerate deliberately with ``python tests/test_experiments.py
--regenerate``, see docs/TESTING.md) — here the 17 that regenerate in under
a second, X5 in ``tests/slow_gates.py`` through the same comparison; the
declared sweeps are exercised on small corners of their grids for the
*shape* each table exists to show; and the one fold/loop they share is
tested on its own.
"""

import difflib
import pathlib
import sys

import pytest

from repro.errors import ConfigurationError
from repro.experiments import EXPERIMENTS, run_experiment
from repro.experiments import (
    ablations,
    comparison,
    congestion,
    fast_choice,
    fig1,
    fig2,
    fig3,
    fig4,
    message_passing,
    open_problem,
    overhead,
    prop4,
    prop5,
    prop6,
    prop7,
    routing_study,
    sustained_faults,
)
from repro.experiments.sweep import Sweep, network_of, worst

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden" / "experiments"
#: X5 (exhaustive model checking, ~25 s) is the one report too slow to
#: regenerate per tier-1 run: tests/slow_gates.py compares it, and is the
#: only place its closing ``line(4)`` instance is exhausted (the verifier
#: tests explore the six small ones).
GOLDEN_IDS = [exp_id for exp_id in EXPERIMENTS if exp_id != "X5"]


def assert_report_matches_golden(exp_id):
    golden = (GOLDEN_DIR / f"{exp_id}.txt").read_text()
    report = run_experiment(exp_id) + "\n"
    if report != golden:
        diff = "".join(
            difflib.unified_diff(
                golden.splitlines(keepends=True),
                report.splitlines(keepends=True),
                fromfile=f"tests/golden/experiments/{exp_id}.txt",
                tofile=f"repro experiment {exp_id}",
            )
        )
        pytest.fail(f"{exp_id} no longer regenerates its table:\n{diff}")


class TestRegistry:
    def test_all_expected_ids_present(self):
        assert set(EXPERIMENTS) == {
            "F1", "F2", "F3", "F4", "P4", "P5", "P6", "P7",
            "T1", "T2", "A1-A4",
            "X1", "X2", "X3", "X4", "X5", "X6", "X7",
        }

    def test_unknown_id_raises(self):
        with pytest.raises(ConfigurationError, match="unknown experiment"):
            run_experiment("F9")

    def test_dispatch_runs_entry(self):
        out = run_experiment("F1")
        assert "Figure 1" in out


class TestGoldenReports:
    @pytest.mark.parametrize("exp_id", GOLDEN_IDS)
    def test_report_is_byte_identical(self, exp_id):
        assert_report_matches_golden(exp_id)

    def test_every_golden_file_has_an_experiment(self):
        assert {p.stem for p in GOLDEN_DIR.glob("*.txt")} == set(EXPERIMENTS)


class TestSweep:
    SWEEP = Sweep(
        title="t",
        run_one=lambda a, b, seed: {"a": a, "b": b, "seed": seed, "score": seed % 2},
        axes={"a": (1, 2), "b": ("x", "y")},
        seeds=(1, 2, 3),
        fold=worst(lambda row: row["score"]),
    )

    def test_last_axis_varies_fastest(self):
        rows = self.SWEEP.rows()
        assert [(r["a"], r["b"]) for r in rows] == [
            (1, "x"), (1, "y"), (2, "x"), (2, "y")
        ]

    def test_worst_keeps_the_first_maximal_seed(self):
        # Seeds 1 and 3 tie on the key: the strict '>' of the nine loops
        # this fold replaced kept the first, and so does max().
        assert {r["seed"] for r in self.SWEEP.rows()} == {1}

    def test_overrides_shrink_the_grid(self):
        rows = self.SWEEP.rows(seeds=(2,), a=(2,))
        assert [(r["a"], r["b"], r["seed"]) for r in rows] == [
            (2, "x", 2), (2, "y", 2)
        ]

    def test_unknown_axis_rejected(self):
        with pytest.raises(TypeError, match="no such axis"):
            self.SWEEP.rows(c=(1,))

    def test_report_renders_title_and_the_rows_keys_as_columns(self):
        out = self.SWEEP.report(seeds=(1,)).splitlines()
        assert out[0] == "t"
        assert out[1].split(" | ") == ["a", "b", "seed", "score"]

    @pytest.mark.parametrize(
        "label, n, m",
        [("ring(10)", 10, 10), ("grid(3x3)", 9, 12), ("lollipop(5,4)", 9, 14),
         ("hypercube(3)", 8, 12)],
    )
    def test_network_of_label(self, label, n, m):
        net = network_of(label)
        assert (net.n, net.m) == (n, m)

    def test_network_of_passes_hidden_kwargs(self):
        assert network_of("random_tree(9)", seed=5).m == 8


class TestFig1:
    def test_rows_cover_all_destinations(self):
        rows = fig1.run_fig1()
        names = {r["destination"] for r in rows}
        assert {"a", "b", "c", "d", "e"}.issubset(names)

    def test_render_mentions_buffers(self):
        out = fig1.render_component()
        assert "b_" in out and "->" in out

    def test_one_tree_per_destination_and_a_cycle_when_corrupted(self):
        rows = fig1.run_fig1()
        correct = [r for r in rows if "corrupted" not in str(r["destination"])]
        assert len(correct) == 5
        assert all(r["tree_shaped"] and r["acyclic"] for r in correct)
        bad = [r for r in rows if "corrupted" in str(r["destination"])]
        assert bad and not bad[0]["acyclic"]


class TestFig2:
    def test_correct_row_acyclic(self):
        rows = fig2.run_fig2()
        assert rows[0]["acyclic"] and not rows[1]["acyclic"]

    def test_render_has_internal_edges(self):
        out = fig2.render_component()
        assert "bufR_" in out and "bufE_" in out

    def test_two_buffers_per_processor(self):
        correct = fig2.run_fig2()[0]
        assert correct["tables"] == "correct"
        assert correct["buffers"] == 10  # 2 per processor
        assert correct["internal_edges"] == 5
        assert correct["forward_edges"] == 4


class TestFig3:
    def test_replay_checks_hold(self):
        report = fig3.run_fig3()
        assert len(report.checks) >= 12
        assert len(report.deliveries) == 3
        assert len(report.configurations) == 16  # configurations 0..15

    def test_replay_deterministic(self):
        a = fig3.run_fig3()
        b = fig3.run_fig3()
        assert a.configurations == b.configurations


class TestFig4:
    def test_cases_classified(self):
        assert [r["classified"] for r in fig4.run_fig4_cases()] == [1, 1, 2, 3]

    def test_evolution_monotone_delivery(self):
        rows = fig4.run_fig4_evolution()
        delivered = [r["delivered"] for r in rows]
        assert delivered == sorted(delivered)

    def test_evolution_passes_through_type_3(self):
        evolution = fig4.run_fig4_evolution()
        assert evolution[-1]["delivered"] <= 3
        assert any(r["type3"] > 0 for r in evolution)


class TestProp4:
    def test_single_run_within_bound(self):
        row = prop4.run_one("ring", 5, seed=1)
        assert row["within_bound"]
        assert row["planted"] == 10

    def test_bound_is_tight_somewhere(self):
        rows = prop4.SWEEP.rows(seeds=(1,), n=(4,))
        assert any(r["ratio"] == 1.0 for r in rows)

    def test_bound_holds_and_saturates_across_sizes(self):
        rows = prop4.SWEEP.rows(seeds=(1, 2), n=(4, 8))
        assert all(r["within_bound"] for r in rows)
        assert any(r["ratio"] == 1.0 for r in rows)


class TestProp5:
    def test_correct_tables_run(self):
        row = prop5.run_one("ring(10)", corrupted=False, seed=1)
        assert row["probe_rounds"] >= row["D"]
        assert row["R_A_rounds"] == 0

    def test_corrupted_tables_run(self):
        row = prop5.run_one("line(8)", corrupted=True, seed=1)
        assert row["R_A_rounds"] > 0
        assert row["probe_rounds"] is not None

    def test_sweep_within_the_envelope(self):
        rows = prop5.SWEEP.rows(seeds=(1, 2))
        assert all(r["within"] for r in rows)
        # The probe crosses the diameter: at least D rounds.
        assert all(r["probe_rounds"] >= r["D"] for r in rows)
        # The stabilization time of corrupted runs was actually measured.
        corrupted = [r for r in rows if r["tables"] == "corrupted"]
        assert all(r["R_A_rounds"] is not None and r["R_A_rounds"] > 0 for r in corrupted)


class TestProp6:
    def test_saturated_emitter_measures_waits(self):
        row = prop6.run_one("star(8)", corrupted=False, seed=1)
        assert row["generated"] == 4
        assert row["max_wait_rounds"] >= 0

    def test_sweep_within_the_envelope(self):
        rows = prop6.SWEEP.rows(seeds=(1, 2))
        assert all(r["within"] for r in rows)
        # Saturation makes waiting real.
        assert all(r["generated"] >= 4 for r in rows)
        assert any(r["max_wait_rounds"] > 0 for r in rows)


class TestProp7:
    def test_amortized_below_worst_case(self):
        row = prop7.run_one("line", 10, seed=1)
        assert row["amortized_rounds"] < row["delta^D"]

    def test_amortized_cost_scales_with_d_not_delta_d(self):
        rows = prop7.SWEEP.rows(seeds=(1,), n=(6, 14))
        big = [r for r in rows if r["n"] == 14]
        assert all(r["amortized_rounds"] < r["delta^D"] / 10 for r in big)
        assert all(r["amortized_rounds"] <= 3 * r["D"] + 3 for r in rows)


class TestComparison:
    def test_ssmfp_clean_split_dirty(self):
        clean = comparison.run_one("ssmfp", corrupted=True, seed=1)
        assert clean["violations"] == 0
        dirty_total = 0
        for seed in (1, 2, 3):
            dirty_total += comparison.run_one("ms-split", corrupted=False, seed=seed)[
                "violations"
            ]
        assert dirty_total > 0

    def test_totals_over_seeds(self):
        rows = comparison.SWEEP.rows(seeds=(1, 2, 3))
        by_key = {(r["protocol"], r["tables"]): r for r in rows}
        for tables in ("correct", "corrupted"):
            row = by_key[("ssmfp", tables)]
            assert row["runs"] == 3
            assert row["violations"] == row["losses"] == row["undelivered"] == 0
        # The naive shared-memory port of the classical scheme duplicates.
        assert by_key[("ms-split", "correct")]["duplications"] > 0
        assert by_key[("ms-split", "corrupted")]["duplications"] > 0


class TestOverhead:
    def test_buffer_ratio_is_two(self):
        rows = overhead.SWEEP.rows(seeds=(1,))
        ratios = [r for r in rows if r["protocol"] == "ratio ssmfp/ms"]
        assert all(r["buffers_total"] == 2.0 for r in ratios)

    def test_overcost_is_a_small_constant_factor(self):
        rows = overhead.SWEEP.rows(seeds=(1, 2))
        assert [r["protocol"] for r in rows[:3]] == [
            "ms-atomic", "ssmfp", "ratio ssmfp/ms"
        ]
        ratios = [r for r in rows if r["protocol"] == "ratio ssmfp/ms"]
        assert len(ratios) == 4
        for r in ratios:
            assert r["moves_per_msg"] is not None and r["moves_per_msg"] < 5
            assert r["steps"] is not None and r["steps"] < 6


class TestAblations:
    def test_a1_colors_prevent_losses(self):
        a1 = ablations.run_a1_colors(seeds=range(8))
        assert a1["losses_with_colors"] == 0
        assert a1["losses_without_colors"] > 0

    def test_a2_fixed_priority_starves_fifo_does_not(self):
        a2 = ablations.run_a2_fairness(stream_lengths=(2, 12))
        at = {
            (r["policy"], r["competing_stream"]): r["victim_delivered_at_step"]
            for r in a2
        }
        # FIFO's bypass is bounded (latency roughly flat); fixed grows.
        assert at[("fifo", 12)] - at[("fifo", 2)] <= 10
        assert at[("fixed", 12)] - at[("fixed", 2)] >= 30

    def test_a3_deterministic_wedge(self):
        rows = ablations.run_a3_r5()
        by = {r["ablation"]: r for r in rows}
        assert by["A3 R5 disabled"]["wedged"]
        assert not by["A3 R5 enabled"]["wedged"]
        assert by["A3 R5 enabled"]["delivered"] == 1

    def test_a4_literal_loses(self):
        result = ablations.run_a4_literal_r5(seeds=range(5))
        assert result["losses_corrected"] == 0
        assert result["losses_literal"] > 0


class TestOpenProblem:
    def test_cover_sizes_match_the_cited_exact_values(self):
        by = {r["topology"]: r for r in open_problem.run_open_problem()}
        assert by["random_tree(9)"]["orientation_cover_per_proc"] == 2
        assert by["ring(8)"]["orientation_cover_per_proc"] == 3
        assert by["ring(12)"]["orientation_cover_per_proc"] == 3
        for r in by.values():
            assert r["ssmfp_buffers_per_proc"] == 2 * r["n"]
            assert r["orientation_cover_per_proc"] <= r["dest_based_per_proc"]

    @pytest.mark.parametrize("case", ["ring(8)", "grid(3x3)"])
    def test_cover_scheme_runs_exactly_once(self, case):
        live = open_problem.run_live(case)
        assert live["delivered_once"] == live["messages"]


class TestFastChoice:
    def test_age_priority_beats_fifo_under_contention(self):
        rows = fast_choice.SWEEP.rows(n=(10,), per_source=(4,), seeds=(1, 2))
        by = {r["policy"]: r for r in rows}
        # Exactly-once is checked inside run_one; the starvation-free fix
        # must keep the advantage.
        assert by["aged"]["probe_rounds"] < by["fifo"]["probe_rounds"]
        assert by["aged_fair"]["probe_rounds"] < by["fifo"]["probe_rounds"]
        assert by["speedup fifo/aged"]["probe_rounds"] > 1
        assert [r["policy"] for r in rows] == [
            "fifo", "aged", "aged_fair",
            "speedup fifo/aged", "speedup fifo/aged_fair",
        ]


class TestMessagePassing:
    def test_hop_port_is_exactly_once_and_the_window_pipelines(self):
        rows = message_passing.CLEAN.rows(seeds=(1,))
        assert all(row["delivered_once"] == row["messages"] for row in rows)
        assert all(row["violations"] == 0 for row in rows)
        records = {(row["topology"], row["window"]): row["records"] for row in rows}
        for topology in message_passing.TOPOLOGIES:
            # Several messages per lane: window 4 sends fewer records.
            assert records[topology, 4] < records[topology, 1]

    # The X3 tables the naive OFFER/ACCEPT/RELEASE port printed before
    # HopCore replaced it, kept as evidence in tests/reference_mp_naive.py
    # (imported here, not at the top: ``--regenerate`` runs this file as a
    # script, without the repository root on the path).

    def test_clean_starts_cost_three_wire_messages_per_hop(self):
        from tests import reference_mp_naive as naive

        for topology in naive.TOPOLOGIES:
            row = naive.run_clean(topology, seed=1)
            assert row["delivered_once"] == row["messages"]
            assert row["wire_per_hop"] == 3.0

    def test_one_garbage_offer_starves_but_stays_safe(self):
        from tests import reference_mp_naive as naive

        for topology in naive.TOPOLOGIES:
            row = naive.run_corrupted(topology, seed=1)
            assert row["starved"] == 1  # the open problem, measured
            assert row["safety_violations"] == 0


class TestSustainedFaults:
    def test_safety_holds_and_pressure_costs_rounds(self):
        rows = sustained_faults.SWEEP.rows(seeds=(1,))
        assert all(r["violations"] == 0 for r in rows)
        assert all(r["delivered"] == 16 for r in rows)
        for topology in ("ring", "grid"):
            slowdowns = [r["slowdown"] for r in rows if r["topology"] == topology]
            assert slowdowns[-1] > slowdowns[0]


class TestRoutingStudy:
    def test_convergence_is_polynomial_and_grows_with_size(self):
        rows = routing_study.SWEEP.rows(n=(6, 12), seeds=(1,))
        # Convergence always happened (run_one asserts) within the
        # count-to-cap O(n^2) envelope.
        for r in rows:
            assert r["R_A_rounds"] <= r["n"] ** 2
        for family in ("line", "ring"):
            for daemon in ("synchronous", "distributed"):
                series = [
                    r["R_A_rounds"]
                    for r in rows
                    if r["family"] == family and r["daemon"] == daemon
                ]
                assert series == sorted(series)


class TestCongestion:
    def test_nothing_lost_and_amortized_cost_stable(self):
        rows = congestion.SWEEP.rows(load=(8, 32), seeds=(1,))
        for r in rows:
            assert r["delivered"] == r["offered"]
        for topology in ("ring", "grid"):
            for pattern in ("uniform", "hotspot"):
                small, big = [
                    r for r in rows
                    if r["topology"] == topology and r["pattern"] == pattern
                ]
                assert big["amortized"] <= 2 * small["amortized"] + 1


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit("usage: python tests/test_experiments.py --regenerate")
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for exp_id in EXPERIMENTS:
        (GOLDEN_DIR / f"{exp_id}.txt").write_text(run_experiment(exp_id) + "\n")
        print(f"wrote tests/golden/experiments/{exp_id}.txt")
