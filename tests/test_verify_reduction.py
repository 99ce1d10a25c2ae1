"""Reduction-layer tests: automorphism detection, canon permutation and
uid relabeling, symmetry validation, partial-order reduction soundness,
and the randomized differential oracle pinning that every reduced
configuration reaches the same canon set and verdict as the plain
search."""

import random

import pytest

from repro.core.corruption import plant_invalid_message
from repro.network.properties import automorphisms
from repro.network.topologies import (
    complete_network,
    line_network,
    ring_network,
    star_network,
)
from repro.verify.modelcheck import ModelChecker, _System
from repro.verify.reduction import (
    SymmetryReducer,
    permute_canon,
    relabel_uids,
    validate_symmetry,
)

from tests.helpers import make_ssmfp
from tests.reference_engines import DeepcopyModelChecker


def _checker(make, **kw):
    kw.setdefault("max_states", 200_000)
    kw.setdefault("max_selection_width", 20_000)
    return ModelChecker(make, **kw)


def _root_system(make) -> _System:
    system = _System(make())
    system.advance_env()
    return system


# -- automorphism detection ----------------------------------------------------


class TestAutomorphisms:
    def test_line_has_reversal_only(self):
        perms = automorphisms(line_network(4))
        assert set(perms) == {(0, 1, 2, 3), (3, 2, 1, 0)}

    def test_ring_is_dihedral(self):
        perms = automorphisms(ring_network(5))
        assert len(perms) == 10  # 5 rotations x 2 orientations
        assert (1, 2, 3, 4, 0) in perms

    def test_complete_is_symmetric_group(self):
        assert len(automorphisms(complete_network(4))) == 24

    def test_star_fixes_the_hub(self):
        perms = automorphisms(star_network(4))  # hub 0 + 3 leaves
        assert len(perms) == 6
        assert all(perm[0] == 0 for perm in perms)

    def test_large_ring_candidate_families(self):
        # Beyond the brute-force bound the cyclic/dihedral families are
        # validated: a ring keeps its full dihedral group.
        perms = automorphisms(ring_network(12))
        assert len(perms) == 24
        assert all(len(set(p)) == 12 for p in perms)

    def test_identity_always_present(self):
        for net in (line_network(2), ring_network(9)):
            assert tuple(range(net.n)) in automorphisms(net)


# -- canon permutation / uid relabeling ---------------------------------------


class TestCanonAlgebra:
    def _walk_canon(self, make, steps, seed=3):
        """A canon from partway through a random execution."""
        rng = random.Random(seed)
        system = _root_system(make)
        stack = system.stack()
        n = system.proto.net.n
        for _ in range(steps):
            stack.dirty_after({})
            enabled = {p: stack.enabled_actions(p) for p in range(n)}
            enabled = {p: a for p, a in enabled.items() if a}
            if not enabled:
                break
            pid = rng.choice(sorted(enabled))
            rng.choice(enabled[pid]).execute()
            system.step += 1
            system.advance_env()
        return system.canon()

    @staticmethod
    def _ring_make(n=3, k=1):
        def make():
            net = ring_network(n)
            proto = make_ssmfp(net)
            for i in range(n):
                proto.hl.submit(i, "m", (i + k) % n)
            return proto

        return make

    def test_identity_permutation_is_noop(self):
        canon = self._walk_canon(self._ring_make(), steps=4)
        assert permute_canon(canon, (0, 1, 2)) == canon

    def test_permutation_composes_to_identity(self):
        canon = self._walk_canon(self._ring_make(), steps=5)
        rot = (1, 2, 0)
        out = canon
        for _ in range(3):
            out = permute_canon(out, rot)
        assert out == canon

    def test_relabel_uids_idempotent_and_sign_preserving(self):
        def make():
            net = line_network(3)
            proto = make_ssmfp(net)
            plant_invalid_message(proto, 2, 1, "E", "g", last=1, color=0)
            proto.hl.submit(0, "m", 2)
            return proto

        canon = self._walk_canon(make, steps=6)
        once = relabel_uids(canon)
        assert relabel_uids(once) == once
        for entry in once[0]:
            uid = entry[6]
            assert uid != 0
        # Valid uids renumber to 1.. and invalid to -1.. contiguously.
        uids = sorted({e[6] for e in once[0]} | set(once[4][0]))
        assert all(
            (u > 0 and u <= len(uids)) or (u < 0 and u >= -len(uids))
            for u in uids
        )

    def test_representative_is_orbit_invariant(self):
        make = self._ring_make()
        system = _root_system(make)
        reducer, note = validate_symmetry(system.proto, system.canon())
        assert reducer is not None and reducer.group_size == 3, note
        canon = self._walk_canon(make, steps=5)
        rep = reducer.representative(canon)
        for perm in reducer.perms:
            assert reducer.representative(permute_canon(canon, perm)) == rep

    def test_permute_rejects_nonempty_extras(self):
        canon = (((0, 1, "R", "x", 1, 0, 1),), (), ((), ()), (("state",),),
                 ((1,), 1, 0, 0))
        with pytest.raises(ValueError, match="extras"):
            permute_canon(canon, (0, 1))


# -- symmetry validation -------------------------------------------------------


class TestValidateSymmetry:
    def test_rotational_workload_validates_rotations(self):
        make = TestCanonAlgebra._ring_make()
        system = _root_system(make)
        reducer, note = validate_symmetry(system.proto, system.canon())
        # Rotations survive; reflections break the i -> i+1 workload.
        assert reducer.group_size == 3
        assert "3" in note

    def test_asymmetric_workload_keeps_identity_only(self):
        def make():
            net = line_network(3)
            proto = make_ssmfp(net)
            proto.hl.submit(0, "m", 2)
            return proto

        system = _root_system(make)
        reducer, _ = validate_symmetry(system.proto, system.canon())
        assert reducer.group_size == 1

    def test_nonempty_extras_disqualify(self):
        from repro.routing.selfstab_bfs import SelfStabilizingBFSRouting

        net = line_network(3)
        routing = SelfStabilizingBFSRouting(net)
        routing.hop[2][1] = 0  # corrupted table: layer A has work to do
        routing.dist[2][1] = 1
        proto = make_ssmfp(net, routing=routing)
        proto.hl.submit(0, "m", 2)
        system = _System(proto, [routing])
        system.advance_env()
        reducer, note = validate_symmetry(system.proto, system.canon())
        assert reducer is None
        assert "symmetry off" in note

    def test_reducer_requires_a_permutation(self):
        with pytest.raises(ValueError):
            SymmetryReducer([])


# -- partial-order reduction ---------------------------------------------------


class TestPartialOrderReduction:
    def test_preserves_states_and_canons_exactly(self):
        from repro.experiments.exhaustive import _instances

        for name, make, _expect in _instances():
            if "line(4)" in name:
                continue  # ~40 s: tests/slow_gates.py exhausts it under POR
            base = _checker(make, collect_canons=True).run()
            por = _checker(make, reduction="por", collect_canons=True).run()
            assert base.states == por.states, name
            assert base.canons == por.canons, name
            assert base.truncated == por.truncated, name
            assert bool(base.violations) == bool(por.violations), name
            assert por.transitions <= base.transitions, name

    def test_actually_prunes_crossing_flows(self):
        def make():
            net = line_network(3)
            proto = make_ssmfp(net)
            plant_invalid_message(proto, 2, 1, "E", "g", last=1, color=0)
            plant_invalid_message(proto, 0, 1, "R", "g", last=0, color=1)
            proto.hl.submit(0, "m", 2)
            return proto

        base = _checker(make).run()
        por = _checker(make, reduction="por").run()
        assert por.transitions < base.transitions
        assert por.skipped_selections > 0

    def test_aged_fair_disables_por_with_note(self):
        def make():
            net = line_network(3)
            proto = make_ssmfp(net, choice_policy="aged_fair")
            proto.hl.submit(0, "m", 2)
            return proto

        por = _checker(make, reduction="por").run()
        assert "por off" in por.reduction_note
        base = _checker(make).run()
        assert (base.states, base.transitions) == (por.states, por.transitions)

    def test_measured_footprints_sharpen_static_rule(self):
        # On a 4-line with crossing flows the measured dirty trails prune
        # same-destination composites at distance >= 2 that the static
        # closed-neighborhood rule must keep.
        def make():
            net = line_network(4)
            proto = make_ssmfp(net)
            proto.hl.submit(0, "a", 3)
            proto.hl.submit(3, "b", 0)
            return proto

        base = _checker(make, collect_canons=True).run()
        por = _checker(make, reduction="por", collect_canons=True).run()
        assert base.canons == por.canons
        assert por.transitions < base.transitions


# -- symmetry reduction end to end --------------------------------------------


class TestSymmetryReduction:
    def test_symmetric_ring_cut_at_least_group_size_effectively(self):
        make = TestCanonAlgebra._ring_make()
        base = _checker(make).run()
        sym = _checker(make, reduction="symmetry").run()
        assert sym.group_size == 3
        assert not base.violations and not sym.violations
        assert not base.truncated and not sym.truncated
        # The acceptance criterion: >= 2x reachable-state cut.
        assert base.states / sym.states >= 2.0

    def test_orbit_representatives_match_baseline_quotient(self):
        make = TestCanonAlgebra._ring_make()
        system = _root_system(make)
        reducer, _ = validate_symmetry(system.proto, system.canon())
        base = _checker(make, collect_canons=True).run()
        sym = _checker(make, reduction="symmetry", collect_canons=True).run()
        quotient = {reducer.representative(c) for c in base.canons}
        assert quotient == sym.canons

    def test_asymmetric_instance_degrades_to_identity_quotient(self):
        def make():
            net = line_network(3)
            proto = make_ssmfp(net)
            proto.hl.submit(0, "m", 2)
            return proto

        base = _checker(make).run()
        sym = _checker(make, reduction="symmetry").run()
        assert sym.group_size == 1
        # Identity + uid relabeling cannot *add* states.
        assert sym.states <= base.states
        assert bool(base.violations) == bool(sym.violations)


# -- the randomized differential oracle ---------------------------------------


def _random_instance(seed):
    """A seeded random small instance: line(3), two submissions with
    random endpoints, one planted invalid message."""
    rng = random.Random(seed)
    subs = []
    for _ in range(2):
        src = rng.randrange(3)
        dest = rng.randrange(2)
        if dest >= src:
            dest += 1
        subs.append((src, dest))
    d, p = rng.randrange(3), rng.randrange(3)
    last = rng.choice([p] + ([p - 1] if p > 0 else []) + ([p + 1] if p < 2 else []))
    kind = rng.choice(["R", "E"])

    def make():
        net = line_network(3)
        proto = make_ssmfp(net)
        plant_invalid_message(proto, d, p, kind, "g", last=last, color=0)
        for i, (src, dest) in enumerate(subs):
            proto.hl.submit(src, f"m{i}", dest)
        return proto

    return make


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_differential_oracle_all_configurations(seed):
    """The acceptance-criterion oracle: unreduced, POR, symmetry, full and
    clone-per-transition configurations agree on the reachable canon set
    (modulo orbit representatives) and on the violation verdict."""
    make = _random_instance(seed)
    base = _checker(make, collect_canons=True).run()
    verdict = bool(base.violations)
    system = _root_system(make)
    reducer, _ = validate_symmetry(system.proto, system.canon())

    configs = {
        "por": _checker(make, reduction="por", collect_canons=True).run(),
        "symmetry": _checker(make, reduction="symmetry",
                             collect_canons=True).run(),
        "full": _checker(make, reduction="full", collect_canons=True).run(),
        "deepcopy": DeepcopyModelChecker(
            make, max_states=200_000, max_selection_width=20_000
        ).run(),
    }
    quotient = (
        {reducer.representative(c) for c in base.canons}
        if reducer is not None else None
    )
    for label, res in configs.items():
        assert bool(res.violations) == verdict, label
        assert not res.truncated, label
        if res.reduction in ("symmetry", "full") and reducer is not None:
            assert res.canons == quotient, label
        else:
            assert res.canons == base.canons, label


# -- exact counts on the bench's instance shapes -------------------------------


def _small3(shape):
    """The four ``verify-small4`` instance shapes of ``bench/verify.py`` on
    3 processors."""

    def make():
        net = ring_network(3) if shape == "ring three flows" else line_network(3)
        proto = make_ssmfp(net)
        if shape == "crossing flows + 1 garbage":
            plant_invalid_message(proto, 2, 1, "R", "g", last=0)
            subs = [(0, "a", 2), (2, "b", 0)]
        elif shape == "three flows":
            subs = [(0, "a", 2), (2, "b", 0), (1, "c", 2)]
        elif shape == "same-payload pair + reverse flow":
            subs = [(0, "dup", 2), (0, "dup", 2), (2, "b", 0)]
        else:
            subs = [(src, f"r{src}", (src + 2) % 3) for src in range(3)]
        for src, payload, dest in subs:
            proto.hl.submit(src, payload, dest)
        return proto

    return make


@pytest.mark.parametrize(
    "shape,pinned",
    [
        ("crossing flows + 1 garbage", (1617, 6832, 5216, 1)),
        ("three flows", (4625, 19581, 14957, 1)),
        ("same-payload pair + reverse flow", (2516, 10567, 8052, 1)),
        ("ring three flows", (1478, 6523, 5046, 1)),
    ],
)
def test_bench_shapes_exact_counts_and_canon_sets(shape, pinned):
    """``(states, transitions, dedup_hits, terminal_states)`` of the
    unreduced serial search, pinned — the bench pins states only and runs
    outside tier-1 — and the same reachable canon set under POR and the
    full reduction (modulo orbit representatives)."""
    make = _small3(shape)
    base = _checker(make, collect_canons=True).run()
    assert base.ok
    assert (base.states, base.transitions, base.dedup_hits,
            base.terminal_states) == pinned
    system = _root_system(make)
    reducer, _ = validate_symmetry(system.proto, system.canon())
    for label, kw in (
        ("por", dict(reduction="por")),
        ("full", dict(reduction="full")),
    ):
        res = _checker(make, collect_canons=True, **kw).run()
        assert res.ok, label
        if label == "full" and reducer is not None:
            assert res.canons == {
                reducer.representative(c) for c in base.canons
            }, label
        else:
            assert res.canons == base.canons, label
