"""The RTT estimator against the code it replaced (``tests/reference_hop.py``).

``HopCore._rtt_sample`` selects with comparisons what the reference selects
with ``max`` / ``min`` builtins.  Every branch picks one of the same two
operands, so the floats must be *equal*, not close: 10,000 seeded RTT
sequences, compared with ``==`` after every sample.
"""

import random

from repro.network.topologies import line_network
from repro.routing.static import StaticRouting
from repro.runtime.hop import RuntimeParams, _OutLane

from tests import reference_hop
from tests.helpers import tuned_hop_core

SEQUENCES = 10_000
FIELDS = ("srtt", "rttvar", "rtt_max", "rto", "samples")


def _core_args(rng: random.Random):
    """``(params, initial RTO)`` of one drawn lane."""
    params = RuntimeParams(
        # tick on both sides of 4 * rttvar for the RTT scales drawn below
        tick=rng.choice((0.0, 0.0005, 0.002, 0.005, 0.05, 1.0)),
        retry_base=rng.choice((0.0, 0.001, 0.03, 0.05)),
        retry_cap=rng.choice((0.01, 0.2, 0.4, 5.0)),
    )
    return params, rng.choice((0.0, 0.05, 0.25, 10.0))


def _rtts(rng: random.Random):
    """One lane's samples: mostly short of the warm-up boundary (64), a
    quarter well past it; steady, bursty, stalled and constant regimes."""
    length = rng.randrange(70, 140) if rng.random() < 0.25 else rng.randrange(1, 70)
    scale = rng.choice((1e-6, 1e-4, 2e-3, 0.05, 1.0))
    regime = rng.randrange(4)
    for _ in range(length):
        if regime == 0:
            yield scale                                  # constant: ties
        elif regime == 1:
            yield scale * rng.random()
        elif regime == 2:
            yield scale * (50.0 if rng.random() < 0.05 else rng.random())
        else:
            yield rng.choice((0.0, scale, scale * 2.0, scale * 1000.0))


def test_rtt_sample_equals_the_reference_float_for_float():
    net = line_network(2)
    routing = StaticRouting(net)
    seen = {"first": 0, "warm": 0, "past_warmup": 0, "floor": 0, "ceiling": 0,
            "tick_wins": 0, "spread_wins": 0, "peak_wins": 0}
    for case in range(SEQUENCES):
        rng = random.Random(case)
        params, rto_initial = _core_args(rng)
        new, old = (
            tuned_hop_core(0, net, routing, params, rto_initial=rto_initial)
            for _ in range(2)
        )
        lane = _OutLane(nbr=1, dest=1, rto=new._rto_start)
        ref = _OutLane(nbr=1, dest=1, rto=old._rto_start)
        for rtt in _rtts(rng):
            new._rtt_sample(lane, rtt)
            reference_hop.rtt_sample(old, ref, rtt)
            got = [getattr(lane, f) for f in FIELDS]
            want = [getattr(ref, f) for f in FIELDS]
            assert got == want, (case, lane.samples, rtt, got, want)
            # which clauses this sample exercised (coverage, not the oracle)
            seen["first" if lane.samples == 1 else "warm"] += 1
            seen["past_warmup"] += lane.samples >= 64
            seen["floor"] += lane.rto == new._rto_floor
            seen["ceiling"] += lane.rto == new._rto_ceil
            seen["tick_wins" if params.tick > 4.0 * lane.rttvar else "spread_wins"] += 1
            seen["peak_wins"] += lane.rtt_max * 2.0 > lane.srtt + 4.0 * lane.rttvar
        assert new.rto_samples == old.rto_samples
    assert all(seen.values()), seen
    assert seen["first"] == SEQUENCES
