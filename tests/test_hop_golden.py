"""Exact-count evidence for lane refactors: seeded ``HopMPNode`` runs pinned
byte for byte.

A live ``rt-*`` run is not exact (asyncio scheduling), so a change to the
lane code of :mod:`repro.runtime.hop` that claims "same behaviour, lower
cost" is shown here instead: ring(6), 200 messages, ``loss = dup = reorder =
0.1``, windows 1 / 4 / 32 under the seeded ``ChannelFaults`` adversary —
every node's ``events``, ``counters``, ``hop_latencies``, ``rto_samples``
and ``ack_coalesce`` plus the simulator's fault counts, as JSON under
``tests/golden/hop/``.  Floats are written with ``repr`` precision, so an
RTO estimate that moved in its last bit fails the comparison.

Regenerate only for a deliberate protocol change, at the commit whose
behaviour is the reference:
``PYTHONPATH=src:. python tests/test_hop_golden.py --regenerate``.  It
prints, per window, what moved: channel events, retries, repeat ACKs and
the virtual time of the last delivery, old -> new.
"""

import json
import pathlib
import sys

import pytest

from repro.messagepassing.engine import ChannelFaults
from repro.network.topologies import ring_network

# The module, not its names: importing the test class would collect it twice.
from tests import test_messagepassing as mp

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden" / "hop"
WINDOWS = (1, 4, 32)
SEED = 7
MESSAGES = 200


def render(window: int) -> str:
    """One seeded run, as the canonical JSON text the golden holds."""
    done, sim, nodes, _ = mp.run_hardened(
        ring_network(6),
        mp.TestHardenedPortUnderFaults.ring_submissions(6, MESSAGES),
        ChannelFaults(loss=0.1, dup=0.1, reorder=0.1),
        SEED, window, max_events=2_000_000,
    )
    assert done, "no drain"
    doc = {
        "sim": {
            "events": sim.events,
            "delivered": sim.delivered_messages,
            "lost": sim.lost_messages,
            "duplicated": sim.duplicated_messages,
            "reordered": sim.reordered_messages,
        },
        "nodes": [
            {
                "events": [list(e) for e in n.core.events],
                "counters": n.core.counters,
                "hop_latencies": n.core.hop_latencies,
                "rto_samples": n.core.rto_samples,
                "ack_coalesce": n.core.ack_coalesce,
            }
            for n in nodes
        ],
    }
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


@pytest.mark.parametrize("window", WINDOWS)
def test_seeded_run_is_byte_identical(window):
    golden = (GOLDEN_DIR / f"ring6-w{window}.json").read_text()
    assert render(window) == golden


def test_the_golden_runs_exercise_the_slow_path():
    # Not a trivial pin: losses, duplicates, reordering, retransmissions and
    # repeat ACKs occur in every recorded run, coalesced ACKs where window > 1.
    for window in WINDOWS:
        doc = json.loads((GOLDEN_DIR / f"ring6-w{window}.json").read_text())
        counters = [n["counters"] for n in doc["nodes"]]
        assert min(doc["sim"][k] for k in ("lost", "duplicated", "reordered")) > 0
        assert sum(c["delivered"] for c in counters) == MESSAGES
        assert sum(c["retries"] for c in counters) > 0
        assert sum(c["dup_data_acked"] for c in counters) > 0
        if window > 1:
            assert max(c for n in doc["nodes"] for c in n["ack_coalesce"]) > 1


def headline(text: str) -> dict:
    """The figures a deliberate lane change reports, read off one golden."""
    doc = json.loads(text)
    counters = [n["counters"] for n in doc["nodes"]]
    return {
        "channel events": doc["sim"]["events"],
        "retries": sum(c["retries"] for c in counters),
        "dup_data_acked": sum(c["dup_data_acked"] for c in counters),
        # The last field of an event row is its (virtual) time stamp.
        "last delivery t": max(
            e[-1] for n in doc["nodes"] for e in n["events"] if e[0] == "delivered"
        ),
    }


def show(value) -> str:
    return f"{value:.3f}" if isinstance(value, float) else str(value)


def test_headline_reads_the_golden():
    figures = headline((GOLDEN_DIR / "ring6-w4.json").read_text())
    assert figures["channel events"] > 0 and figures["last delivery t"] > 0


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit("usage: PYTHONPATH=src:. python tests/test_hop_golden.py --regenerate")
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for w in WINDOWS:
        path = GOLDEN_DIR / f"ring6-w{w}.json"
        old = headline(path.read_text()) if path.exists() else {}
        text = render(w)
        path.write_text(text)
        moved = ", ".join(
            f"{name} {show(old.get(name, '-'))} -> {show(value)}"
            for name, value in headline(text).items()
        )
        print(f"w{w}: {moved}")
