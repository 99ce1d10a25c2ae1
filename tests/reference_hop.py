"""Reference oracle: the RTT estimator of ``HopCore`` as it stood, verbatim.

Until PR 22 this was ``repro.runtime.hop.HopCore._rtt_sample``: RFC 6298
SRTT / RTTVAR smoothing with a decayed maximum, a warm-up hold and the
configured floor / ceiling, written as nested ``max`` / ``min`` builtin
calls (four per sample, 45,564 samples on the steady ``rt-clean-tcp``).
The product now selects the same operands with comparisons;
``tests/test_hop_reference.py`` holds the two to **equal** floats (``==``,
not ``approx``) over seeded RTT sequences, so "same estimator, cheaper" is
enforced by test.

Not a test module and not for production use; the body of ``rtt_sample``
is not to be edited.  It takes the core as ``self`` so it can be called
unbound on a real :class:`~repro.runtime.hop.HopCore`.
"""

from __future__ import annotations


def rtt_sample(self, lane, rtt: float) -> None:
    """RFC 6298: SRTT/RTTVAR smoothing, RTO clamped to the configured
    floor/ceiling.  Only never-retransmitted records sample (Karn)."""
    if lane.srtt is None:
        lane.srtt = rtt
        lane.rttvar = rtt / 2.0
    else:
        lane.rttvar = 0.75 * lane.rttvar + 0.25 * abs(lane.srtt - rtt)
        lane.srtt = 0.875 * lane.srtt + 0.125 * rtt
    # Smoothed estimators forget tail spikes quickly, but a cooperative
    # event loop stalls in bursts — keep a slowly decaying max so the
    # RTO stays above the recently observed worst case.
    lane.rtt_max = max(rtt, lane.rtt_max * 0.999)
    rto = max(
        lane.srtt + max(4.0 * lane.rttvar, self.params.tick),
        lane.rtt_max * 2.0,
    )
    lane.samples += 1
    if lane.samples < 64:
        # Warmup: the startup burst is the most contended stretch of
        # the whole run, and a handful of fast early samples must not
        # collapse the RTO before the lane has seen its tail.
        rto = max(rto, self._rto_start)
    lane.rto = min(max(rto, self._rto_floor), self._rto_ceil)
    self.rto_samples.append(lane.rto)
