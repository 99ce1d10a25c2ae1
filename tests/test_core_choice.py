"""Tests for the choice_p(d) fairness queue."""

import pytest

from repro.core.choice import FairChoiceQueue


class TestFifoPolicy:
    def test_empty_queue_head_none(self):
        q = FairChoiceQueue()
        assert q.head() is None
        assert len(q) == 0

    def test_new_candidates_appended_sorted(self):
        q = FairChoiceQueue()
        q.sync({3, 1})
        assert q.items() == [1, 3]

    def test_arrival_order_preserved(self):
        q = FairChoiceQueue()
        q.sync({2})
        q.sync({2, 0})
        assert q.items() == [2, 0]  # 2 arrived first, keeps its place

    def test_lapsed_candidates_removed(self):
        q = FairChoiceQueue()
        q.sync({1, 2, 3})
        q.sync({2})
        assert q.items() == [2]

    def test_serve_removes(self):
        q = FairChoiceQueue()
        q.sync({1, 2})
        q.serve(1)
        assert q.items() == [2]

    def test_serve_absent_is_noop(self):
        q = FairChoiceQueue()
        q.sync({1})
        q.serve(9)
        assert q.items() == [1]

    def test_served_candidate_reenters_at_tail(self):
        q = FairChoiceQueue()
        q.sync({1, 2})
        q.serve(1)
        q.sync({1, 2})
        assert q.items() == [2, 1]

    def test_bounded_bypass(self):
        # A candidate that stays in the queue is served within (number of
        # other candidates) services — the paper's Δ-bounded bypass.
        q = FairChoiceQueue()
        others = {1, 2, 3}
        q.sync(others | {9})
        services = 0
        while q.head() != 9:
            head = q.head()
            q.serve(head)
            services += 1
            q.sync(others | {9})  # everyone keeps requesting
        assert services <= len(others)

    def test_force_overwrites(self):
        q = FairChoiceQueue()
        q.force([5, 4])
        assert q.head() == 5


class TestBrokenPolicies:
    def test_fixed_always_sorted(self):
        q = FairChoiceQueue(policy="fixed")
        q.sync({3, 1})
        q.serve(1)
        q.sync({3, 1})
        assert q.items() == [1, 3]  # 1 jumps back to the head: unfair

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="policy"):
            FairChoiceQueue(policy="random")

    def test_repr_mentions_policy(self):
        assert "fifo" in repr(FairChoiceQueue())
