"""Tests for Message and MessageFactory."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.statemodel.message import Message, MessageFactory

messages = st.builds(
    Message,
    payload=st.one_of(st.text(max_size=3), st.integers(), st.tuples(st.integers())),
    last=st.integers(0, 9),
    color=st.integers(0, 5),
    dest=st.integers(0, 9),
    uid=st.integers(-50, 50),
    valid=st.booleans(),
    source=st.one_of(st.none(), st.integers(0, 9)),
    born_step=st.integers(-1, 99),
    hops=st.integers(0, 9),
)


def make(payload="x", last=0, color=1, dest=2, uid=5, valid=True):
    return Message(payload=payload, last=last, color=color, dest=dest, uid=uid, valid=valid)


class TestComparisons:
    def test_same_payload_color_ignores_last(self):
        a = make(last=0)
        b = make(last=3, uid=9)
        assert a.same_payload_color(b)

    def test_same_payload_color_rejects_color_mismatch(self):
        assert not make(color=1).same_payload_color(make(color=2))

    def test_same_payload_color_rejects_payload_mismatch(self):
        assert not make(payload="x").same_payload_color(make(payload="y"))

    def test_matches_exact_triple(self):
        m = make(payload="m", last=4, color=2)
        assert m.matches("m", 4, 2)
        assert not m.matches("m", 4, 3)
        assert not m.matches("m", 5, 2)
        assert not m.matches("n", 4, 2)

    def test_guards_never_see_uid(self):
        # Two distinct generations with equal (m, q, c) are protocol-equal.
        a = make(uid=1)
        b = make(uid=2)
        assert a.same_payload_color(b)
        assert b.matches(a.payload, a.last, a.color)


class TestDerivedCopies:
    def test_forwarded_copy_updates_last_keeps_uid_color(self):
        m = make(last=0, color=2, uid=7)
        c = m.forwarded_copy(3)
        assert c.last == 3
        assert c.color == 2
        assert c.uid == 7
        assert c.valid == m.valid

    def test_recolored_stamps_processor_and_color(self):
        m = make(last=0, color=2, uid=7)
        r = m.recolored(4, 0)
        assert r.last == 4
        assert r.color == 0
        assert r.uid == 7

    @given(messages, st.integers(0, 9), st.integers(0, 5))
    def test_copies_equal_dataclasses_replace(self, m, at, color):
        # The copies are built field by field (no _replace on the guard
        # path); all nine fields must still come out as _replace's.
        assert len(Message._fields) == 9
        fwd, rec = m.forwarded_copy(at), m.recolored(at, color)
        assert fwd == m._replace(last=at)
        assert rec == m._replace(last=at, color=color, hops=m.hops + 1)
        assert type(fwd) is type(rec) is Message

    @given(messages)
    def test_message_stays_frozen_and_hashable(self, m):
        with pytest.raises(AttributeError):
            m.last = 0
        twin = m.forwarded_copy(m.last)
        assert twin == m and twin is not m
        assert hash(twin) == hash(m) and len({m, twin}) == 1
        # Equal fields make equal records; a tuple of them is no record.
        fields = tuple(getattr(m, f) for f in Message._fields)
        assert m != fields and hash(m) == hash(fields)
        assert m != m._replace(uid=m.uid + 1)

    def test_repr_flags_invalid(self):
        assert repr(make(valid=False)).startswith("<!")
        assert not repr(make(valid=True)).startswith("<!")


class TestFactory:
    def test_generated_uids_ascend(self):
        f = MessageFactory()
        a = f.generated("a", 0, 1, 0, step=0)
        b = f.generated("b", 0, 1, 0, step=1)
        assert a.uid == 1 and b.uid == 2
        assert a.valid and b.valid
        assert a.source == 0

    def test_generated_last_is_source(self):
        f = MessageFactory()
        m = f.generated("a", 3, 1, 0, step=5)
        assert m.last == 3
        assert m.born_step == 5

    def test_invalid_uids_negative_descending(self):
        f = MessageFactory()
        a = f.invalid("g", 0, 0, 1)
        b = f.invalid("g", 0, 0, 1)
        assert a.uid == -1 and b.uid == -2
        assert not a.valid
        assert a.source is None
