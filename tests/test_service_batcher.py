"""MicroBatcher semantics: size flushes, deadline flushes, drains.

The batcher is passive and takes an injectable clock, so every timing
rule is pinned here deterministically — no sleeps, no threads.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.service import MicroBatcher, Tracer


class FakeClock:
    def __init__(self, t: float = 0.0) -> None:
        self.t = t

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


@pytest.fixture
def clock() -> FakeClock:
    return FakeClock()


def make(clock: FakeClock, max_batch: int = 3,
         max_delay: float = 1.0) -> MicroBatcher:
    return MicroBatcher(max_batch=max_batch, max_delay=max_delay,
                        clock=clock)


class TestValidation:
    def test_bad_max_batch(self, clock):
        with pytest.raises(SimulationError):
            MicroBatcher(max_batch=0, clock=clock)

    def test_bad_max_delay(self, clock):
        with pytest.raises(SimulationError):
            MicroBatcher(max_delay=-0.1, clock=clock)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_max_delay(self, clock, bad):
        """Regression: a NaN delay never fired a deadline flush (the
        dispatcher spun on ``wait(0)``) and an infinite one killed the
        dispatcher thread with ``OverflowError``."""
        with pytest.raises(SimulationError, match="max_delay"):
            MicroBatcher(max_delay=bad, clock=clock)


class TestSizeFlush:
    def test_submit_reports_size_ready(self, clock):
        mb = make(clock)
        assert mb.submit("k", 1) is False
        assert mb.submit("k", 2) is False
        assert mb.submit("k", 3) is True

    def test_pop_ready_releases_full_batch(self, clock):
        mb = make(clock)
        for x in range(3):
            mb.submit("k", x)
        events = mb.pop_ready()
        assert len(events) == 1
        assert events[0].cause == "size"
        assert events[0].items == (0, 1, 2)
        assert mb.pending() == 0

    def test_oversized_group_chunks_remainder_waits(self, clock):
        mb = make(clock)
        for x in range(7):
            mb.submit("k", x)
        events = mb.pop_ready()
        assert [e.cause for e in events] == ["size", "size"]
        assert [e.items for e in events] == [(0, 1, 2), (3, 4, 5)]
        # the remainder is below max_batch and not yet expired
        assert mb.pending() == 1
        assert mb.pop_ready() == []

    def test_below_size_not_released(self, clock):
        mb = make(clock)
        mb.submit("k", 1)
        assert mb.pop_ready() == []
        assert mb.pending() == 1


class TestDeadlineFlush:
    def test_expired_group_released(self, clock):
        mb = make(clock, max_delay=1.0)
        mb.submit("k", "a")
        clock.advance(0.99)
        assert mb.pop_ready() == []
        clock.advance(0.01)
        events = mb.pop_ready()
        assert len(events) == 1
        assert events[0].cause == "deadline"
        assert events[0].items == ("a",)
        assert events[0].waited == pytest.approx(1.0)

    def test_deadline_counts_from_oldest_item(self, clock):
        mb = make(clock, max_delay=1.0)
        mb.submit("k", "old")
        clock.advance(0.8)
        mb.submit("k", "young")
        clock.advance(0.2)  # oldest now at the deadline
        events = mb.pop_ready()
        assert [e.items for e in events] == [("old", "young")]

    def test_next_deadline_tracks_earliest_group(self, clock):
        mb = make(clock, max_delay=1.0)
        assert mb.next_deadline() is None
        mb.submit("a", 1)
        clock.advance(0.5)
        mb.submit("b", 2)
        assert mb.next_deadline() == pytest.approx(1.0)

    def test_zero_delay_releases_on_next_poll(self, clock):
        mb = make(clock, max_delay=0.0)
        mb.submit("k", 1)
        assert [e.cause for e in mb.pop_ready()] == ["deadline"]


class TestIdleRelease:
    def test_releases_the_oldest_group_capped_at_max_batch(self, clock):
        tracer = Tracer(clock=clock)
        mb = MicroBatcher(max_batch=3, max_delay=1.0, clock=clock,
                          tracer=tracer)
        mb.submit("young", "y")
        mb.submit("drained", "d")
        assert [e.batch for e in mb.drain()] == [0, 1]
        mb.submit("young", "y0")
        clock.advance(0.25)
        for x in range(5):
            mb.submit("old", x, now=clock.t - 0.5)  # arrived first
        mb.submit("young", "y1")
        clock.advance(0.25)

        event = mb.pop_idle()
        assert event.key == "old"
        assert event.items == (0, 1, 2)  # capped at max_batch
        assert event.cause == "idle"
        assert event.batch == 2  # the next id after the drain's two
        assert event.waited == pytest.approx(0.75)
        assert mb.group_sizes() == {"young": 2, "old": 2}
        flush = [e for e in tracer.events() if e.stage == "flush"][-1]
        assert (flush.batch, flush.meta["cause"], flush.meta["size"]) \
            == (2, "idle", 3)

        # the rest of "old" still arrived before "young"'s oldest item
        assert mb.pop_idle().items == (3, 4)
        assert mb.pop_idle().items == ("y0", "y1")
        assert mb.pop_idle() is None

    def test_ties_go_to_the_key_queued_first(self, clock):
        mb = make(clock)
        mb.submit("a", 1)
        mb.submit("b", 2)
        assert mb.pop_idle().key == "a"

    def test_empty_batcher_releases_nothing(self, clock):
        mb = make(clock)
        assert mb.pop_idle() is None
        mb.submit("k", 1, expires=0.5)
        clock.advance(1.0)
        assert mb.pop_expired() == [("k", 1)]
        assert mb.pop_idle() is None


class TestGroupsAndDrain:
    def test_groups_are_independent(self, clock):
        mb = make(clock, max_batch=2)
        mb.submit(("m16",), 1)
        mb.submit(("m32",), 2)
        mb.submit(("m16",), 3)
        events = mb.pop_ready()
        assert len(events) == 1
        assert events[0].key == ("m16",)
        assert mb.group_sizes() == {("m32",): 1}

    def test_drain_releases_everything_chunked(self, clock):
        mb = make(clock, max_batch=2)
        for x in range(5):
            mb.submit("k", x)
        mb.submit("other", "z")
        events = mb.drain()
        assert [(e.key, e.items, e.cause) for e in events] == [
            ("k", (0, 1), "forced"),
            ("k", (2, 3), "forced"),
            ("k", (4,), "forced"),
            ("other", ("z",), "forced"),
        ]
        assert mb.pending() == 0
        assert mb.next_deadline() is None

    def test_nan_expiry_is_kept_not_lost(self, clock):
        """Regression: ``pop_expired`` kept items with ``e > now`` and
        dropped items with ``e <= now``; a NaN expiry matched neither,
        so the item silently vanished from its group."""
        mb = make(clock)
        mb.submit("k", "nan", expires=float("nan"))
        mb.submit("k", "stale", expires=0.5)
        clock.advance(1.0)
        assert mb.pop_expired() == [("k", "stale")]
        assert mb.group_sizes() == {"k": 1}
        (event,) = mb.drain()
        assert event.items == ("nan",)

    def test_arrival_order_preserved_within_group(self, clock):
        mb = make(clock, max_batch=10)
        for x in "abcde":
            mb.submit("k", x)
        (event,) = mb.drain()
        assert event.items == tuple("abcde")

# ---------------------------------------------------------------------------
# Property test (ISSUE 8): accounting invariants under arbitrary
# interleavings of submit / advance / pop_ready / pop_expired / drain.
# ---------------------------------------------------------------------------

_ops = st.lists(
    st.one_of(
        st.tuples(st.just("submit"), st.integers(0, 2),
                  st.one_of(st.none(), st.floats(0.0, 8.0))),
        st.tuples(st.just("advance"), st.floats(0.0, 3.0)),
        st.tuples(st.just("pop_ready")),
        st.tuples(st.just("pop_expired")),
        st.tuples(st.just("drain")),
    ),
    max_size=60)


@given(_ops)
@settings(max_examples=120, deadline=None)
def test_batcher_accounting_invariants(ops):
    """Whatever the interleaving, the batcher must account for every
    item exactly once (flushed or shed, never both, never lost), keep
    arrival order within each key, only shed items actually past their
    expiry, and never exceed the batch-size ceiling.  These are the
    invariants the service's futures bookkeeping stands on: a dropped
    or doubled item is a hung or double-settled request."""
    clock = FakeClock()
    mb = MicroBatcher(max_batch=3, max_delay=5.0, clock=clock)
    next_id = 0
    submitted = {key: [] for key in range(3)}   # key -> ids, arrival order
    id_key = {}
    expiry = {}
    flushed = {key: [] for key in range(3)}
    expired_ids = set()
    events = []

    def record(new_events):
        events.extend(new_events)
        for ev in new_events:
            flushed[ev.key].extend(ev.items)

    for op in ops:
        if op[0] == "submit":
            _, key, offset = op
            exp = None if offset is None else clock.t + offset
            id_key[next_id] = key
            expiry[next_id] = exp
            submitted[key].append(next_id)
            mb.submit(key, next_id, expires=exp)
            next_id += 1
        elif op[0] == "advance":
            clock.advance(op[1])
        elif op[0] == "pop_ready":
            record(mb.pop_ready())
        elif op[0] == "pop_expired":
            for key, item in mb.pop_expired():
                # Only genuinely stale items may be shed, and they come
                # back under the key they were queued with.
                assert expiry[item] is not None
                assert expiry[item] <= clock.t
                assert id_key[item] == key
                expired_ids.add(item)
        else:
            record(mb.drain())

    record(mb.drain())
    assert mb.pending() == 0
    assert mb.next_deadline() is None

    # Exactly once: every submitted id is flushed or shed, never both,
    # never lost, never duplicated.
    out = sorted([i for ids in flushed.values() for i in ids]
                 + list(expired_ids))
    assert out == list(range(next_id))
    # Shed items never ride a flush.
    for ids in flushed.values():
        assert expired_ids.isdisjoint(ids)
    # Arrival order survives within each key (shedding may remove
    # items mid-queue but must not reorder the survivors).
    for key in range(3):
        assert flushed[key] == [i for i in submitted[key]
                                if i not in expired_ids]
    # Release discipline: the size ceiling is hard, causes are from the
    # documented set, and batch ids increase strictly.
    assert all(1 <= ev.size <= 3 for ev in events)
    assert all(ev.cause in ("size", "deadline", "forced")
               for ev in events)
    assert all(a.batch < b.batch for a, b in zip(events, events[1:]))
