"""Event pooling and the same-time run-queue fast path.

The array-native engine schedules its hot-loop callbacks through
``schedule_fast``/``schedule_at_fast``, whose events come from (and return
to) a free list, and keeps zero-delay events in a FIFO run queue instead of
the heap.  These tests pin down the contract: pooled handles are recycled,
ordering is indistinguishable from the legacy heap-only path, and the
pool stays safe under cancellation and ``clear_pending`` (crash recovery).
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.simulator import Simulator


class TestPoolReuse:
    def test_fired_fast_events_are_recycled(self):
        sim = Simulator()
        hits = []
        for i in range(5):
            sim.schedule_fast(0.0, hits.append, i)
        sim.run()
        assert hits == [0, 1, 2, 3, 4]
        assert sim.event_pool_hits == 0
        # the next fast schedules must come from the free list
        for i in range(5):
            sim.schedule_fast(1.0, hits.append, 10 + i)
        sim.run()
        assert sim.event_pool_hits == 5
        assert hits[5:] == [10, 11, 12, 13, 14]

    def test_pool_capacity_is_bounded(self):
        sim = Simulator()
        n = Simulator.POOL_CAP + 100
        for _ in range(n):
            sim.schedule_fast(0.0, lambda: None)
        sim.run()
        assert len(sim._pool) <= Simulator.POOL_CAP

    def test_schedule_handles_are_never_pooled(self):
        sim = Simulator()
        ev = sim.schedule(0.0, lambda: None)
        sim.run()
        assert not ev.recycle
        assert ev not in sim._pool

    def test_pool_disabled_with_fast_path_off(self):
        sim = Simulator(fast_path=False)
        for _ in range(3):
            sim.schedule_fast(0.0, lambda: None)
        sim.run()
        for _ in range(3):
            sim.schedule_fast(0.0, lambda: None)
        sim.run()
        assert sim.event_pool_hits == 0


class TestCancellationSafety:
    def test_stale_cancel_of_fired_handle_is_inert(self):
        sim = Simulator()
        hits = []
        ev = sim.schedule(1.0, hits.append, "a")
        sim.run()
        # the handle already fired; cancelling it now must not disturb
        # the live counter or any future event
        sim.cancel(ev)
        sim.cancel(ev)
        assert sim.pending == 0
        sim.schedule_fast(0.0, hits.append, "b")
        sim.run()
        assert hits == ["a", "b"]

    def test_cancelled_runq_event_does_not_fire(self):
        sim = Simulator()
        hits = []

        def first():
            hits.append("first")
            sim.cancel(later)

        # both zero-delay: FIFO runs `first`, which cancels `later` while
        # it is still sitting in the run queue
        sim.schedule(0.0, first)
        later = sim.schedule(0.0, hits.append, "later")
        sim.run()
        assert hits == ["first"]

    def test_pending_counter_tracks_mixed_operations(self):
        sim = Simulator()
        evs = [sim.schedule(float(i % 3), lambda: None) for i in range(9)]
        sim.schedule_fast(0.0, lambda: None)
        sim.schedule_fast(2.0, lambda: None)
        assert sim.pending == 11
        sim.cancel(evs[0])
        sim.cancel(evs[0])  # double-cancel is a no-op
        assert sim.pending == 10
        sim.run()
        assert sim.pending == 0


class TestClearPending:
    def test_drops_runq_and_heap(self):
        sim = Simulator()
        hits = []
        sim.schedule_fast(0.0, hits.append, "runq")
        sim.schedule_fast(1.0, hits.append, "heap")
        sim.schedule(2.0, hits.append, "plain")
        assert sim.clear_pending() == 3
        assert sim.pending == 0
        sim.run()
        assert hits == []

    def test_retained_handles_stay_inert_after_clear(self):
        sim = Simulator()
        ev = sim.schedule(5.0, lambda: None)
        sim.clear_pending()
        sim.cancel(ev)  # must not drive the live counter negative
        assert sim.pending == 0
        sim.schedule_fast(0.0, lambda: None)
        assert sim.pending == 1
        sim.run()
        assert sim.pending == 0

    def test_scheduling_resumes_after_clear(self):
        sim = Simulator()
        hits = []
        for i in range(4):
            sim.schedule_fast(0.0, hits.append, i)
        sim.clear_pending()
        sim.schedule_fast(0.0, hits.append, "fresh")
        sim.run()
        assert hits == ["fresh"]


class TestOrderingEquivalence:
    """The fast path must be observationally identical to the legacy heap."""

    @staticmethod
    def _exercise(sim):
        order = []

        def spawn(tag, depth):
            order.append((tag, sim.now))
            if depth:
                # mix zero-delay (run queue) and delayed (heap) children
                sim.schedule_fast(0.0, spawn, tag + "z", depth - 1)
                sim.schedule(0.5, spawn, tag + "d", depth - 1)
                sim.schedule_at_fast(sim.now + 0.25, spawn, tag + "a",
                                     depth - 1)

        for i, tag in enumerate("abc"):
            sim.schedule(float(i % 2), spawn, tag, 3)
        sim.run()
        return order

    def test_fast_path_matches_legacy_order(self):
        assert (self._exercise(Simulator(fast_path=True))
                == self._exercise(Simulator(fast_path=False)))

    @pytest.mark.parametrize("seed", [1, 7, 42])
    def test_tie_breaker_permutation_matches_legacy(self, seed):
        def run(fast):
            sim = Simulator(fast_path=fast)
            # events queued before the breaker keep tie 0: flush-on-install
            sim.schedule_fast(0.0, lambda: None)
            sim.set_tie_breaker(seed)
            return self._exercise(sim)

        assert run(True) == run(False)

    def test_tie_breaker_install_flushes_runq(self):
        sim = Simulator()
        hits = []
        sim.schedule_fast(0.0, hits.append, "early")
        sim.set_tie_breaker(3)
        assert not sim._runq
        sim.schedule(0.0, hits.append, "late")
        sim.run()
        assert "early" in hits and "late" in hits


# -- the dispatch contract ---------------------------------------------------

_SCHEDULERS = ("schedule", "schedule_fast", "schedule_at_fast")
#: few distinct delays, weighted to zero, so equal-time ties are common
_DELAYS = st.sampled_from([0.0, 0.0, 0.5, 1.0])
_CHILD = st.none() | st.tuples(st.sampled_from(_SCHEDULERS), _DELAYS)
_OPS = st.lists(st.one_of(
    st.tuples(st.sampled_from(_SCHEDULERS), _DELAYS, _CHILD),
    st.tuples(st.just("cancel"), st.integers(0, 63)),
    st.tuples(st.just("step_while"), st.integers(0, 6)),
    st.tuples(st.just("run_until"), _DELAYS),
    st.tuples(st.just("tie"), st.none() | st.integers(0, 2 ** 16)),
), max_size=60)


class _DispatchChecker:
    """Drives a :class:`Simulator` and mirrors the ``(time, tie, seq)`` key of
    every live event; each firing event must hold the minimum live key."""

    def __init__(self, fast_path: bool, seed):
        self.sim = Simulator(fast_path=fast_path)
        self.live: dict[int, tuple] = {}
        self.handles: list = []
        self.tie_rng = None
        self.seq = 0
        self.fired = 0
        self.set_tie_breaker(seed)

    def set_tie_breaker(self, seed) -> None:
        self.sim.set_tie_breaker(seed)
        self.tie_rng = None if seed is None else random.Random(seed)

    def schedule(self, how: str, delay: float, child=None) -> None:
        sim = self.sim
        time = sim.now + delay
        tie = self.tie_rng.getrandbits(32) if self.tie_rng is not None else 0
        eid = self.seq
        self.seq += 1
        self.live[eid] = (time, tie, eid)
        if how == "schedule":
            self.handles.append((eid, sim.schedule(delay, self._fire, eid,
                                                   child)))
        elif how == "schedule_fast":
            sim.schedule_fast(delay, self._fire, eid, child)
        else:
            sim.schedule_at_fast(time, self._fire, eid, child)

    def _fire(self, eid: int, child) -> None:
        assert self.live[eid] == min(self.live.values())
        assert self.sim.now == self.live.pop(eid)[0]
        self.fired += 1
        if child is not None:
            self.schedule(*child)

    def apply(self, op) -> None:
        sim, kind = self.sim, op[0]
        if kind in _SCHEDULERS:
            self.schedule(*op)
        elif kind == "cancel":
            if self.handles:
                eid, ev = self.handles[op[1] % len(self.handles)]
                sim.cancel(ev)
                self.live.pop(eid, None)
        elif kind == "step_while":
            target = self.fired + op[1]
            more = sim.step_while(lambda: self.fired < target)
            # False only when the queue drained with the condition still true
            assert more == (self.fired == target)
            assert more or not self.live
        elif kind == "run_until":
            until = sim.now + op[1]
            sim.run(until=until)
            assert sim.now == until
            assert all(key[0] > until for key in self.live.values())
        else:
            self.set_tie_breaker(op[1])
        assert sim.pending == len(self.live)


class TestDispatchContract:
    @pytest.mark.parametrize("fast_path", [True, False])
    @settings(max_examples=150, deadline=None)
    @given(seed=st.none() | st.integers(0, 2 ** 16), ops=_OPS)
    def test_events_fire_in_key_order_of_live_events(self, fast_path, seed,
                                                     ops):
        checker = _DispatchChecker(fast_path, seed)
        for op in ops:
            checker.apply(op)
        checker.sim.run()
        assert not checker.live
        assert checker.sim.pending == 0
        assert checker.sim.events_executed == checker.fired

    @pytest.mark.parametrize("fast_path", [True, False])
    def test_raising_callback_leaves_state_consistent(self, fast_path):
        sim = Simulator(fast_path=fast_path)
        hits = []

        def boom():
            raise RuntimeError("boom")

        sim.schedule_fast(0.0, hits.append, "a")
        sim.schedule(1.0, boom)
        sim.schedule_fast(1.0, hits.append, "b")  # same instant, after boom
        sim.schedule(2.0, hits.append, "c")
        with pytest.raises(RuntimeError, match="boom"):
            sim.step_while(lambda: True)
        assert hits == ["a"]
        assert sim.now == 1.0
        assert sim.events_executed == 2
        assert sim.pending == 2
        # the next call resumes with the event after the failing one
        assert sim.step_while(lambda: len(hits) < 2) is True
        assert hits == ["a", "b"] and sim.now == 1.0
        assert sim.step_while(lambda: True) is False
        assert hits == ["a", "b", "c"] and sim.now == 2.0
        assert sim.pending == 0 and sim.events_executed == 4
