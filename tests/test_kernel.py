"""Tests for the discrete-event kernel."""

import pytest

from repro.kernel import Kernel, SimulationError


def test_runs_events_in_time_order():
    k = Kernel()
    order = []
    k.schedule(5, lambda: order.append("b"))
    k.schedule(1, lambda: order.append("a"))
    k.schedule(9, lambda: order.append("c"))
    k.run()
    assert order == ["a", "b", "c"]
    assert k.now == 9


def test_same_time_events_run_in_schedule_order():
    k = Kernel()
    order = []
    for tag in "abc":
        k.schedule(3, lambda t=tag: order.append(t))
    k.run()
    assert order == ["a", "b", "c"]


def test_schedule_at_absolute_time():
    k = Kernel()
    seen = []
    k.schedule_at(7, lambda: seen.append(k.now))
    k.run()
    assert seen == [7]


def test_cannot_schedule_in_past():
    k = Kernel()
    k.schedule(2, lambda: None)
    k.run()
    assert k.now == 2
    with pytest.raises(SimulationError):
        k.schedule_at(1, lambda: None)


def test_negative_delay_rejected():
    k = Kernel()
    with pytest.raises(SimulationError):
        k.schedule(-1, lambda: None)


def test_events_can_schedule_more_events():
    k = Kernel()
    seen = []

    def chain(n):
        seen.append(n)
        if n < 3:
            k.schedule(2, lambda: chain(n + 1))

    k.schedule(0, lambda: chain(0))
    k.run()
    assert seen == [0, 1, 2, 3]
    assert k.now == 6


def test_run_until_leaves_future_events_queued():
    k = Kernel()
    seen = []
    k.schedule(1, lambda: seen.append(1))
    k.schedule(10, lambda: seen.append(10))
    executed = k.run(until=5)
    assert seen == [1]
    assert executed == 1
    assert k.pending() == 1
    k.run()
    assert seen == [1, 10]


def test_max_events_guard():
    k = Kernel()

    def forever():
        k.schedule(1, forever)

    k.schedule(0, forever)
    with pytest.raises(SimulationError):
        k.run(max_events=100)


def test_step_returns_false_when_empty():
    k = Kernel()
    assert not k.step()


def test_step_advances_time():
    k = Kernel()
    k.schedule(4, lambda: None)
    assert k.step()
    assert k.now == 4


# ------------------------------------------------------------------- peek

def test_peek_reports_next_live_deadline():
    k = Kernel()
    assert k.peek() is None
    k.schedule(9, lambda: None)
    k.schedule(4, lambda: None)
    assert k.peek() == 4
    k.run(until=5)
    assert k.peek() == 9
    assert k.pending() == 1
    k.run()
    assert k.peek() is None and k.pending() == 0


# ------------------------------------------------------- hypothesis properties

import hypothesis.strategies as st
from hypothesis import given, settings

_delays = st.lists(st.integers(min_value=0, max_value=30),
                   min_size=1, max_size=40)


@given(_delays)
@settings(max_examples=60, deadline=None)
def test_property_same_timestamp_fifo(delays):
    """Events run sorted by time; equal timestamps preserve scheduling
    order (FIFO) -- the ordering contract the event-wheel equivalence
    guarantee leans on."""
    k = Kernel()
    ran = []
    for i, d in enumerate(delays):
        k.schedule(d, lambda i=i, d=d: ran.append((d, i)))
    executed = k.run()
    assert executed == len(delays)
    assert ran == sorted(ran)  # time-major, scheduling-index-minor
    assert k.events == len(delays)


@given(_delays, st.integers(min_value=0, max_value=35))
@settings(max_examples=60, deadline=None)
def test_property_until_boundary(delays, until):
    """run(until=T) executes exactly the events with timestamp <= T and
    leaves the rest queued."""
    k = Kernel()
    ran = []
    for d in delays:
        k.schedule(d, lambda d=d: ran.append(d))
    executed = k.run(until=until)
    expected = [d for d in sorted(delays) if d <= until]
    assert ran == expected
    assert executed == len(expected)
    assert k.pending() == len(delays) - len(expected)
    k.run()
    assert len(ran) == len(delays)


@given(_delays, st.integers(min_value=0, max_value=45))
@settings(max_examples=60, deadline=None)
def test_property_max_events_boundary(delays, budget):
    """run(max_events=N) executes at most N events; exceeding the budget
    raises instead of silently truncating."""
    k = Kernel()
    for d in delays:
        k.schedule(d, lambda: None)
    if budget >= len(delays):
        assert k.run(max_events=budget) == len(delays)
    else:
        with pytest.raises(SimulationError):
            k.run(max_events=budget)
        assert k.events == budget


@given(_delays)
@settings(max_examples=60, deadline=None)
def test_property_schedule_in_past_rejected(delays):
    """After time advances, scheduling strictly before now always raises
    and scheduling at now always succeeds."""
    k = Kernel()
    for d in delays:
        k.schedule(d, lambda: None)
    k.run()
    assert k.now == max(delays)
    if k.now > 0:
        with pytest.raises(SimulationError):
            k.schedule_at(k.now - 1, lambda: None)
    k.schedule_at(k.now, lambda: None)
    assert k.peek() == k.now
    k.run()


@given(_delays, st.lists(st.integers(min_value=0, max_value=35),
                         max_size=4))
@settings(max_examples=60, deadline=None)
def test_property_peek_and_pending_track_the_queue(delays, stops):
    """Across partial runs, peek() always reports the earliest queued
    event and pending() the number still queued."""
    k = Kernel()
    ran = []
    for d in delays:
        k.schedule(d, lambda d=d: ran.append(d))
    for stop in sorted(stops):
        k.run(until=stop)
        left = sorted(delays)[len(ran):]
        assert k.pending() == len(left)
        assert k.peek() == (left[0] if left else None)
    before = len(ran)
    assert k.run() == len(delays) - before
    assert ran == sorted(delays)
    assert k.events == len(delays)
