"""Unit tests for the discrete-event engine."""

import gc

import pytest

from repro.sim.engine import SimulationError, Simulator


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_events_fire_in_time_order():
    sim = Simulator()
    fired = []
    sim.schedule(2.0, fired.append, "b")
    sim.schedule(1.0, fired.append, "a")
    sim.schedule(3.0, fired.append, "c")
    sim.run()
    assert fired == ["a", "b", "c"]


def test_same_time_events_fire_fifo():
    sim = Simulator()
    fired = []
    for name in "abcde":
        sim.schedule(1.0, fired.append, name)
    sim.run()
    assert fired == list("abcde")


def test_clock_advances_to_event_time():
    sim = Simulator()
    seen = []
    sim.schedule(1.5, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [1.5]
    assert sim.now == 1.5


def test_run_until_stops_and_sets_clock():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, "early")
    sim.schedule(5.0, fired.append, "late")
    sim.run(until=2.0)
    assert fired == ["early"]
    assert sim.now == 2.0
    sim.run(until=10.0)
    assert fired == ["early", "late"]


def test_run_until_boundary_event_fires():
    sim = Simulator()
    fired = []
    sim.schedule(2.0, fired.append, "x")
    sim.run(until=2.0)
    assert fired == ["x"]


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    fired = []
    event = sim.schedule(1.0, fired.append, "x")
    event.cancel()
    sim.run()
    assert fired == []


def test_cancel_is_idempotent():
    sim = Simulator()
    event = sim.schedule(1.0, lambda: None)
    event.cancel()
    event.cancel()
    sim.run()


def test_events_scheduled_during_run_execute():
    sim = Simulator()
    fired = []

    def chain(n):
        fired.append(n)
        if n < 3:
            sim.schedule(1.0, chain, n + 1)

    sim.schedule(1.0, chain, 1)
    sim.run()
    assert fired == [1, 2, 3]
    assert sim.now == 3.0


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-0.1, lambda: None)


def test_schedule_at_past_rejected():
    sim = Simulator()
    sim.schedule(5.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(1.0, lambda: None)


def test_run_until_past_rejected():
    sim = Simulator()
    sim.schedule(5.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.run(until=1.0)


def test_step_returns_false_when_empty():
    sim = Simulator()
    assert sim.step() is False
    sim.schedule(1.0, lambda: None)
    assert sim.step() is True
    assert sim.step() is False


def test_events_processed_counter():
    sim = Simulator()
    for _ in range(4):
        sim.schedule(1.0, lambda: None)
    cancelled = sim.schedule(2.0, lambda: None)
    cancelled.cancel()
    sim.run()
    assert sim.events_processed == 4


def test_zero_delay_event_runs_after_current_instant_events():
    sim = Simulator()
    fired = []

    def first():
        fired.append("first")
        sim.schedule(0.0, fired.append, "zero")

    sim.schedule(1.0, first)
    sim.schedule(1.0, fired.append, "second")
    sim.run()
    assert fired == ["first", "second", "zero"]


# ----------------------------------------------------------------------
# Tombstone accounting and heap compaction
# ----------------------------------------------------------------------
def test_live_pending_excludes_cancelled_tombstones():
    sim = Simulator()
    events = [sim.schedule(1.0, lambda: None) for _ in range(10)]
    for event in events[:4]:
        event.cancel()
    # The raw heap still holds the tombstones; live_pending does not.
    assert sim.pending == 10
    assert sim.live_pending == 6


def test_compaction_triggers_under_cancel_churn():
    sim = Simulator()
    keeper = sim.schedule(10.0, lambda: None)
    events = [sim.schedule(5.0, lambda: None) for _ in range(1000)]
    for event in events:
        event.cancel()
    assert sim.compactions >= 1
    # The heap shrank back to (roughly) the live set.
    assert sim.pending < 1000
    assert sim.live_pending == 1
    keeper.cancel()


def test_compaction_preserves_dispatch_order(monkeypatch):
    def workload(sim):
        fired = []
        for i in range(600):
            event = sim.schedule(1.0 + i * 1e-4, fired.append, i)
            if i % 2:
                event.cancel()
        sim.schedule(2.0, fired.append, "late")
        sim.run()
        return fired, sim.events_processed

    compacted = Simulator()
    baseline = Simulator()
    # Disable compaction on the control simulator only.
    monkeypatch.setattr(baseline, "COMPACT_MIN_CANCELLED", 10**9)
    assert compacted.COMPACT_MIN_CANCELLED < 10**9
    assert workload(compacted) == workload(baseline)


def test_compaction_inside_running_loop_keeps_future_events():
    sim = Simulator()
    fired = []
    doomed = [sim.schedule(50.0, lambda: None) for _ in range(600)]

    def mass_cancel():
        for event in doomed:
            event.cancel()

    sim.schedule(1.0, mass_cancel)
    sim.schedule(2.0, fired.append, "survivor")
    sim.run()
    assert fired == ["survivor"]
    assert sim.compactions >= 1


def test_cancel_after_fire_does_not_corrupt_accounting():
    sim = Simulator()
    event = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    sim.run(until=1.5)
    event.cancel()  # already fired: must not count as a tombstone
    assert sim.live_pending == 1
    sim.run()
    assert sim.live_pending == 0
    assert sim.pending == 0


def test_repr_reports_live_pending():
    sim = Simulator()
    sim.schedule(1.0, lambda: None).cancel()
    sim.schedule(1.0, lambda: None)
    assert "pending=1" in repr(sim)


@pytest.mark.parametrize("enabled", [True, False])
def test_run_restores_callers_gc_state(enabled):
    sim = Simulator()
    seen = []
    sim.schedule(1.0, lambda: seen.append(gc.isenabled()))
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        sim.run()
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert seen == [False]  # suspended during dispatch


@pytest.mark.parametrize("enabled", [True, False])
def test_run_restores_gc_state_when_a_callback_raises(enabled):
    sim = Simulator()

    def boom():
        raise ValueError("callback failed")

    sim.schedule(1.0, boom)
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        with pytest.raises(ValueError, match="callback failed"):
            sim.run(until=2.0)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
