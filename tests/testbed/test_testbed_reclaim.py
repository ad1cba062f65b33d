"""A dropped testbed is reclaimed by the next one, whoever drives it.

A finished simulation is one large reference cycle, promoted to the
oldest generation by the time it is dropped, so without help it waits
for a rare full collection.  The testbed handle itself sits outside
that cycle: it dies by reference counting when the caller drops it,
records its simulator, and the next :class:`GameStreamingTestbed`
frees whatever is still in memory before it builds its own.

Each finished testbed is promoted to the oldest generation before its
handle is dropped, so that only a full collection can free it, and
simulators are counted without collecting.
"""

import gc
import weakref

import numpy as np
import pytest

from repro.experiments import RunConfig, Timeline, run_single
from repro.obs.metrics import MetricsRecorder
from repro.obs.trace import MemorySink, Tracer
from repro.sim.engine import Simulator
from repro.testbed.tc import RouterConfig
from repro.testbed.topology import GameStreamingTestbed

UNTIL = 2.0


def live_simulators():
    """Simulators the collector tracks; counting does not collect."""
    return sum(isinstance(obj, Simulator) for obj in gc.get_objects())


def build(seed, **kwargs):
    return GameStreamingTestbed(
        "stadia", RouterConfig(25e6, 2.0), seed=seed,
        competing_cca="cubic", **kwargs,
    )


def finish(testbed):
    """Run a short contended timeline, then promote the testbed.

    ``gc.collect(1)`` moves everything young into the oldest generation
    without examining it, so testbeds dropped earlier (already there)
    are not freed as a side effect, as a full collection would.
    """
    testbed.start_game()
    testbed.schedule_iperf(0.5, 1.5)
    testbed.run(until=UNTIL)
    gc.collect(1)
    return testbed


@pytest.fixture
def baseline():
    """The live-simulator count of a fully collected heap, collector on."""
    was_enabled = gc.isenabled()
    gc.enable()
    gc.collect()
    yield live_simulators()
    (gc.enable if was_enabled else gc.disable)()


class TestDirectTestbeds:
    def test_next_testbed_reclaims_the_dropped_ones(self, baseline):
        dropped_alive = []
        testbed = finish(build(0))
        for seed in (1, 2):
            del testbed
            testbed = build(seed)
            dropped_alive.append(live_simulators() - baseline - 1)
            finish(testbed)
        assert dropped_alive == [0, 0]

    def test_component_kept_past_its_handle_stays_intact(self, baseline):
        testbed = finish(build(0))
        cap = testbed.capture
        before = cap.arrays("stadia")
        sim = weakref.ref(testbed.sim)
        del testbed

        other = finish(build(1))
        assert sim() is not None
        after = cap.arrays("stadia")
        assert len(before[0]) > 0
        for old, new in zip(before, after):
            np.testing.assert_array_equal(old, new)

        del cap
        del other
        current = build(2)
        assert sim() is None
        assert live_simulators() == baseline + 1  # current's own

    def test_disabled_collector_runs_no_collection(self, baseline):
        testbed = finish(build(0))
        gc.disable()
        del testbed
        stats = gc.get_stats()
        build(1)
        assert gc.get_stats() == stats
        assert not gc.isenabled()


class TestHandleIsAcyclic:
    def test_traced_and_metered_handle_dies_on_del(self, baseline):
        sink = MemorySink()
        testbed = finish(build(
            0, tracer=Tracer(sink), metrics=MetricsRecorder(interval=0.5)
        ))
        assert sink.by_event("queue.occupancy")
        handle = weakref.ref(testbed)
        gc.disable()
        try:
            del testbed
            assert handle() is None
        finally:
            gc.enable()


class TestRunnerPath:
    def test_run_single_adds_no_full_collection(self, baseline):
        timeline = Timeline(scale=1.0 / 54.0)
        full = gc.get_stats()[2]["collections"]
        for seed in range(3):
            run_single(RunConfig(
                "stadia", 25e6, 2.0, cca="cubic", seed=seed, timeline=timeline
            ))
        assert gc.get_stats()[2]["collections"] == full
