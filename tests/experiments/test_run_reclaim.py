"""Each run is its own garbage-collection scope.

A finished testbed is one large reference cycle, so reference counting
never frees it.  ``run_single`` reclaims it when the run ends: after a
call returns (or raises :class:`RunTimeout`), no simulator from that
call is alive, without the caller running a collection, and the
caller's collector state is back as it was.
"""

import gc
import weakref

import pytest

from repro.experiments import RunConfig, RunTimeout, Timeline, run_single
from repro.sim.engine import Simulator

TIMELINE = Timeline(scale=1.0 / 54.0)


def _config(seed=1):
    return RunConfig("stadia", 25e6, 2.0, cca="cubic", seed=seed, timeline=TIMELINE)


def live_simulators():
    """Simulators the collector tracks; counting does not collect."""
    return sum(isinstance(obj, Simulator) for obj in gc.get_objects())


@pytest.fixture
def baseline():
    """The live-simulator count of a fully collected heap, collector on."""
    was_enabled = gc.isenabled()
    gc.enable()
    gc.collect()
    yield live_simulators()
    (gc.enable if was_enabled else gc.disable)()


class TestReclaim:
    def test_consecutive_runs_leave_no_simulator(self, baseline):
        counts = []
        for seed in range(3):
            run_single(_config(seed))
            counts.append(live_simulators())
        assert counts == [baseline] * 3
        assert gc.isenabled()

    def test_seed_batch_leaves_no_simulator(self, baseline):
        results = run_single(_config(), seeds=[1, 2, 3])
        assert [r.seed for r in results] == [1, 2, 3]
        assert live_simulators() == baseline
        assert gc.isenabled()

    def test_reclaimed_before_the_result_is_stored(self, baseline, monkeypatch):
        # The reclaiming collection belongs to the run (and to its
        # wall_time_s), not to whichever allocation happens next.
        from repro.experiments import runner

        sims = []
        build = runner.GameStreamingTestbed

        def tracked(*args, **kwargs):
            testbed = build(*args, **kwargs)
            sims.append(weakref.ref(testbed.sim))
            return testbed

        class Store:
            def __init__(self):
                self.freed_at_put = []

            def get(self, config):
                return None

            def put(self, config, result):
                self.freed_at_put.append(sims[0]() is None)

        monkeypatch.setattr(runner, "GameStreamingTestbed", tracked)
        store = Store()
        run_single(_config(), store=store)
        assert store.freed_at_put == [True]

    def test_event_budget_timeout_leaves_no_simulator(self, baseline):
        with pytest.raises(RunTimeout, match="event budget"):
            run_single(_config(), max_events=100)
        assert live_simulators() == baseline
        assert gc.isenabled()


class TestCollectorState:
    def test_disabled_collector_stays_disabled(self, baseline):
        gc.disable()
        run_single(_config())
        assert not gc.isenabled()

    def test_disabled_collector_stays_disabled_after_timeout(self, baseline):
        gc.disable()
        with pytest.raises(RunTimeout):
            run_single(_config(), max_events=100)
        assert not gc.isenabled()

    def test_collector_is_off_while_the_run_builds_and_collects(
        self, baseline, monkeypatch
    ):
        from repro.experiments import runner

        seen = []
        collect = runner._collect

        def spy(config, testbed):
            seen.append(gc.isenabled())
            return collect(config, testbed)

        monkeypatch.setattr(runner, "_collect", spy)
        run_single(_config())
        assert seen == [False]
        assert gc.isenabled()
