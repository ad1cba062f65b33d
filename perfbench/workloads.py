"""The benchmark's workloads.

Each workload is built from a seed (its set-up) and then repeats one
unit of work, :meth:`rep`, through the public entry points of
``repro.experiments``, ``repro.testbed``, ``repro.store`` and
``repro.report`` only.  A rep checks its outputs and returns a
:class:`Rep`: its wall time, how many operations it attempted and how
many failed, a SHA-256 digest of its outputs, and its stage timings and
counts.  Reps of one workload must produce the same digest.

Every rep runs in one process, with ``workers=1`` and the program's
default event scheduler.
"""

from __future__ import annotations

import hashlib
import shutil
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

import numpy as np

from repro.experiments import SMOKE, Campaign, RunConfig, Timeline, run_single, striped_order
from repro.report import aggregate_store, formatter_names, get_formatter
from repro.store import RunStore, StoreIndex, config_fingerprint
from repro.testbed import GameStreamingTestbed, RouterConfig

#: Files the figures formatter must render from a complete slice.
FIGURE_FILES = frozenset({
    "figure2_bitrate.txt",
    "figure3_fairness.txt",
    "figure4_adaptiveness.txt",
    "table3_4_rtt.txt",
    "table5_framerate.txt",
})

#: Store directory of a rep, relative to the working directory, so the
#: json formatter's store field (and so the digest) is the same in
#: every checkout.
STORE_DIR = Path("store")


@dataclass
class Rep:
    """One unit of work, checked."""

    wall_s: float
    attempted: int
    failed: int
    digest: str
    sim_s: float = 0.0  # simulated seconds
    sim_wall_s: float = 0.0  # host seconds spent simulating them
    stages: dict = field(default_factory=dict)  # stage -> host seconds
    put_ms: list = field(default_factory=list)  # one entry per put
    counts: dict = field(default_factory=dict)  # deterministic counters


def digest_files(files: dict) -> str:
    """SHA-256 over a ``{name: text}`` map, in name order."""
    h = hashlib.sha256()
    for name in sorted(files):
        h.update(name.encode() + b"\0" + files[name].encode() + b"\0")
    return h.hexdigest()


def digest_arrays(arrays) -> str:
    h = hashlib.sha256()
    for array in arrays:
        array = np.ascontiguousarray(array, dtype=np.float64)
        h.update(str(array.shape).encode())
        h.update(array.tobytes())
    return h.hexdigest()


def result_digest(result) -> str:
    """Digest of a RunResult's measurements (not its wall time)."""
    scalars = [
        result.baseline_bps, result.fairness_game_bps,
        result.fairness_iperf_bps, result.solo_bps, result.game_loss_rate,
        result.displayed_fps_contention, result.displayed_fps_solo,
        result.frames_displayed, result.frames_dropped,
    ]
    return digest_arrays([
        result.times, result.game_bps, result.iperf_bps,
        result.rtt_samples, result.target_log, scalars,
    ])


#: The streams' frame rate.
MAX_FPS = 60.0
#: Frames a window may show beyond MAX_FPS times its width.  The client
#: presents a frame when it completes, not paced, so a window that opens
#: while late frames are still arriving holds one or two more.
EXTRA_FRAMES = 2.0


def fps_ok(fps: float, window: tuple) -> bool:
    """Displayed fps within [0, 60], up to EXTRA_FRAMES per window."""
    width = window[1] - window[0]
    return 0.0 <= fps * width <= MAX_FPS * width + EXTRA_FRAMES


def measures_ok(arrays, fps: list, loss: float) -> bool:
    """Arrays non-empty and finite, fps in range (see :func:`fps_ok`),
    loss in [0, 1].  ``fps`` holds (rate, window) pairs."""
    return (
        all(np.size(a) and np.isfinite(a).all() for a in arrays)
        and all(fps_ok(rate, window) for rate, window in fps)
        and 0.0 <= loss <= 1.0
    )


def result_ok(result) -> bool:
    timeline = Timeline(scale=result.timeline_scale)
    return measures_ok(
        [result.times, result.game_bps, result.iperf_bps, result.rtt_samples],
        [(result.displayed_fps_contention, timeline.contention_window),
         (result.displayed_fps_solo, timeline.solo_window)],
        result.game_loss_rate,
    )


def clear_store() -> None:
    """Remove the previous rep's store, outside the timed region."""
    shutil.rmtree(STORE_DIR, ignore_errors=True)


class Workload:
    """Defaults for a workload whose set-up performs no checked operations."""

    name = ""
    #: Operations the set-up performs, and how many of them failed.
    setup_ops = 0
    setup_failed = 0
    #: Checked outputs of the set-up; equal in every process.
    setup_digest = ""
    ops_per_rep = 0

    def rep(self) -> Rep:
        raise NotImplementedError


class _TimedStore(RunStore):
    """A RunStore that records how long each ``put`` takes."""

    def __init__(self, root):
        super().__init__(root)
        self.put_s: list[float] = []

    def put(self, config, result):
        start = perf_counter()
        fp = super().put(config, result)
        self.put_s.append(perf_counter() - start)
        return fp


# ----------------------------------------------------------------------
class PaperSlice(Workload):
    """Empty store -> the paper's figures, for one seed.

    The 25 Mb/s column of Table 2 (both CCAs x 3 queues x 3 systems),
    the matching solo cells and the three unconstrained baselines: 30
    runs at 1/54 of the paper's timeline.  An operation is one run.
    """

    name = "paper-slice"
    #: Timeline scale: 10.3 simulated seconds per run.
    SCALE = 1.0 / 54.0

    def __init__(self, seed: int):
        timeline = Timeline(scale=self.SCALE)
        queues = (7.0, 2.0, 0.5)
        systems = ("stadia", "geforce", "luna")
        self.configs = list(striped_order(
            1, timeline, capacities=(25e6,), queue_mults=queues, base_seed=seed,
        ))
        self.configs += [
            RunConfig(system, 25e6, queue, seed=seed + 10 * i, timeline=timeline)
            for i, queue in enumerate(queues)
            for system in systems
        ]
        self.configs += [
            RunConfig(system, 1e9, 2.0, seed=seed, timeline=timeline)
            for system in systems
        ]
        self.ops_per_rep = len(self.configs)

    def rep(self) -> Rep:
        clear_store()
        start = perf_counter()
        store = _TimedStore(STORE_DIR)
        campaign = Campaign(store=store, workers=1).run(self.configs)
        t_campaign = perf_counter()
        index = StoreIndex.open(store, rebuild=True)
        t_index = perf_counter()
        report = aggregate_store(store, index=index)
        t_aggregate = perf_counter()
        files = get_formatter("figures")(report)
        end = perf_counter()

        sched = campaign.report
        results = sched.results
        n = len(self.configs)
        pipeline_ok = (
            sched.executed == n
            and sched.cache_hits == 0
            and sched.retries == 0
            and not sched.failures
            and report.total_runs == len(index) == n
            and not report.skipped
            and FIGURE_FILES <= set(files)
        )
        good = sum(1 for r in results if result_ok(r)) if pipeline_ok else 0
        simulate_s = sum(r.wall_time_s for r in results)
        store_write_s = sum(store.put_s)
        return Rep(
            wall_s=end - start,
            attempted=n,
            failed=n - good,
            digest=digest_files(files),
            sim_s=sum(c.timeline.end for c in self.configs),
            sim_wall_s=simulate_s,
            stages={
                "simulate_s": simulate_s,
                "store_write_s": store_write_s,
                "schedule_s": t_campaign - start - simulate_s - store_write_s,
                "index_s": t_index - t_campaign,
                "aggregate_s": t_aggregate - t_index,
                "render_s": end - t_aggregate,
            },
            put_ms=[s * 1e3 for s in store.put_s],
            counts={"store.scheduler.retries": sched.retries},
        )


# ----------------------------------------------------------------------
class LongContention(Workload):
    """A few long runs through the testbed: the steady packet path.

    Stadia against Cubic on the deepest queue, against BBR on the
    shallowest and slowest bottleneck (loss, retransmits, RTOs), and
    alone (TCP idle).  An operation is one run.
    """

    name = "long-contention"
    #: (system, cca, capacity bps, queue x BDP).
    CELLS = (
        ("stadia", "cubic", 35e6, 7.0),
        ("stadia", "bbr", 15e6, 0.5),
        ("stadia", None, 25e6, 2.0),
    )
    TIMELINE = SMOKE

    def __init__(self, seed: int):
        self.seeds = [seed * len(self.CELLS) + i for i in range(len(self.CELLS))]
        self.ops_per_rep = len(self.CELLS)

    def _cell(self, cell, seed: int, rep: Rep) -> list:
        system, cca, capacity, queue = cell
        timeline = self.TIMELINE
        testbed = GameStreamingTestbed(
            system, RouterConfig(rate_bps=capacity, queue_mult=queue),
            seed=seed, competing_cca=cca,
        )
        testbed.start_game()
        if cca is not None:
            testbed.schedule_iperf(timeline.iperf_start, timeline.iperf_stop)
        start = perf_counter()
        testbed.run(until=timeline.end)
        rep.sim_wall_s += perf_counter() - start
        rep.sim_s += testbed.sim.now

        capture = testbed.capture
        _, game = capture.bitrate_series(
            testbed.game_flow, 0.0, timeline.end, timeline.bin_width
        )
        times, iperf = capture.bitrate_series(
            "iperf", 0.0, timeline.end, timeline.bin_width
        )
        rtts = np.asarray(testbed.prober.samples).reshape(-1, 2)
        targets = np.asarray(testbed.server.target_log).reshape(-1, 2)
        fps = testbed.client.displayed_fps(*timeline.contention_window)
        loss = testbed.game_loss_rate()
        snapshot = testbed.stats.snapshot()
        counts = rep.counts
        counts["sim.events"] += testbed.sim.events_processed
        counts["sim.packets_forwarded"] += testbed.bottleneck.packets_sent
        counts["sim.packets_dropped"] += sum(
            s["packets_dropped"] for s in snapshot.values()
        )
        for flow in testbed.iperfs:
            pool = flow.pool.stats()
            counts["pool.reused"] += pool["reused"]
            counts["pool.allocated"] += pool["allocated"]
        window = timeline.contention_window
        if not measures_ok([times, game, iperf, rtts, targets],
                           [(fps, window)], loss):
            rep.failed += 1
        return [times, game, iperf, rtts, targets,
                [fps, loss, testbed.sim.events_processed,
                 testbed.bottleneck.packets_sent]]

    def rep(self) -> Rep:
        rep = Rep(wall_s=0.0, attempted=len(self.CELLS), failed=0, digest="")
        rep.counts = dict.fromkeys(
            ("sim.events", "sim.packets_forwarded", "sim.packets_dropped",
             "pool.reused", "pool.allocated"), 0
        )
        start = perf_counter()
        arrays = []
        for cell, seed in zip(self.CELLS, self.seeds):
            arrays += self._cell(cell, seed, rep)
        rep.wall_s = perf_counter() - start
        rep.digest = digest_arrays(arrays)
        rep.stages = {"simulate_s": rep.sim_wall_s}
        return rep


# ----------------------------------------------------------------------
class StoreRoundtrip(Workload):
    """Write a store, then read it back to every output format.

    Set-up simulates two real smoke-scale cells, one contended and one
    solo, so the stored arrays have real sizes (about 600 bitrate bins
    and 300 RTT samples per run).  A rep puts
    ``COPIES`` re-seeded copies of each into an empty store, then runs
    a cold index build, the aggregation and every registered formatter:
    no simulation.  An operation is one put or one formatter render.
    """

    name = "store-roundtrip"
    CELLS = (
        ("stadia", "cubic", 25e6, 2.0),
        ("luna", None, 25e6, 2.0),
    )
    COPIES = 60

    def __init__(self, seed: int):
        fixture = []
        for system, cca, capacity, queue in self.CELLS:
            config = RunConfig(system, capacity, queue, cca=cca, seed=seed,
                               timeline=SMOKE)
            result = run_single(config)
            self.setup_failed += not result_ok(result)
            fixture.append((config, result))
        self.setup_ops = len(fixture)
        self.setup_digest = digest_files(
            {str(i): result_digest(r) for i, (_, r) in enumerate(fixture)}
        )
        self.copies = []
        for k in range(self.COPIES):
            copy_seed = seed * 1000 + k
            self.copies += [
                (replace(config, seed=copy_seed), replace(result, seed=copy_seed))
                for config, result in fixture
            ]
        self.formats = formatter_names()
        self.ops_per_rep = len(self.copies) + len(self.formats)

    def rep(self) -> Rep:
        n = len(self.copies)
        failed_puts = 0
        clear_store()
        start = perf_counter()
        store = _TimedStore(STORE_DIR)
        for config, result in self.copies:
            failed_puts += store.put(config, result) != config_fingerprint(config)
        t_put = perf_counter()
        index = StoreIndex.open(store, rebuild=True)
        t_index = perf_counter()
        report = aggregate_store(store, index=index)
        t_aggregate = perf_counter()
        outputs = {name: get_formatter(name)(report) for name in self.formats}
        end = perf_counter()

        if report.total_runs != n or len(index) != n or report.skipped:
            failed_puts = n
        failed_renders = sum(
            1 for name, files in outputs.items()
            if not files
            or not all(isinstance(text, str) and text for text in files.values())
            or (name == "figures" and not FIGURE_FILES <= set(files))
        )
        return Rep(
            wall_s=end - start,
            attempted=n + len(self.formats),
            failed=failed_puts + failed_renders,
            digest=digest_files({
                f"{name}/{file}": text
                for name, files in outputs.items()
                for file, text in files.items()
            }),
            stages={
                "store_write_s": t_put - start,
                "index_s": t_index - t_put,
                "aggregate_s": t_aggregate - t_index,
                "render_s": end - t_aggregate,
            },
            put_ms=[s * 1e3 for s in store.put_s],
        )


WORKLOADS = {w.name: w for w in (PaperSlice, LongContention, StoreRoundtrip)}
