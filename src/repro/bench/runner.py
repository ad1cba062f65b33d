"""Benchmark execution: repeat a scenario, record the numbers.

The runner executes a scenario ``repeats`` times and keeps every wall
time; the headline figure uses the *best* repeat (the least-perturbed
observation of the same deterministic workload -- the convention
pytest-benchmark's ``min`` and timeit both follow), while the full list
is preserved in the JSON so noise is visible in the trajectory.

Warm-up iterations (default 1) run the scenario before timing starts,
so ``best_wall_s``/``mean_wall_s`` stop absorbing first-run import and
allocator noise -- the discarded passes prime module imports, numpy
internals, and the allocator's arenas.

Peak RSS comes from ``getrusage(RUSAGE_SELF).ru_maxrss``; it is the
process high-water mark, so within one ``bench run --all`` invocation
later scenarios inherit the peak of earlier ones.  The repeats of a
testbed scenario do not stack dead testbeds: each new
``GameStreamingTestbed`` frees the simulations of dropped ones before
it builds its own.  Peak RSS is recorded to catch order-of-magnitude
memory regressions, not byte-level ones.  ``ru_maxrss`` reports KiB on
Linux but **bytes** on macOS; the runner normalises to KiB and records
the unit in the report's env block so a baseline's figure is
interpretable regardless of where it was taken.
"""

from __future__ import annotations

import os
import platform
import resource
import sys
from dataclasses import dataclass, field
from time import perf_counter

from repro.bench.scenarios import Scenario, get_scenario

__all__ = ["BenchResult", "run_scenario"]

#: Schema version of BENCH_*.json files.  Version 2 added the
#: first-class ``sim_seconds`` / ``sim_s_per_wall_s`` fields (the
#: time-compression headline, robust to event-coalescing changes in
#: how many events one packet costs).
BENCH_FORMAT = 2


@dataclass
class BenchResult:
    """Everything one benchmark invocation measured."""

    scenario: str
    description: str
    repeats: int
    scale: float
    wall_s: list[float]
    events: int | None
    peak_rss_kb: int
    warmup: int = 1
    sim_seconds: float | None = None
    counters: dict = field(default_factory=dict)
    env: dict = field(default_factory=dict)

    @property
    def best_wall_s(self) -> float:
        return min(self.wall_s)

    @property
    def mean_wall_s(self) -> float:
        return sum(self.wall_s) / len(self.wall_s)

    @property
    def events_per_sec(self) -> float | None:
        """Engine throughput over the best repeat (None for scenarios
        without a single spanning simulator, e.g. campaign-slice)."""
        if self.events is None or self.best_wall_s <= 0:
            return None
        return self.events / self.best_wall_s

    @property
    def sim_s_per_wall_s(self) -> float | None:
        """Time-compression factor over the best repeat: how many
        simulated seconds one wall second buys.  Unlike events/second
        this does not move when coalescing changes the event count of
        an identical workload, so it is the preferred headline."""
        if self.sim_seconds is None or self.best_wall_s <= 0:
            return None
        return self.sim_seconds / self.best_wall_s

    def to_dict(self) -> dict:
        return {
            "format": BENCH_FORMAT,
            "scenario": self.scenario,
            "description": self.description,
            "repeats": self.repeats,
            "warmup": self.warmup,
            "scale": self.scale,
            "wall_s": [round(w, 6) for w in self.wall_s],
            "best_wall_s": round(self.best_wall_s, 6),
            "mean_wall_s": round(self.mean_wall_s, 6),
            "events": self.events,
            "events_per_sec": (
                round(self.events_per_sec, 1)
                if self.events_per_sec is not None
                else None
            ),
            "sim_seconds": (
                round(self.sim_seconds, 6)
                if self.sim_seconds is not None
                else None
            ),
            "sim_s_per_wall_s": (
                round(self.sim_s_per_wall_s, 3)
                if self.sim_s_per_wall_s is not None
                else None
            ),
            "peak_rss_kb": self.peak_rss_kb,
            "counters": self.counters,
            "env": self.env,
        }

    def render(self) -> str:
        compression = self.sim_s_per_wall_s
        eps = self.events_per_sec
        if compression is not None:
            headline = f"{compression:,.1f} sim-s/s"
        elif eps is not None:
            headline = f"{eps:,.0f} events/s"
        else:
            headline = f"{self.best_wall_s:.3f} s"
        return (
            f"{self.scenario:<22} {headline:>20}  "
            f"best {self.best_wall_s:8.3f} s  mean {self.mean_wall_s:8.3f} s  "
            f"rss {self.peak_rss_kb / 1024:6.1f} MB"
        )


def _environment() -> dict:
    from repro.sim.engine import DEFAULT_SCHEDULER

    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "peak_rss_unit": "KiB",
        "scheduler": os.environ.get("REPRO_SCHEDULER", DEFAULT_SCHEDULER),
    }


def _peak_rss_kb() -> int:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is KiB on Linux but bytes on macOS.
    if sys.platform == "darwin":  # pragma: no cover - linux CI
        peak //= 1024
    return peak


def run_scenario(
    scenario: str | Scenario,
    repeats: int = 3,
    scale: float = 1.0,
    warmup: int = 1,
) -> BenchResult:
    """Execute a scenario ``repeats`` times and collect a result.

    ``warmup`` extra iterations run first and are discarded from the
    wall-time list (their counters are discarded too).  The counters
    (including ``events``) come from the last timed repeat; the
    workload is deterministic, so every repeat produces the same
    counters and only the wall times differ.
    """
    if repeats <= 0:
        raise ValueError(f"repeats must be positive, got {repeats}")
    if warmup < 0:
        raise ValueError(f"warmup must be >= 0, got {warmup}")
    if isinstance(scenario, str):
        scenario = get_scenario(scenario)
    for _ in range(warmup):
        scenario.run(scale)
    walls: list[float] = []
    counters: dict = {}
    for _ in range(repeats):
        start = perf_counter()
        counters = scenario.run(scale)
        walls.append(perf_counter() - start)
    events = counters.pop("events", None)
    sim_seconds = counters.pop("sim_seconds", None)
    return BenchResult(
        scenario=scenario.name,
        description=scenario.description,
        repeats=repeats,
        warmup=warmup,
        scale=scale,
        wall_s=walls,
        events=events,
        sim_seconds=sim_seconds,
        peak_rss_kb=_peak_rss_kb(),
        counters=counters,
        env=_environment(),
    )
