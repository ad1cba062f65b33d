"""Run one benchmark workload and print its metrics as JSON.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper-slice --seed 1 --seconds 20 --trace 0

The workload's inputs are made from ``--seed``.  After set-up the
workload repeats its unit of work (a "rep") for ``--seconds`` seconds,
at least twice, checks every output and compares the SHA-256 digest of
each rep's outputs with the first rep's.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.

``--trace 0`` prints the end-to-end metrics (see BENCHMARK.json):

- ``setup_s``: the time to import the program, plus the median time of
  three builds of the workload's inputs from the seed.
- ``pipeline_s``: median host seconds of one rep.
- ``peak_rss_mib``: the process's peak resident set.

``--trace 1`` repeats the untraced reps, for stage timings and counts,
then runs one more rep under cProfile and prints the per-layer metrics:
layer self-time shares and call counts (see layers.py), stage timings,
put latencies, engine counts, ``sim_s_per_wall_s``,
``ingest_runs_per_s``, ``report_s``, ``failed_frac`` and
``tracing_overhead`` (traced rep wall time over the median untraced
one).

The benchmark writes only under ``.perfbench-work/`` in the checkout
and removes it on exit.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import os
import pstats
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

from layers import LAYERS, rollup

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

#: Builds of the workload's inputs timed for ``setup_s``.
SETUPS = 3
#: Reps run even when one rep outlasts ``--seconds``.
MIN_REPS = 2

STAGES = ("simulate_s", "store_write_s", "schedule_s", "index_s",
          "aggregate_s", "render_s")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_workloads():
    """Import the program from this checkout's ``src``, never elsewhere."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no repro package under {SRC}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}")
    from workloads import WORKLOADS

    return WORKLOADS


class Tally:
    """Operations attempted and failed over the whole invocation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.digest = None

    def rep(self, workload):
        """Run one rep; a rep that raises fails all its operations."""
        try:
            rep = workload.rep()
        except Exception:
            traceback.print_exc()
            self.attempted += workload.ops_per_rep
            self.failed += workload.ops_per_rep
            return None
        if self.digest is None:
            self.digest = rep.digest
        elif rep.digest != self.digest:
            print(f"perfbench: rep digest {rep.digest} != {self.digest}",
                  file=sys.stderr)
            rep.failed = rep.attempted
        self.attempted += rep.attempted
        self.failed += rep.failed
        return rep

    def setup(self, workload, digest):
        """Count a set-up's operations; a digest mismatch fails them all."""
        ok = workload.setup_digest == digest
        if not ok:
            print(f"perfbench: set-up digest {workload.setup_digest} != {digest}",
                  file=sys.stderr)
        self.attempted += workload.setup_ops
        self.failed += workload.setup_failed if ok else workload.setup_ops


def run_reps(workload, seconds, tally):
    """Reps for ``seconds``, and at least MIN_REPS.

    Each rep starts from a collected heap, so the peak resident set is
    that of one rep, not of however many reps' garbage fits in the run.
    """
    reps = []
    start = perf_counter()
    runs = 0
    while runs < MIN_REPS or perf_counter() - start < seconds:
        runs += 1
        gc.collect()
        rep = tally.rep(workload)
        if rep is not None:
            reps.append(rep)
    if not reps:
        raise SystemExit("perfbench: every rep raised")
    return reps


def set_up(cls, seed, tally):
    """Build the workload SETUPS times; returns the last and the median
    build time.  Every build must give the first one's set-up digest."""
    times = []
    digest = None
    for _ in range(SETUPS):
        start = perf_counter()
        workload = cls(seed)
        times.append(perf_counter() - start)
        digest = digest or workload.setup_digest
        tally.setup(workload, digest)
    return workload, statistics.median(times)


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(args, workload, tally, setup_s):
    reps = run_reps(workload, args.seconds, tally)
    return {
        "setup_s": metric(setup_s, "s"),
        "pipeline_s": metric(statistics.median(r.wall_s for r in reps), "s"),
        "peak_rss_mib": metric(peak_rss_mib(), "MiB"),
    }


def per_layer(args, workload, tally):
    reps = run_reps(workload, args.seconds, tally)
    gc.collect()
    profiler = cProfile.Profile()
    profiler.enable()
    traced = tally.rep(workload)
    profiler.disable()
    if traced is None:
        raise SystemExit("perfbench: the traced rep raised")
    layers = rollup(pstats.Stats(profiler), SRC)
    total_s = sum(layer["self_s"] for layer in layers.values())

    out = {}
    for name in LAYERS:
        out[f"layer.{name}.self_share"] = metric(
            layers[name]["self_s"] / total_s, "ratio")
        out[f"layer.{name}.calls"] = metric(layers[name]["calls"], "count")
    out["py_calls"] = metric(sum(l["calls"] for l in layers.values()), "count")

    def median_of(fn):
        return statistics.median(fn(r) for r in reps)

    for stage in STAGES:
        out[f"stage.{stage}"] = metric(
            median_of(lambda r: r.stages.get(stage, 0.0)), "s")
    puts = [ms for r in reps for ms in r.put_ms]
    out["store.put_ms.p50"] = metric(percentile(puts, 50), "ms")
    out["store.put_ms.p99"] = metric(percentile(puts, 99), "ms")
    out["store.put_ms.count"] = metric(len(puts), "count")

    counts = reps[0].counts
    events = counts.get("sim.events", 0)
    forwarded = counts.get("sim.packets_forwarded", 0)
    pooled = counts.get("pool.reused", 0) + counts.get("pool.allocated", 0)
    out["sim.events"] = metric(events, "count")
    out["sim.packets_forwarded"] = metric(forwarded, "count")
    out["sim.packets_dropped"] = metric(
        counts.get("sim.packets_dropped", 0), "count")
    out["sim.events_per_packet"] = metric(
        events / forwarded if forwarded else 0.0, "ratio")
    out["sim.packet.pool_reuse_ratio"] = metric(
        counts.get("pool.reused", 0) / pooled if pooled else 0.0, "ratio")
    out["store.scheduler.retries"] = metric(
        sum(r.counts.get("store.scheduler.retries", 0) for r in reps), "count")

    out["sim_s_per_wall_s"] = metric(median_of(
        lambda r: r.sim_s / r.sim_wall_s if r.sim_wall_s else 0.0), "1")
    out["ingest_runs_per_s"] = metric(median_of(
        lambda r: len(r.put_ms) / r.stages["store_write_s"] if r.put_ms else 0.0
    ), "1/s")
    out["report_s"] = metric(median_of(
        lambda r: sum(r.stages.get(s, 0.0)
                      for s in ("index_s", "aggregate_s", "render_s"))
    ), "s")
    out["failed_frac"] = metric(tally.failed / tally.attempted, "ratio")
    out["tracing_overhead"] = metric(
        traced.wall_s / median_of(lambda r: r.wall_s), "ratio")
    return out


def percentile(values, q):
    import numpy as np

    return float(np.percentile(values, q)) if values else 0.0


def peak_rss_mib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    args = parse_args(argv)
    start = perf_counter()
    workloads = load_workloads()
    import_s = perf_counter() - start
    if args.workload not in workloads:
        raise SystemExit(
            f"perfbench: unknown workload {args.workload!r}; "
            f"options: {', '.join(workloads)}"
        )
    workdir = WORK / str(os.getpid())
    workdir.mkdir(parents=True)
    os.chdir(workdir)
    try:
        tally = Tally()
        workload, build_s = set_up(workloads[args.workload], args.seed, tally)
        if args.trace:
            metrics = per_layer(args, workload, tally)
        else:
            metrics = end_to_end(args, workload, tally, import_s + build_s)
    finally:
        os.chdir(ROOT)
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    print(f"perfbench: workload={args.workload} seed={args.seed} "
          f"trace={args.trace} output_sha256={tally.digest}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
