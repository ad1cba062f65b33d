"""Results of a single run, and their persistence.

A :class:`RunResult` carries everything the analysis layer needs to
regenerate any table or figure: the binned bitrate series of the game
and iperf flows, RTT samples, loss statistics, displayed frame rate,
and the controller's target log.  It is numpy-backed in memory and
serialises to plain JSON for storage.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

__all__ = ["RunResult"]


@dataclass
class RunResult:
    """Everything measured in one run."""

    # Identity.
    system: str
    cca: str | None
    capacity_bps: float
    queue_mult: float
    seed: int
    timeline_scale: float

    # Bitrate series (shared bin centres).
    times: np.ndarray
    game_bps: np.ndarray
    iperf_bps: np.ndarray

    # Windowed summaries.
    baseline_bps: float  # mean game bitrate, baseline window
    fairness_game_bps: float  # mean game bitrate, fairness window
    fairness_iperf_bps: float  # mean iperf bitrate, fairness window
    solo_bps: float  # mean game bitrate, solo window

    # QoE measures.
    rtt_samples: np.ndarray  # (send_time, rtt) pairs
    game_loss_rate: float
    displayed_fps_contention: float
    displayed_fps_solo: float
    frames_displayed: int
    frames_dropped: int

    # Controller trace.
    target_log: np.ndarray = field(default_factory=lambda: np.empty((0, 2)))

    # Run provenance and profiling (filled by the runner).
    qdisc: str = "droptail"
    wall_time_s: float = 0.0
    profile: dict | None = None

    # ------------------------------------------------------------------
    def rtts_in(self, t_start: float, t_end: float) -> np.ndarray:
        """RTT values for probes sent within [t_start, t_end)."""
        if self.rtt_samples.size == 0:
            return np.empty(0)
        sent = self.rtt_samples[:, 0]
        mask = (sent >= t_start) & (sent < t_end)
        return self.rtt_samples[mask, 1]

    def game_mean_bps(self, t_start: float, t_end: float) -> float:
        mask = (self.times >= t_start) & (self.times < t_end)
        if not mask.any():
            raise ValueError(f"no bins in [{t_start}, {t_end})")
        return float(self.game_bps[mask].mean())

    def iperf_mean_bps(self, t_start: float, t_end: float) -> float:
        mask = (self.times >= t_start) & (self.times < t_end)
        if not mask.any():
            raise ValueError(f"no bins in [{t_start}, {t_end})")
        return float(self.iperf_bps[mask].mean())

    def rtt_summary(self) -> dict:
        """Summary statistics of the full RTT sample set."""
        if self.rtt_samples.size == 0:
            return {"count": 0, "mean": None, "min": None, "max": None, "p95": None}
        rtts = self.rtt_samples[:, 1]
        return {
            "count": int(rtts.size),
            "mean": float(rtts.mean()),
            "min": float(rtts.min()),
            "max": float(rtts.max()),
            "p95": float(np.percentile(rtts, 95)),
        }

    @property
    def fairness_ratio(self) -> float:
        """(game - iperf) / capacity over the fairness window."""
        return (self.fairness_game_bps - self.fairness_iperf_bps) / self.capacity_bps

    # ------------------------------------------------------------------
    def to_dict(self, *, lists: bool = True) -> dict:
        """Every field plus the derived summaries, JSON-ready.

        With ``lists=False`` the array fields stay numpy arrays, for
        writers that store them natively (see
        :meth:`repro.store.runstore.RunStore.put`).
        """
        array = np.ndarray.tolist if lists else np.asarray
        # Derived summaries are computed exactly once per serialisation.
        rtt_summary = self.rtt_summary()
        fairness_ratio = self.fairness_ratio
        return {
            "system": self.system,
            "cca": self.cca,
            "capacity_bps": self.capacity_bps,
            "queue_mult": self.queue_mult,
            "seed": self.seed,
            "timeline_scale": self.timeline_scale,
            "times": array(self.times),
            "game_bps": array(self.game_bps),
            "iperf_bps": array(self.iperf_bps),
            "baseline_bps": self.baseline_bps,
            "fairness_game_bps": self.fairness_game_bps,
            "fairness_iperf_bps": self.fairness_iperf_bps,
            "solo_bps": self.solo_bps,
            "rtt_samples": array(self.rtt_samples),
            "game_loss_rate": self.game_loss_rate,
            "displayed_fps_contention": self.displayed_fps_contention,
            "displayed_fps_solo": self.displayed_fps_solo,
            "frames_displayed": self.frames_displayed,
            "frames_dropped": self.frames_dropped,
            "target_log": array(self.target_log),
            "qdisc": self.qdisc,
            "wall_time_s": self.wall_time_s,
            "profile": self.profile,
            # Derived summaries, for consumers that never load the arrays.
            "rtt_summary": rtt_summary,
            "fairness_ratio": fairness_ratio,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RunResult":
        return cls(
            system=data["system"],
            cca=data["cca"],
            capacity_bps=data["capacity_bps"],
            queue_mult=data["queue_mult"],
            seed=data["seed"],
            timeline_scale=data["timeline_scale"],
            times=np.asarray(data["times"]),
            game_bps=np.asarray(data["game_bps"]),
            iperf_bps=np.asarray(data["iperf_bps"]),
            baseline_bps=data["baseline_bps"],
            fairness_game_bps=data["fairness_game_bps"],
            fairness_iperf_bps=data["fairness_iperf_bps"],
            solo_bps=data["solo_bps"],
            rtt_samples=np.asarray(data["rtt_samples"]).reshape(-1, 2),
            game_loss_rate=data["game_loss_rate"],
            displayed_fps_contention=data["displayed_fps_contention"],
            displayed_fps_solo=data["displayed_fps_solo"],
            frames_displayed=data["frames_displayed"],
            frames_dropped=data["frames_dropped"],
            target_log=np.asarray(data["target_log"]).reshape(-1, 2),
            qdisc=data.get("qdisc", "droptail"),
            wall_time_s=data.get("wall_time_s", 0.0),
            profile=data.get("profile"),
        )

    def save(self, path: str | Path) -> None:
        """Write the JSON serialisation atomically.

        The text lands in a temporary file in the destination directory
        and is published with ``os.replace``, so an interrupted save
        can never leave a truncated file at ``path``.  Compact
        separators keep the dominant cost -- the bitrate/RTT arrays --
        about 10% smaller than json's default ", "/": " padding.
        """
        path = Path(path)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(json.dumps(self.to_dict(), separators=(",", ":")))
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise

    @classmethod
    def load(cls, path: str | Path) -> "RunResult":
        return cls.from_dict(json.loads(Path(path).read_text()))
