"""Layer attribution of a cProfile run.

Every ``repro`` module belongs to one layer (:data:`LAYER_PREFIXES`).
A function's self time is charged to its module's layer.  Code outside
``repro`` -- C builtins, the standard library, numpy, this benchmark --
has no layer of its own: its self time is split over its callers in
proportion to the time each call edge accounts for (pstats' caller
table), repeatedly, until it reaches ``repro`` code.  Time that never
reaches ``repro`` (the harness, the profiler itself), and time in a
``repro`` module that no prefix names (package ``__init__`` modules,
``repro.report.status``), lands in ``other``, so the shares of all
layers sum to 1.

Call counts are counted for ``repro`` functions only: they repeat
exactly between identical runs, except in ``store.scheduler``, whose
heartbeat is throttled by wall time.  Builtin counts drift by first-call
effects and are left out.
"""

from __future__ import annotations

import pstats
from pathlib import Path

#: Module prefix -> layer.  The longest matching prefix wins.
LAYER_PREFIXES = {
    "repro.sim.engine": "sim.engine",
    "repro.sim.wheel": "sim.wheel",
    "repro.sim.delayline": "sim.delayline",
    "repro.sim.netem": "sim.delayline",
    "repro.sim.link": "sim.link",
    "repro.sim.queues": "sim.link",
    "repro.sim.aqm": "sim.link",
    "repro.sim.token_bucket": "sim.link",
    "repro.sim.node": "sim.link",
    "repro.sim.packet": "sim.packet",
    "repro.sim.flowstats": "sim.packet",
    "repro.tcp": "tcp",
    "repro.streaming.server": "streaming.server",
    "repro.streaming.encoder": "streaming.server",
    "repro.streaming.frames": "streaming.server",
    "repro.streaming.gcc": "streaming.server",
    "repro.streaming.systems": "streaming.server",
    "repro.streaming.client": "streaming.client",
    "repro.streaming.feedback": "streaming.client",
    "repro.testbed": "testbed",
    "repro.experiments": "experiments",
    "repro.store.scheduler": "store.scheduler",
    "repro.store.heartbeat": "store.scheduler",
    "repro.store.chaos": "store.scheduler",
    "repro.store.runstore": "store.runstore",
    "repro.store.fingerprint": "store.runstore",
    "repro.store.index": "store.index",
    "repro.report.aggregate": "report.aggregate",
    "repro.analysis.render": "report.formatters",
    "repro.analysis": "report.aggregate",
    "repro.report.formatters": "report.formatters",
    "repro.obs": "obs",
}

OTHER = "other"

#: Every layer name, in report order.
LAYERS = tuple(dict.fromkeys(LAYER_PREFIXES.values())) + (OTHER,)


def module_layer(module: str) -> str | None:
    """The layer of a dotted ``repro`` module name, None outside it."""
    parts = module.split(".")
    for end in range(len(parts), 0, -1):
        layer = LAYER_PREFIXES.get(".".join(parts[:end]))
        if layer is not None:
            return layer
    return OTHER if parts[0] == "repro" else None


def _module_of(filename: str, src: Path) -> str | None:
    """Dotted module name of a source file under ``src``, else None."""
    try:
        rel = Path(filename).resolve().relative_to(src)
    except ValueError:
        return None
    parts = list(rel.with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def rollup(stats: pstats.Stats, src: Path) -> dict:
    """Per-layer ``{"self_s", "calls"}`` from a profile, plus ``other``.

    ``src`` is the directory holding the ``repro`` package.
    """
    src = src.resolve()
    table = stats.stats  # func -> (cc, nc, tt, ct, callers)
    own: dict = {}
    for func in table:
        module = _module_of(func[0], src)
        own[func] = None if module is None else module_layer(module)

    # func -> {layer: fraction}, for the two edge weights: a function's
    # self time splits over its callers by the self time each edge
    # carries (TT); further up, a caller's share splits over its own
    # callers by the cumulative time each of those edges carries (CT).
    TT, CT = 2, 3
    shares: dict = {TT: {}, CT: {}}

    def charge(func, weight: int, active: frozenset) -> tuple[dict, bool]:
        """(layer fractions, whether a call cycle was cut on the way)."""
        if own[func] is not None:
            return {own[func]: 1.0}, False
        if func in shares[weight]:
            return shares[weight][func], False
        if func in active:
            return {}, True
        callers = {c: e for c, e in table[func][4].items() if c in table}
        total = sum(edge[weight] for edge in callers.values())
        if total <= 0.0:
            # A root, or calls too short to time: keep the time here
            # rather than guess a caller.
            return {OTHER: 1.0}, False
        result: dict = {}
        cut = False
        for caller, edge in callers.items():
            parts, caller_cut = charge(caller, CT, active | {func})
            cut |= caller_cut
            for layer, part in parts.items():
                result[layer] = (result.get(layer, 0.0)
                                 + edge[weight] / total * part)
        # Edges that close a call cycle (recursion) carry no new origin:
        # spread their weight over the other edges.
        reached = sum(result.values())
        if reached <= 0.0:
            result = {OTHER: 1.0}
        elif reached < 1.0:
            result = {layer: part / reached for layer, part in result.items()}
        if not cut:
            shares[weight][func] = result
        return result, cut

    layers = {name: {"self_s": 0.0, "calls": 0} for name in LAYERS}
    for func, (_cc, nc, tt, _ct, _callers) in table.items():
        for layer, part in charge(func, TT, frozenset())[0].items():
            layers[layer]["self_s"] += tt * part
        if own[func] is not None:
            layers[own[func]]["calls"] += nc
    return layers
