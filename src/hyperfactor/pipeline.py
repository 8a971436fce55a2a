"""End-to-end orchestration: instance in, extension certificate out."""
from __future__ import annotations

import random
import time

from .amalgam import assign_level_h, build_amalgam, finish_levels, greedy_color_level
from .detach import detach_all
from .model import Certificate, EdgeClass, Instance, Parameters


def _stamped(trace, start: float):
    """Wrap ``trace`` so each record gains t_ms, the milliseconds since ``start``."""
    if trace is None:
        return None
    return lambda record: trace({**record, "t_ms": round((time.perf_counter() - start) * 1e3, 3)})


def extend_instance(inst: Instance, seed: int | None = None,
                    trace=None, hook=None) -> Certificate:
    """Extend a partial factorization of lambda K_m^h to all of lambda K_n^h.

    Builds the amalgamated state, colors levels 1..h-1 greedily, assigns the
    forced top-level quotas, then detaches the n - m new vertices one
    transportation step at a time. ``seed`` shuffles greedy order for
    robustness testing (default fully deterministic); ``trace`` receives one
    JSON-ready record per level and per detachment step, each stamped with
    ``t_ms``, the milliseconds since the call began; ``hook(state, tp, plan)``
    sees each step's checked plan before it is applied (per row, parallel
    ``tp.colors``, ``tp.caps`` and ``plan.moves`` lists).
    """
    trace = _stamped(trace, time.perf_counter())
    state = build_amalgam(inst)
    rng = random.Random(seed) if seed is not None else None
    for level in range(1, inst.params.h):
        greedy_color_level(state, level, rng=rng)
        if trace is not None:
            trace({"stage": "level", "i": level})
    table = finish_levels(state)
    assign_level_h(state, table)
    return detach_all(state, trace=trace, hook=hook)


def single_edge_instance(params: Parameters) -> Instance:
    """The trivial seed for from-scratch factorization: m = h, one edge.

    lambda K_h^h has the single edge [1, h] with lambda copies; they are
    spread over the lowest colors within the degree caps (every copy touches
    every vertex, so color j can hold at most r_j of them).
    """
    p = params
    if p.m != p.h:
        raise ValueError(f"single-edge seeding requires m == h, got m={p.m} h={p.h}")
    counts: dict[int, int] = {}
    left = p.lam
    for j in range(p.k):
        if left == 0:
            break
        counts[j] = min(left, p.r[j])
        left -= counts[j]
    if left:
        raise ValueError("degree caps cannot absorb the seed edge copies")
    support = tuple(range(1, p.h + 1))
    return Instance(params=p, coloring=[EdgeClass(support=support, amalgam=0, colors=counts)])
