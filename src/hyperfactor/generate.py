"""Seeded random generation of valid partial factorization instances."""
from __future__ import annotations

import random
from itertools import combinations

from .errors import GenerationFailed, InadmissibleParameters, TooLarge
from .model import (
    MAX_STATE_SLOTS,
    EdgeClass,
    Instance,
    Parameters,
    exceeds_state_limit,
    is_admissible,
)

_SEED_STRIDE = 1_000_003
_MAX_RESTARTS = 40      # seeded greedy passes before the backtracking fallback
_NODE_BUDGET = 50_000   # search nodes the backtracking fallback may visit


def _try_random_coloring(params: Parameters, rng: random.Random):
    """One greedy pass: shuffled copy order, uniform feasible color per copy."""
    p = params
    degrees = {v: [0] * p.k for v in range(1, p.m + 1)}
    palette, full = set(range(p.k)), {v: set() for v in degrees}   # full: colors at degree r_j
    copies = [s for s in combinations(range(1, p.m + 1), p.h) for _ in range(p.lam)]
    rng.shuffle(copies)
    counts: dict[tuple[int, ...], dict[int, int]] = {}
    for subset in copies:
        feasible = sorted(palette.difference(*map(full.__getitem__, subset)))
        if not feasible:
            return None
        j = rng.choice(feasible)
        held = counts.setdefault(subset, {})
        held[j] = held.get(j, 0) + 1
        for v in subset:
            degrees[v][j] += 1
            if degrees[v][j] == p.r[j]:
                full[v].add(j)
    return counts


def _backtrack_coloring(params: Parameters, rng: random.Random):
    """Bounded fallback search; copy order fixed, color order shuffled per node.

    Depth-first without recursion: one frame per copy on the path holds its
    shuffled feasible colors and the index of the one it takes now.
    """
    p = params
    degrees = {v: [0] * p.k for v in range(1, p.m + 1)}
    palette, full = set(range(p.k)), {v: set() for v in degrees}   # full: colors at degree r_j
    copies = [s for s in combinations(range(1, p.m + 1), p.h) for _ in range(p.lam)]
    counts: dict[tuple[int, ...], dict[int, int]] = {}
    frames: list[list] = []
    for _ in range(_NODE_BUDGET):   # one search node a pass
        if len(frames) == len(copies):
            return counts
        subset = copies[len(frames)]
        feasible = sorted(palette.difference(*map(full.__getitem__, subset)))
        rng.shuffle(feasible)
        counts.setdefault(subset, {})
        frames.append([feasible, -1])
        while frames:   # the deepest copy takes its next color; a copy out of colors backs out
            feasible, at = frames[-1]
            subset = copies[len(frames) - 1]
            held = counts[subset]
            if at >= 0:
                j = feasible[at]
                held[j] -= 1
                if not held[j]:
                    del held[j]   # instances keep no zero counts
                for v in subset:
                    degrees[v][j] -= 1
                    full[v].discard(j)   # every degree stays at most r_j, so it is below now
            at += 1
            if at < len(feasible):
                frames[-1][1], j = at, feasible[at]
                held[j] = held.get(j, 0) + 1
                for v in subset:
                    degrees[v][j] += 1
                    if degrees[v][j] == p.r[j]:
                        full[v].add(j)
                break
            frames.pop()
        else:
            return None
    return counts if len(frames) == len(copies) else None


def random_instance(params: Parameters, seed: int = 0) -> Instance:
    """Produce a uniformly scrambled valid instance for the parameters.

    Colors the lambda * C(m, h) copies of lambda K_m^h in seeded random
    order, each to a uniformly random feasible color. Dead ends trigger
    restarts with derived seeds, then one bounded backtracking pass; a
    GenerationFailed after that reflects the retry budget, not
    impossibility. Raises TooLarge when the copies would top MAX_STATE_SLOTS.
    """
    if not is_admissible(params):
        raise InadmissibleParameters("refusing to generate an inadmissible instance")
    if exceeds_state_limit(params.lam, params.m, params.h):
        raise TooLarge(f"lambda={params.lam}, m={params.m}, h={params.h}: lambda * C(m,h) "
                       f"edge copies exceed the state limit of {MAX_STATE_SLOTS}")

    counts = None
    for attempt in range(_MAX_RESTARTS):
        rng = random.Random(seed * _SEED_STRIDE + attempt)
        counts = _try_random_coloring(params, rng)
        if counts is not None:
            break
    if counts is None:
        rng = random.Random(seed * _SEED_STRIDE + _MAX_RESTARTS)
        counts = _backtrack_coloring(params, rng)
    if counts is None:
        raise GenerationFailed(f"no valid coloring found after {_MAX_RESTARTS} restarts")

    coloring = [EdgeClass(support=s, amalgam=0, colors=c)
                for s, c in sorted(counts.items())]
    return Instance(params=params, coloring=coloring)
