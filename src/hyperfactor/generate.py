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


def _try_random_coloring(params: Parameters, rng: random.Random):
    """One greedy pass: shuffled copy order, uniform feasible color per copy."""
    p = params
    degrees = {v: [0] * p.k for v in range(1, p.m + 1)}
    copies = [s for s in combinations(range(1, p.m + 1), p.h) for _ in range(p.lam)]
    rng.shuffle(copies)
    counts: dict[tuple[int, ...], list[int]] = {}
    for subset in copies:
        feasible = [j for j in range(p.k)
                    if all(degrees[v][j] < p.r[j] for v in subset)]
        if not feasible:
            return None
        j = rng.choice(feasible)
        counts.setdefault(subset, [0] * p.k)[j] += 1
        for v in subset:
            degrees[v][j] += 1
    return counts


def _backtrack_coloring(params: Parameters, rng: random.Random, node_budget: int):
    """Bounded fallback search; copy order fixed, color order shuffled per node."""
    p = params
    degrees = {v: [0] * p.k for v in range(1, p.m + 1)}
    copies = [s for s in combinations(range(1, p.m + 1), p.h) for _ in range(p.lam)]
    counts: dict[tuple[int, ...], list[int]] = {}
    nodes = [0]

    def go(idx: int) -> bool:
        if idx == len(copies):
            return True
        nodes[0] += 1
        if nodes[0] > node_budget:
            return False
        subset = copies[idx]
        feasible = [j for j in range(p.k)
                    if all(degrees[v][j] < p.r[j] for v in subset)]
        rng.shuffle(feasible)
        for j in feasible:
            counts.setdefault(subset, [0] * p.k)[j] += 1
            for v in subset:
                degrees[v][j] += 1
            if go(idx + 1):
                return True
            counts[subset][j] -= 1
            for v in subset:
                degrees[v][j] -= 1
        return False

    return counts if go(0) else None


def random_instance(params: Parameters, seed: int = 0,
                    max_restarts: int = 40, node_budget: int = 50_000) -> Instance:
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
    for attempt in range(max_restarts):
        rng = random.Random(seed * _SEED_STRIDE + attempt)
        counts = _try_random_coloring(params, rng)
        if counts is not None:
            break
    if counts is None:
        rng = random.Random(seed * _SEED_STRIDE + max_restarts)
        counts = _backtrack_coloring(params, rng, node_budget)
    if counts is None:
        raise GenerationFailed(f"no valid coloring found after {max_restarts} restarts")

    coloring = [EdgeClass(support=s, amalgam=0, colors=c)
                for s, c in sorted(counts.items())]
    return Instance(params=params, coloring=coloring)
