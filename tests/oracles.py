"""Reference implementations that the test suite checks the package against.

The proof's counting lemmas (Vandermonde's convolution, the outside-majority
inequality and the blocked-degree bound) and a brute-force extender for tiny
instances. The package never calls them; the tests use them as independent
oracles. This module is imported by the tests and is not collected itself.
"""
from __future__ import annotations

from itertools import combinations

from hyperfactor.combinatorics import binom
from hyperfactor.model import Certificate, EdgeClass, Instance


def vandermonde_sum(n: int, m: int, h: int) -> int:
    """Sum_{i=0}^{h} C(m, h-i) * C(n-m, i).

    By Vandermonde's convolution this equals C(n, h); callers use the two
    routes as a cross-check. Requires n >= m >= h >= 1.
    """
    if not (n >= m >= h >= 1):
        raise ValueError(f"vandermonde_sum: need n >= m >= h >= 1, got {(n, m, h)}")
    return sum(binom(m, h - i) * binom(n - m, i) for i in range(h + 1))


def outside_majority_holds(n: int, m: int, h: int) -> bool:
    """True iff 2 * C(n-m, h-1) > C(n-1, h-1).

    At any fixed vertex, C(n-1, h-1) counts the ways to complete an edge and
    C(n-m, h-1) the completions avoiding the first m vertices entirely; this
    asks whether the avoiding completions, doubled, win. It is implied by
    ``bound_holds`` and drives the level-coloring feasibility argument.
    """
    if not (n >= m >= h >= 2):
        raise ValueError(f"outside_majority_holds: need n >= m >= h >= 2, got {(n, m, h)}")
    return 2 * binom(n - m, h - 1) > binom(n - 1, h - 1)


def blocked_degree_bound(n: int, m: int, h: int, level: int) -> int:
    """(h - level) * Sum_{l=1}^{level+1} C(m-1, h-l) * C(n-m, l-1).

    Upper bound on the total colored degree the h - level original vertices
    of a still-uncolored level-``level`` edge can have accumulated once all
    lower levels are colored. Strictly below C(n-1, h-1) for
    level in [1, h-2] whenever ``bound_holds``; equal to it at level = h-1.
    """
    if not (n >= m >= h >= 2):
        raise ValueError(f"blocked_degree_bound: need n >= m >= h >= 2, got {(n, m, h)}")
    if not (1 <= level <= h):
        raise ValueError(f"blocked_degree_bound: need 1 <= level <= h, got {level}")
    inner = sum(binom(m - 1, h - l) * binom(n - m, l - 1) for l in range(1, level + 2))
    return (h - level) * inner


class _Marker:
    def __init__(self, name: str):
        self._name = name

    def __repr__(self) -> str:
        return self._name


EXHAUSTED = _Marker("EXHAUSTED")
TOO_LARGE = _Marker("TOO_LARGE")


def brute_force_extend(inst: Instance, copy_budget: int = 60):
    """Backtracking oracle for tiny instances.

    Colors the copies of lambda K_n^h missing from lambda K_m^h one at a
    time, under the degree caps and the exact per-color quota of
    r_j * n / h edge copies. Returns a Certificate, EXHAUSTED when no
    extension exists, or TOO_LARGE when the number of new copies exceeds
    ``copy_budget``. Independent of the construction pipeline.
    """
    p = inst.params
    new_copies = p.lam * (binom(p.n, p.h) - binom(p.m, p.h))
    if new_copies > copy_budget:
        return TOO_LARGE

    if sum(p.r) != p.lam * binom(p.n - 1, p.h - 1):
        return EXHAUSTED
    if any((rj * p.n) % p.h for rj in p.r):
        return EXHAUSTED
    quotas = [(rj * p.n) // p.h for rj in p.r]

    degrees = {v: [0] * p.k for v in range(1, p.n + 1)}
    used = [0] * p.k
    for cls in inst.coloring:
        for j, cnt in cls.colors.items():
            used[j] += cnt
            for v in cls.support:
                degrees[v][j] += cnt

    subsets = [s for s in combinations(range(1, p.n + 1), p.h) if s[-1] > p.m]
    remaining = {s: p.lam for s in subsets}
    assignment: dict[tuple[int, ...], list[int]] = {s: [] for s in subsets}

    def feasible_colors(subset: tuple[int, ...], min_color: int) -> list[int]:
        return [j for j in range(min_color, p.k)
                if used[j] < quotas[j]
                and all(degrees[v][j] < p.r[j] for v in subset)]

    def pick_subset():
        best = None
        best_options = None
        for s in subsets:
            if remaining[s] == 0:
                continue
            floor = assignment[s][-1] if assignment[s] else 0
            options = feasible_colors(s, floor)
            if not options:
                return s, []
            if best_options is None or len(options) < len(best_options):
                best, best_options = s, options
                if len(options) == 1:
                    break
        return best, best_options

    def search() -> bool:
        subset, options = pick_subset()
        if subset is None:
            return True
        for j in options:
            used[j] += 1
            for v in subset:
                degrees[v][j] += 1
            assignment[subset].append(j)
            remaining[subset] -= 1
            if search():
                return True
            remaining[subset] += 1
            assignment[subset].pop()
            for v in subset:
                degrees[v][j] -= 1
            used[j] -= 1
        return False

    if not search():
        return EXHAUSTED

    coloring = [EdgeClass(support=c.support, amalgam=0, colors=dict(c.colors))
                for c in inst.coloring]
    for subset in subsets:
        counts: dict[int, int] = {}
        for j in assignment[subset]:
            counts[j] = counts.get(j, 0) + 1
        coloring.append(EdgeClass(support=subset, amalgam=0, colors=counts))
    coloring.sort(key=lambda c: c.key())
    return Certificate(params=p, coloring=coloring, report=None)
