"""Amalgamation stage: merge the missing vertices and color by level.

All n - m future vertices are merged into a single placeholder (the
"amalgam"). Every edge of lambda K_n^h then becomes a class (X, i): an
(h-i)-subset X of the original vertices plus i amalgam slots, with
lambda * C(n-m, i) copies. The input coloring covers level 0; levels
1..h-1 are colored greedily under the per-vertex caps r_j; the level-h
class is colored by forced per-color quotas.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations

from .combinatorics import binom
from .errors import (
    GreedyStuck,
    InadmissibleParameters,
    InternalInvariantViolation,
    InvalidInstance,
    NegativeTopLevelQuota,
)
from .model import EdgeClass, Instance, Parameters, is_admissible, validate_instance

ClassKey = tuple[tuple[int, ...], int]


class DegreeTable:
    """Per-color degree counters for ordinary vertices and the amalgam.

    For an ordinary vertex the entry counts edge copies containing it; for
    the amalgam it sums the amalgam multiplicities of colored copies.
    """

    def __init__(self, num_vertices: int, k: int):
        self.ordinary: dict[int, list[int]] = {v: [0] * k for v in range(1, num_vertices + 1)}
        self.amalgam: list[int] = [0] * k

    def add_vertex(self) -> int:
        v = len(self.ordinary) + 1
        self.ordinary[v] = [0] * len(self.amalgam)
        return v


@dataclass
class AmalgamState:
    """The colored hypergraph mid-pipeline.

    ``classes`` holds one ``EdgeClass`` per class key, the type documents use
    too, each with its sparse ``{color: count}`` map; the degree counters stay
    dense, one list of length k per vertex.
    ``detached`` counts already-split vertices (ids m+1..m+detached);
    ``weight`` is the number of vertices still merged into the amalgam.
    ``level_done`` tracks the highest fully colored amalgam level, enforcing
    the ascending-level discipline.
    """

    params: Parameters
    detached: int
    classes: dict[ClassKey, EdgeClass]
    degrees: DegreeTable
    level_done: int

    @property
    def weight(self) -> int:
        return self.params.n - self.params.m - self.detached

    def check(self) -> None:
        """Assert the invariant of a fully colored state at weight q, in one pass.

        Every class (X, i) holds exactly lambda * C(q, i) copies, all colored.
        For each color j, the live classes (i >= 1) weigh sum i * count_j,
        which must equal the amalgam counter, which must equal r_j * q.
        """
        p = self.params
        q = self.weight
        per_level = [p.lam * binom(q, i) for i in range(p.h + 1)]
        weighted = [0] * p.k
        for key, cls in self.classes.items():
            level = key[1]
            if cls.uncolored or sum(cls.colors.values()) != per_level[level]:
                raise InternalInvariantViolation(
                    f"class {key} holds {cls.total()} copies ({cls.uncolored} uncolored),"
                    f" expected {per_level[level]}")
            if level:
                for j, cnt in cls.colors.items():
                    weighted[j] += level * cnt
        for j, (w, d, rj) in enumerate(zip(weighted, self.degrees.amalgam, p.r), start=1):
            if not w == d == rj * q:
                raise InternalInvariantViolation(
                    f"color {j}: live classes weigh {w}, amalgam degree {d}, expected {rj * q}")

    def get_class(self, support: tuple[int, ...], amalgam: int) -> EdgeClass:
        key = (support, amalgam)
        cls = self.classes.get(key)
        if cls is None:
            cls = EdgeClass(support=support, amalgam=amalgam, colors={})
            self.classes[key] = cls
        return cls


def build_amalgam(inst: Instance) -> AmalgamState:
    """Validate the instance and attach all uncolored amalgam classes.

    For each level i in [1, h] and each (h-i)-subset X of [1, m], the class
    (X, i) starts with lambda * C(n-m, i) uncolored copies (classes whose
    count is zero are skipped). Each input class is copied, so the state
    never shares a ``colors`` map with the instance it extends.
    """
    p = inst.params
    if not is_admissible(p):
        raise InadmissibleParameters(f"(n={p.n}, h={p.h}, lambda={p.lam}, r) fails admissibility")
    report = validate_instance(inst)
    if not report.ok:
        raise InvalidInstance(report)

    degrees = DegreeTable(p.m, p.k)
    classes: dict[ClassKey, EdgeClass] = {}
    for cls in inst.coloring:
        colors = dict(cls.colors)
        classes[cls.key()] = EdgeClass(support=cls.support, amalgam=0, colors=colors)
        for v in cls.support:
            row = degrees.ordinary[v]
            for j, cnt in colors.items():
                row[j] += cnt

    for level in range(1, p.h + 1):
        mult = p.lam * binom(p.n - p.m, level)
        if mult == 0:
            continue
        for support in combinations(range(1, p.m + 1), p.h - level):
            classes[(support, level)] = EdgeClass(
                support=support, amalgam=level, colors={}, uncolored=mult)

    return AmalgamState(params=p, detached=0, classes=classes, degrees=degrees, level_done=0)


def _color_class(state: AmalgamState, cls: EdgeClass, color_order: list[int]) -> None:
    """Batch-assign all copies of one class under the degree caps.

    Walks ``color_order`` once and gives each color min(residual, copies
    left), where the residual is min_x (r_j - deg_j(x)) over the support.
    Degrees only grow while the class is colored, so a color with no
    residual never regains one, and a single pass matches the copy-by-copy
    greedy with the same preference order.
    """
    r = state.params.r
    rows = [state.degrees.ordinary[v] for v in cls.support]
    amalgam = state.degrees.amalgam
    colors = cls.colors
    for j in color_order:
        if not cls.uncolored:
            return
        residual = r[j] - max(row[j] for row in rows)
        if residual <= 0:
            continue
        take = min(residual, cls.uncolored)
        colors[j] = colors.get(j, 0) + take
        cls.uncolored -= take
        for row in rows:
            row[j] += take
        amalgam[j] += cls.amalgam * take
    if cls.uncolored:
        raise GreedyStuck(cls.support, cls.amalgam)


def greedy_color_level(state: AmalgamState, level: int,
                       rng: random.Random | None = None) -> AmalgamState:
    """Color every level-``level`` class, keeping all degrees within caps.

    Classes are processed in lexicographic support order with lowest-color
    preference; ``rng`` optionally shuffles both for robustness testing.
    Levels must be processed in ascending order starting at 1.
    """
    p = state.params
    if not (1 <= level <= p.h - 1):
        raise ValueError(f"greedy levels are 1..{p.h - 1}, got {level}")
    if state.level_done != level - 1:
        raise InternalInvariantViolation(
            f"level {level} colored after level {state.level_done}")

    pending = sorted(key for key in state.classes if key[1] == level)
    if rng is not None:
        rng.shuffle(pending)
    base_order = list(range(p.k))
    for key in pending:
        if rng is not None:
            order = base_order[:]
            rng.shuffle(order)
        else:
            order = base_order
        _color_class(state, state.classes[key], order)

    state.level_done = level
    return state


def finish_levels(state: AmalgamState) -> list[list[int]]:
    """Check exact saturation after the last greedy level and tally counts.

    Once levels 1..h-1 are colored, every ordinary vertex must sit at degree
    exactly r_j in every color (its total capacity equals its total edge
    count). Returns the level-by-color table t with rows 0..h, where
    t[i][j-1] counts level-i copies colored j; row h is left zero for
    ``assign_level_h``.
    """
    p = state.params
    if state.level_done != p.h - 1:
        raise InternalInvariantViolation(
            f"finish_levels called with level_done={state.level_done}, expected {p.h - 1}")

    for v, row in state.degrees.ordinary.items():
        for j, d in enumerate(row):
            if d != p.r[j]:
                raise InternalInvariantViolation(
                    f"vertex {v} has degree {d} in color {j + 1}, expected {p.r[j]}")

    table = [[0] * p.k for _ in range(p.h + 1)]
    for (support, level), cls in state.classes.items():
        if level >= p.h:
            continue
        if cls.uncolored:
            raise InternalInvariantViolation(f"class {(support, level)} still uncolored")
        row = table[level]
        for j, cnt in cls.colors.items():
            row[j] += cnt

    for j in range(p.k):
        weighted = sum((p.h - i) * table[i][j] for i in range(p.h))
        if weighted != p.r[j] * p.m:
            raise InternalInvariantViolation(
                f"color {j + 1}: level counts weigh {weighted}, expected r_j*m={p.r[j] * p.m}")
    return table


def assign_level_h(state: AmalgamState, table: list[list[int]]) -> AmalgamState:
    """Color the all-amalgam class by its forced per-color quotas.

    Each color class of the final factorization has exactly r_j * n / h edge
    copies, so t[h][j] = r_j * n / h - sum_i t[i][j] is forced. Each quota
    must be a nonnegative integer and the quotas must total
    lambda * C(n-m, h). Ends with ``state.check()``: the amalgam sits at
    degree r_j * (n - m) in every color and every class is fully colored.
    """
    p = state.params
    if state.level_done != p.h - 1:
        raise InternalInvariantViolation("assign_level_h before all greedy levels")

    for j in range(p.k):
        table[p.h][j] = (p.r[j] * p.n) // p.h - sum(table[i][j] for i in range(p.h))
        if table[p.h][j] < 0:
            raise NegativeTopLevelQuota(j + 1, table[p.h][j])

    expected_total = p.lam * binom(p.n - p.m, p.h)
    if sum(table[p.h]) != expected_total:
        raise InternalInvariantViolation(
            f"top-level quotas total {sum(table[p.h])}, expected {expected_total}")

    if expected_total:
        cls = state.get_class((), p.h)
        if cls.uncolored != expected_total:
            raise InternalInvariantViolation(
                f"top-level class has {cls.uncolored} copies, expected {expected_total}")
        cls.colors = {j: cnt for j, cnt in enumerate(table[p.h]) if cnt}
        cls.uncolored = 0
        for j in range(p.k):
            state.degrees.amalgam[j] += p.h * table[p.h][j]

    state.level_done = p.h
    state.check()
    return state
