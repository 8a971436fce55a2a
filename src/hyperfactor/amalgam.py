"""Amalgamation stage: merge the missing vertices and color by level.

All n - m future vertices are merged into a single placeholder (the
"amalgam"). Every edge of lambda K_n^h then falls in a class (X, i): an
(h-i)-subset X of the original vertices plus i amalgam slots, which holds
lambda * C(n-m, i) copies once colored. The input coloring covers level 0;
levels 1..h-1 are colored greedily under the per-vertex caps r_j; the
level-h class takes forced per-color quotas, r_j * n / h minus the copies of
color j already placed. The amalgam's degree is read off the classes.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
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


@dataclass
class AmalgamState:
    """The colored hypergraph mid-pipeline.

    ``classes`` holds one ``EdgeClass`` per class key, the type documents use
    too, each with its sparse ``{color: count}`` map; it is the one map of
    every class. ``live`` indexes the keys of the classes with amalgam slots,
    in creation order, and ``finished`` the level-0 classes' maps; ``get_class``
    and the detach step's delete keep both in step with ``classes``. Write-once
    rule: a class gains its colors from one writer (the input, the greedy once
    per level class, the quotas, or a detach target's one donor), and later
    steps only take copies from live maps. ``sealed`` holds the copy of each
    finished map a full ``check`` has counted, interned by content in
    ``seals``. A live map lists its colors ascending, as its writer filled it.
    ``degrees`` maps each original vertex 1..m to its dense per-color
    degrees; only the greedy levels and ``finish_levels`` read it.
    ``detached`` counts already-split vertices (ids m+1..m+detached);
    ``weight`` is the number of vertices still merged into the amalgam.
    ``level_done`` tracks the highest fully colored amalgam level, enforcing
    the ascending-level discipline.
    """

    params: Parameters
    detached: int
    classes: dict[ClassKey, EdgeClass]
    degrees: dict[int, list[int]]
    level_done: int
    live: dict[ClassKey, None] = field(default_factory=dict)
    finished: list[dict[int, int]] = field(default_factory=list)
    sealed: list[dict[int, int]] = field(default_factory=list)
    seals: dict[tuple, dict[int, int]] = field(default_factory=dict)

    @property
    def weight(self) -> int:
        return self.params.n - self.params.m - self.detached

    def check(self, tp=None, plan=None) -> None:
        """Assert the invariant of a fully colored state at weight q.

        Every class (X, i) holds lambda * C(q, i) copies, the live classes
        weigh r_j * q in each color j (sum i * count_j, the amalgam's degree),
        every class is live or finished, and at q = 0 none is live. Given a
        detach step's ``tp`` and ``plan``, it reads the sums off the plan's
        sparse row maps, one pass over the moved cells: row (X, i) gives
        lambda * C(q, i - 1) copies, color j gets r_j.
        That suffices: the check held before the step, the walk kept each move
        within its cap, every live class is a row and a target's only donor is
        its row. So a source keeps lambda * C(q, i) exactly when its row sum is
        right, its target then holds lambda * C(q, i - 1), and each moved copy
        lowers its color's weight by one. By the write-once rule only a hook
        may write between stages, so the quotas and a step under a hook pass no
        plan. Then, or if a sum fails, each live cell is recounted and each
        finished map counted once, then compared at C speed with its sealed
        copy; a failure names its class or color, else the plan's first wrong
        row or color.
        """
        p, q = self.params, self.weight
        per_level = [p.lam * binom(q, i) for i in range(p.h + 1)]
        classes, live, finished, sealed = self.classes, self.live, self.finished, self.sealed
        if tp is not None:   # the step's sums, from its nonzero moves
            given, columns = [], [0] * p.k
            for c, row in zip(tp.rows, plan.moves):
                given.append((c, sum(row.values()), per_level[c[1] - 1]))
                for j, moved in row.items():
                    columns[j] += moved
            if (all(n == e for _, n, e in given) and tuple(columns) == p.r
                    and len(live) + len(finished) == len(classes) and (q or not live)):
                return
        if len(live) + len(finished) != len(classes):
            raise InternalInvariantViolation(
                f"{len(classes)} classes, but {len(live)} live and {len(finished)} finished")
        start, old = len(sealed), None
        if finished[:start] != sealed:   # the loop names the first map that changed
            start, old = next((t, a) for t, (a, b) in enumerate(zip(sealed, finished)) if a != b)
        for colors in finished[start:]:
            copies = sum(colors.values())
            if copies != per_level[0] or old is not None:
                key = next(cls.key() for cls in classes.values() if cls.colors is colors)
                raise InternalInvariantViolation(
                    f"class {key} went from {old} to {colors}" if copies == per_level[0]
                    else f"class {key} holds {copies} copies, expected {per_level[0]}")
            sealed.append(self.seals.setdefault(tuple(colors.items()), dict(colors)))
        weighted = [0] * p.k
        for cls in map(classes.__getitem__, live):
            level = cls.amalgam
            if cls.total() != per_level[level]:
                raise InternalInvariantViolation(
                    f"class {cls.key()} holds {cls.total()} copies, expected {per_level[level]}")
            for j, cnt in cls.colors.items():
                weighted[j] += level * cnt
        for j, (w, rj) in enumerate(zip(weighted, p.r), start=1):
            if w != rj * q:
                raise InternalInvariantViolation(
                    f"color {j}: live classes weigh {w}, expected {rj * q}")
        if not q and live:
            raise InternalInvariantViolation(f"class {min(live)} kept amalgam slots")
        if tp is not None:   # the recount holds, so a row or a color of the plan is off
            wrong = [f"row {c} gives {n} copies, expected {e}" for c, n, e in given if n != e]
            wrong += [f"color {j}: moves total {n}, expected {rj}"
                      for j, (n, rj) in enumerate(zip(columns, p.r), start=1) if n != rj]
            raise InternalInvariantViolation(wrong[0])

    def get_class(self, support: tuple[int, ...], amalgam: int) -> EdgeClass:
        key = (support, amalgam)
        cls = self.classes.get(key)
        if cls is None:
            cls = self.classes[key] = EdgeClass(support=support, amalgam=amalgam, colors={})
            if amalgam:
                self.live[key] = None
            else:
                self.finished.append(cls.colors)
        return cls


def build_amalgam(inst: Instance) -> AmalgamState:
    """Validate the instance and attach all amalgam classes, still uncolored.

    For each level i in [1, h] and each (h-i)-subset X of [1, m], the class
    (X, i) starts with no colors; it is skipped when lambda * C(n-m, i), the
    copies it will hold, is zero. Input classes are summed per support into
    new maps, so the state never shares a ``colors`` map with the instance.
    """
    p = inst.params
    if not is_admissible(p):
        raise InadmissibleParameters(f"(n={p.n}, h={p.h}, lambda={p.lam}, r) fails admissibility")
    report = validate_instance(inst)
    if not report.ok:
        raise InvalidInstance(report)

    state = AmalgamState(params=p, detached=0, classes={},
                         degrees={v: [0] * p.k for v in range(1, p.m + 1)}, level_done=0)
    for cls in inst.coloring:
        colors = state.get_class(cls.support, 0).colors   # a repeated support sums in
        rows = [state.degrees[v] for v in cls.support]
        for j, cnt in cls.colors.items():
            colors[j] = colors.get(j, 0) + cnt
            for row in rows:
                row[j] += cnt

    for level in range(1, p.h + 1):
        if binom(p.n - p.m, level):
            for support in combinations(range(1, p.m + 1), p.h - level):
                state.get_class(support, level)
    return state


def _color_class(state: AmalgamState, cls: EdgeClass, copies: int, order: list[int]) -> None:
    """Batch-assign ``copies`` copies of one class under the degree caps.

    Walks ``order`` once and gives each color min(residual, copies
    left), where the residual is min_x (r_j - deg_j(x)) over the support.
    Degrees only grow while the class is colored, so a color with no
    residual never regains one, and a single pass matches the copy-by-copy
    greedy with the same preference order. The takes fill the empty map
    once, ascending (``AmalgamState``'s write-once rule), before copies left
    raise GreedyStuck.
    """
    r = state.params.r
    rows = [state.degrees[v] for v in cls.support]
    taken = []
    for j in order:
        if not copies:
            break
        residual = r[j] - max(row[j] for row in rows)
        if residual <= 0:
            continue
        take = min(residual, copies)
        taken.append((j, take))
        copies -= take
        for row in rows:
            row[j] += take
    cls.colors.update(sorted(taken))
    if copies:
        raise GreedyStuck(cls.support, cls.amalgam)


def greedy_color_level(state: AmalgamState, level: int,
                       rng: random.Random | None = None) -> AmalgamState:
    """Color every level-``level`` class, keeping all degrees within caps.

    Classes are processed in lexicographic support order with lowest-color
    preference; ``rng`` optionally shuffles both for robustness testing.
    Levels go in ascending order from 1.
    """
    p = state.params
    if not (1 <= level <= p.h - 1):
        raise ValueError(f"greedy levels are 1..{p.h - 1}, got {level}")
    if state.level_done != level - 1:
        raise InternalInvariantViolation(
            f"level {level} colored after level {state.level_done}")

    copies = p.lam * binom(p.n - p.m, level)
    pending = sorted(key for key in state.classes if key[1] == level)
    if rng is not None:
        rng.shuffle(pending)
    for key in pending:
        order = list(range(p.k))
        if rng is not None:
            rng.shuffle(order)
        _color_class(state, state.classes[key], copies, order)

    state.level_done = level
    return state


def finish_levels(state: AmalgamState) -> list[int]:
    """Check exact saturation after the last greedy level; return the top quotas.

    Once levels 1..h-1 are colored, every original vertex's degree row must
    equal r (its total capacity equals its total edge count). Color j of an
    r_j-factor of lambda K_n^h has r_j * n / h copies (an integer by
    admissibility, which ``build_amalgam`` checked), so its level-h quota is
    that minus the copies of color j the classes already hold. A quota may be
    negative; ``assign_level_h`` rejects it.
    """
    p = state.params
    if state.level_done != p.h - 1:
        raise InternalInvariantViolation(
            f"finish_levels called with level_done={state.level_done}, expected {p.h - 1}")

    for v, row in state.degrees.items():
        for j, (d, rj) in enumerate(zip(row, p.r), start=1):
            if d != rj:
                raise InternalInvariantViolation(
                    f"vertex {v} has degree {d} in color {j}, expected {rj}")

    placed = [0] * p.k
    for cls in state.classes.values():
        for j, cnt in cls.colors.items():
            placed[j] += cnt
    return [rj * p.n // p.h - t for rj, t in zip(p.r, placed)]


def assign_level_h(state: AmalgamState, quotas: list[int]) -> AmalgamState:
    """Color the all-amalgam class by its forced per-color quotas.

    ``quotas[j]`` is what ``finish_levels`` returns: the copies of color j
    the class ((), h) must take. Each must be nonnegative. Writes only that
    class and ends with ``state.check()``: the classes weigh r_j * (n - m)
    in every color, the amalgam's degree, and every class holds all its
    copies.
    """
    p = state.params
    if state.level_done != p.h - 1:
        raise InternalInvariantViolation("assign_level_h before all greedy levels")

    for j, quota in enumerate(quotas, start=1):
        if quota < 0:
            raise NegativeTopLevelQuota(j, quota)
    top = {j: quota for j, quota in enumerate(quotas) if quota}
    if top:
        state.get_class((), p.h).colors = top

    state.level_done = p.h
    state.check()
    return state
