"""Detachment stage: split the amalgam one vertex at a time.

Each step peels one new vertex off the amalgam. A class (X, i) holding
lambda * C(q, i) copies (q = current amalgam weight) must donate exactly
lambda * C(q-1, i-1) of them to the new vertex, keeping lambda * C(q-1, i)
(a Pascal split), and the new vertex must end at degree r_j in every color.
The only freedom is how each class's donation distributes over colors:
an integral transportation problem with row supplies, column demands and
cell capacities. The fractional point x[c][j] = cap[c][j] * i_c / q always
satisfies it exactly, so an integral solution exists. An iterative Dinic
max-flow with one arc per nonzero cell, in a fixed order, finds it. A step
walks only the live rows (classes with amalgam slots) and their nonzero
cells, except for the post-step recount of every class.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress
from operator import add, attrgetter, itemgetter

from .combinatorics import binom
from .errors import InfeasibleTransport, InternalInvariantViolation
from .model import Certificate, EdgeClass
from .amalgam import AmalgamState, ClassKey


@dataclass
class TransportationProblem:
    """One detachment step's donation constraints.

    ``rows[c]`` is a class key with amalgam multiplicity >= 1, ``supplies[c]``
    its forced donation count, ``demands[j-1]`` the new vertex's target
    degree r_j, and ``caps[c][j-1]`` the copies of that class currently
    colored j. Row supplies and column demands have equal totals.
    ``cells[c]`` lists the nonzero (j-1, cap) pairs of ``caps[c]`` in order.
    """

    rows: list[ClassKey]
    supplies: list[int]
    demands: list[int]
    caps: list[list[int]]
    cells: list[list[tuple[int, int]]] = field(init=False, repr=False)

    def __post_init__(self):
        self.cells = [list(zip(compress(range(len(row)), row), filter(None, row)))
                      for row in self.caps]


@dataclass
class DetachPlan:
    """Integral donation matrix: moves[c][j-1] copies of rows[c] take color j."""

    rows: list[ClassKey]
    moves: list[list[int]]


def _require_equal(got: list, want: list, what: str, names=None) -> None:
    """Raise ``what`` formatted with the first differing position's name and values."""
    if got != want:
        j = next(j for j, (a, b) in enumerate(zip(got, want)) if a != b)
        name = j + 1 if names is None else list(names)[j]
        raise InternalInvariantViolation(what.format(name, got[j], want[j]))


def build_transportation(state: AmalgamState) -> TransportationProblem:
    """Set up the donation problem for the next new vertex.

    Requires a fully colored state with amalgam degree r_j * q in every
    color (``assign_level_h`` and each ``detach_step`` end by checking it).
    Row supplies are the Pascal-forced lambda * C(q-1, i-1); totals must
    balance at lambda * C(n-1, h-1) = sum_j r_j. Asserts the exact
    feasibility witness: the point x[c][j] = caps[c][j] * i_c / q meets
    every constraint with equality, checked with denominators cleared by q.
    """
    p = state.params
    q = state.weight
    if q < 1:
        raise InternalInvariantViolation("no amalgam weight left to detach")
    if state.level_done != p.h:
        raise InternalInvariantViolation("detachment before the coloring is complete")

    donation = [p.lam * binom(q - 1, i - 1) for i in range(p.h + 1)]
    classes = state.classes
    rows = [key for key in sorted(filter(itemgetter(1), classes)) if classes[key].total()]
    supplies = [donation[key[1]] for key in rows]
    caps = [list(classes[key].colors) for key in rows]

    total_supply, total_demand = sum(supplies), sum(p.r)
    if total_supply != total_demand or total_demand != p.lam * binom(p.n - 1, p.h - 1):
        raise InternalInvariantViolation(f"supply {total_supply} != demand {total_demand}")
    tp = TransportationProblem(rows=rows, supplies=supplies, demands=list(p.r), caps=caps)

    col_weighted = [0] * p.k
    for key, supply, row_caps, cells in zip(rows, supplies, caps, tp.cells):
        level = key[1]
        if level > q:
            raise InternalInvariantViolation(f"class {key} outlived weight {q}")
        if sum(row_caps) * level != supply * q:
            raise InternalInvariantViolation(f"witness row sum fails for {key}")
        for j, cap in cells:
            col_weighted[j] += level * cap
    _require_equal(col_weighted, [rj * q for rj in p.r],
                   "witness column sum fails for color {0}: {1} != {2}")
    return tp


def _max_flow(num_nodes: int, tails: list[int], heads: list[int], caps: list[int],
              source: int, sink: int) -> tuple[int, list[int]]:
    """Dinic's max-flow; returns the flow value and the residual capacities.

    Arc 2a runs tails[a] -> heads[a], arc 2a + 1 is its reverse, and every
    node lists its arcs in that order. The iterative DFS finds the same paths
    as a recursive one that restarts from the source after each push and
    moves a node past an arc once it is saturated or leads to a dead end.
    """
    to, cap = [0] * (2 * len(heads)), [0] * (2 * len(heads))
    to[0::2], to[1::2], cap[0::2] = heads, tails, caps
    adj: list[list[int]] = [[] for _ in range(num_nodes)]
    for a, (u, v) in enumerate(zip(tails, heads)):
        adj[u].append(2 * a)
        adj[v].append(2 * a + 1)

    flow = 0
    while True:
        level = [-1] * num_nodes
        level[source] = 0
        queue = [source]
        for u in queue:
            if level[sink] >= 0:
                break   # deeper nodes lie on no shortest path
            for idx in adj[u]:
                if cap[idx] > 0 and level[to[idx]] < 0:
                    level[to[idx]] = level[u] + 1
                    queue.append(to[idx])
        if level[sink] < 0:
            return flow, cap

        # Per node, its arcs into the next level not yet ruled out, the next
        # one last; listed on first visit. Pushes only ever empty these arcs.
        untried: list[list[int] | None] = [None] * num_nodes
        path: list[int] = []
        u = source
        while True:
            if u == sink:
                pushed = min(map(cap.__getitem__, path))
                for idx in path:
                    cap[idx] -= pushed
                    cap[idx ^ 1] += pushed
                flow += pushed
                path.clear()
                u = source
                continue
            arcs = untried[u]
            if arcs is None:
                arcs = untried[u] = [idx for idx in reversed(adj[u])
                                     if cap[idx] > 0 and level[to[idx]] == level[u] + 1]
            while arcs and not (cap[arcs[-1]] and level[to[arcs[-1]]] >= 0):
                arcs.pop()
            if arcs:
                path.append(arcs[-1])
                u = to[arcs[-1]]
            elif u == source:
                break
            else:
                level[u] = -1   # a dead end stays one for the rest of the phase
                u = to[path.pop() ^ 1]


def solve_transportation(tp: TransportationProblem) -> DetachPlan:
    """Find an integral matrix with exact row sums, column sums, and caps.

    Built as a four-layer flow network source -> rows -> colors -> sink with
    one arc per nonzero cell in a fixed order, so the plan is deterministic.
    Raises InfeasibleTransport when the max flow falls short.
    """
    num_rows, k = len(tp.rows), len(tp.demands)
    sink = 1 + num_rows + k
    tails, heads, caps = [0] * num_rows, list(range(1, 1 + num_rows)), list(tp.supplies)
    for c, cells in enumerate(tp.cells, start=1):
        tails += [c] * len(cells)
        heads += [1 + num_rows + j for j, _ in cells]
        caps += map(itemgetter(1), cells)
    tails += range(1 + num_rows, sink)
    heads += [sink] * k
    caps += tp.demands

    want = sum(tp.supplies)
    got, residual = _max_flow(sink + 1, tails, heads, caps, 0, sink)
    if got != want:
        raise InfeasibleTransport(f"max flow {got} < required {want}", tp)
    moves = [[0] * k for _ in range(num_rows)]
    cell_residual = iter(residual[2 * num_rows::2])
    for row, cells in zip(moves, tp.cells):
        for (j, cap), left in zip(cells, cell_residual):
            row[j] = cap - left
    return DetachPlan(rows=tp.rows, moves=moves)


def _check_plan(tp: TransportationProblem, plan: DetachPlan) -> None:
    """Check caps, row sums and column sums in one pass over the nonzero cells."""
    col_sums = [0] * len(tp.demands)
    for key, supply, cells, moves in zip(tp.rows, tp.supplies, tp.cells, plan.moves):
        row_sum = 0
        for j, cap in cells:
            if not 0 <= moves[j] <= cap:
                raise InternalInvariantViolation(
                    f"row {key} moves {moves[j]} copies of color {j + 1}, cap {cap}")
            row_sum += moves[j]
            col_sums[j] += moves[j]
        if sum(moves) != row_sum or min(moves) < 0:   # a zero-cap cell moved
            raise InternalInvariantViolation(f"row {key} moves copies of a color with cap 0")
        if row_sum != supply:
            raise InternalInvariantViolation(f"row {key} sum {row_sum} != supply {supply}")
    _require_equal(col_sums, tp.demands, "column {0} sum {1} != demand {2}")


def detach_step(state: AmalgamState, hook=None) -> AmalgamState:
    """Split one vertex off the amalgam, preserving all invariants.

    The new vertex takes id m + detached + 1. For every class (X, i) and
    color j, moves[c][j] copies become (X + {new}, i - 1) copies of the same
    color. Afterwards the new vertex has degree exactly r_j per color, the
    amalgam drops to r_j * (q - 1), and every class (S, i) holds
    lambda * C(q - 1, i) copies.
    """
    p = state.params
    tp = build_transportation(state)
    plan = solve_transportation(tp)
    _check_plan(tp, plan)
    if hook is not None:
        hook(state, tp, plan)

    new_vertex = state.degrees.add_vertex()
    new_row = state.degrees.ordinary[new_vertex]
    amalgam = state.degrees.amalgam
    for key, cells, moves in zip(tp.rows, tp.cells, plan.moves):
        cls = state.classes[key]
        target: list[int] | None = None
        for j, _ in cells:
            moved = moves[j]
            if moved:
                if target is None:
                    support = tuple(sorted(key[0] + (new_vertex,)))
                    target = state.get_class(support, key[1] - 1).colors
                cls.colors[j] -= moved
                target[j] += moved
                new_row[j] += moved
                amalgam[j] -= moved
        if cls.total() == 0:
            del state.classes[key]

    state.detached += 1
    q = state.weight
    # The new vertex's degrees are the plan's column sums, fixed by _check_plan.
    _require_equal(amalgam, [rj * q for rj in p.r],
                   "amalgam degree {1} in color {0} after step, expected {2}")
    # Recount every class, finished ones included.
    classes = state.classes
    per_level = [p.lam * binom(q, i) for i in range(p.h + 1)]
    totals = list(map(add, map(sum, map(attrgetter("colors"), classes.values())),
                      map(attrgetter("uncolored"), classes.values())))
    _require_equal(totals, list(map(per_level.__getitem__, map(itemgetter(1), classes))),
                   "class {0} holds {1} copies, expected {2}", names=classes)
    return state


def detach_all(state: AmalgamState, trace=None, hook=None) -> Certificate:
    """Run every detachment step and assemble the extension certificate."""
    while state.weight > 0:
        detach_step(state, hook=hook)
        if trace is not None:
            trace({"stage": "detach", "s": state.detached, "q": state.weight})

    coloring = []
    for (support, level), cls in sorted(state.classes.items()):
        if level != 0:
            raise InternalInvariantViolation(f"class {(support, level)} kept amalgam slots")
        coloring.append(EdgeClass(support=support, amalgam=0, colors=list(cls.colors)))
    return Certificate(params=state.params, coloring=coloring, report=None)
