"""Detachment stage: split the amalgam one vertex at a time.

Each step peels one new vertex off the amalgam. A class (X, i) holding
lambda * C(q, i) copies (q = current amalgam weight) must donate exactly
lambda * C(q-1, i-1) of them to the new vertex, keeping lambda * C(q-1, i)
(a Pascal split), and the new vertex must end at degree r_j in every color.
The only freedom is how each class's donation distributes over colors:
an integral transportation problem with row supplies, column demands and
cell capacities. The fractional point x[c][j] = cap[c][j] * i_c / q always
satisfies it exactly, so an integral solution exists. An iterative Dinic
max-flow with one arc per nonzero cell, in a fixed order, finds it. The
problem is read straight off the live rows (classes with amalgam slots):
each row is its class's colors and nonzero counts, two parallel lists, so a
step touches no cell a class does not hold. A step checks the plan, applies
it, and ends with ``AmalgamState.check``, which also covers the witness the
next step relies on.
"""
from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

from .combinatorics import binom
from .errors import InfeasibleTransport, InternalInvariantViolation
from .model import Certificate
from .amalgam import AmalgamState, ClassKey


@dataclass
class TransportationProblem:
    """One detachment step's donation constraints.

    ``rows[c]`` is a class key with amalgam multiplicity >= 1, ``supplies[c]``
    its forced donation count and ``demands[j-1]`` the new vertex's target
    degree r_j. ``colors[c]`` lists, ascending, the 0-based colors the class
    holds, and ``caps[c]`` the copies of each, all nonzero; a color not in
    ``colors[c]`` has cap 0. Row supplies and column demands have equal totals.
    """

    rows: list[ClassKey]
    supplies: list[int]
    demands: list[int]
    colors: list[list[int]]
    caps: list[list[int]]


@dataclass
class DetachPlan:
    """Integral donation plan, parallel to the problem's cells.

    ``moves[c][t]`` copies of ``tp.rows[c]`` in color ``tp.colors[c][t]`` go
    to the new vertex; ``moves[c]`` has one entry per entry of ``tp.caps[c]``.
    """

    moves: list[list[int]]


def build_transportation(state: AmalgamState) -> TransportationProblem:
    """Set up the donation problem for the next new vertex.

    Requires a state that passed ``AmalgamState.check`` (``assign_level_h``
    and each ``detach_step`` end with it). That check is the feasibility
    witness: each class (X, i) holds lambda * C(q, i) copies, and
    q * lambda * C(q-1, i-1) = i * lambda * C(q, i), so the point
    x[c][j] = caps[c][j] * i_c / q meets its row supply; its column sums
    are the classes' weight r_j * q divided by q. It also means every live
    class holds a copy, as the apply loop deletes a class it empties. Row
    supplies are the Pascal-forced lambda * C(q-1, i-1); here only their
    balance against sum_j r_j is checked.
    """
    p = state.params
    q = state.weight
    if q < 1:
        raise InternalInvariantViolation("no amalgam weight left to detach")
    if state.level_done != p.h:
        raise InternalInvariantViolation("detachment before the coloring is complete")

    donation = [p.lam * binom(q - 1, i - 1) for i in range(p.h + 1)]
    classes = state.classes
    rows = sorted(filter(itemgetter(1), classes))
    supplies = [donation[key[1]] for key in rows]
    total_supply, total_demand = sum(supplies), sum(p.r)
    if total_supply != total_demand:
        raise InternalInvariantViolation(f"supply {total_supply} != demand {total_demand}")

    held = [classes[key].colors for key in rows]
    colors = [sorted(counts) for counts in held]
    caps = [list(map(counts.__getitem__, row)) for counts, row in zip(held, colors)]
    return TransportationProblem(rows=rows, supplies=supplies, demands=list(p.r),
                                 colors=colors, caps=caps)


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
    """Find integral moves with exact row sums, column sums, and caps.

    Built as a four-layer flow network source -> rows -> colors -> sink with
    one arc per nonzero cell in a fixed order, so the plan is deterministic.
    Raises InfeasibleTransport when the max flow falls short.
    """
    num_rows, k = len(tp.rows), len(tp.demands)
    sink = 1 + num_rows + k
    tails, heads, caps = [0] * num_rows, list(range(1, 1 + num_rows)), list(tp.supplies)
    for c, (colors, row_caps) in enumerate(zip(tp.colors, tp.caps), start=1):
        tails += [c] * len(colors)
        heads += [1 + num_rows + j for j in colors]
        caps += row_caps
    tails += range(1 + num_rows, sink)
    heads += [sink] * k
    caps += tp.demands

    want = sum(tp.supplies)
    got, residual = _max_flow(sink + 1, tails, heads, caps, 0, sink)
    if got != want:
        raise InfeasibleTransport(f"max flow {got} < required {want}", tp)
    cell_residual = iter(residual[2 * num_rows::2])
    moves = [[cap - left for cap, left in zip(row_caps, cell_residual)] for row_caps in tp.caps]
    return DetachPlan(moves=moves)


def _check_plan(tp: TransportationProblem, plan: DetachPlan) -> None:
    """Check caps, row sums and column sums in one pass over the plan's cells."""
    col_sums = [0] * len(tp.demands)
    for key, supply, colors, caps, moves in zip(tp.rows, tp.supplies, tp.colors, tp.caps,
                                                plan.moves):
        if len(moves) != len(caps):
            raise InternalInvariantViolation(
                f"row {key} has {len(moves)} moves for {len(caps)} cells")
        for j, cap, moved in zip(colors, caps, moves):
            if not 0 <= moved <= cap:
                raise InternalInvariantViolation(
                    f"row {key} moves {moved} copies of color {j + 1}, cap {cap}")
            col_sums[j] += moved
        if sum(moves) != supply:
            raise InternalInvariantViolation(f"row {key} sum {sum(moves)} != supply {supply}")
    for j, (got, want) in enumerate(zip(col_sums, tp.demands), start=1):
        if got != want:
            raise InternalInvariantViolation(f"column {j} sum {got} != demand {want}")


def detach_step(state: AmalgamState, hook=None) -> AmalgamState:
    """Split one vertex off the amalgam, preserving all invariants.

    The new vertex takes id m + detached + 1. For every row c = (X, i) and
    cell t, moves[c][t] copies of color colors[c][t] become (X + {new}, i - 1)
    copies of the same color. Afterwards the new vertex has degree exactly
    r_j per color (the plan's column sums). The step writes nothing but
    classes, and ``state.check()`` confirms that the live classes now weigh
    r_j * (q - 1) in every color and every class (S, i) holds
    lambda * C(q - 1, i) copies.
    """
    tp = build_transportation(state)
    plan = solve_transportation(tp)
    _check_plan(tp, plan)
    if hook is not None:
        hook(state, tp, plan)

    new_vertex = state.params.m + state.detached + 1
    for key, row_colors, moves in zip(tp.rows, tp.colors, plan.moves):
        cls = state.classes[key]
        colors = cls.colors
        target: dict[int, int] | None = None
        for j, moved in zip(row_colors, moves):
            if moved:
                if target is None:
                    support = tuple(sorted(key[0] + (new_vertex,)))
                    target = state.get_class(support, key[1] - 1).colors
                left = colors[j] - moved
                if left:
                    colors[j] = left
                else:
                    del colors[j]   # the state keeps no zero counts
                target[j] = target.get(j, 0) + moved
        if cls.total() == 0:
            del state.classes[key]

    state.detached += 1
    state.check()
    return state


def detach_all(state: AmalgamState, trace=None, hook=None) -> Certificate:
    """Run every detachment step and hand the finished classes to the certificate.

    Once the amalgam is gone every class is a level-0 ``EdgeClass``, the type
    certificates hold, so the certificate takes them as they are, sorted by
    key. ``build_amalgam`` copied the input classes, so none is the instance's.
    """
    while state.weight > 0:
        detach_step(state, hook=hook)
        if trace is not None:
            trace({"stage": "detach", "s": state.detached, "q": state.weight})

    keys = sorted(state.classes)
    for key in keys:
        if key[1] != 0:
            raise InternalInvariantViolation(f"class {key} kept amalgam slots")
    coloring = list(map(state.classes.__getitem__, keys))
    return Certificate(params=state.params, coloring=coloring, report=None)
