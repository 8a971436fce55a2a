"""Detachment stage: split the amalgam one vertex at a time.

Each step peels one new vertex off the amalgam. A class (X, i) holding
lambda * C(q, i) copies (q = current amalgam weight) must donate exactly
lambda * C(q-1, i-1) of them to the new vertex, keeping lambda * C(q-1, i)
(a Pascal split), and the new vertex must end at degree r_j in every color.
The only freedom is how each class's donation distributes over colors:
an integral transportation problem with row supplies, column demands and
cell capacities.

Feasibility is the fractional point x[c][j] = cap[c][j] * i_c / q. A checked
state (``AmalgamState.check`` after the quotas, then each step's own sums)
has every class (X, i) holding lambda * C(q, i) copies, and
q * lambda * C(q-1, i-1) = i * lambda * C(q, i), so row c of the point sums
to its supply; column j sums to the live classes' weight r_j * q divided by
q, which is r_j. So the supplies total sum_j r_j, a flow saturates them, and
with integral capacities an integral one does too.

Dinic's max-flow finds the plan, run on the rows and colors themselves
rather than on an arc graph: its first phase is a greedy pass over the rows,
and later phases reroute flow through the rows that already send a color
copies. The rows are the live classes (those with amalgam slots) and each
row is its class's own ``{color: count}`` map, read in place: the solver
never writes it and copies no cell of it, so a step touches only the cells
a class holds. The maps stay the problem's rows until the step's walk
applies the plan. The plan is sparse the same way, one ``{color: moved}``
map per row. By the witness above a transport that falls short is a bug, so
it raises InternalInvariantViolation.

The solver picks arcs on bitmasks, not cell by cell. ``AmalgamState.live``
keeps each live class's color mask (bit j set when the map holds color j),
and the problem hands the rows' masks over. The solver copies them as
residual masks: a row's held colors minus its saturated cells. Each choice
is then a lowest set bit: the greedy's of the row's residual and the colors
with demand left, the DFS's of the row's residual and the next level's
colors. That is the arc a scan of the row's colors, ascending, reaches,
because within a phase an arc that is invalid stays invalid (see
``_later_phase``). The greedy writes each plan row ascending, so only the
rows a later phase added to are sorted again.
"""
from __future__ import annotations

from dataclasses import dataclass

from .combinatorics import binom
from .errors import InternalInvariantViolation
from .model import Certificate
from .amalgam import AmalgamState, ClassKey


@dataclass
class TransportationProblem:
    """One detachment step's donation constraints.

    ``rows[c]`` is a class key with amalgam multiplicity >= 1, ``supplies[c]``
    its forced donation count and ``demands[j-1]`` the new vertex's target
    degree r_j. ``held[c]`` is that class's own ``EdgeClass.colors`` map, the
    same object: its 0-based colors ascending, each with its nonzero cap; a
    color it lacks has cap 0. The solver reads the maps and never writes
    them; they are the rows until the step's walk applies the plan. Row
    supplies and column demands have equal totals.
    """

    rows: list[ClassKey]
    supplies: list[int]
    demands: list[int]
    held: list[dict[int, int]]
    masks: list[int] | None = None

    @property
    def caps(self) -> list:
        """Each row's caps, ascending by color: read-only views of ``held``."""
        return list(map(dict.values, self.held))


@dataclass
class DetachPlan:
    """Integral donation plan, one sparse map per row of the problem.

    ``moves[c][j]`` copies of ``tp.rows[c]`` in 0-based color j go to the new
    vertex; ``moves[c]`` lists only the colors that move, ascending.
    """

    moves: list[dict[int, int]]


def build_transportation(state: AmalgamState) -> TransportationProblem:
    """Set up the donation problem for the next new vertex.

    Requires a checked state (``assign_level_h`` ends with
    ``AmalgamState.check``, each ``detach_step`` with its own sums), the
    witness of the module docstring, so only the call order is checked here;
    the rows are the live maps as they stand.
    """
    p, q = state.params, state.weight
    if q < 1:
        raise InternalInvariantViolation("no amalgam weight left to detach")
    if state.level_done != p.h:
        raise InternalInvariantViolation("detachment before the coloring is complete")

    donation = [p.lam * binom(q - 1, i - 1) for i in range(p.h + 1)]
    rows = sorted(state.live)
    supplies = [donation[key[1]] for key in rows]
    return TransportationProblem(rows=rows, supplies=supplies, demands=list(p.r),
                                 held=[state.classes[key].colors for key in rows],
                                 masks=list(map(state.live.__getitem__, rows)))


def _later_phase(tp: TransportationProblem, moves: list[dict[int, int]], row_left: list[int],
                 col_left: list[int], holders: list[set[int]], resid: list[int],
                 rerouted: set[int]) -> bool:
    """Push one Dinic blocking flow; False if the sink is out of reach.

    Rows are nodes 0..R-1 and colors R..R+k-1; the source and the sink are
    implicit. ``holders[j]`` holds the rows that send color j flow: its
    residual arcs back to rows. ``resid[r]`` is row r's residual mask: the
    colors it holds minus its saturated cells. The BFS labels a level's
    colors at once, as the OR of its rows' residual masks less the colors
    labelled before, and keeps one mask of colors per level. It stops at the
    first color level that holds demand and clears that level's colors with
    none: no row sits past the sink. So a labelled color has demand only at
    the sink's level; it pushes to the sink, any other reroutes through its
    holders.

    At a row the DFS takes the lowest set bit of its residual mask and the
    next level's colors. A forward arc (row, color) one level up is never
    made valid again in the phase: it could regain residual only from a push
    back along it, which needs the color a level below the row, and a color
    leaves its level's mask only when it dies. So every arc below the lowest
    valid bit was invalid when a current-arc scan of the row's colors,
    ascending, would have passed it, and the lowest valid bit is the arc
    that scan reaches. Rows that gain flow in a cell go into ``rerouted``.
    """
    held, num_rows = tp.held, len(row_left)
    open_colors = sum(1 << j for j, left in enumerate(col_left) if left)
    level = [1 if left else -1 for left in row_left]
    frontier = sources = [r for r, left in enumerate(row_left) if left]
    colors_at, labelled = [0, 0], 0   # colors_at[d]: the live colors at level d (even d)
    while True:   # the BFS, a level at a time; rows at the sink's level would be dead ends
        reach = 0
        for r in frontier:
            reach |= resid[r]
        reach &= ~labelled
        labelled |= reach
        colors_at += (reach, 0)
        if not reach or reach & open_colors:
            break
        depth, frontier = len(colors_at) - 1, []
        while reach:
            bit = reach & -reach
            reach ^= bit
            for r in holders[bit.bit_length() - 1]:
                if level[r] < 0:
                    level[r] = depth
                    frontier.append(r)
    if not reach:
        return False
    colors_at[-2] = reach & open_colors

    untried: list[list | None] = [None] * len(col_left)
    path: list[tuple[int, int]] = []   # (row, color): forward at even positions, backward at odd
    for first in sources:   # the rows with supply left, each keeping its source arc until shut
        u = first
        while row_left[first] and level[first] == 1:
            if u < num_rows:
                arcs = resid[u] & colors_at[level[u] + 1]
                if arcs:
                    if len(path) >= 2 * num_rows:   # a level-graph path holds each row once
                        raise InternalInvariantViolation(
                            f"a flow path outgrew {num_rows} rows at row {tp.rows[u]}")
                    j = (arcs & -arcs).bit_length() - 1
                    path.append((u, j))
                    u = num_rows + j
                else:
                    level[u] = -1   # a dead end stays one for the rest of the phase
                    u = num_rows + path.pop()[1] if path else u
                continue
            j = u - num_rows
            if col_left[j]:   # only a sink-level color has demand left
                pushed = min(row_left[first], col_left[j],
                             *[held[r][c] - moves[r].get(c, 0) for r, c in path[0::2]],
                             *[moves[r][c] for r, c in path[1::2]])
                if not pushed:   # a saturated arc on the path; the DFS would retry it forever
                    raise InternalInvariantViolation(
                        f"a flow path from row {tp.rows[first]} pushed nothing")
                row_left[first] -= pushed
                col_left[j] -= pushed
                for r, c in path[0::2]:
                    moved = moves[r][c] = moves[r].get(c, 0) + pushed
                    if moved == held[r][c]:
                        resid[r] &= ~(1 << c)
                    holders[c].add(r)
                    rerouted.add(r)
                for r, c in path[1::2]:
                    moves[r][c] -= pushed
                    resid[r] |= 1 << c
                    if not moves[r][c]:
                        del moves[r][c]
                        holders[c].remove(r)
                path.clear()
                u = first
                continue
            depth = len(path) + 1   # the color's level
            arcs = untried[j]
            if arcs is None:   # the rows sending j flow, by row
                arcs = untried[j] = sorted(
                    (r for r in holders[j] if level[r] == depth + 1), reverse=True)
            while arcs and not (j in moves[arcs[-1]] and level[arcs[-1]] >= 0):
                arcs.pop()
            if arcs:
                path.append((arcs[-1], j))
                u = arcs[-1]
            else:
                colors_at[depth] &= ~(1 << j)   # a dead color
                u = path.pop()[0]
    return True


def solve_transportation(tp: TransportationProblem) -> DetachPlan:
    """Find integral moves with exact row sums, column sums, and caps.

    Dinic's max-flow on source -> rows -> colors -> sink, arcs in row order
    and each row's colors ascending, with residuals kept as supply left per
    row, demand left per color, one ``{color: moved}`` map per row, a cell
    deleted once its move is back to zero, and one residual mask per row:
    the colors it holds minus its saturated cells, copied from ``tp.masks``
    (derived from ``tp.held`` when None) and never written back. The first
    phase has no flow to reroute, so rows sit at level 1, colors at 2, the
    sink at 3, and its DFS, taking the first open arc each time, fills each
    row's cells in order: that greedy is the phase. It takes the lowest set
    bit of the row's residual mask and the mask of the colors with demand
    left, so it writes each row ascending. That bit is the cell the scan
    reaches next: a cell the scan passed never reopens in the phase, since
    its pushes only fill cells and use up demand. A later phase labels the
    same levels and tries the same arcs in the same order (at a row its
    colors ascending, at a color the sink or else the rows sending it flow,
    by row), picking a row's arc the same way by the same argument (see
    ``_later_phase``), so every push is the generic Dinic's. A row left short
    raises InternalInvariantViolation naming it, as does a later phase, or a
    path in one, that pushes no unit, or a row whose mask names a color its
    map lacks. The rows read ``tp.held`` in place; the plan is each row's map
    of moves, sorted by color only if a later phase added to it.
    """
    row_left, col_left = list(tp.supplies), list(tp.demands)
    resid = (list(tp.masks) if tp.masks is not None
             else [sum(map((1).__lshift__, held)) for held in tp.held])
    open_colors = sum(1 << j for j, left in enumerate(col_left) if left)
    moves: list[dict[int, int]] = [{} for _ in tp.held]
    holders: list[set[int]] = [set() for _ in col_left]
    try:   # a mask bit whose color the row's map lacks ends in a KeyError
        for r, (held, row_moves) in enumerate(zip(tp.held, moves)):
            left, arcs = row_left[r], resid[r] & open_colors
            while left and arcs:
                bit = arcs & -arcs
                arcs ^= bit
                j = bit.bit_length() - 1
                cap = held[j]
                pushed = row_moves[j] = min(left, cap, col_left[j])
                left -= pushed
                col_left[j] -= pushed
                if not col_left[j]:
                    open_colors ^= bit
                if pushed == cap:
                    resid[r] ^= bit
                holders[j].add(r)
            row_left[r] = left
        rerouted: set[int] = set()
        unplaced, stalled = sum(row_left), False
        while unplaced and not stalled and _later_phase(tp, moves, row_left, col_left, holders,
                                                        resid, rerouted):
            stalled, unplaced = sum(row_left) == unplaced, sum(row_left)
    except KeyError:
        for key, mask, held in zip(tp.rows, tp.masks or (), tp.held):
            if mask & ~(holds := sum(map((1).__lshift__, held))):
                raise InternalInvariantViolation(
                    f"row {key} has color mask {mask:#x}, but holds colors {holds:#x}") from None
        raise
    short = next((r for r, left in enumerate(row_left) if left), None)
    if short is not None:
        want = sum(tp.supplies)
        what = ("a flow phase pushed nothing" if stalled
                else f"max flow {want - unplaced} < required {want}")
        raise InternalInvariantViolation(
            f"{what}; row {tp.rows[short]} short by {row_left[short]}")
    for r in rerouted:
        moves[r] = dict(sorted(moves[r].items()))
    return DetachPlan(moves=moves)


def detach_step(state: AmalgamState, hook=None) -> AmalgamState:
    """Split one vertex off the amalgam, preserving all invariants.

    The new vertex takes id m + detached + 1. For every row c = (X, i) and
    color j of its map, moves[c][j] copies of color j become (X + {new}, i - 1)
    copies of the same color. One walk applies the plan, each row writing its
    own target (``AmalgamState``'s write-once rule). The walk visits only the
    moved cells: it checks each 0 < move <= cap, the cap read off the row's
    map in ``tp.held`` (the class's own), before it is written, and sums the
    moves of each row and of each color. It clears a source's mask bit when
    that color empties and gives a live target the mask of its moved colors.
    A failed cap check leaves the state partly applied; discard it. The hook
    sees the plan before the walk.

    The sums check the step. Row (X, i) must give lambda * C(q-1, i-1)
    copies, computed from the parameters, and color j must total r_j. That
    suffices: the state was checked before the step, the walk kept each move
    within its cap, every live class is a row and a target's only donor is
    its row. So a source keeps lambda * C(q-1, i) exactly when its row sum is
    right, its target then holds lambda * C(q-1, i-1), and each moved copy
    lowers its color's weight by one. By the write-once rule only a hook may
    write between stages. So ``state.check``, the full recount, runs only
    when a hook ran, a sum is off, some class is neither live nor finished,
    or a class is still live at q = 0; it names the broken class or color.
    If the recount holds while a sum is off, the first wrong row or color is
    named, though the induction rules that out.
    """
    tp = build_transportation(state)
    plan = solve_transportation(tp)
    if hook is not None:
        hook(state, tp, plan)

    p, q = state.params, state.weight
    gives = [p.lam * binom(q - 1, i - 1) for i in range(p.h + 1)]
    new_vertex = p.m + state.detached + 1
    live, columns, wrong = state.live, [0] * p.k, None
    for key, colors, moves in zip(tp.rows, tp.held, plan.moves):
        # the new vertex outnumbers every vertex of the support: no other row shares this target
        support, level = key[0] + (new_vertex,), key[1] - 1
        target = state.get_class(support, level).colors
        mask, took = live[key], 0
        for j, moved in moves.items():
            cap = colors.get(j, 0)
            if not 0 < moved <= cap:
                raise InternalInvariantViolation(
                    f"row {key} moves {moved} copies of color {j + 1}, cap {cap}")
            left = cap - moved
            if left:
                colors[j] = left
            else:
                del colors[j]   # the state keeps no zero counts
                mask &= ~(1 << j)
            target[j] = moved
            took |= 1 << j
            columns[j] += moved
        if (given := sum(moves.values())) != gives[key[1]]:
            wrong = wrong or f"row {key} gives {given} copies, expected {gives[key[1]]}"
        if colors:
            live[key] = mask
        else:
            del state.classes[key], live[key]
        if level:
            live[support, level] = took

    state.detached += 1
    if wrong is None and tuple(columns) != p.r:
        wrong = next(f"color {j}: moves total {n}, expected {rj}"
                     for j, (n, rj) in enumerate(zip(columns, p.r), start=1) if n != rj)
    if (hook is not None or wrong is not None or (state.live and not state.weight)
            or len(state.live) + len(state.finished) != len(state.classes)):
        state.check()
        if wrong is not None:
            raise InternalInvariantViolation(wrong)
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

    coloring = list(map(state.classes.__getitem__, sorted(state.classes)))
    return Certificate(params=state.params, coloring=coloring, report=None)
