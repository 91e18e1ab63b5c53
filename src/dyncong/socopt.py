"""Social optimum: cheapest joint routing of all players to the target.

The optimum is a shortest path over the Parikh abstraction (per-state player
counts), whose path costs coincide with concrete social costs.  The search is
A* (Hart, Nilsson and Raphael, 1968) keyed by ``(g + h, depth, node)``, with
the heuristic

    h(a) = sum over states v of a_v * dist_1(v),

where ``dist_1(v)`` is the cheapest route from v to the target for a lone
player, under the load-one costs ``d_e(1)``, read from the game's tables
(``Game.view``) like every edge cost here.
The heuristic is consistent: a joint step from ``a`` to ``a'`` that puts
``c_e`` players on each edge ``e = (u, v)`` weighs
``w = sum_e c_e * d_e(c_e) >= sum_e c_e * d_e(1)``, because costs do not
decrease with load, and ``d_e(1) + dist_1(v) >= dist_1(u)``; so
``h(a) <= w + h(a')``.  Every step also adds one to the depth, so the
``(cost, depth)`` label of a node is final when the node is popped, and the
search expands each node at most once.

Successors come from a staged fold over the occupied states in index order,
not from the product of per-state compositions: the fold keeps a map from
partial successor counts to the least partial weight, so duplicate
successors merge before the product grows.  Per-state options are cached per
``(state, count)``.  The node budget bounds each options list, by its
binomial size before it is built, and each merged map, so a state crowded
with players ends in ``BudgetExceeded`` rather than in an unbounded list.
A node is an integer that holds the counts as digits in base ``n + 1``,
first state most significant; integer order is then tuple order, and a
successor is a sum.

Two tie-break rules keep the witness the one plain Dijkstra would return:

- per predecessor, a successor keeps the least weight and, among equal
  weights, the lexicographically first tuple of per-state composition
  indices, which is the first such distribution in the enumeration order of
  ``graphs.distributions``;
- when two predecessors give a successor the same best ``(cost, depth)``,
  the one with the smaller ``(cost, depth, node)`` is kept, which is the one
  Dijkstra would have popped first.

With a bound, a successor whose ``g + w + h`` exceeds the bound is pruned,
and so is a partial sum inside the fold, since weight and heuristic only grow
as states are added.  An optimal abstract path needs at most ``n * |V|``
transitions, so exceeding that depth on the returned optimum is an internal
error, never a truncation.
"""

from __future__ import annotations

import heapq
import itertools
import math

from .arena import Game
from .graphs import (
    INF,
    BudgetExceeded,
    OutcomePath,
    compositions,
    node_budget,
    parikh,
    initial_config,
    target_config,
)
from .outcome import lift_abstract_path


class SocialOptimum:
    def __init__(self, cost: int, witness: OutcomePath):
        self.cost, self.witness = cost, witness


class SuccessorFold:
    """Cheapest abstract successors of the abstract configurations of a game.

    Abstract configurations are integer-encoded as in the module docstring;
    :meth:`encode` and :meth:`decode` convert from and to count tuples.
    """

    def __init__(self, game: Game):
        self.view = game.view
        num_states = len(game.arena.states)
        self.place = [(game.n + 1) ** (num_states - 1 - v) for v in range(num_states)]
        self._options: dict[tuple[int, int], list[tuple[int, int, int]]] = {}
        self.budget = node_budget()

    def encode(self, abstract) -> int:
        return sum(count * place for count, place in zip(abstract, self.place))

    def decode(self, node: int) -> tuple[int, ...]:
        counts = []
        for place in self.place:
            count, node = divmod(node, place)
            counts.append(count)
        return tuple(counts)

    def heuristic(self, node: int) -> int:
        return sum(c * d for c, d in zip(self.decode(node), self.view.dist1))

    def options(self, state: int, count: int) -> list[tuple[int, int, int]]:
        """``(weight, h, delta)`` per composition of ``count`` over the
        out-edges of ``state``, in composition order: the step weight, the
        heuristic of the players moved, and their encoded successor counts."""
        cached = self._options.get((state, count))
        if cached is None:
            outs = self.view.out[state]
            if math.comb(count + len(outs) - 1, len(outs) - 1) > self.budget:
                raise BudgetExceeded(
                    f"social-optimum step options exceeded {self.budget} entries"
                )
            cached = []
            for combo in compositions(count, len(outs)):
                weight = h = delta = 0
                for moved, (succ, _, row) in zip(combo, outs):
                    if moved:
                        weight += moved * row[moved - 1]
                        h += moved * self.view.dist1[succ]
                        delta += moved * self.place[succ]
                cached.append((weight, h, delta))
            self._options[(state, count)] = cached
        return cached

    def successors(self, node: int, limit=INF) -> dict[int, tuple[int, int, int]]:
        """Maps each successor of ``node`` to ``(weight, h, choice)``.

        ``weight`` is the least step weight reaching it, ``h`` its heuristic,
        and ``choice`` the lexicographically first tuple of per-state
        composition indices of that weight, as a mixed-radix integer.
        Successors whose ``weight + h`` exceeds ``limit`` are left out.
        """
        partial = {0: (0, 0, 0)}
        for state, count in enumerate(self.decode(node)):
            if not count:
                continue
            options = self.options(state, count)
            radix = len(options)
            merged: dict[int, tuple[int, int, int]] = {}
            for key, (weight, h, choice) in partial.items():
                base = choice * radix
                for j, (step_w, step_h, delta) in enumerate(options):
                    w = weight + step_w
                    wh = h + step_h
                    if w + wh > limit:
                        continue
                    k = key + delta
                    cur = merged.get(k)
                    if (
                        cur is None
                        or w < cur[0]
                        or (w == cur[0] and base + j < cur[2])
                    ):
                        merged[k] = (w, wh, base + j)
                if len(merged) > self.budget:
                    raise BudgetExceeded(
                        f"social-optimum successor fold exceeded {self.budget} nodes"
                    )
            partial = merged
        return partial

    def edge_counts(self, node: int, choice: int) -> dict[tuple[int, int], int]:
        """The edge distribution that ``choice`` names at ``node``."""
        occupied = [(v, c) for v, c in enumerate(self.decode(node)) if c]
        dist = {}
        for state, count in reversed(occupied):  # last state = lowest digit
            choice, j = divmod(choice, len(self.options(state, count)))
            outs = self.view.out[state]
            combo = next(itertools.islice(compositions(count, len(outs)), j, None))
            for moved, (succ, _, _) in zip(combo, outs):
                if moved:
                    dist[(state, succ)] = moved
        return dist


def _search(game: Game, bound=None) -> SocialOptimum | None:
    """Min-cost abstract path from the initial to the target abstraction.

    ``bound`` restricts the search to paths of total weight <= bound and
    makes the result None when no such path exists.  Ties between equal-cost
    paths are broken toward fewer transitions, keeping the depth guarantee
    checkable.
    """
    fold = SuccessorFold(game)
    start = fold.encode(parikh(game, initial_config(game)))
    goal = fold.encode(parikh(game, target_config(game)))
    depth_cap = game.n * len(game.arena.states)
    budget = fold.budget

    start_h = fold.heuristic(start)
    if bound is not None and start_h > bound:
        return None
    heap = [(start_h, 0, start)]
    best: dict[int, tuple[int, int, int]] = {start: (0, 0, start_h)}
    parents: dict[int, tuple[int, int]] = {}
    popped = 0
    while heap:
        f, depth, node = heapq.heappop(heap)
        cost, best_depth, h = best[node]
        if (cost + h, best_depth) != (f, depth):
            continue
        popped += 1
        if popped > budget:
            raise BudgetExceeded(f"social-optimum search exceeded {budget} nodes")
        if node == goal:
            assert depth <= depth_cap, (
                "internal error: optimal witness longer than the n*|V| bound"
            )
            return _optimum(game, fold, start, goal, cost, parents)
        limit = INF if bound is None else bound - cost
        for nxt, (weight, nxt_h, choice) in fold.successors(node, limit).items():
            if nxt == node:
                continue  # a self-loop never improves a label
            cand = (cost + weight, depth + 1)
            cur = best.get(nxt)
            if cur is None or cand < cur[:2]:
                best[nxt] = cand + (nxt_h,)
                parents[nxt] = (node, choice)
                heapq.heappush(heap, (cand[0] + nxt_h, cand[1], nxt))
            elif cand == cur[:2]:
                prev = parents[nxt][0]
                if (cost, depth, node) < best[prev][:2] + (prev,):
                    parents[nxt] = (node, choice)
    return None


def _optimum(game, fold, start, goal, cost, parents) -> SocialOptimum:
    """Rebuilds the edge distributions along the parent chain and lifts them."""
    chain = []
    node = goal
    while node != start:
        prev, choice = parents[node]
        chain.append((prev, choice, node))
        node = prev
    chain.reverse()
    witness = lift_abstract_path(
        game, [fold.edge_counts(prev, choice) for prev, choice, _ in chain]
    )
    abstract = (fold.decode(start),) + tuple(fold.decode(nxt) for _, _, nxt in chain)
    assert tuple(parikh(game, c) for c in witness.configs()) == abstract, (
        "lifted witness leaves the abstract path"
    )
    lifted = sum(sum(w) for _, w, _ in witness.steps)
    assert lifted == cost, "lifted witness does not reproduce the abstract cost"
    return SocialOptimum(cost, witness)


def social_optimum(game: Game) -> SocialOptimum:
    """Exact social optimum: its cost and a concrete witness.

    The witness is the outcome of the blind profile where every player
    follows their lifted path; feeding its move vectors to ``eval_path``
    reproduces the cost exactly.
    """
    result = _search(game)
    assert result is not None, "target is reachable, so an optimum must exist"
    return result


def constrained_social_optimum(game: Game, bound: int):
    """Whether some strategy profile has social cost <= bound.

    The paper-level problem statement wavers between strict and non-strict
    comparison; this library consistently uses <=.
    """
    result = _search(game, bound=bound)
    if result is None:
        return False, None
    return True, result
