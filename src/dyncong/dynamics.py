"""Blind strategies and best-response dynamics.

A blind strategy commits to a path regardless of what the others do.  Blind
profiles form a potential game: replacing one player's path changes the
potential by exactly that player's cost difference, so repeatedly swapping in
strictly cheaper best responses terminates in a blind Nash equilibrium, which
is also a Nash equilibrium against arbitrary (history-dependent) deviations.
Each best response is an A* search over a layered graph, one arena copy per
step, under the load-one distance; ties fall to fewer edges, then to the
smallest sequence of edge declaration indices.
"""

from __future__ import annotations

import functools
import heapq

from .arena import Arena, Game
from .costfn import Record
from .graphs import BudgetExceeded, Edge, eval_path, node_budget


class StrategyError(ValueError):
    pass


class BlindStrategy(Record):
    """A path from the source to the target, as a tuple of edges."""

    _fields = ("edges",)

    def __init__(self, edges: tuple[Edge, ...]):
        self.edges = edges

    def __len__(self) -> int:
        return len(self.edges)

    def to_names(self, arena: Arena) -> list[list[str]]:
        return [[arena.states[u], arena.states[v]] for u, v in self.edges]


def blind_strategy(arena: Arena, edges) -> BlindStrategy:
    """Validates that the edges chain from src and stop at the first tgt visit."""
    edges = tuple(tuple(e) for e in edges)
    if not edges:
        raise StrategyError("a blind strategy needs at least one edge")
    if edges[0][0] != arena.src:
        raise StrategyError("blind strategy must start at the source")
    for edge in edges:
        if edge not in arena.edges:
            raise StrategyError(
                f"no edge {arena.states[edge[0]]} -> {arena.states[edge[1]]}"
            )
    for (_, v), (u, _) in zip(edges, edges[1:]):
        if v != u:
            raise StrategyError("blind strategy edges do not chain")
    for _, v in edges[:-1]:
        if v == arena.tgt:
            raise StrategyError("blind strategy continues past the target")
    if edges[-1][1] != arena.tgt:
        raise StrategyError("blind strategy must end at the target")
    return BlindStrategy(edges)


def strategy_from_states(arena: Arena, names) -> BlindStrategy:
    idx = [arena.index(s) for s in names]
    return blind_strategy(arena, list(zip(idx, idx[1:])))


class BlindProfile(Record):
    _fields = ("strategies",)

    def __init__(self, strategies: tuple[BlindStrategy, ...]):
        self.strategies = strategies

    @property
    def horizon(self) -> int:
        return max(len(s) for s in self.strategies)

    @functools.cached_property
    def loads(self) -> list[dict[Edge, int]]:
        """Per step, each edge's load over all players, built on first use."""
        loads: list[dict[Edge, int]] = [{} for _ in range(self.horizon)]
        for strategy in self.strategies:
            for layer, edge in zip(loads, strategy.edges):
                layer[edge] = layer.get(edge, 0) + 1
        return loads

    def replace(self, player: int, strategy: BlindStrategy) -> "BlindProfile":
        updated = list(self.strategies)
        updated[player] = strategy
        return BlindProfile(tuple(updated))


def profile_moves(game: Game, profile: BlindProfile) -> list[tuple[Edge, ...]]:
    """Joint move vectors induced by a blind profile; finished players loop
    on the target."""
    loop = (game.arena.tgt, game.arena.tgt)
    steps = []
    for j in range(profile.horizon):
        moves = tuple(
            s.edges[j] if j < len(s) else loop for s in profile.strategies
        )
        steps.append(moves)
    return steps


def play_profile(game: Game, profile: BlindProfile):
    """Costs, social cost and outcome of a blind profile."""
    if len(profile.strategies) != game.n:
        raise StrategyError("profile size differs from player count")
    return eval_path(game, profile_moves(game, profile))


def potential(game: Game, profile: BlindProfile) -> int:
    """Rosenthal-style potential: per step and edge, the cost of stacking the
    edge's users one by one."""
    view = game.view
    total = 0
    for layer in profile.loads:
        for edge, load in layer.items():
            total += sum(view.cost[view.edge_id[edge]][:load])
    return total


def _layered_search(game: Game, loads: list[dict[Edge, int]], own=()):
    """Cheapest strategy and its cost in a layered graph: one arena copy per
    entry of ``loads``, in which an edge costs ``d(load + 1)``, or
    ``d(load)`` on the searching player's own edge ``own[j]`` of that step
    (their load is in the count), then a final copy with single-user costs.
    Edge ids, cost rows and ``dist1`` come from the game's tables
    (``Game.view``); each layer's charged weights are read once per call,
    for its loaded edges only; ties break as the module says.

    The search is A* under the load-one distance h = ``dist1`` with heap
    key ``(g + h(state), length, trail)``, and it returns the path that
    Dijkstra under the key ``(g, length, trail)`` returns:
    - costs do not decrease with load, so every layered weight is at least
      the ``d(1)`` that h is built from; h is consistent and 0 at the target;
    - two paths to the same node end in the same state, so they have the same
      h, and their A* keys compare exactly as their Dijkstra keys do;
    - keys strictly increase along an edge, because the length grows by one;
    - hence every node is first popped through the same lexicographically
      least path, and so is the first target node popped.
    """
    arena, view = game.arena, game.view
    if arena.src == arena.tgt:
        return blind_strategy(arena, ((arena.tgt, arena.tgt),)), 0
    horizon = len(loads)
    edge_id, rows, dist = view.edge_id, view.cost, view.dist1
    layers = [
        {edge_id[e]: rows[edge_id[e]][load - (j < len(own) and e == own[j])]
         for e, load in layer.items()}
        for j, layer in enumerate(loads)
    ] + [{}]
    heap = [(dist[arena.src], 0, (), 0, arena.src, 0)]
    done = set()
    while heap:
        _, length, trail, cost, state, layer = heapq.heappop(heap)
        if (state, layer) in done:
            continue
        done.add((state, layer))
        if state == arena.tgt:
            edges = tuple(arena.edge_list[k] for k in trail)
            assert len(edges) <= horizon + len(arena.states)
            return blind_strategy(arena, edges), cost
        charged, nxt_layer = layers[layer], min(layer + 1, horizon)
        for succ, k, row in view.out[state]:
            if (succ, nxt_layer) in done:
                continue
            g = cost + charged.get(k, row[0])
            heapq.heappush(
                heap,
                (g + dist[succ], length + 1, trail + (k,), g, succ, nxt_layer),
            )
    raise AssertionError("target unreachable; the arena validator bars this")


def best_response(game: Game, profile: BlindProfile, player: int):
    """Cheapest blind strategy for ``player`` with the others' paths fixed.

    The layered graph has one copy per step up to the profile horizon,
    charged with the other players' loads at that step (the profile's load
    table less the player's own edge), then a copy for the steps after
    everyone else has finished.  The result never needs more than
    ``horizon + |V|`` edges.
    """
    return _layered_search(game, profile.loads, profile.strategies[player].edges)


def single_player_shortest(arena: Arena) -> BlindStrategy:
    """Lexicographically least cheapest src -> tgt path for a lone player."""
    return _layered_search(Game(arena, 1), [])[0]


def _first_improvement(game: Game, profile: BlindProfile):
    """``(player, strategy)`` for the first player, in index order, whose
    best response is strictly cheaper than their cost under ``profile``, or
    None when no player can improve."""
    costs, _, _ = play_profile(game, profile)
    for player in range(game.n):
        strategy, cost = best_response(game, profile, player)
        if cost < costs[player]:
            return player, strategy
    return None


def blind_ne(game: Game):
    """Computes a blind Nash equilibrium by best-response iteration.

    Starts from everyone on the single-player shortest path, then repeatedly
    replaces the first player, in index order, who has a strictly cheaper
    best response.  Every swap decreases the potential by at least one,
    which bounds the number of swaps by the initial potential.  Returns the
    profile and the number of swaps performed.

    Each improvement scan first adds ``n * (horizon + 1) * |V|``, the most
    layered nodes its n best responses can expand, to a running count, and
    raises :class:`BudgetExceeded` once that passes the node budget.
    """
    profile = BlindProfile((_layered_search(game, [])[0],) * game.n)
    swaps = work = 0
    cap, budget = potential(game, profile), node_budget()
    while True:
        work += game.n * (profile.horizon + 1) * len(game.arena.states)
        if work > budget:
            raise BudgetExceeded("blind-NE best responses above node budget")
        if (found := _first_improvement(game, profile)) is None:
            break
        previous = potential(game, profile)
        profile = profile.replace(*found)
        assert potential(game, profile) < previous
        swaps += 1
    assert swaps <= cap
    return profile, swaps


def is_blind_ne(game: Game, profile: BlindProfile) -> bool:
    """No player can strictly improve with any blind response; by the
    blind-deviation reduction this certifies a full Nash equilibrium."""
    return _first_improvement(game, profile) is None
