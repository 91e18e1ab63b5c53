"""Blind strategies and best-response dynamics.

A blind strategy commits to a path regardless of what the others do.  Blind
profiles form a potential game: replacing one player's path changes the
potential by exactly that player's cost difference, so repeatedly swapping in
strictly cheaper best responses terminates in a blind Nash equilibrium, which
is also a Nash equilibrium against arbitrary (history-dependent) deviations.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .arena import Arena, Game
from .graphs import Edge, eval_path


class StrategyError(ValueError):
    pass


@dataclass(frozen=True)
class BlindStrategy:
    """A path from the source to the target, as a tuple of edges."""

    edges: tuple[Edge, ...]

    def __len__(self) -> int:
        return len(self.edges)

    def states(self) -> list[int]:
        return [self.edges[0][0]] + [v for _, v in self.edges]

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


@dataclass(frozen=True)
class BlindProfile:
    strategies: tuple[BlindStrategy, ...]

    @property
    def horizon(self) -> int:
        return max(len(s) for s in self.strategies)

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


def loads_at(profile: BlindProfile, j: int, skip=None) -> dict[Edge, int]:
    """Edge loads at (1-based) step j, optionally ignoring one player."""
    loads: dict[Edge, int] = {}
    for i, strategy in enumerate(profile.strategies):
        if i == skip or j > len(strategy):
            continue
        edge = strategy.edges[j - 1]
        loads[edge] = loads.get(edge, 0) + 1
    return loads


def potential(game: Game, profile: BlindProfile) -> int:
    """Rosenthal-style potential: per step and edge, the cost of stacking the
    edge's users one by one."""
    total = 0
    for j in range(1, profile.horizon + 1):
        for edge, load in loads_at(profile, j).items():
            fn = game.arena.edges[edge]
            total += sum(fn(i) for i in range(1, load + 1))
    return total


def best_response(game: Game, profile: BlindProfile, player: int):
    """Cheapest blind strategy for ``player`` with the others' paths fixed.

    Searches a layered graph: one arena copy per step up to the profile
    horizon, in which edges are pre-charged with the other players' loads
    plus one, then a final copy with single-user costs for the steps after
    everyone else has finished.  The result never needs more than
    ``horizon + |V|`` edges.  Ties fall to fewer edges, then to the smallest
    sequence of edge declaration indices.
    """
    arena = game.arena
    if arena.src == arena.tgt:
        return blind_strategy(arena, ((arena.tgt, arena.tgt),)), 0
    horizon = profile.horizon
    order = {edge: k for k, edge in enumerate(arena.edge_list)}

    def out_edges(state: int, layer: int):
        for succ, fn in arena.out[state]:
            edge = (state, succ)
            if layer <= horizon:
                load = loads_at(profile, layer, skip=player).get(edge, 0)
                weight = fn(load + 1)
            else:
                weight = fn(1)
            yield edge, weight, min(layer + 1, horizon + 1)

    start = (arena.src, 1)
    heap = [(0, 0, (), start)]
    done = set()
    while heap:
        cost, length, trail, node = heapq.heappop(heap)
        if node in done:
            continue
        done.add(node)
        state, layer = node
        if state == arena.tgt:
            edges = tuple(arena.edge_list[k] for k in trail)
            assert len(edges) <= horizon + len(arena.states)
            return blind_strategy(arena, edges), cost
        for edge, weight, nxt_layer in out_edges(state, layer):
            nxt = (edge[1], nxt_layer)
            if nxt in done:
                continue
            heapq.heappush(
                heap, (cost + weight, length + 1, trail + (order[edge],), nxt)
            )
    raise AssertionError("target unreachable in layered graph")


def single_player_shortest(arena: Arena) -> BlindStrategy:
    """Lexicographically least cheapest src -> tgt path for a lone player."""
    if arena.src == arena.tgt:
        return blind_strategy(arena, ((arena.tgt, arena.tgt),))
    order = {edge: k for k, edge in enumerate(arena.edge_list)}
    heap = [(0, 0, (), arena.src)]
    done = set()
    while heap:
        cost, length, trail, state = heapq.heappop(heap)
        if state in done:
            continue
        done.add(state)
        if state == arena.tgt:
            return blind_strategy(
                arena, tuple(arena.edge_list[k] for k in trail)
            )
        for succ, fn in arena.out[state]:
            if succ in done:
                continue
            edge = (state, succ)
            heapq.heappush(
                heap, (cost + fn(1), length + 1, trail + (order[edge],), succ)
            )
    raise AssertionError("target unreachable; the arena validator bars this")


def blind_ne(game: Game, initial: BlindProfile | None = None):
    """Computes a blind Nash equilibrium by best-response iteration.

    Starts from everyone on the single-player shortest path (unless given a
    profile), then repeatedly replaces the first player, in index order, who
    has a strictly cheaper best response.  Every swap decreases the potential
    by at least one, which bounds the number of swaps by the initial
    potential.  Returns the profile and the number of swaps performed.
    """
    if initial is None:
        base = single_player_shortest(game.arena)
        profile = BlindProfile((base,) * game.n)
    else:
        profile = initial
    swaps = 0
    cap = potential(game, profile)
    while True:
        costs, _, _ = play_profile(game, profile)
        for player in range(game.n):
            strategy, cost = best_response(game, profile, player)
            if cost < costs[player]:
                previous = potential(game, profile)
                profile = profile.replace(player, strategy)
                assert potential(game, profile) < previous
                swaps += 1
                break
        else:
            assert swaps <= cap
            return profile, swaps


def is_blind_ne(game: Game, profile: BlindProfile) -> bool:
    """No player can strictly improve with any blind response; by the
    blind-deviation reduction this certifies a full Nash equilibrium."""
    costs, _, _ = play_profile(game, profile)
    for player in range(game.n):
        _, cost = best_response(game, profile, player)
        if cost < costs[player]:
            return False
    return True
