import heapq
import random

import pytest

from dyncong import dynamics
from dyncong.arena import Game
from dyncong.dynamics import (
    BlindProfile,
    StrategyError,
    best_response,
    blind_ne,
    blind_strategy,
    is_blind_ne,
    play_profile,
    potential,
    single_player_shortest,
    strategy_from_states,
)
from dyncong.oracle import _all_blind_paths, brute_best_response

from corpus import (
    corpus_games,
    diamond_arena,
    grid_arena,
    ne_gap_games,
    random_arena,
)


def test_blind_strategy_validation(fig1):
    with pytest.raises(StrategyError):
        strategy_from_states(fig1, ["v1", "v3", "tgt"])  # not from src
    with pytest.raises(StrategyError):
        strategy_from_states(fig1, ["src", "v1", "v3"])  # not at tgt
    with pytest.raises(StrategyError):
        strategy_from_states(fig1, ["src", "v2", "v1", "tgt"])  # no such edges


def test_potential_example_one(fig1_g2, fig1_paths):
    profile = BlindProfile((fig1_paths["pi1"], fig1_paths["pi2"]))
    assert potential(fig1_g2, profile) == 21


def test_potential_equals_social_when_disjoint():
    arena = diamond_arena()
    game = Game(arena, 2)
    top = strategy_from_states(arena, ["src", "a", "tgt"])
    bottom = strategy_from_states(arena, ["src", "b", "tgt"])
    profile = BlindProfile((top, bottom))
    _, social, _ = play_profile(game, profile)
    assert potential(game, profile) == social


def test_best_response_fig1(fig1_g2, fig1_paths):
    profile = BlindProfile((fig1_paths["pi3"], fig1_paths["pi2"]))
    strategy, cost = best_response(fig1_g2, profile, 0)
    assert cost == 9
    assert strategy == fig1_paths["pi1"]


def test_best_response_fig5(fig5_g3, fig5_paths):
    profile = BlindProfile(
        (fig5_paths["rho3"], fig5_paths["rho1"], fig5_paths["rho2"])
    )
    _, cost = best_response(fig5_g3, profile, 0)
    assert cost == 13


def test_best_response_single_player(fig1):
    game = Game(fig1, 1)
    base = single_player_shortest(fig1)
    strategy, cost = best_response(game, BlindProfile((base,)), 0)
    assert cost == 8
    assert strategy == base


def test_best_response_bounds(corpus):
    rng = random.Random(23)
    for name, game in corpus:
        paths = _all_blind_paths(game.arena, len(game.arena.states) + 1)
        for _ in range(6):
            profile = BlindProfile(
                tuple(
                    blind_strategy(game.arena, rng.choice(paths))
                    for _ in range(game.n)
                )
            )
            costs, _, _ = play_profile(game, profile)
            for player in range(game.n):
                strategy, cost = best_response(game, profile, player)
                assert cost <= costs[player], name
                assert len(strategy) <= profile.horizon + len(game.arena.states)


def test_potential_identity_on_random_swaps():
    rng = random.Random(123)
    checked = 0
    while checked < 60:
        arena = random_arena(rng)
        game = Game(arena, rng.randint(2, 3))
        paths = _all_blind_paths(arena, min(len(arena.states) + 1, 6))
        if len(paths) < 2:
            continue
        profile = BlindProfile(
            tuple(blind_strategy(arena, rng.choice(paths)) for _ in range(game.n))
        )
        player = rng.randrange(game.n)
        swapped = profile.replace(
            player, blind_strategy(arena, rng.choice(paths))
        )
        costs, _, _ = play_profile(game, profile)
        swapped_costs, _, _ = play_profile(game, swapped)
        assert potential(game, profile) - potential(game, swapped) == (
            costs[player] - swapped_costs[player]
        )
        checked += 1


def test_blind_ne_fig1(fig1_g2):
    profile, swaps = blind_ne(fig1_g2)
    assert is_blind_ne(fig1_g2, profile)


def test_blind_ne_single_player(fig1):
    game = Game(fig1, 1)
    profile, swaps = blind_ne(game)
    assert swaps == 0
    assert profile.strategies[0] == single_player_shortest(fig1)


def test_blind_ne_fig5_is_suboptimal(fig5_g3):
    profile, _ = blind_ne(fig5_g3)
    _, social, _ = play_profile(fig5_g3, profile)
    assert is_blind_ne(fig5_g3, profile)
    assert social > 36


def test_is_blind_ne_examples(fig1_g2, fig1_paths, fig5_g3, fig5_paths):
    assert is_blind_ne(
        fig1_g2, BlindProfile((fig1_paths["pi1"], fig1_paths["pi2"]))
    )
    assert not is_blind_ne(
        fig5_g3,
        BlindProfile(
            (fig5_paths["rho1"], fig5_paths["rho1"], fig5_paths["rho2"])
        ),
    )


def test_blind_ne_terminates_within_potential(corpus):
    for name, game in corpus:
        profile, swaps = blind_ne(game)
        assert is_blind_ne(game, profile), name


def _reference_best_response(game, profile, player):
    """The layered Dijkstra that ``best_response`` replaced, kept as the
    reference for its strategy and cost; it counts the other players' loads
    per step itself, not from the profile's load table."""
    arena = game.arena
    if arena.src == arena.tgt:
        return blind_strategy(arena, ((arena.tgt, arena.tgt),)), 0
    horizon = profile.horizon
    order = {edge: k for k, edge in enumerate(arena.edge_list)}
    others = [{} for _ in range(horizon)]
    for i, strategy in enumerate(profile.strategies):
        if i != player:
            for loads, edge in zip(others, strategy.edges):
                loads[edge] = loads.get(edge, 0) + 1

    def out_edges(state: int, layer: int):
        for succ, fn in arena.out[state]:
            edge = (state, succ)
            if layer <= horizon:
                load = others[layer - 1].get(edge, 0)
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


def _random_blind_path(arena, rng):
    """A seeded random walk from the source to its first target visit."""
    while True:
        state, edges = arena.src, []
        while len(edges) < 3 * len(arena.states):
            succ, _ = rng.choice(arena.out[state])
            edges.append((state, succ))
            state = succ
            if state == arena.tgt:
                return blind_strategy(arena, edges)


def _differential_games():
    rng = random.Random(808)
    games = [game for _, game in corpus_games()]
    games += [Game(random_arena(rng), rng.randint(1, 4)) for _ in range(100)]
    games += [Game(grid_arena(k), n) for k in (3, 4, 5) for n in (2, 5, 9)]
    return games


def test_best_response_matches_layered_dijkstra(monkeypatch):
    """The A* best response returns the old Dijkstra's strategy and cost on
    the shortest, blind-NE and randomly swapped profiles of every game, the
    lone shortest path is the old Dijkstra's lone best response, and
    best-response dynamics take the same swaps to the same profile."""
    rng = random.Random(8)
    compared = 0
    for game in _differential_games():
        lone = single_player_shortest(game.arena)
        alone = (Game(game.arena, 1), BlindProfile((lone,)), 0)
        assert _reference_best_response(*alone)[0] == lone
        base = BlindProfile((lone,) * game.n)
        found, swaps = blind_ne(game)
        with monkeypatch.context() as patched:
            patched.setattr(dynamics, "best_response", _reference_best_response)
            assert blind_ne(game) == (found, swaps)
        swapped = found
        for _ in range(game.n):
            swapped = swapped.replace(
                rng.randrange(game.n), _random_blind_path(game.arena, rng)
            )
        for profile in (base, found, swapped):
            for player in range(game.n):
                assert best_response(game, profile, player) == (
                    _reference_best_response(game, profile, player)
                )
                compared += 1
    assert compared > 1000


def test_best_response_matches_brute_force_on_ne_gap_games():
    rng = random.Random(5)
    for game, _ in ne_gap_games(41, 8):
        arena = game.arena
        found, _ = blind_ne(game)
        paths = _all_blind_paths(arena, found.horizon)
        swapped = found.replace(
            rng.randrange(game.n), blind_strategy(arena, rng.choice(paths))
        )
        base = BlindProfile((single_player_shortest(arena),) * game.n)
        for profile in (base, found, swapped):
            limit = profile.horizon + len(arena.states)
            for player in range(game.n):
                assert best_response(game, profile, player)[1] == (
                    brute_best_response(game, profile, player, limit)
                )
