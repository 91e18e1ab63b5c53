import random

import pytest

import dyncong.socopt as socopt
from dyncong.arena import Game, build_arena
from dyncong.costfn import kappa
from dyncong.dynamics import BlindProfile, blind_strategy, play_profile
from dyncong.graphs import (
    BudgetExceeded,
    distributions,
    eval_path,
    initial_config,
    parikh,
    target_distances,
)
from dyncong.oracle import _all_blind_paths, brute_social_optimum
from dyncong.socopt import (
    SuccessorFold,
    constrained_social_optimum,
    social_optimum,
)

from corpus import (
    diamond_arena,
    fig1_arena,
    grid_arena,
    merge_arena,
    random_arena,
    trivial_arena,
)


def test_single_player_fig1(fig1):
    result = social_optimum(Game(fig1, 1))
    assert result.cost == 8
    states = [fig1.states[c[0]] for c in result.witness.configs()]
    assert states == ["src", "v1", "v3", "tgt"]


def test_two_players_fig1(fig1_g2):
    assert social_optimum(fig1_g2).cost == 22


def test_trivial_three_players(trivial):
    # one shared edge, everyone must cross together: 3 * d(3)
    assert social_optimum(Game(trivial, 3)).cost == 9


def test_witness_replays_to_cost(corpus):
    for name, game in corpus:
        result = social_optimum(game)
        costs, social, _ = eval_path(game, [m for m, _, _ in result.witness.steps])
        assert social == result.cost, name
        assert len(result.witness.steps) <= game.n * len(game.arena.states)


def test_constrained_bounds(fig1_g2):
    ok, result = constrained_social_optimum(fig1_g2, 22)
    assert ok and result.cost == 22
    ok, result = constrained_social_optimum(fig1_g2, 21)
    assert not ok and result is None


def test_constrained_generous_bound_always_true(corpus):
    for name, game in corpus:
        bound = game.n * len(game.arena.states) * max(kappa(game), 1)
        ok, _ = constrained_social_optimum(game, bound)
        assert ok, name


def test_optimum_bounds_every_blind_profile(corpus):
    rng = random.Random(5)
    for name, game in corpus:
        best = social_optimum(game).cost
        paths = _all_blind_paths(game.arena, len(game.arena.states) + 1)
        for _ in range(15):
            profile = BlindProfile(
                tuple(
                    blind_strategy(game.arena, rng.choice(paths))
                    for _ in range(game.n)
                )
            )
            _, social, _ = play_profile(game, profile)
            assert best <= social, name


def test_optimum_is_monotone_in_player_count():
    for arena in (trivial_arena(), diamond_arena(), merge_arena(), fig1_arena()):
        costs = [social_optimum(Game(arena, n)).cost for n in range(1, 5)]
        assert all(a <= b for a, b in zip(costs, costs[1:]))


def _abstract(arena, mapping):
    counts = [0] * len(arena.states)
    for name, k in mapping.items():
        counts[arena.index(name)] = k
    return tuple(counts)


def _fold_weights(game, mapping):
    """Successor abstraction -> least step weight, from the successor fold."""
    fold = SuccessorFold(game)
    node = fold.encode(_abstract(game.arena, mapping))
    return {
        fold.decode(nxt): weight
        for nxt, (weight, _, _) in fold.successors(node).items()
    }


def test_fold_successors_from_source(fig1, fig1_g2):
    assert _fold_weights(fig1_g2, {"src": 2}) == {
        _abstract(fig1, {"v1": 2}): 4,
        _abstract(fig1, {"v2": 2}): 10,
        _abstract(fig1, {"v1": 1, "v2": 1}): 6,
    }


def test_fold_successors_target_loop(fig1):
    game = Game(fig1, 3)
    assert _fold_weights(game, {"tgt": 3}) == {_abstract(fig1, {"tgt": 3}): 0}


def test_fold_successors_forced_crossing(fig1, fig1_g2):
    assert _fold_weights(fig1_g2, {"v3": 2}) == {_abstract(fig1, {"tgt": 2}): 16}


def _reachable_abstractions(game):
    start = parikh(game, initial_config(game))
    seen = {start}
    frontier = [start]
    while frontier:
        abstract = frontier.pop()
        yield abstract
        for _, _, nxt in distributions(game.arena, abstract):
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)


def _small_games(seed, count, max_players):
    rng = random.Random(seed)
    for _ in range(count):
        yield Game(random_arena(rng), rng.randint(1, max_players))


def test_fold_matches_first_least_distribution(corpus):
    # Per successor, the fold keeps the least weight and the first
    # distribution of that weight in the enumeration order of distributions.
    # The seed-5 arena with n=4 has equal-weight successors whose first
    # distribution is not the first one the fold meets.
    games = [game for _, game in corpus] + list(_small_games(31, 20, 3))
    games.append(Game(random_arena(random.Random(5)), 4))
    for game in games:
        fold = SuccessorFold(game)
        for abstract in _reachable_abstractions(game):
            first = {}
            for dist, weight, nxt in distributions(game.arena, abstract):
                if nxt not in first or weight < first[nxt][0]:
                    first[nxt] = (weight, dist)
            node = fold.encode(abstract)
            got = {
                fold.decode(nxt): (weight, fold.edge_counts(node, choice))
                for nxt, (weight, _, choice) in fold.successors(node).items()
            }
            assert got == first


def test_heuristic_is_consistent(corpus):
    games = [game for _, game in corpus] + list(_small_games(29, 25, 3))
    for game in games:
        dist1 = target_distances(game.arena)
        assert dist1[game.arena.tgt] == 0

        def h(abstract):
            return sum(c * d for c, d in zip(abstract, dist1))

        for abstract in _reachable_abstractions(game):
            for _, weight, nxt in distributions(game.arena, abstract):
                assert h(abstract) <= weight + h(nxt)


def test_optimum_matches_brute_force_on_random_arenas():
    for game in _small_games(17, 30, 4):
        cap = game.n * len(game.arena.states)
        optimum = brute_social_optimum(game, cap)
        result = social_optimum(game)
        assert result.cost == optimum
        for bound, expected in (
            (optimum, True), (optimum - 1, False), (optimum + 3, True)
        ):
            ok, found = constrained_social_optimum(game, bound)
            assert ok is expected
            if ok:
                assert found.cost == optimum
                moves = [m for m, _, _ in found.witness.steps]
                assert eval_path(game, moves)[1] == optimum
                assert len(moves) <= cap


def test_negative_bound_is_unsatisfiable_when_source_is_target():
    game = Game(build_arena(["s"], [], "s", "s"), 2)
    assert social_optimum(game).cost == 0
    assert constrained_social_optimum(game, 0)[0]
    assert constrained_social_optimum(game, -1) == (False, None)


def test_successor_fold_stays_within_the_node_budget(monkeypatch):
    # Two of six players on each of grid3's first three states: no options
    # list has more than 6 entries, but the successor map reaches 108 nodes.
    game = Game(grid_arena(3), 6)
    abstract = (2, 2, 2) + (0,) * 6

    def fold_under(budget):
        monkeypatch.setattr(socopt, "node_budget", lambda: budget)
        return SuccessorFold(game)

    fold = fold_under(108)
    assert [len(fold.options(v, 2)) for v in range(3)] == [6, 6, 3]
    assert len(fold.successors(fold.encode(abstract))) == 108
    fold = fold_under(107)
    with pytest.raises(BudgetExceeded, match="successor fold exceeded 107 nodes"):
        fold.successors(fold.encode(abstract))
    # C(2 + 2, 2) = 6 compositions of two players over r0c0's three edges.
    with pytest.raises(BudgetExceeded, match="step options exceeded 5 entries"):
        fold_under(5).options(0, 2)
