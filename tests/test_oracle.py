import pytest

from dyncong.arena import Game
from dyncong.dynamics import BlindProfile, play_profile, single_player_shortest
from dyncong.graphs import INF
from dyncong.ne import check_ne_outcome, compute_values
from dyncong.oracle import (
    brute_best_response,
    brute_ne_outcomes,
    brute_social_optimum,
    brute_values,
    gen_partition_arena,
)
from dyncong.socopt import constrained_social_optimum, social_optimum

from corpus import trivial_arena


def test_brute_so_fig1(fig1, fig1_g2):
    assert brute_social_optimum(Game(fig1, 1), 5) == 8
    assert brute_social_optimum(fig1_g2, 10) == 22


def test_brute_so_trivial():
    game = Game(trivial_arena(), 2)
    assert brute_social_optimum(game, 4) == 2 * 2  # both cross at load 2


def test_brute_br(fig1_g2, fig1_paths, fig5_g3, fig5_paths):
    profile = BlindProfile(
        (fig5_paths["rho3"], fig5_paths["rho1"], fig5_paths["rho2"])
    )
    assert brute_best_response(fig5_g3, profile, 0, 12) == 13
    profile = BlindProfile((fig1_paths["pi1"], fig1_paths["pi2"]))
    assert brute_best_response(fig1_g2, profile, 0, 9) == 9


def test_brute_br_single_player(fig1):
    game = Game(fig1, 1)
    profile = BlindProfile((single_player_shortest(fig1),))
    assert brute_best_response(game, profile, 0, 8) == 8


def test_brute_values_edges(fig1, fig1_g2):
    table = brute_values(fig1_g2, 0)
    for (own, counts), value in table.items():
        if own == fig1.tgt:
            assert value == 0
        else:
            assert value == INF
    deep = brute_values(fig1_g2, 6)
    exact = compute_values(fig1_g2)
    for state, value in exact.values.items():
        assert deep[state] == value


def test_brute_ne_outcomes_fig1(fig1, fig1_g2, fig1_paths):
    outcomes = set(brute_ne_outcomes(fig1_g2, 6))
    _, _, good = play_profile(
        fig1_g2, BlindProfile((fig1_paths["pi1"], fig1_paths["pi2"]))
    )
    assert good in outcomes
    # the adaptive outcome of Example 4 (costs 10 and 12)
    idx = fig1.index
    configs = [
        (idx("src"), idx("src")),
        (idx("v2"), idx("v1")),
        (idx("v3"), idx("v2")),
        (idx("tgt"), idx("v3")),
        (idx("tgt"), idx("tgt")),
    ]
    from dyncong.outcome import path_from_configs

    assert path_from_configs(fig1_g2, configs) in outcomes
    _, _, bad = play_profile(
        fig1_g2, BlindProfile((fig1_paths["pi1"], fig1_paths["pi1"]))
    )
    assert bad not in outcomes


def test_brute_ne_outcomes_trivial():
    game = Game(trivial_arena(), 2)
    outcomes = brute_ne_outcomes(game, 3)
    assert len(outcomes) == 1


def test_partition_small_family():
    game, big_m = gen_partition_arena([1, 1])
    assert game.n == 6
    assert big_m == 39
    assert social_optimum(game).cost == 38
    ok, _ = constrained_social_optimum(game, big_m - 1)
    assert ok


def test_partition_three_member_family():
    game, big_m = gen_partition_arena([1, 1, 2])
    assert game.n == 10
    assert social_optimum(game).cost == 64  # 14 * 2 + 12 * 3


def test_partition_rejects_odd_sum():
    with pytest.raises(ValueError, match="even"):
        gen_partition_arena([1, 2])


def test_partition_unsplittable_family_fails_bound():
    # {1, 1, 4} has no half summing to 3
    game, big_m = gen_partition_arena([1, 1, 4])
    ok, _ = constrained_social_optimum(game, big_m - 1)
    assert not ok


def test_brute_matches_solver_on_small_games(fig1):
    game = Game(fig1, 2)
    assert brute_social_optimum(game, 10) == social_optimum(game).cost
    for path in brute_ne_outcomes(game, 5):
        assert check_ne_outcome(game, path)
