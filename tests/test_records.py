"""The record classes: value equality over their fields, a matching hash
where the fields are hashable, and their constructors' checks and
defaults."""

import pytest

from dyncong.arena import Arena, ArenaError, Game, build_arena
from dyncong.costfn import linear
from dyncong.dynamics import BlindProfile, strategy_from_states
from dyncong.graphs import OutcomePath, replay
from dyncong.spe import LambdaResult

from corpus import fig1_arena


def _arena(slope):
    return build_arena(["s", "m", "t"], [("s", "m", linear(slope)),
                                        ("m", "t", linear(1))], "s", "t")


def _values():
    """``(make, changed)`` per value record: two calls of ``make`` build
    equal records from equal fields, and ``changed`` differs in one."""
    fig1 = fig1_arena()
    game = Game(fig1, 2)
    pi = strategy_from_states(fig1, ["src", "v1", "v3", "tgt"])
    rho = strategy_from_states(fig1, ["src", "v2", "v3", "tgt"])
    path = replay(game, (fig1.src,) * 2,
                  [[edge] * 2 for edge in pi.edges])
    return [
        (lambda: linear(2, 1), linear(2, 2)),
        (lambda: _arena(2), _arena(3)),
        (lambda: strategy_from_states(fig1, ["src", "v1", "v3", "tgt"]), rho),
        (lambda: BlindProfile((pi, rho)), BlindProfile((rho, pi))),
        (lambda: OutcomePath(path.start, path.steps),
         OutcomePath(path.start, path.steps[:-1])),
    ]


@pytest.mark.parametrize("make, changed", _values(),
                         ids=["cost", "arena", "strategy", "profile", "path"])
def test_equal_fields_give_equal_records(make, changed):
    first, second = make(), make()
    assert first is not second
    assert first == second and not first != second
    assert first != changed and changed != first
    assert first != tuple(vars(first).values())
    if isinstance(first, Arena):  # its edge map is a dict
        pytest.raises(TypeError, hash, first)
    else:
        assert hash(first) == hash(second)


def test_game_needs_a_player():
    with pytest.raises(ArenaError, match="player count must be >= 1, got 0"):
        Game(fig1_arena(), 0)
    game = Game(arena=fig1_arena(), n=3)
    assert game.n == 3 and game.view is game.view


def test_lambda_results_do_not_share_region_counts():
    first, second = LambdaResult({}, None), LambdaResult(labels={}, graph=None)
    first.region_iterations[0] = 1
    assert second.region_iterations == {}
    assert first.ceiling == second.ceiling == 0
