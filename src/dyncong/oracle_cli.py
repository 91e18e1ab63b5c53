"""The ``oracle`` subcommand of the command-line front end: brute-force
reference queries, with the arguments and messages of :mod:`cli`, whose
:func:`cli.run` prints each payload and sets the exit code.
:func:`cli.cmd_oracle` imports this module on first use, so no other
command loads it or :mod:`oracle`.
"""

from __future__ import annotations

import json

from .arena import serialize_arena
from .cli import (
    InputError,
    _emit_values,
    _load_game,
    _load_json,
    _profile_from_json,
)
from .graphs import BudgetExceeded
from .oracle import (
    brute_best_response,
    brute_ne_outcomes,
    brute_social_optimum,
    brute_values,
    gen_partition_arena,
)


def cmd_oracle(args):
    if args.oracle_cmd == "gen-partition":
        try:
            family = [int(x) for x in args.family.split(",")]
        except ValueError as exc:
            raise InputError(
                "--family wants comma-separated positive integers"
            ) from exc
        try:
            game, big_m = gen_partition_arena(family)
        except ValueError as exc:
            raise InputError(f"--family: {exc}") from exc
        return {
            "command": "oracle gen-partition",
            "players": game.n,
            "threshold": big_m,
            "arena": json.loads(serialize_arena(game.arena)),
        }
    game = _load_game(args)
    for name in ("max_steps", "max_len", "horizon"):
        if getattr(args, name, 0) < 0:
            raise InputError(f"--{name.replace('_', '-')} must be at least 0")
    try:
        return _brute_force(args, game)
    except RecursionError as exc:
        raise BudgetExceeded(
            f"oracle {args.oracle_cmd} recursed past Python's depth limit"
        ) from exc


def _brute_force(args, game):
    """The payload of an oracle query on ``game``; the oracles recurse once
    per step of a play, so a long one can pass Python's depth limit."""
    if args.oracle_cmd == "so":
        try:
            cost = brute_social_optimum(game, args.max_steps)
        except ValueError as exc:
            raise InputError(f"--max-steps: {exc}") from exc
        return {"command": "oracle so", "cost": cost}
    if args.oracle_cmd == "br":
        if not 1 <= args.player <= game.n:
            raise InputError(f"--player must be between 1 and {game.n}")
        profile = _profile_from_json(game, _load_json(args.profile))
        try:
            cost = brute_best_response(
                game, profile, args.player - 1, args.max_len
            )
        except ValueError as exc:
            raise InputError(f"--max-len: {exc}") from exc
        return {"command": "oracle br", "cost": cost}
    if args.oracle_cmd == "values":
        return _emit_values("oracle values", game.arena,
                            brute_values(game, args.horizon), args)
    outcomes = brute_ne_outcomes(game, args.max_steps)  # ne-outcomes
    return {
        "command": "oracle ne-outcomes",
        "count": len(outcomes),
        "outcomes": [p.to_json(game.arena) for p in outcomes],
    }
