"""Command-line front end: one query per invocation, JSON on stdout.

Exit codes: 0 answered yes / computed, 1 answered no (bound unsatisfied,
check failed, no equilibrium), 2 invalid input, 3 search budget exceeded.
Stdout is deterministic for identical inputs; timing goes to stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
import time

from .arena import Arena, ArenaError, Game, parse_arena
from .costfn import CostFunctionError
from .dynamics import (
    BlindProfile,
    StrategyError,
    blind_strategy,
    is_blind_ne,
    play_profile,
    potential,
    blind_ne,
)
from .graphs import (
    INF,
    NEG_INF,
    BudgetExceeded,
    SemanticsError,
    eval_path,
)
from .ne import check_ne_outcome, compute_values, equilibrium_ratio, gamma_min_ne
from .outcome import move_from_json, path_from_json
from .socopt import constrained_social_optimum, social_optimum

EXIT_OK = 0
EXIT_NO = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3


class InputError(ValueError):
    pass


def _load_arena(path: str) -> Arena:
    """Reads and parses an arena file; parsing already validates it."""
    try:
        with open(path, encoding="utf-8") as handle:
            return parse_arena(handle.read())
    except OSError as exc:
        raise InputError(f"cannot read arena file: {exc}") from exc


def _load_game(args) -> Game:
    arena = _load_arena(args.arena)
    if args.players < 1:
        raise InputError("--players must be at least 1")
    return Game(arena=arena, n=args.players)


def _load_json(path: str):
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _gamma_flags(args) -> list[str]:
    return [
        name
        for name, flag in (("--best", args.best), ("--worst", args.worst),
                           ("--gamma", args.gamma is not None))
        if flag
    ]


def _parse_gamma(args, n: int):
    chosen = _gamma_flags(args)
    if len(chosen) > 1:
        raise InputError(f"{' and '.join(chosen)} are mutually exclusive")
    if args.worst:
        return (-1,) * n
    if args.gamma is not None:
        try:
            gamma = tuple(int(part) for part in args.gamma.split(","))
        except ValueError as exc:
            raise InputError("--gamma wants comma-separated integers") from exc
        if len(gamma) != n:
            raise InputError("--gamma needs one weight per player")
        return gamma
    return (1,) * n


def _jsonable(value):
    if value == INF:
        return "+inf"
    if value == NEG_INF:
        return "-inf"
    return value


def _emit(payload, args) -> None:
    if getattr(args, "format", "json") == "pretty":
        print(json.dumps(payload, indent=2))
    else:
        print(json.dumps(payload))


def _profile_from_json(game: Game, data) -> BlindProfile:
    if not isinstance(data, dict) or not isinstance(data.get("profile"), list):
        raise InputError("profile file must contain {'profile': [...]}")
    strategies = []
    for entry in data["profile"]:
        if not isinstance(entry, list):
            raise InputError(f"a profile entry must be a list of moves, got {entry!r}")
        edges = [move_from_json(game.arena, move) for move in entry]
        strategies.append(blind_strategy(game.arena, edges))
    if len(strategies) != game.n:
        raise InputError("profile size differs from --players")
    return BlindProfile(tuple(strategies))


def cmd_validate(args):
    arena = _load_arena(args.arena)
    payload = {
        "command": "validate",
        "ok": True,
        "states": len(arena.states),
        "edges": len(arena.edges),
    }
    _emit(payload, args)
    return EXIT_OK


def cmd_so(args):
    game = _load_game(args)
    if args.bound is None:
        satisfied, result = True, social_optimum(game)
        payload = {"command": "so"}
    else:
        satisfied, result = constrained_social_optimum(game, args.bound)
        payload = {"command": "so", "satisfied": satisfied}
    if satisfied:
        _, social, _ = eval_path(game, [m for m, _, _ in result.witness.steps])
        assert social == result.cost
        payload["cost"] = result.cost
        payload["witness"] = result.witness.to_json(game.arena)
    _emit(payload, args)
    return EXIT_OK if satisfied else EXIT_NO


def cmd_blind_ne(args):
    game = _load_game(args)
    profile, swaps = blind_ne(game)
    costs, social, path = play_profile(game, profile)
    assert is_blind_ne(game, profile)
    payload = {
        "command": "blind-ne",
        "profile": [s.to_names(game.arena) for s in profile.strategies],
        "costs": [_jsonable(c) for c in costs],
        "social": _jsonable(social),
        "potential": potential(game, profile),
        "improvement_steps": swaps,
    }
    _emit(payload, args)
    return EXIT_OK


def cmd_eval(args):
    game = _load_game(args)
    profile = _profile_from_json(game, _load_json(args.profile))
    costs, social, path = play_profile(game, profile)
    payload = {
        "command": "eval",
        "costs": [_jsonable(c) for c in costs],
        "social": _jsonable(social),
        "potential": potential(game, profile),
        "is_blind_ne": is_blind_ne(game, profile),
        "outcome": path.to_json(game.arena),
    }
    _emit(payload, args)
    return EXIT_OK


def _emit_values(command: str, arena: Arena, values: dict, args) -> None:
    """Emits ``{"command": command, "values": [...]}``, entries in key
    order, byte for byte as :func:`_emit` would, from text pieces: the text
    around an entry's fields is cut out of one dump with two placeholder
    entries, and each state, coalition and distinct value is dumped once
    (a coalition re-indented to its depth).  Chunks of 1,024 entries are
    written as they are joined, so the whole table is never one string."""
    indent = 2 if args.format == "pretty" else None
    entry = {"state": None, "coalition": None, "value": None}
    head, to_coalition, to_value, sep, _, _, tail = json.dumps(
        {"command": command, "values": [entry, entry]}, indent=indent
    ).split("null")
    pad = "\n" + " " * 3 * (indent or 0)
    states = [json.dumps(name) for name in arena.states]
    coalitions, texts = {}, {}
    keys = sorted(values)
    for k in range(0, len(keys), 1024):
        pieces = [head if k == 0 else sep]
        for own, counts in keys[k:k + 1024]:
            coalition = coalitions.get(counts)
            if coalition is None:
                coalition = coalitions[counts] = json.dumps(
                    {arena.states[v]: c for v, c in enumerate(counts) if c},
                    indent=indent).replace("\n", pad)
            value = values[(own, counts)]
            text = texts.get(value)
            if text is None:
                text = texts[value] = json.dumps(_jsonable(value))
            pieces += (states[own], to_coalition, coalition, to_value, text, sep)
        pieces[-1] = ""
        sys.stdout.write("".join(pieces))
    sys.stdout.write(tail + "\n")


def cmd_values(args):
    game = _load_game(args)
    _emit_values("values", game.arena, compute_values(game).values, args)
    return EXIT_OK


def _emit_optimum(payload, args, game: Game, gamma, cost, witness):
    """Appends gamma, cost, social cost and witness to ``payload``, plus the
    ``--bound`` verdict when one is given; emits it and returns the exit
    code."""
    _, social, _ = eval_path(game, [m for m, _, _ in witness.steps])
    payload.update({
        "gamma": list(gamma),
        "cost": cost,
        "social": _jsonable(social),
        "witness": witness.to_json(game.arena),
    })
    satisfied = args.bound is None or cost <= args.bound
    if args.bound is not None:
        payload["satisfied"] = satisfied
    _emit(payload, args)
    return EXIT_OK if satisfied else EXIT_NO


def cmd_ne(args):
    game = _load_game(args)
    gamma = _parse_gamma(args, game.n)
    cost, witness = gamma_min_ne(game, gamma)
    return _emit_optimum({"command": "ne"}, args, game, gamma, cost, witness)


def cmd_spe(args):
    game = _load_game(args)
    if args.exists:
        chosen = _gamma_flags(args) + ["--bound"] * (args.bound is not None)
        if chosen:
            raise InputError(
                f"{' and '.join(['--exists', *chosen])} are mutually exclusive"
            )
    else:
        gamma = _parse_gamma(args, game.n)
    # Imported here, like ``oracle_cli``: only ``spe`` and ``check-spe`` use
    # the SPE solver, and compiling it for every other command raised the
    # peak resident memory of `ne --worst` on grid4 n=2 by about 0.15 MB
    # (bench/child.py).
    from .spe import compute_lambda, gamma_min_spe, spe_exists

    lam = compute_lambda(game)
    if args.dump_lambda is not None:
        entries = []
        for (frm, to), labels in sorted(lam.labels.items()):
            entries.append(
                {
                    "from": [game.arena.states[s] for s in frm],
                    "to": [game.arena.states[s] for s in to],
                    "labels": [_jsonable(v) for v in labels],
                }
            )
        try:
            with open(args.dump_lambda, "w", encoding="utf-8") as handle:
                json.dump({"lambda": entries}, handle, indent=2)
        except OSError as exc:
            raise InputError(f"cannot write {args.dump_lambda}: {exc}") from exc
    if args.exists:
        ok, witness = spe_exists(game, lam)
        payload = {"command": "spe", "exists": ok}
        if ok:
            payload["witness"] = witness.to_json(game.arena)
        _emit(payload, args)
        return EXIT_OK if ok else EXIT_NO
    found = gamma_min_spe(game, gamma, lam)
    if found is None:
        _emit({"command": "spe", "exists": False}, args)
        return EXIT_NO
    cost, witness = found
    payload = {"command": "spe", "exists": True}
    return _emit_optimum(payload, args, game, gamma, cost, witness)


def cmd_check(args):
    game = _load_game(args)
    path = path_from_json(game, _load_json(args.outcome))
    if args.command == "check-ne":
        check = check_ne_outcome
    else:
        from .spe import check_spe_outcome as check
    accepted = check(game, path)
    _emit({"command": args.command, "accepted": accepted}, args)
    return EXIT_OK if accepted else EXIT_NO


def cmd_ratio(args):
    game = _load_game(args)
    worst = args.command == "poa"
    so, cost, ratio = equilibrium_ratio(game, worst)
    payload = {"command": args.command, "social_optimum": so,
               "worst_ne" if worst else "best_ne": cost}
    if ratio is None:
        payload.update({"ratio": None, "infinite": True, "decimal": None})
    else:
        payload["ratio"] = {"num": ratio.numerator, "den": ratio.denominator}
        payload["decimal"] = float(ratio)
    _emit(payload, args)
    return EXIT_OK


def cmd_oracle(args):
    # Imported here, not at module level: only the oracle subcommands use
    # it, and loading ``oracle`` for every command raised the peak resident
    # memory of an `so` query on grid3 n=6 by about 0.09 MB (bench/child.py).
    from .oracle_cli import cmd_oracle

    return cmd_oracle(args)


def _add_game_args(parser):
    parser.add_argument("--arena", required=True, help="arena JSON file")
    parser.add_argument("--players", type=int, required=True)


def _add_gamma_args(parser):
    parser.add_argument("--gamma", help="comma-separated per-player weights")
    parser.add_argument("--best", action="store_true",
                        help="shorthand for an all-ones gamma (default)")
    parser.add_argument("--worst", action="store_true",
                        help="shorthand for an all-minus-ones gamma")
    parser.add_argument("--bound", type=int, default=None)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every
    :func:`run` of the process (parsing leaves it unchanged)."""
    parser = argparse.ArgumentParser(
        prog="dyncong",
        description="Dynamic network congestion game solvers. Bound "
        "comparisons are non-strict (cost <= bound).",
    )
    parser.add_argument("--format", choices=["json", "pretty"], default="json")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse and validate an arena file")
    p.add_argument("--arena", required=True)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("so", help="social optimum")
    _add_game_args(p)
    p.add_argument("--bound", type=int, default=None)
    p.set_defaults(func=cmd_so)

    p = sub.add_parser("blind-ne", help="blind Nash equilibrium by "
                       "best-response iteration")
    _add_game_args(p)
    p.set_defaults(func=cmd_blind_ne)

    p = sub.add_parser("eval", help="evaluate a blind profile")
    _add_game_args(p)
    p.add_argument("--profile", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("values", help="coalition punishment values")
    _add_game_args(p)
    p.set_defaults(func=cmd_values)

    p = sub.add_parser("ne", help="gamma-optimal Nash equilibrium")
    _add_game_args(p)
    _add_gamma_args(p)
    p.set_defaults(func=cmd_ne)

    p = sub.add_parser("check-ne", help="is the outcome a Nash equilibrium")
    _add_game_args(p)
    p.add_argument("--outcome", required=True)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("spe", help="subgame-perfect equilibria")
    _add_game_args(p)
    _add_gamma_args(p)
    p.add_argument("--exists", action="store_true")
    p.add_argument("--dump-lambda", default=None, metavar="FILE")
    p.set_defaults(func=cmd_spe)

    p = sub.add_parser("check-spe", help="is the outcome subgame-perfect")
    _add_game_args(p)
    p.add_argument("--outcome", required=True)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("poa", help="price of anarchy")
    _add_game_args(p)
    p.set_defaults(func=cmd_ratio)

    p = sub.add_parser("pos", help="price of stability")
    _add_game_args(p)
    p.set_defaults(func=cmd_ratio)

    p = sub.add_parser("oracle", help="brute-force reference queries")
    osub = p.add_subparsers(dest="oracle_cmd", required=True)

    q = osub.add_parser("so")
    _add_game_args(q)
    q.add_argument("--max-steps", type=int, required=True)

    q = osub.add_parser("br")
    _add_game_args(q)
    q.add_argument("--profile", required=True)
    q.add_argument("--player", type=int, required=True, help="1-based index")
    q.add_argument("--max-len", type=int, required=True)

    q = osub.add_parser("values")
    _add_game_args(q)
    q.add_argument("--horizon", type=int, required=True)

    q = osub.add_parser("ne-outcomes")
    _add_game_args(q)
    q.add_argument("--max-steps", type=int, required=True)

    q = osub.add_parser("gen-partition")
    q.add_argument("--family", required=True,
                   help="comma-separated positive integers")
    p.set_defaults(func=cmd_oracle)

    return parser


def _glue_gamma(argv) -> list[str]:
    """``--gamma -1,1`` as ``--gamma=-1,1``; argparse takes -1,1 for an
    option.  Every abbreviation argparse accepts for ``--gamma`` is glued
    too, ``--g`` on: no other option of ``ne`` or ``spe`` starts with
    ``--g``."""
    argv = list(argv)
    for k in range(len(argv) - 2, -1, -1):
        if (len(argv[k]) > 2 and "--gamma".startswith(argv[k])
                and re.fullmatch(r"-\d.*", argv[k + 1])):
            argv[k:k + 2] = ["--gamma=" + argv[k + 1]]
    return argv


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_glue_gamma(argv))
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else EXIT_OK
    started = time.perf_counter()
    try:
        code = args.func(args)
    except (InputError, ArenaError, CostFunctionError, SemanticsError,
            StrategyError) as exc:
        print(f"dyncong: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except BudgetExceeded as exc:
        print(f"dyncong: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    elapsed = (time.perf_counter() - started) * 1000
    print(f"[dyncong] {args.command}: {elapsed:.1f} ms", file=sys.stderr)
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))
