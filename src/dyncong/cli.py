"""Command-line front end: one query per invocation, JSON on stdout, the
command line read against :data:`COMMANDS` (argparse took 5 ms a query).

Exit codes: 0 answered yes / computed, 1 answered no (bound unsatisfied,
check failed, no equilibrium), 2 invalid input, 3 search budget exceeded.
Stdout is deterministic for identical inputs; timing goes to stderr.
"""

from __future__ import annotations

import json
import sys
import time
from types import SimpleNamespace

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


class HelpShown(Exception):
    """-h or --help was read and the help text printed: exit 0."""


def _load_arena(path: str) -> Arena:
    """Reads and parses an arena file; parsing already validates it."""
    try:
        with open(path, encoding="utf-8") as handle:
            return parse_arena(handle.read())
    except (OSError, UnicodeError) as exc:
        raise InputError(f"cannot read arena file: {exc}") from exc


def _load_game(args) -> Game:
    """The game, its tables built (``Game.view``) so that a player count
    past the node budget stops before a command builds a gamma."""
    arena = _load_arena(args.arena)
    if args.players < 1:
        raise InputError("--players must be at least 1")
    game = Game(arena=arena, n=args.players)
    game.view
    return game


def _load_json(path: str):
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError, RecursionError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _parse_gamma(args, n: int):
    """The gamma of ``--best``, ``--worst`` or ``--gamma``, all ones when
    none is given; ``spe --exists`` searches all ones, so it also refuses
    ``--bound``."""
    exists = getattr(args, "exists", False)
    given = {"--exists": exists, "--best": args.best, "--worst": args.worst,
             "--gamma": args.gamma is not None,
             "--bound": exists and args.bound is not None}
    chosen = [name for name, flag in given.items() if flag]
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
    return {"command": "validate", "ok": True, "states": len(arena.states),
            "edges": len(arena.edges)}


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
    return payload


def _played(payload, game: Game, profile: BlindProfile):
    """Appends the costs, social cost and potential of ``profile`` to
    ``payload`` and returns its outcome."""
    costs, social, path = play_profile(game, profile)
    payload.update(costs=[_jsonable(c) for c in costs],
                   social=_jsonable(social), potential=potential(game, profile))
    return path


def cmd_blind_ne(args):
    game = _load_game(args)
    profile, swaps = blind_ne(game)
    assert is_blind_ne(game, profile)
    payload = {"command": "blind-ne",
               "profile": [s.to_names(game.arena) for s in profile.strategies]}
    _played(payload, game, profile)
    payload["improvement_steps"] = swaps
    return payload


def cmd_eval(args):
    game = _load_game(args)
    profile = _profile_from_json(game, _load_json(args.profile))
    payload = {"command": "eval"}
    path = _played(payload, game, profile)
    payload.update(is_blind_ne=is_blind_ne(game, profile),
                   outcome=path.to_json(game.arena))
    return payload


def _emit_values(command: str, arena: Arena, values: dict, args) -> None:
    """Emits ``{"command": command, "values": [...]}``, entries in key
    order, byte for byte as :func:`run` prints a payload, from text pieces:
    the text around an entry's fields is cut out of one dump with two
    placeholder entries, and each state, coalition and distinct value is dumped once
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


def _optimum(payload, args, game: Game, gamma, cost, witness):
    """Appends gamma, cost, social cost and witness to ``payload``, plus the
    ``--bound`` verdict when one is given, and returns it."""
    _, social, _ = eval_path(game, [m for m, _, _ in witness.steps])
    payload.update({
        "gamma": list(gamma),
        "cost": cost,
        "social": _jsonable(social),
        "witness": witness.to_json(game.arena),
    })
    if args.bound is not None:
        payload["satisfied"] = cost <= args.bound
    return payload


def cmd_ne(args):
    game = _load_game(args)
    gamma = _parse_gamma(args, game.n)
    cost, witness = gamma_min_ne(game, gamma)
    return _optimum({"command": "ne"}, args, game, gamma, cost, witness)


def cmd_spe(args):
    game = _load_game(args)
    gamma = _parse_gamma(args, game.n)
    # Imported here, like ``oracle_cli``: only ``spe`` and ``check-spe`` use
    # the SPE solver, and compiling it for every other command raised the
    # peak resident memory of `ne --worst` on grid4 n=2 by about 0.15 MB
    # (bench/child.py).
    from .spe import compute_lambda, gamma_min_spe

    lam = compute_lambda(game)
    if args.dump_lambda is not None:
        entries = [{"from": [game.arena.states[s] for s in frm],
                    "to": [game.arena.states[s] for s in to],
                    "labels": [_jsonable(v) for v in labels]}
                   for (frm, to), labels in sorted(lam.labels.items())]
        try:
            with open(args.dump_lambda, "w", encoding="utf-8") as handle:
                json.dump({"lambda": entries}, handle, indent=2)
        except OSError as exc:
            raise InputError(f"cannot write {args.dump_lambda}: {exc}") from exc
    found = gamma_min_spe(game, gamma, lam)  # all ones under --exists
    payload = {"command": "spe", "exists": found is not None}
    if found is None:
        return payload
    if args.exists:
        payload["witness"] = found[1].to_json(game.arena)
        return payload
    return _optimum(payload, args, game, gamma, *found)


def cmd_check(args):
    game = _load_game(args)
    path = path_from_json(game, _load_json(args.outcome))
    if args.command == "check-ne":
        check = check_ne_outcome
    else:
        from .spe import check_spe_outcome as check
    return {"command": args.command, "accepted": check(game, path)}


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
    return payload


def cmd_oracle(args):
    # Imported here, not at module level: only the oracle subcommands use
    # it, and loading ``oracle`` for every command raised the peak resident
    # memory of an `so` query on grid3 n=6 by about 0.09 MB (bench/child.py).
    from .oracle_cli import cmd_oracle

    return cmd_oracle(args)


GAME = "--arena=FILE --players=N"
GAMMA = "[--gamma=W,...] [--best] [--worst] [--bound=N]"

# Command -> (handler, usage, help).  Each usage word is an option, optional
# in brackets, a flag unless "=METAVAR" follows, and an int if that is N.
COMMANDS = {
    "validate": (cmd_validate, "--arena=FILE",
                 "parse and validate an arena file"),
    "so": (cmd_so, f"{GAME} [--bound=N]", "social optimum"),
    "blind-ne": (cmd_blind_ne, GAME,
                 "blind Nash equilibrium by best-response iteration"),
    "eval": (cmd_eval, f"{GAME} --profile=FILE", "evaluate a blind profile"),
    "values": (cmd_values, GAME, "coalition punishment values"),
    "ne": (cmd_ne, f"{GAME} {GAMMA}", "gamma-optimal Nash equilibrium"),
    "check-ne": (cmd_check, f"{GAME} --outcome=FILE",
                 "is the outcome a Nash equilibrium"),
    "spe": (cmd_spe, f"{GAME} {GAMMA} [--exists] [--dump-lambda=FILE]",
            "subgame-perfect equilibria"),
    "check-spe": (cmd_check, f"{GAME} --outcome=FILE",
                  "is the outcome subgame-perfect"),
    "poa": (cmd_ratio, GAME, "price of anarchy"),
    "pos": (cmd_ratio, GAME, "price of stability"),
    "oracle so": (cmd_oracle, f"{GAME} --max-steps=N",
                  "brute-force social optimum"),
    "oracle br": (cmd_oracle, f"{GAME} --profile=FILE --player=N --max-len=N",
                  "brute-force best response of the 1-based --player"),
    "oracle values": (cmd_oracle, f"{GAME} --horizon=N",
                      "brute-force coalition punishment values"),
    "oracle ne-outcomes": (cmd_oracle, f"{GAME} --max-steps=N",
                           "brute-force Nash equilibrium outcomes"),
    "oracle gen-partition": (cmd_oracle, "--family=K,...",
                             "partition gadget of positive integers K"),
}


def _help(name: str) -> str:
    """The help text of a command of :data:`COMMANDS`, or of the program."""
    if name in COMMANDS:
        _, usage, text = COMMANDS[name]
        return f"usage: dyncong {name} {usage.replace('=', ' ')}\n\n{text}\n"
    rows = "".join(f"\n  {command:<22}{text}"
                   for command, (_, _, text) in COMMANDS.items())
    return ("usage: dyncong [--format json|pretty] COMMAND [OPTIONS]\n\n"
            "Dynamic network congestion game solvers. Bound comparisons are "
            "non-strict (cost <= bound).\nAn option may be shortened to a "
            "unique prefix; dyncong COMMAND --help lists its options.\n\n"
            f"commands:{rows}\n")


def _read_options(name: str, usage: str, argv: list, k: int, values: dict):
    """Reads the options of ``usage`` from ``argv[k:]`` into ``values`` up
    to the first word not starting with "-" and returns its index; on -h or
    --help, prints the help of ``name``.  An option is its exact name or a
    unique prefix among the options and --help; a value option takes
    "=value" or else the next word, whatever it is."""
    metavars = {}
    for word in usage.split():
        option, _, metavar = word.strip("[]").partition("=")
        metavars[option] = metavar
    names = [*metavars, "--help", "-h"]
    while k < len(argv) and argv[k].startswith("-"):
        word, glued, value = argv[k].partition("=")
        matches = [word] if word in names else [
            option for option in names
            if word.startswith("--") and option.startswith(word)]
        if len(matches) != 1:
            raise InputError(
                f"ambiguous option {word}: could be {', '.join(matches)}"
                if matches else f"unknown option {word}")
        option = matches[0]
        if option in ("--help", "-h"):
            print(_help(name), end="")
            raise HelpShown
        if not metavars[option]:
            if glued:
                raise InputError(f"{option} takes no value")
            value = True
        elif not glued:
            if k + 1 == len(argv):
                raise InputError(f"{option} needs a value")
            k += 1
            value = argv[k]
        if metavars[option] == "N":
            try:
                value = int(value)
            except ValueError:
                raise InputError(f"{option} wants an integer, not {value!r}")
        values[option] = value
        k += 1
    return k


def parse_args(argv):
    """The command line read against :data:`COMMANDS`: a namespace of
    ``command``, ``oracle_cmd`` (oracle only), ``format``, ``func`` and the
    command's options by attribute name (``--max-len`` as ``max_len``), None
    or False when absent; the last of a repeated option wins.  Raises
    HelpShown after -h or --help and InputError on a line it cannot read."""
    argv, values = list(argv), {"--format": "json"}
    k = _read_options("", "[--format=FORMAT]", argv, 0, values)
    form = values.pop("--format")
    if form not in ("json", "pretty"):
        raise InputError(f"--format must be json or pretty, not {form!r}")
    if k == len(argv):
        raise InputError("no command given; see dyncong --help")
    name = argv[k]
    if name == "oracle":  # no options of its own: -h, --help or a subcommand
        k = _read_options(name, "", argv, k + 1, values)
        name = f"oracle {argv[k]}" if k < len(argv) else name
    if name not in COMMANDS:
        raise InputError(f"unknown command {name!r}; see dyncong --help")
    func, usage, _ = COMMANDS[name]
    k = _read_options(name, usage, argv, k + 1, values)
    if k < len(argv):
        raise InputError(f"unexpected argument {argv[k]!r}")
    command, _, sub = name.partition(" ")
    args = SimpleNamespace(command=command, format=form, func=func)
    if sub:
        args.oracle_cmd = sub
    for word in usage.split():
        option, _, metavar = word.strip("[]").partition("=")
        if option not in values and not word.startswith("["):
            raise InputError(f"{name} needs {option}")
        setattr(args, option[2:].replace("-", "_"),
                values.get(option, None if metavar else False))
    return args


def run(argv) -> int:
    """Runs one command line.  A handler returns its JSON payload, which is
    printed here, or None when it printed its answer itself; the exit code
    is 1 when the payload answers no (``accepted``, ``satisfied`` or
    ``exists`` false), else 0."""
    try:
        args = parse_args(argv)
        started = time.perf_counter()
        payload = args.func(args) or {}
        if payload:
            print(json.dumps(payload,
                             indent=2 if args.format == "pretty" else None))
    except (InputError, ArenaError, CostFunctionError, SemanticsError,
            StrategyError, BudgetExceeded) as exc:
        print(f"dyncong: {exc}", file=sys.stderr)
        return EXIT_BUDGET if isinstance(exc, BudgetExceeded) else EXIT_INPUT
    except HelpShown:
        return EXIT_OK
    elapsed = (time.perf_counter() - started) * 1000
    print(f"[dyncong] {args.command}: {elapsed:.1f} ms", file=sys.stderr)
    no = any(payload.get(key) is False
             for key in ("accepted", "satisfied", "exists"))
    return EXIT_NO if no else EXIT_OK


def main() -> None:
    sys.exit(run(sys.argv[1:]))
