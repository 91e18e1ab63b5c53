import contextlib
import copy
import io
import json
import os
import subprocess
import sys
import tempfile
import time

import pytest
from hypothesis import given, settings, strategies as st

from dyncong import cli
from dyncong.arena import build_arena, serialize_arena
from dyncong.costfn import constant
from dyncong.cli import run

from corpus import fig1_arena, fig5_arena, grid_arena


@pytest.fixture()
def fig1_file(tmp_path):
    path = tmp_path / "fig1.json"
    path.write_text(serialize_arena(fig1_arena()))
    return str(path)


@pytest.fixture()
def fig5_file(tmp_path):
    path = tmp_path / "fig5.json"
    path.write_text(serialize_arena(fig5_arena()))
    return str(path)


@pytest.fixture()
def grid3_file(tmp_path):
    path = tmp_path / "grid3.json"
    path.write_text(serialize_arena(grid_arena(3)))
    return str(path)


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    payload = json.loads(captured.out) if captured.out.strip() else None
    return code, payload


def test_validate_ok(capsys, fig1_file):
    code, payload = invoke(capsys, "validate", "--arena", fig1_file)
    assert code == 0
    assert payload["ok"] is True


def test_validate_broken_arena(capsys, tmp_path):
    broken = tmp_path / "broken.json"
    broken.write_text("{\"states\": []}")
    code, payload = invoke(capsys, "validate", "--arena", str(broken))
    assert code == 2
    assert payload is None


def test_so(capsys, fig1_file):
    code, payload = invoke(
        capsys, "so", "--arena", fig1_file, "--players", "2"
    )
    assert code == 0
    assert payload["cost"] == 22
    assert payload["witness"]["steps"]


def test_so_bound_unsatisfied(capsys, fig1_file):
    code, payload = invoke(
        capsys, "so", "--arena", fig1_file, "--players", "2", "--bound", "21"
    )
    assert code == 1
    assert payload["satisfied"] is False


def test_blind_ne(capsys, fig5_file):
    code, payload = invoke(
        capsys, "blind-ne", "--arena", fig5_file, "--players", "3"
    )
    assert code == 0
    assert payload["social"] > 36


def test_eval_profile(capsys, tmp_path, fig1_file):
    profile = {
        "profile": [
            [["src", "v1"], ["v1", "v3"], ["v3", "tgt"]],
            [["src", "v1"], ["v1", "v2"], ["v2", "v3"], ["v3", "tgt"]],
        ]
    }
    pfile = tmp_path / "profile.json"
    pfile.write_text(json.dumps(profile))
    code, payload = invoke(
        capsys,
        "eval",
        "--arena",
        fig1_file,
        "--players",
        "2",
        "--profile",
        str(pfile),
    )
    assert code == 0
    assert payload["costs"] == [9, 13]
    assert payload["potential"] == 21
    assert payload["is_blind_ne"] is True


def test_values(capsys, fig1_file):
    code, payload = invoke(
        capsys, "values", "--arena", fig1_file, "--players", "2"
    )
    assert code == 0
    by_key = {
        (e["state"], tuple(sorted(e["coalition"].items()))): e["value"]
        for e in payload["values"]
    }
    assert by_key[("v3", (("v3", 1),))] == 8
    assert by_key[("src", (("src", 1),))] == 13


def test_ne_best_and_bound(capsys, fig5_file):
    code, payload = invoke(
        capsys, "ne", "--arena", fig5_file, "--players", "3", "--best"
    )
    assert code == 0
    assert payload["cost"] == 36
    code, payload = invoke(
        capsys,
        "ne",
        "--arena",
        fig5_file,
        "--players",
        "3",
        "--bound",
        "35",
    )
    assert code == 1
    assert payload["satisfied"] is False


def test_ne_gamma_conflict(capsys, fig5_file):
    code, _ = invoke(
        capsys, "ne", "--arena", fig5_file, "--players", "3",
        "--best", "--worst",
    )
    assert code == 2


def test_check_ne(capsys, tmp_path, fig1_file):
    code, payload = invoke(
        capsys, "so", "--arena", fig1_file, "--players", "2"
    )
    outcome = tmp_path / "outcome.json"
    outcome.write_text(json.dumps(payload["witness"]))
    code, payload = invoke(
        capsys,
        "check-ne",
        "--arena",
        fig1_file,
        "--players",
        "2",
        "--outcome",
        str(outcome),
    )
    assert code == 0
    assert payload["accepted"] is True


def test_spe_exists_and_gamma(capsys, fig1_file, tmp_path):
    code, payload = invoke(
        capsys, "spe", "--arena", fig1_file, "--players", "2", "--exists"
    )
    assert code == 0
    assert payload["exists"] is True
    dump = tmp_path / "lambda.json"
    code, payload = invoke(
        capsys,
        "spe",
        "--arena",
        fig1_file,
        "--players",
        "2",
        "--best",
        "--dump-lambda",
        str(dump),
    )
    assert code == 0
    assert payload["cost"] <= 22
    table = json.loads(dump.read_text())
    assert table["lambda"]


@pytest.mark.parametrize(
    "flags", [("--bound", "0"), ("--gamma", "1,1"), ("--best",),
              ("--bound", "0", "--worst")],
    ids=["bound", "gamma", "best", "bound-worst"],
)
def test_spe_exists_rejects_objective_flags(capsys, fig1_file, flags):
    # ``--exists`` answers yes or no for any SPE; an objective or a bound
    # given with it would be ignored, so the command refuses them.
    code, out, err = invoke_raw(
        capsys, "spe", "--arena", fig1_file, "--players", "2", "--exists", *flags
    )
    assert code == 2
    assert out == ""
    assert err.startswith("dyncong: --exists and ") and err.count("\n") == 1
    assert "mutually exclusive" in err


@pytest.mark.parametrize("where", ["directory", "missing-parent", "empty"])
def test_spe_dump_lambda_unwritable(capsys, fig1_file, tmp_path, where):
    # An empty path is a path that cannot be written, not an absent flag.
    dump = {"directory": tmp_path, "empty": "",
            "missing-parent": tmp_path / "absent" / "x.json"}[where]
    code, out, err = invoke_raw(
        capsys, "spe", "--arena", fig1_file, "--players", "2", "--exists",
        "--dump-lambda", str(dump),
    )
    assert code == 2
    assert out == ""
    assert err.startswith("dyncong: cannot write ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "flags", [("--best", "--worst"), ("--gamma", "1,x"), ("--gamma", "1")],
    ids=["best-worst", "gamma-not-integers", "gamma-too-short"],
)
def test_spe_rejects_bad_objective_before_any_work(capsys, monkeypatch,
                                                   fig1_file, tmp_path, flags):
    # The objective flags are checked before the label fixpoint runs, so
    # a bad one exits 2 and leaves no ``--dump-lambda`` file behind.
    def no_fixpoint(game):
        raise AssertionError("compute_lambda ran before the flags were checked")

    monkeypatch.setattr("dyncong.spe.compute_lambda", no_fixpoint)
    dump = tmp_path / "lambda.json"
    code, out, err = invoke_raw(
        capsys, "spe", "--arena", fig1_file, "--players", "2", *flags,
        "--dump-lambda", str(dump),
    )
    assert code == 2
    assert out == ""
    assert err.startswith("dyncong: ") and err.count("\n") == 1
    assert not dump.exists()


def test_check_spe(capsys, tmp_path, fig1_file):
    code, payload = invoke(
        capsys, "spe", "--arena", fig1_file, "--players", "2", "--best"
    )
    outcome = tmp_path / "outcome.json"
    outcome.write_text(json.dumps(payload["witness"]))
    code, payload = invoke(
        capsys,
        "check-spe",
        "--arena",
        fig1_file,
        "--players",
        "2",
        "--outcome",
        str(outcome),
    )
    assert code == 0
    assert payload["accepted"] is True


def test_poa_pos_functions():
    from fractions import Fraction

    from dyncong.arena import Game
    from dyncong import poa, pos

    from corpus import zero_cost_arena

    game = Game(fig1_arena(), 2)
    assert pos(game) == Fraction(1)
    assert poa(game) == Fraction(1)
    zero = Game(zero_cost_arena(), 2)
    assert pos(zero) == Fraction(1) and poa(zero) == Fraction(1)


def test_poa_pos_fig1(capsys, fig1_file):
    code, payload = invoke(
        capsys, "poa", "--arena", fig1_file, "--players", "2"
    )
    assert code == 0
    assert payload["ratio"] == {"num": 1, "den": 1}
    code, payload = invoke(
        capsys, "pos", "--arena", fig1_file, "--players", "2"
    )
    assert code == 0
    assert payload["ratio"] == {"num": 1, "den": 1}
    assert payload["decimal"] == 1.0


def test_oracle_subcommands(capsys, fig1_file):
    code, payload = invoke(
        capsys,
        "oracle",
        "so",
        "--arena",
        fig1_file,
        "--players",
        "2",
        "--max-steps",
        "10",
    )
    assert code == 0
    assert payload["cost"] == 22
    code, payload = invoke(capsys, "oracle", "gen-partition", "--family", "1,1")
    assert code == 0
    assert payload["players"] == 6
    assert payload["threshold"] == 39


def test_budget_abort(capsys, fig5_file, monkeypatch):
    monkeypatch.setenv("DYNCONG_NODE_BUDGET", "3")
    code, payload = invoke(
        capsys, "values", "--arena", fig5_file, "--players", "3"
    )
    assert code == 3
    assert payload is None


def test_blind_ne_stops_at_the_node_budget(capsys, tmp_path, monkeypatch):
    # Each improvement scan counts n * (horizon + 1) * |V| layered nodes
    # against the budget; grid6 n=64 ran its best responses for over 1 s.
    arena = tmp_path / "grid6.json"
    arena.write_text(serialize_arena(grid_arena(6)))
    monkeypatch.setenv("DYNCONG_NODE_BUDGET", "10000")
    started = time.perf_counter()
    answer = invoke_raw(capsys, "blind-ne", "--arena", str(arena),
                        "--players", "64")
    assert time.perf_counter() - started < 1
    assert answer == (3, "", "dyncong: blind-NE best responses above node budget\n")


# The child caps its own address space, so a list that outgrows the budget
# ends in MemoryError tracebacks (exit 1) there instead of filling the
# machine, and exits 99 when the command takes a second or more.
_CAPPED_CHILD = """
import resource, sys, time
cap = 1 << 30
resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
from dyncong.cli import run
started = time.perf_counter()
code = run(sys.argv[1:])
sys.exit(code if time.perf_counter() - started < 1 else 99)
"""


def _run_capped(*argv):
    """``run(argv)`` in a child under ``_CAPPED_CHILD``, default budget."""
    from pathlib import Path

    env = dict(os.environ)
    env.pop("DYNCONG_NODE_BUDGET", None)
    env["PYTHONPATH"] = str(Path(cli.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, "-c", _CAPPED_CHILD, *argv],
                          capture_output=True, text=True, env=env, timeout=60)


def test_so_on_crowded_partition_gadget_exits_on_budget(tmp_path):
    # Family (1, ..., 8) gives 52 players, whose first step from src has
    # C(59, 7), about 3.4e8, compositions over its 8 out-edges: more than
    # the default budget of 10**7, so the options list is never built.
    from dyncong.oracle import gen_partition_arena

    game, _ = gen_partition_arena(range(1, 9))
    assert game.n == 52
    arena = tmp_path / "partition.json"
    arena.write_text(serialize_arena(game.arena))
    proc = _run_capped("so", "--arena", str(arena), "--players", "52")
    assert proc.returncode == 3, proc.stderr[-2000:]
    assert proc.stdout == ""
    assert proc.stderr == (
        "dyncong: social-optimum step options exceeded 10000000 entries\n"
    )


@pytest.mark.parametrize("command", [
    ["so"], ["blind-ne"], ["values"], ["ne", "--best"], ["spe", "--best"],
])
def test_huge_player_count_exits_on_budget(fig1_file, command):
    # 10**20 players times fig1's edges is past the default budget, so the
    # game's cost tables are refused before any per-player tuple is built:
    # no OverflowError, MemoryError or endless search.
    proc = _run_capped(*command, "--arena", fig1_file,
                       "--players", str(10 ** 20))
    assert (proc.returncode, proc.stdout) == (3, ""), proc.stderr[-2000:]
    assert proc.stderr == "dyncong: game cost tables above node budget\n"


def _fan_arena_file(tmp_path, width):
    """A source with ``width`` out-edges, each to its own state and on to
    the target, every edge of cost 1."""
    middle = [f"m{k}" for k in range(width)]
    arena = build_arena(
        ["src", *middle, "tgt"],
        [("src", m, constant(1)) for m in middle]
        + [(m, "tgt", constant(1)) for m in middle],
        "src", "tgt")
    path = tmp_path / f"fan{width}.json"
    path.write_text(serialize_arena(arena))
    return str(path)


@pytest.mark.parametrize("command, players, budget", [
    ("values", 8, 200_000), ("poa", 6, 20_100),
])
def test_value_table_moves_stay_under_the_node_budget(
        capsys, tmp_path, monkeypatch, command, players, budget):
    # On an 8-way fan, 8 players give 114,400 value states, under the
    # budget, and 245,157 coalition moves, over it (12 players: 13,037,895,
    # a MemoryError under a 2 GB address-space cap); 6 players give 20,020
    # and 20,349.  ``poa`` runs with 6, because past a table it would list
    # the 8**8 joint steps of the source.
    monkeypatch.setenv("DYNCONG_NODE_BUDGET", str(budget))
    answer = invoke_raw(capsys, command, "--arena", _fan_arena_file(tmp_path, 8),
                        "--players", str(players))
    assert answer == (3, "", "dyncong: value-table moves above node budget\n")


@pytest.mark.parametrize("command", [["so"], ["so", "--bound", "2"], ["pos"]],
                         ids=["so", "so-bound", "pos"])
def test_wide_fan_needs_no_deep_recursion(capsys, tmp_path, command):
    # One player over 1,100 out-edges: the enumeration of their compositions
    # once recursed once per edge, a RecursionError past Python's limit.
    code, payload = invoke(capsys, *command, "--arena",
                           _fan_arena_file(tmp_path, 1100), "--players", "1")
    assert code == 0
    cost = payload["best_ne"] if command == ["pos"] else payload["cost"]
    assert cost == 2
    if command == ["pos"]:
        assert payload["social_optimum"] == 2


@pytest.mark.parametrize("query", [
    ["ne-outcomes", "--max-steps", "3000"],
    ["br", "--player", "1", "--max-len", "3000"],
    ["values", "--horizon", "3000"],
], ids=["ne-outcomes", "br", "values"])
def test_deep_oracle_recursion_gets_one_line(capsys, tmp_path, query):
    # The wait loop comes first, so the brute-force searches recurse once
    # per step of a 3,000-step play.
    arena = tmp_path / "loop.json"
    arena.write_text(serialize_arena(build_arena(
        ["s", "t"], [("s", "s", constant(1)), ("s", "t", constant(1))],
        "s", "t")))
    profile = tmp_path / "profile.json"
    profile.write_text(json.dumps({"profile": [[["s", "t"]]]}))
    extra = ["--profile", str(profile)] if query[0] == "br" else []
    answer = invoke_raw(capsys, "oracle", *query, *extra, "--arena",
                        str(arena), "--players", "1")
    assert answer == (3, "", f"dyncong: oracle {query[0]} recursed past "
                      "Python's depth limit\n")


@pytest.mark.parametrize("raw", ["abc", "1.5", "-5", "0"])
def test_malformed_node_budget(capsys, fig5_file, monkeypatch, raw):
    # Not an integer >= 1: an input error, not a traceback or a budget abort.
    monkeypatch.setenv("DYNCONG_NODE_BUDGET", raw)
    code, out, err = invoke_raw(
        capsys, "values", "--arena", fig5_file, "--players", "3"
    )
    assert (code, out) == (2, "")
    assert err == f"dyncong: DYNCONG_NODE_BUDGET must be an integer >= 1, not {raw!r}\n"


def test_deterministic_output(capsys, fig1_file):
    _, first = invoke(capsys, "ne", "--arena", fig1_file, "--players", "2")
    _, second = invoke(capsys, "ne", "--arena", fig1_file, "--players", "2")
    assert first == second


def test_pretty_format(capsys, fig1_file):
    code = run(
        ["--format", "pretty", "so", "--arena", fig1_file, "--players", "1"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("{\n")


def invoke_raw(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# Stdout of plain Dijkstra over the Parikh abstraction; the A* tie-break
# rules of the social-optimum search must reproduce these bytes.
SO_FIG1_N2 = (
    '{"command": "so", "cost": 22, "witness": {"steps": ['
    '{"moves": [["src", "v1"], ["src", "v1"]], "weights": [2, 2], "config": ["v1", "v1"]}, '
    '{"moves": [["v1", "v2"], ["v1", "v3"]], "weights": [6, 3], "config": ["v2", "v3"]}, '
    '{"moves": [["v2", "v3"], ["v3", "tgt"]], "weights": [1, 4], "config": ["v3", "tgt"]}, '
    '{"moves": [["v3", "tgt"], ["tgt", "tgt"]], "weights": [4, 0], "config": ["tgt", "tgt"]}'
    ']}}\n'
)
SO_FIG5_N5 = (
    '{"command": "so", "cost": 86, "witness": {"steps": ['
    '{"moves": [["q0", "q1"], ["q0", "q1"], ["q0", "q1"], ["q0", "q4"], ["q0", "q4"]], "weights": [6, 6, 6, 6, 6], "config": ["q1", "q1", "q1", "q4", "q4"]}, '
    '{"moves": [["q1", "q2"], ["q1", "q2"], ["q1", "q2"], ["q4", "q5"], ["q4", "q5"]], "weights": [3, 3, 3, 2, 2], "config": ["q2", "q2", "q2", "q5", "q5"]}, '
    '{"moves": [["q2", "q3"], ["q2", "q3"], ["q2", "q6"], ["q5", "q6"], ["q5", "q6"]], "weights": [3, 3, 3, 4, 4], "config": ["q3", "q3", "q6", "q6", "q6"]}, '
    '{"moves": [["q3", "q7"], ["q3", "q7"], ["q6", "q7"], ["q6", "q7"], ["q6", "q7"]], "weights": [4, 4, 6, 6, 6], "config": ["q7", "q7", "q7", "q7", "q7"]}'
    ']}}\n'
)


def test_so_stdout_bytes_pinned(capsys, fig1_file, fig5_file):
    assert invoke_raw(capsys, "so", "--arena", fig1_file, "--players", "2")[:2] == (
        0, SO_FIG1_N2
    )
    assert invoke_raw(capsys, "so", "--arena", fig5_file, "--players", "5")[:2] == (
        0, SO_FIG5_N5
    )


def test_so_bound_stdout_bytes_pinned(capsys, fig5_file):
    satisfied = SO_FIG5_N5.replace('"so", ', '"so", "satisfied": true, ', 1)
    for bound in ("86", "89"):
        code, out, _ = invoke_raw(
            capsys, "so", "--arena", fig5_file, "--players", "5", "--bound", bound
        )
        assert (code, out) == (0, satisfied)
    code, out, _ = invoke_raw(
        capsys, "so", "--arena", fig5_file, "--players", "5", "--bound", "85"
    )
    assert (code, out) == (1, '{"command": "so", "satisfied": false}\n')


# Stdout of the Nash commands before the ordered value solver and the
# one-search ratios; both must leave these bytes unchanged.
VALUES_FIG1_N2 = (
    '{"command": "values", "values": [{"state": "src", "coalition": {"tgt": 1}, "value": 8}, '
    '{"state": "src", "coalition": {"v3": 1}, "value": 8}, '
    '{"state": "src", "coalition": {"v2": 1}, "value": 8}, '
    '{"state": "src", "coalition": {"v1": 1}, "value": 12}, '
    '{"state": "src", "coalition": {"src": 1}, "value": 13}, '
    '{"state": "v1", "coalition": {"tgt": 1}, "value": 7}, '
    '{"state": "v1", "coalition": {"v3": 1}, "value": 7}, '
    '{"state": "v1", "coalition": {"v2": 1}, "value": 11}, '
    '{"state": "v1", "coalition": {"v1": 1}, "value": 11}, '
    '{"state": "v1", "coalition": {"src": 1}, "value": 7}, '
    '{"state": "v2", "coalition": {"tgt": 1}, "value": 5}, '
    '{"state": "v2", "coalition": {"v3": 1}, "value": 5}, '
    '{"state": "v2", "coalition": {"v2": 1}, "value": 10}, '
    '{"state": "v2", "coalition": {"v1": 1}, "value": 9}, '
    '{"state": "v2", "coalition": {"src": 1}, "value": 5}, '
    '{"state": "v3", "coalition": {"tgt": 1}, "value": 4}, '
    '{"state": "v3", "coalition": {"v3": 1}, "value": 8}, '
    '{"state": "v3", "coalition": {"v2": 1}, "value": 4}, '
    '{"state": "v3", "coalition": {"v1": 1}, "value": 4}, '
    '{"state": "v3", "coalition": {"src": 1}, "value": 4}, '
    '{"state": "tgt", "coalition": {"tgt": 1}, "value": 0}, '
    '{"state": "tgt", "coalition": {"v3": 1}, "value": 0}, '
    '{"state": "tgt", "coalition": {"v2": 1}, "value": 0}, '
    '{"state": "tgt", "coalition": {"v1": 1}, "value": 0}, '
    '{"state": "tgt", "coalition": {"src": 1}, "value": 0}]}\n'
)
NE_BEST_FIG5_N3 = (
    '{"command": "ne", "gamma": [1, 1, 1], "cost": 36, "social": 36, "witness": {"steps": [{"moves": [["q0", "q1"], ["q0", "q1"], ["q0", "q4"]], "weights": [4, 4, 3], "config": ["q1", "q1", "q4"]}, '
    '{"moves": [["q1", "q2"], ["q1", "q2"], ["q4", "q5"]], "weights": [3, 3, 1], "config": ["q2", "q2", "q5"]}, '
    '{"moves": [["q2", "q3"], ["q2", "q3"], ["q5", "q6"]], "weights": [3, 3, 2], "config": ["q3", "q3", "q6"]}, '
    '{"moves": [["q3", "q7"], ["q3", "q7"], ["q6", "q7"]], "weights": [4, 4, 2], "config": ["q7", "q7", "q7"]}]}}\n'
)
NE_WORST_FIG5_N3 = (
    '{"command": "ne", "gamma": [-1, -1, -1], "cost": -46, "social": 46, "witness": {"steps": [{"moves": [["q0", "q1"], ["q0", "q1"], ["q0", "q1"]], "weights": [6, 6, 6], "config": ["q1", "q1", "q1"]}, '
    '{"moves": [["q1", "q5"], ["q1", "q5"], ["q1", "q2"]], "weights": [2, 2, 3], "config": ["q5", "q5", "q2"]}, '
    '{"moves": [["q5", "q6"], ["q5", "q6"], ["q2", "q3"]], "weights": [4, 4, 3], "config": ["q6", "q6", "q3"]}, '
    '{"moves": [["q6", "q7"], ["q6", "q7"], ["q3", "q7"]], "weights": [4, 4, 2], "config": ["q7", "q7", "q7"]}]}}\n'
)
POA_FIG5_N3 = (
    '{"command": "poa", "social_optimum": 36, "worst_ne": 46, '
    '"ratio": {"num": 23, "den": 18}, "decimal": 1.2777777777777777}\n'
)
POS_FIG5_N3 = (
    '{"command": "pos", "social_optimum": 36, "best_ne": 36, '
    '"ratio": {"num": 1, "den": 1}, "decimal": 1.0}\n'
)


# On grid3 the best-equilibrium search skips most of the bound-augmented
# graph, so these pin the Nash answers of a game where it prunes.  Recorded
# before the on-demand searches replaced the full-graph ones.
NE_BEST_GRID3_N2 = (
    '{"command": "ne", "gamma": [1, 1], "cost": 19, "social": 19, "witness": {"steps": [{"moves": [["r0c0", "r0c1"], ["r0c0", "r0c0"]], "weights": [1, 1], "config": ["r0c1", "r0c0"]}, '
    '{"moves": [["r0c1", "r0c2"], ["r0c0", "r0c1"]], "weights": [1, 1], "config": ["r0c2", "r0c1"]}, '
    '{"moves": [["r0c2", "r1c2"], ["r0c1", "r0c2"]], "weights": [4, 1], "config": ["r1c2", "r0c2"]}, '
    '{"moves": [["r1c2", "r2c2"], ["r0c2", "r1c2"]], "weights": [3, 4], "config": ["r2c2", "r1c2"]}, '
    '{"moves": [["r2c2", "r2c2"], ["r1c2", "r2c2"]], "weights": [0, 3], "config": ["r2c2", "r2c2"]}]}}\n'
)
NE_WORST_GRID3_N2 = (
    '{"command": "ne", "gamma": [-1, -1], "cost": -22, "social": 22, "witness": {"steps": [{"moves": [["r0c0", "r0c1"], ["r0c0", "r0c1"]], "weights": [2, 2], "config": ["r0c1", "r0c1"]}, '
    '{"moves": [["r0c1", "r1c1"], ["r0c1", "r0c2"]], "weights": [4, 1], "config": ["r1c1", "r0c2"]}, '
    '{"moves": [["r1c1", "r1c2"], ["r0c2", "r1c2"]], "weights": [1, 4], "config": ["r1c2", "r1c2"]}, '
    '{"moves": [["r1c2", "r2c2"], ["r1c2", "r2c2"]], "weights": [4, 4], "config": ["r2c2", "r2c2"]}]}}\n'
)
NE_GAMMA21_GRID3_N2 = (
    '{"command": "ne", "gamma": [2, 1], "cost": 28, "social": 19, "witness": {"steps": [{"moves": [["r0c0", "r0c1"], ["r0c0", "r0c0"]], "weights": [1, 1], "config": ["r0c1", "r0c0"]}, '
    '{"moves": [["r0c1", "r0c2"], ["r0c0", "r0c1"]], "weights": [1, 1], "config": ["r0c2", "r0c1"]}, '
    '{"moves": [["r0c2", "r1c2"], ["r0c1", "r0c2"]], "weights": [4, 1], "config": ["r1c2", "r0c2"]}, '
    '{"moves": [["r1c2", "r2c2"], ["r0c2", "r1c2"]], "weights": [3, 4], "config": ["r2c2", "r1c2"]}, '
    '{"moves": [["r2c2", "r2c2"], ["r1c2", "r2c2"]], "weights": [0, 3], "config": ["r2c2", "r2c2"]}]}}\n'
)
NE_GAMMA1M1_GRID3_N2 = (
    '{"command": "ne", "gamma": [1, -1], "cost": -2, "social": 20, "witness": {"steps": [{"moves": [["r0c0", "r0c1"], ["r0c0", "r0c0"]], "weights": [1, 1], "config": ["r0c1", "r0c0"]}, '
    '{"moves": [["r0c1", "r0c2"], ["r0c0", "r0c1"]], "weights": [1, 1], "config": ["r0c2", "r0c1"]}, '
    '{"moves": [["r0c2", "r1c2"], ["r0c1", "r0c1"]], "weights": [4, 1], "config": ["r1c2", "r0c1"]}, '
    '{"moves": [["r1c2", "r2c2"], ["r0c1", "r1c1"]], "weights": [3, 4], "config": ["r2c2", "r1c1"]}, '
    '{"moves": [["r2c2", "r2c2"], ["r1c1", "r1c2"]], "weights": [0, 1], "config": ["r2c2", "r1c2"]}, '
    '{"moves": [["r2c2", "r2c2"], ["r1c2", "r2c2"]], "weights": [0, 3], "config": ["r2c2", "r2c2"]}]}}\n'
)
POA_GRID3_N2 = (
    '{"command": "poa", "social_optimum": 19, "worst_ne": 22, "ratio": {"num": 22, "den": 19}, "decimal": 1.1578947368421053}\n'
)
POS_GRID3_N2 = (
    '{"command": "pos", "social_optimum": 19, "best_ne": 19, "ratio": {"num": 1, "den": 1}, "decimal": 1.0}\n'
)


def test_nash_stdout_bytes_pinned(capsys, tmp_path, fig1_file, fig5_file,
                                  grid3_file):
    game5 = ("--arena", fig5_file, "--players", "3")
    assert invoke_raw(capsys, "values", "--arena", fig1_file, "--players", "2")[:2] == (
        0, VALUES_FIG1_N2
    )
    assert invoke_raw(capsys, "ne", "--best", *game5)[:2] == (0, NE_BEST_FIG5_N3)
    assert invoke_raw(capsys, "ne", "--worst", *game5)[:2] == (0, NE_WORST_FIG5_N3)
    assert invoke_raw(capsys, "poa", *game5)[:2] == (0, POA_FIG5_N3)
    assert invoke_raw(capsys, "pos", *game5)[:2] == (0, POS_FIG5_N3)
    outcome = _write_outcome(tmp_path, json.loads(NE_BEST_FIG5_N3)["witness"])
    assert invoke_raw(capsys, "check-ne", *game5, "--outcome", outcome)[:2] == (
        0, '{"command": "check-ne", "accepted": true}\n'
    )
    grid3 = ("--arena", grid3_file, "--players", "2")
    for flags, out in [
        (("ne", "--best"), NE_BEST_GRID3_N2),
        (("ne", "--worst"), NE_WORST_GRID3_N2),
        (("ne", "--gamma", "2,1"), NE_GAMMA21_GRID3_N2),
        (("ne", "--gamma", "1,-1"), NE_GAMMA1M1_GRID3_N2),
        (("poa",), POA_GRID3_N2),
        (("pos",), POS_GRID3_N2),
    ]:
        assert invoke_raw(capsys, *flags, *grid3)[:2] == (0, out), flags
    outcome = _write_outcome(tmp_path, json.loads(NE_BEST_GRID3_N2)["witness"])
    assert invoke_raw(capsys, "check-ne", *grid3, "--outcome", outcome)[:2] == (
        0, '{"command": "check-ne", "accepted": true}\n'
    )


# Stdout of the bench's grid4 ratio and worst-NE queries and of its fig5 value
# table, recorded before PoA became an A* search under a bound-aware
# heuristic and the coalition move table stopped costing distributions.
# The mixed-gamma grid4 lines were recorded before Bellman-Ford scanned only
# the nodes whose distance fell.  The 470,094-byte ``values`` line is pinned by its SHA-256 digest.
POA_GRID4_N2 = (
    '{"command": "poa", "social_optimum": 23, "worst_ne": 27, "ratio": {"num": 27, "den": 23}, "decimal": 1.173913043478261}\n'
)
POS_GRID4_N2 = (
    '{"command": "pos", "social_optimum": 23, "best_ne": 23, "ratio": {"num": 1, "den": 1}, "decimal": 1.0}\n'
)
NE_WORST_GRID4_N2 = (
    '{"command": "ne", "gamma": [-1, -1], "cost": -27, "social": 27, "witness": {"steps": [{"moves": [["r0c0", "r1c0"], ["r0c0", "r1c0"]], "weights": [4, 4], "config": ["r1c0", "r1c0"]}, '
    '{"moves": [["r1c0", "r2c0"], ["r1c0", "r1c0"]], "weights": [2, 1], "config": ["r2c0", "r1c0"]}, '
    '{"moves": [["r2c0", "r3c0"], ["r1c0", "r2c0"]], "weights": [1, 2], "config": ["r3c0", "r2c0"]}, '
    '{"moves": [["r3c0", "r3c1"], ["r2c0", "r3c0"]], "weights": [1, 1], "config": ["r3c1", "r3c0"]}, '
    '{"moves": [["r3c1", "r3c2"], ["r3c0", "r3c1"]], "weights": [2, 1], "config": ["r3c2", "r3c1"]}, '
    '{"moves": [["r3c2", "r3c3"], ["r3c1", "r3c2"]], "weights": [3, 2], "config": ["r3c3", "r3c2"]}, '
    '{"moves": [["r3c3", "r3c3"], ["r3c2", "r3c3"]], "weights": [0, 3], "config": ["r3c3", "r3c3"]}]}}\n'
)
NE_GAMMA1M1_GRID4_N2 = (
    '{"command": "ne", "gamma": [1, -1], "cost": -3, "social": 25, "witness": {"steps": [{"moves": [["r0c0", "r1c0"], ["r0c0", "r0c0"]], "weights": [2, 1], "config": ["r1c0", "r0c0"]}, '
    '{"moves": [["r1c0", "r2c0"], ["r0c0", "r0c1"]], "weights": [2, 1], "config": ["r2c0", "r0c1"]}, '
    '{"moves": [["r2c0", "r3c0"], ["r0c1", "r1c1"]], "weights": [1, 3], "config": ["r3c0", "r1c1"]}, '
    '{"moves": [["r3c0", "r3c1"], ["r1c1", "r1c2"]], "weights": [1, 1], "config": ["r3c1", "r1c2"]}, '
    '{"moves": [["r3c1", "r3c2"], ["r1c2", "r1c3"]], "weights": [2, 1], "config": ["r3c2", "r1c3"]}, '
    '{"moves": [["r3c2", "r3c3"], ["r1c3", "r2c3"]], "weights": [3, 3], "config": ["r3c3", "r2c3"]}, '
    '{"moves": [["r3c3", "r3c3"], ["r2c3", "r3c3"]], "weights": [0, 4], "config": ["r3c3", "r3c3"]}]}}\n'
)
NE_GAMMAM11_GRID4_N2 = (
    '{"command": "ne", "gamma": [-1, 1], "cost": -3, "social": 25, "witness": {"steps": [{"moves": [["r0c0", "r0c0"], ["r0c0", "r1c0"]], "weights": [1, 2], "config": ["r0c0", "r1c0"]}, '
    '{"moves": [["r0c0", "r0c1"], ["r1c0", "r2c0"]], "weights": [1, 2], "config": ["r0c1", "r2c0"]}, '
    '{"moves": [["r0c1", "r1c1"], ["r2c0", "r3c0"]], "weights": [3, 1], "config": ["r1c1", "r3c0"]}, '
    '{"moves": [["r1c1", "r1c2"], ["r3c0", "r3c1"]], "weights": [1, 1], "config": ["r1c2", "r3c1"]}, '
    '{"moves": [["r1c2", "r2c2"], ["r3c1", "r3c2"]], "weights": [2, 2], "config": ["r2c2", "r3c2"]}, '
    '{"moves": [["r2c2", "r3c2"], ["r3c2", "r3c3"]], "weights": [3, 3], "config": ["r3c2", "r3c3"]}, '
    '{"moves": [["r3c2", "r3c3"], ["r3c3", "r3c3"]], "weights": [3, 0], "config": ["r3c3", "r3c3"]}]}}\n'
)
VALUES_FIG5_N6_SHA256 = "2e42b87083e69b551220a3a902f2aff5958ab53ed45a9d5b79be027aa068d888"  # 470094 bytes


def test_bench_nash_stdout_bytes_pinned(capsys, tmp_path, fig5_file):
    import hashlib

    grid4 = tmp_path / "grid4.json"
    grid4.write_text(serialize_arena(grid_arena(4)))
    game = ("--arena", str(grid4), "--players", "2")
    for flags, out in [
        (("poa",), POA_GRID4_N2),
        (("pos",), POS_GRID4_N2),
        (("ne", "--worst"), NE_WORST_GRID4_N2),
        (("ne", "--gamma", "1,-1"), NE_GAMMA1M1_GRID4_N2),
        (("ne", "--gamma=-1,1"), NE_GAMMAM11_GRID4_N2),
    ]:
        assert invoke_raw(capsys, *flags, *game)[:2] == (0, out), flags
    # The same grid with its states and edges declared in reverse order
    # numbers the configurations, and so the Bellman-Ford sweep, differently.
    data = json.loads(grid4.read_text())
    data["states"].reverse()
    data["edges"].reverse()
    reversed_grid4 = tmp_path / "grid4_reversed.json"
    reversed_grid4.write_text(json.dumps(data))
    assert invoke_raw(capsys, "ne", "--worst", "--arena", str(reversed_grid4),
                      "--players", "2")[:2] == (0, NE_WORST_GRID4_N2)
    code, out, _ = invoke_raw(capsys, "values", "--arena", fig5_file, "--players", "6")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == VALUES_FIG5_N6_SHA256


def test_gamma_with_a_negative_first_weight(capsys, tmp_path):
    # A value option takes the next word whatever it starts with, so a
    # separate gamma value with a negative first weight prints what the "="
    # form prints.
    grid4 = tmp_path / "grid4.json"
    grid4.write_text(serialize_arena(grid_arena(4)))
    game = ("--arena", str(grid4), "--players", "2")
    assert invoke_raw(capsys, "ne", "--gamma", "-1,1", *game)[:2] == (
        0, NE_GAMMAM11_GRID4_N2
    )
    glued = invoke_raw(capsys, "spe", "--gamma=-1,1", *game)[:2]
    assert glued[0] == 0 and glued[1].startswith('{"command": "spe"')
    assert invoke_raw(capsys, "spe", *game, "--gamma", "-1,1")[:2] == glued



def test_gamma_abbreviations_with_a_negative_first_weight(capsys, tmp_path):
    # Every prefix of --gamma from --g on is unique among the options of ne
    # and spe; each must take a negative first weight as a separate value,
    # as --gamma does.
    grid4 = tmp_path / "grid4.json"
    grid4.write_text(serialize_arena(grid_arena(4)))
    game = ("--arena", str(grid4), "--players", "2")
    positive = invoke_raw(capsys, "ne", "--gamma", "1,-1", *game)[:2]
    assert positive == (0, NE_GAMMA1M1_GRID4_N2)
    glued = invoke_raw(capsys, "spe", "--gamma=-1,1", *game)[:2]
    for prefix in ("--g", "--ga", "--gam", "--gamm"):
        assert invoke_raw(capsys, "ne", prefix, "1,-1", *game)[:2] == positive
        assert invoke_raw(capsys, "ne", prefix, "-1,1", *game)[:2] == (
            0, NE_GAMMAM11_GRID4_N2
        ), prefix
        assert invoke_raw(capsys, "spe", *game, prefix, "-1,1")[:2] == glued


def test_missing_edge_is_named_by_state_names(capsys, tmp_path):
    # Both players jump from the source straight to the target of grid4,
    # an edge the arena lacks; the message names it as the file does.
    grid4 = tmp_path / "grid4.json"
    grid4.write_text(serialize_arena(grid_arena(4)))
    outcome = tmp_path / "jump.json"
    outcome.write_text(json.dumps({"steps": [{
        "moves": [["r0c0", "r3c3"], ["r0c0", "r3c3"]],
        "weights": [1, 1],
        "config": ["r3c3", "r3c3"],
    }]}))
    for command in ("check-ne", "check-spe"):
        code, out, err = invoke_raw(capsys, command, "--arena", str(grid4),
                                    "--players", "2", "--outcome", str(outcome))
        assert (code, out) == (2, "")
        assert err == "dyncong: no edge r0c0 -> r3c3 in the arena\n", command


# ``values --format pretty`` on fig5 with 3 players, 288 entries.
VALUES_PRETTY_FIG5_N3_SHA256 = (
    "a13470659eac3503f1939144d98645b2baea0e18c8a41c223875404b0466bc50"  # 31809 bytes
)


def test_values_print_in_chunks_byte_for_byte(capsys, fig5_file):
    import hashlib

    code, out, _ = invoke_raw(capsys, "--format", "pretty", "values",
                              "--arena", fig5_file, "--players", "3")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == VALUES_PRETTY_FIG5_N3_SHA256
    # Six players give 6,336 entries, so six chunk seams; the json bytes
    # are pinned by VALUES_FIG5_N6_SHA256, and the pretty ones must be what
    # one dump of the whole payload prints.
    code, out, _ = invoke_raw(capsys, "--format", "pretty", "values",
                              "--arena", fig5_file, "--players", "6")
    payload = json.loads(out)
    assert code == 0 and len(payload["values"]) > 5 * 1024
    assert out == json.dumps(payload, indent=2) + "\n"


def test_oracle_values_print_infinite_entries(capsys, fig1_file):
    # A one-step horizon leaves "+inf" where the player cannot be sure to
    # arrive in one step; in both formats the text-piece print must equal
    # one dump of the payload.
    for fmt, indent in (("json", None), ("pretty", 2)):
        code, out, _ = invoke_raw(capsys, "--format", fmt, "oracle", "values",
                                  "--arena", fig1_file, "--players", "2",
                                  "--horizon", "1")
        payload = json.loads(out)
        assert code == 0 and "+inf" in [e["value"] for e in payload["values"]]
        assert out == json.dumps(payload, indent=indent) + "\n", fmt


# Stdout of the routing commands before best responses became A* searches
# over per-call layer weights; the search must leave these bytes unchanged.
# The long grid4 ``eval`` line is pinned by its SHA-256 digest.
BLIND_NE_FIG1_N2 = (
    '{"command": "blind-ne", "profile": ['
    '[["src", "v1"], ["v1", "v2"], ["v2", "v3"], ["v3", "tgt"]], '
    '[["src", "v1"], ["v1", "v3"], ["v3", "tgt"]]], '
    '"costs": [13, 9], "social": 22, "potential": 21, "improvement_steps": 1}\n'
)
EVAL_FIG1_N2 = (
    '{"command": "eval", "costs": [13, 9], "social": 22, "potential": 21, "is_blind_ne": true, '
    '"outcome": {"steps": ['
    '{"moves": [["src", "v1"], ["src", "v1"]], "weights": [2, 2], "config": ["v1", "v1"]}, '
    '{"moves": [["v1", "v2"], ["v1", "v3"]], "weights": [6, 3], "config": ["v2", "v3"]}, '
    '{"moves": [["v2", "v3"], ["v3", "tgt"]], "weights": [1, 4], "config": ["v3", "tgt"]}, '
    '{"moves": [["v3", "tgt"], ["tgt", "tgt"]], "weights": [4, 0], "config": ["tgt", "tgt"]}]}}\n'
)
BLIND_NE_FIG5_N3 = (
    '{"command": "blind-ne", "profile": ['
    '[["q0", "q1"], ["q1", "q2"], ["q2", "q3"], ["q3", "q7"]], '
    '[["q0", "q4"], ["q4", "q5"], ["q5", "q6"], ["q6", "q7"]], '
    '[["q0", "q1"], ["q1", "q5"], ["q5", "q6"], ["q6", "q7"]]], '
    '"costs": [12, 12, 13], "social": 37, "potential": 31, "improvement_steps": 2}\n'
)
EVAL_FIG5_N3 = (
    '{"command": "eval", "costs": [12, 12, 13], "social": 37, "potential": 31, "is_blind_ne": true, '
    '"outcome": {"steps": ['
    '{"moves": [["q0", "q1"], ["q0", "q4"], ["q0", "q1"]], "weights": [4, 3, 4], "config": ["q1", "q4", "q1"]}, '
    '{"moves": [["q1", "q2"], ["q4", "q5"], ["q1", "q5"]], "weights": [3, 1, 1], "config": ["q2", "q5", "q5"]}, '
    '{"moves": [["q2", "q3"], ["q5", "q6"], ["q5", "q6"]], "weights": [3, 4, 4], "config": ["q3", "q6", "q6"]}, '
    '{"moves": [["q3", "q7"], ["q6", "q7"], ["q6", "q7"]], "weights": [2, 4, 4], "config": ["q7", "q7", "q7"]}]}}\n'
)
BLIND_NE_GRID4_N6 = (
    '{"command": "blind-ne", "profile": ['
    '[["r0c0", "r0c0"], ["r0c0", "r1c0"], ["r1c0", "r2c0"], ["r2c0", "r3c0"], ["r3c0", "r3c1"], ["r3c1", "r3c2"], ["r3c2", "r3c3"]], '
    '[["r0c0", "r0c1"], ["r0c1", "r0c2"], ["r0c2", "r1c2"], ["r1c2", "r1c3"], ["r1c3", "r2c3"], ["r2c3", "r3c3"]], '
    '[["r0c0", "r0c0"], ["r0c0", "r0c0"], ["r0c0", "r1c0"], ["r1c0", "r2c0"], ["r2c0", "r3c0"], ["r3c0", "r3c1"], ["r3c1", "r3c2"], ["r3c2", "r3c3"]], '
    '[["r0c0", "r0c0"], ["r0c0", "r0c1"], ["r0c1", "r0c2"], ["r0c2", "r1c2"], ["r1c2", "r1c3"], ["r1c3", "r2c3"], ["r2c3", "r3c3"]], '
    '[["r0c0", "r0c0"], ["r0c0", "r0c0"], ["r0c0", "r0c0"], ["r0c0", "r1c0"], ["r1c0", "r2c0"], ["r2c0", "r3c0"], ["r3c0", "r3c1"], ["r3c1", "r3c2"], ["r3c2", "r3c3"]], '
    '[["r0c0", "r1c0"], ["r1c0", "r2c0"], ["r2c0", "r3c0"], ["r3c0", "r3c1"], ["r3c1", "r3c2"], ["r3c2", "r3c3"]]], '
    '"costs": [12, 13, 13, 14, 14, 11], "social": 77, "potential": 77, "improvement_steps": 5}\n'
)
EVAL_GRID4_N6_SHA256 = "5d42424adbb516cd9017638830f53da0afef83844848231468f963200eea9fa2"  # 2039 bytes

ROUTING_PINS = [  # (arena, players, blind-ne stdout, eval stdout or its digest)
    ("fig1", 2, BLIND_NE_FIG1_N2, EVAL_FIG1_N2),
    ("fig5", 3, BLIND_NE_FIG5_N3, EVAL_FIG5_N3),
    ("grid4", 6, BLIND_NE_GRID4_N6, EVAL_GRID4_N6_SHA256),
]


@pytest.mark.parametrize("arena, players, blind, evaluated", ROUTING_PINS,
                         ids=["fig1-n2", "fig5-n3", "grid4-n6"])
def test_routing_stdout_bytes_pinned(capsys, tmp_path, fig1_file, fig5_file,
                                     arena, players, blind, evaluated):
    import hashlib

    files = {"fig1": fig1_file, "fig5": fig5_file, "grid4": tmp_path / "grid4.json"}
    files["grid4"].write_text(serialize_arena(grid_arena(4)))
    game = ("--arena", str(files[arena]), "--players", str(players))
    assert invoke_raw(capsys, "blind-ne", *game)[:2] == (0, blind)
    profile = tmp_path / "profile.json"
    profile.write_text(blind)
    code, out, _ = invoke_raw(capsys, "eval", *game, "--profile", str(profile))
    assert code == 0
    assert evaluated in (out, hashlib.sha256(out.encode()).hexdigest())


# Stdout of the SPE commands before the NE and SPE solvers shared their
# outcome check and witness search; both must leave these bytes unchanged.
# The ``--dump-lambda`` files are pinned by their SHA-256 digest.
SPE_BEST_W_FIG1_N2 = (
    '{"steps": ['
    '{"moves": [["src", "v1"], ["src", "v1"]], "weights": [2, 2], "config": ["v1", "v1"]}, '
    '{"moves": [["v1", "v2"], ["v1", "v3"]], "weights": [6, 3], "config": ["v2", "v3"]}, '
    '{"moves": [["v2", "v3"], ["v3", "tgt"]], "weights": [1, 4], "config": ["v3", "tgt"]}, '
    '{"moves": [["v3", "tgt"], ["tgt", "tgt"]], "weights": [4, 0], "config": ["tgt", "tgt"]}'
    ']}'
)
SPE_WORST_W_FIG1_N2 = (
    '{"steps": ['
    '{"moves": [["src", "v2"], ["src", "v1"]], "weights": [5, 1], "config": ["v2", "v1"]}, '
    '{"moves": [["v2", "v3"], ["v1", "v2"]], "weights": [1, 6], "config": ["v3", "v2"]}, '
    '{"moves": [["v3", "tgt"], ["v2", "v3"]], "weights": [4, 1], "config": ["tgt", "v3"]}, '
    '{"moves": [["tgt", "tgt"], ["v3", "tgt"]], "weights": [0, 4], "config": ["tgt", "tgt"]}'
    ']}'
)
SPE_GAMMA_W_FIG1_N2 = (
    '{"steps": ['
    '{"moves": [["src", "v1"], ["src", "v1"]], "weights": [2, 2], "config": ["v1", "v1"]}, '
    '{"moves": [["v1", "v3"], ["v1", "v2"]], "weights": [3, 6], "config": ["v3", "v2"]}, '
    '{"moves": [["v3", "tgt"], ["v2", "v3"]], "weights": [4, 1], "config": ["tgt", "v3"]}, '
    '{"moves": [["tgt", "tgt"], ["v3", "tgt"]], "weights": [0, 4], "config": ["tgt", "tgt"]}'
    ']}'
)
SPE_BEST_W_FIG5_N3 = (
    '{"steps": ['
    '{"moves": [["q0", "q1"], ["q0", "q1"], ["q0", "q4"]], "weights": [4, 4, 3], "config": ["q1", "q1", "q4"]}, '
    '{"moves": [["q1", "q2"], ["q1", "q5"], ["q4", "q5"]], "weights": [3, 1, 1], "config": ["q2", "q5", "q5"]}, '
    '{"moves": [["q2", "q3"], ["q5", "q6"], ["q5", "q6"]], "weights": [3, 4, 4], "config": ["q3", "q6", "q6"]}, '
    '{"moves": [["q3", "q7"], ["q6", "q7"], ["q6", "q7"]], "weights": [2, 4, 4], "config": ["q7", "q7", "q7"]}'
    ']}'
)
SPE_WORST_W_FIG5_N3 = (
    '{"steps": ['
    '{"moves": [["q0", "q4"], ["q0", "q1"], ["q0", "q1"]], "weights": [3, 4, 4], "config": ["q4", "q1", "q1"]}, '
    '{"moves": [["q4", "q5"], ["q1", "q2"], ["q1", "q5"]], "weights": [1, 3, 1], "config": ["q5", "q2", "q5"]}, '
    '{"moves": [["q5", "q6"], ["q2", "q3"], ["q5", "q6"]], "weights": [4, 3, 4], "config": ["q6", "q3", "q6"]}, '
    '{"moves": [["q6", "q7"], ["q3", "q7"], ["q6", "q7"]], "weights": [4, 2, 4], "config": ["q7", "q7", "q7"]}'
    ']}'
)
SPE_GAMMA_W_FIG5_N3 = (
    '{"steps": ['
    '{"moves": [["q0", "q4"], ["q0", "q1"], ["q0", "q1"]], "weights": [3, 4, 4], "config": ["q4", "q1", "q1"]}, '
    '{"moves": [["q4", "q5"], ["q1", "q5"], ["q1", "q2"]], "weights": [1, 1, 3], "config": ["q5", "q5", "q2"]}, '
    '{"moves": [["q5", "q6"], ["q5", "q6"], ["q2", "q3"]], "weights": [4, 4, 3], "config": ["q6", "q6", "q3"]}, '
    '{"moves": [["q6", "q7"], ["q6", "q7"], ["q3", "q7"]], "weights": [4, 4, 2], "config": ["q7", "q7", "q7"]}'
    ']}'
)

# On grid3 most counter nodes cannot pay their way to the target any more,
# so these pin the SPE answers of a game where the counter graphs are pruned.
SPE_BEST_W_GRID3_N2 = (
    '{"steps": ['
    '{"moves": [["r0c0", "r0c1"], ["r0c0", "r0c0"]], "weights": [1, 1], "config": ["r0c1", "r0c0"]}, '
    '{"moves": [["r0c1", "r0c2"], ["r0c0", "r0c1"]], "weights": [1, 1], "config": ["r0c2", "r0c1"]}, '
    '{"moves": [["r0c2", "r1c2"], ["r0c1", "r0c2"]], "weights": [4, 1], "config": ["r1c2", "r0c2"]}, '
    '{"moves": [["r1c2", "r2c2"], ["r0c2", "r1c2"]], "weights": [3, 4], "config": ["r2c2", "r1c2"]}, '
    '{"moves": [["r2c2", "r2c2"], ["r1c2", "r2c2"]], "weights": [0, 3], "config": ["r2c2", "r2c2"]}'
    ']}'
)
SPE_WORST_W_GRID3_N2 = (
    '{"steps": ['
    '{"moves": [["r0c0", "r0c1"], ["r0c0", "r0c0"]], "weights": [1, 1], "config": ["r0c1", "r0c0"]}, '
    '{"moves": [["r0c1", "r1c1"], ["r0c0", "r0c1"]], "weights": [4, 1], "config": ["r1c1", "r0c1"]}, '
    '{"moves": [["r1c1", "r1c2"], ["r0c1", "r1c1"]], "weights": [1, 4], "config": ["r1c2", "r1c1"]}, '
    '{"moves": [["r1c2", "r2c2"], ["r1c1", "r1c2"]], "weights": [3, 1], "config": ["r2c2", "r1c2"]}, '
    '{"moves": [["r2c2", "r2c2"], ["r1c2", "r2c2"]], "weights": [0, 3], "config": ["r2c2", "r2c2"]}'
    ']}'
)


def _spe_line(head, witness, tail=""):
    return '{"command": "spe", "exists": true, ' + head + '"witness": ' + witness + tail + "}\n"


SPE_PINS = [  # (arena, players, lambda digest, [(flags, exit code, stdout)])
    ("fig1", 2, "344ae0f6543117a1d00731bcc3a405b66b02f85a73add46df1b87da5841c1eb9", [
        (("--exists",), 0, _spe_line("", SPE_BEST_W_FIG1_N2)),
        (("--best",), 0, _spe_line(
            '"gamma": [1, 1], "cost": 22, "social": 22, ', SPE_BEST_W_FIG1_N2)),
        (("--worst",), 0, _spe_line(
            '"gamma": [-1, -1], "cost": -22, "social": 22, ', SPE_WORST_W_FIG1_N2)),
        (("--gamma", "1,-1"), 0, _spe_line(
            '"gamma": [1, -1], "cost": -4, "social": 22, ', SPE_GAMMA_W_FIG1_N2)),
        (("--best", "--bound", "22"), 0, _spe_line(
            '"gamma": [1, 1], "cost": 22, "social": 22, ', SPE_BEST_W_FIG1_N2,
            ', "satisfied": true')),
        (("--best", "--bound", "21"), 1, _spe_line(
            '"gamma": [1, 1], "cost": 22, "social": 22, ', SPE_BEST_W_FIG1_N2,
            ', "satisfied": false')),
    ]),
    ("fig5", 3, "3812ddb389fc094d03a0045d929c6f8ad4facfe397f4e4515b49648fa6741c78", [
        (("--exists",), 0, _spe_line("", SPE_BEST_W_FIG5_N3)),
        (("--best",), 0, _spe_line(
            '"gamma": [1, 1, 1], "cost": 37, "social": 37, ', SPE_BEST_W_FIG5_N3)),
        (("--worst",), 0, _spe_line(
            '"gamma": [-1, -1, -1], "cost": -37, "social": 37, ', SPE_WORST_W_FIG5_N3)),
        (("--gamma", "1,-1,1"), 0, _spe_line(
            '"gamma": [1, -1, 1], "cost": 11, "social": 37, ', SPE_GAMMA_W_FIG5_N3)),
        (("--best", "--bound", "37"), 0, _spe_line(
            '"gamma": [1, 1, 1], "cost": 37, "social": 37, ', SPE_BEST_W_FIG5_N3,
            ', "satisfied": true')),
        (("--best", "--bound", "36"), 1, _spe_line(
            '"gamma": [1, 1, 1], "cost": 37, "social": 37, ', SPE_BEST_W_FIG5_N3,
            ', "satisfied": false')),
    ]),
    ("grid3", 2, "59ef2fa3676d83927def36a7fd40e226b6247588657a354ad379adbbec3ec07d", [
        (("--exists",), 0, _spe_line("", SPE_BEST_W_GRID3_N2)),
        (("--best",), 0, _spe_line(
            '"gamma": [1, 1], "cost": 19, "social": 19, ', SPE_BEST_W_GRID3_N2)),
        (("--worst",), 0, _spe_line(
            '"gamma": [-1, -1], "cost": -19, "social": 19, ', SPE_WORST_W_GRID3_N2)),
        (("--gamma", "1,-1"), 0, _spe_line(
            '"gamma": [1, -1], "cost": -1, "social": 19, ', SPE_WORST_W_GRID3_N2)),
    ]),
]


@pytest.mark.parametrize("arena, players, digest, queries", SPE_PINS,
                         ids=["fig1-n2", "fig5-n3", "grid3-n2"])
def test_spe_stdout_bytes_pinned(capsys, tmp_path, fig1_file, fig5_file,
                                 grid3_file, arena, players, digest, queries):
    import hashlib

    files = {"fig1": fig1_file, "fig5": fig5_file, "grid3": grid3_file}
    game = ("--arena", files[arena], "--players", str(players))
    dump = tmp_path / "lambda.json"
    for flags, code, out in queries:
        extra = ("--dump-lambda", str(dump)) if flags == ("--exists",) else ()
        assert invoke_raw(capsys, "spe", *flags, *extra, *game)[:2] == (code, out)
    assert hashlib.sha256(dump.read_bytes()).hexdigest() == digest
    witness = json.loads(queries[0][2])["witness"]
    outcome = _write_outcome(tmp_path, witness)
    assert invoke_raw(capsys, "check-spe", *game, "--outcome", outcome)[:2] == (
        0, '{"command": "check-spe", "accepted": true}\n'
    )


# One command line per entry of ``cli.COMMANDS``, on fig1 with two players,
# plus every "no" answer fig1 gives: a bound missed and an outcome rejected.
# "{profile}" puts both players on v1 -> v2 -> v3, "{shared}" is its
# outcome, which neither check accepts, and "{witness}" is the social
# optimum's witness, which both accept.  No corpus game lacks an SPE, so
# ``test_spe_without_equilibrium_answers_no`` stubs that answer.
EXIT_CASES = [  # (command line, exit code)
    ("validate --arena {arena}", 0),
    ("so {game}", 0),
    ("so {game} --bound 21", 1),
    ("blind-ne {game}", 0),
    ("eval {game} --profile {profile}", 0),
    ("values {game}", 0),
    ("ne --best {game} --bound 22", 0),
    ("ne --best {game} --bound 21", 1),
    ("check-ne {game} --outcome {witness}", 0),
    ("check-ne {game} --outcome {shared}", 1),
    ("spe --exists {game}", 0),
    ("spe --best {game} --bound 21", 1),
    ("check-spe {game} --outcome {witness}", 0),
    ("check-spe {game} --outcome {shared}", 1),
    ("poa {game}", 0),
    ("pos {game}", 0),
    ("oracle so {game} --max-steps 8", 0),
    ("oracle br {game} --profile {profile} --player 1 --max-len 6", 0),
    ("oracle values {game} --horizon 3", 0),
    ("oracle ne-outcomes {game} --max-steps 6", 0),
    ("oracle gen-partition --family 1,1", 0),
]


def test_exit_cases_cover_every_command():
    names = {" ".join(line.split()[:2 if line.startswith("oracle") else 1])
             for line, _ in EXIT_CASES}
    assert names == set(cli.COMMANDS)


@pytest.mark.parametrize("line, expected", EXIT_CASES,
                         ids=[line.replace(" {game}", "") for line, _ in EXIT_CASES])
def test_exit_code_is_1_exactly_when_the_answer_is_no(capsys, tmp_path,
                                                       fig1_file, line, expected):
    game = ["--arena", fig1_file, "--players", "2"]
    v2 = [["src", "v1"], ["v1", "v2"], ["v2", "v3"], ["v3", "tgt"]]
    profile = tmp_path / "profile.json"
    profile.write_text(json.dumps({"profile": [v2, v2]}))
    shared = tmp_path / "shared.json"
    shared.write_text(json.dumps(
        invoke(capsys, "eval", *game, "--profile", str(profile))[1]["outcome"]))
    witness = _write_outcome(tmp_path, invoke(capsys, "so", *game)[1]["witness"])
    words = {"{game}": game, "{arena}": [fig1_file], "{profile}": [str(profile)],
             "{shared}": [str(shared)], "{witness}": [witness]}
    argv = [word for part in line.split() for word in words.get(part, [part])]
    code, payload = invoke(capsys, *argv)
    no = any(payload.get(key) is False
             for key in ("accepted", "satisfied", "exists"))
    assert code == int(no) == expected


@pytest.mark.parametrize("flag", ["--exists", "--best"])
def test_spe_without_equilibrium_answers_no(capsys, monkeypatch, fig1_file, flag):
    monkeypatch.setattr("dyncong.spe.gamma_min_spe", lambda game, gamma, lam: None)
    answer = invoke_raw(capsys, "spe", flag, "--arena", fig1_file, "--players", "2")
    assert answer[:2] == (1, '{"command": "spe", "exists": false}\n')


@pytest.mark.parametrize("family", ["x", "1,2"])
def test_gen_partition_bad_family(capsys, family):
    code, out, err = invoke_raw(capsys, "oracle", "gen-partition", "--family", family)
    assert code == 2
    assert out == ""
    assert err.startswith("dyncong: ") and err.count("\n") == 1


def _write_outcome(tmp_path, data):
    path = tmp_path / "outcome.json"
    path.write_text(json.dumps(data))
    return str(path)


@pytest.mark.parametrize("command", ["check-ne", "check-spe"])
@pytest.mark.parametrize(
    "outcome",
    [
        {"witness": []},
        {
            "steps": [
                {
                    "moves": [["src", "v1"], ["src"]],
                    "weights": [2, 2],
                    "config": ["v1", "v1"],
                }
            ]
        },
    ],
    ids=["no-steps", "one-endpoint"],
)
def test_check_bad_outcome_file(capsys, tmp_path, fig1_file, command, outcome):
    code, out, err = invoke_raw(
        capsys,
        command,
        "--arena",
        fig1_file,
        "--players",
        "2",
        "--outcome",
        _write_outcome(tmp_path, outcome),
    )
    assert code == 2
    assert out == ""
    assert err.startswith("dyncong: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "entry", [[["src"]], [["src", "v1", "x"]]], ids=["one-endpoint", "three-endpoints"]
)
def test_eval_bad_profile_move(capsys, tmp_path, fig1_file, entry):
    profile = tmp_path / "profile.json"
    valid = [["src", "v1"], ["v1", "v3"], ["v3", "tgt"]]
    profile.write_text(json.dumps({"profile": [entry, valid]}))
    code, out, err = invoke_raw(
        capsys, "eval", "--arena", fig1_file, "--players", "2",
        "--profile", str(profile),
    )
    assert code == 2
    assert out == ""
    assert err.startswith("dyncong: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["ne", "--arena", "@fig1"],  # a missing required option
    ["so", "--arena", "@fig1", "--players", "2", "--gamma", "1,1"],  # unknown
    ["ne", "--arena", "@fig1", "--players", "2", "--b", "1"],  # ambiguous
    ["ne", "--arena", "@fig1", "--players", "2", "--bound", "x"],  # not an int
    ["so", "--arena", "@fig1", "--players"],  # a value missing at the end
    ["spe", "--arena", "@fig1", "--players", "2", "--best=1"],  # flag=value
    ["frob", "--arena", "@fig1", "--players", "2"],  # an unknown command
    ["--format", "pretty"],  # no command
    ["oracle", "frob", "--arena", "@fig1", "--players", "2"],  # unknown sub
    ["--format", "xml", "so", "--arena", "@fig1", "--players", "2"],
    ["so", "--arena", "@fig1", "--players", "2", "extra"],  # a stray word
], ids=["missing", "unknown-option", "ambiguous", "non-int", "no-value",
        "flag-value", "unknown-command", "no-command", "unknown-oracle",
        "bad-format", "stray-word"])
def test_malformed_command_line_gets_one_line(capsys, fig1_file, argv):
    code, out, err = invoke_raw(
        capsys, *[fig1_file if arg == "@fig1" else arg for arg in argv])
    assert (code, out) == (2, "")
    assert err.startswith("dyncong: ") and err.count("\n") == 1, err


def _reading(flag, fig1_file, path):
    """A command line that reads ``path`` as the file of ``flag``."""
    return {
        "--arena": ["validate", "--arena", str(path)],
        "--outcome": ["check-ne", "--arena", fig1_file, "--players", "2",
                      "--outcome", str(path)],
        "--profile": ["eval", "--arena", fig1_file, "--players", "2",
                      "--profile", str(path)],
    }[flag]


@pytest.mark.parametrize("flag", ["--arena", "--outcome", "--profile"])
def test_input_file_that_is_not_utf8_gets_one_line(capsys, tmp_path,
                                                   fig1_file, flag):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe")
    code, out, err = invoke_raw(capsys, *_reading(flag, fig1_file, bad))
    assert (code, out) == (2, "")
    assert err.startswith("dyncong: cannot read ") and err.count("\n") == 1, err


@pytest.mark.parametrize("flag", ["--arena", "--outcome", "--profile"])
def test_deeply_nested_input_file_gets_one_line(capsys, tmp_path,
                                                fig1_file, flag):
    # The JSON decoder recurses once per nesting level.
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = invoke_raw(capsys, *_reading(flag, fig1_file, deep))
    assert (code, out) == (2, "")
    assert err.startswith("dyncong: ") and err.count("\n") == 1, err


def _two_state_arena():
    return {
        "states": ["s", "t"],
        "source": "s",
        "target": "t",
        "edges": [
            {"from": "s", "to": "t",
             "cost": {"pieces": [{"from_load": 1, "slope": 1}]}},
        ],
    }


def _string_states(data):
    data["states"] = "st"


def _scalar_pieces(data):
    data["edges"][0]["cost"]["pieces"] = 5


def _string_from_load(data):
    data["edges"][0]["cost"]["pieces"][0]["from_load"] = "1"


def _list_state_name(data):
    data["states"].append(["u"])


@pytest.mark.parametrize(
    "mutate",
    [_string_states, _scalar_pieces, _string_from_load, _list_state_name],
    ids=["string-states", "scalar-pieces", "string-from-load", "list-state-name"],
)
def test_validate_rejects_malformed_arena(capsys, tmp_path, mutate):
    data = _two_state_arena()
    path = tmp_path / "arena.json"
    path.write_text(json.dumps(data))
    assert invoke_raw(capsys, "validate", "--arena", str(path))[0] == 0
    mutate(data)
    path.write_text(json.dumps(data))
    code, out, err = invoke_raw(capsys, "validate", "--arena", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("dyncong: ") and err.count("\n") == 1


# Player 1 on src v1 v3 tgt, player 2 on src v1 v2 v3 tgt.
FIG1_PROFILE = {"profile": [
    [["src", "v1"], ["v1", "v3"], ["v3", "tgt"]],
    [["src", "v1"], ["v1", "v2"], ["v2", "v3"], ["v3", "tgt"]],
]}


def _fig1_profile(tmp_path):
    profile = tmp_path / "profile.json"
    profile.write_text(json.dumps(FIG1_PROFILE))
    return str(profile)


def test_oracle_br(capsys, tmp_path, fig1_file):
    # Against player 1 on src v1 v3 tgt, player 2 pays 2+6+1+4 = 13 on
    # src v1 v2 v3 tgt (4 edges); within 3 edges src v2 v3 tgt costs
    # 5+1+8 = 14 (shares v3 -> tgt) and src v1 v3 tgt 2+6+8 = 16.
    game = ("--arena", fig1_file, "--players", "2", "--profile", _fig1_profile(tmp_path))
    for max_len, cost in (("4", 13), ("3", 14)):
        code, payload = invoke(
            capsys, "oracle", "br", *game, "--player", "2", "--max-len", max_len
        )
        assert (code, payload["cost"]) == (0, cost)


@pytest.mark.parametrize(
    "argv",
    [
        ("so", "--max-steps", "-1"),
        ("so", "--max-steps", "2"),
        ("ne-outcomes", "--max-steps", "-1"),
        ("values", "--horizon", "-1"),
        ("br", "--player", "0", "--max-len", "4"),
        ("br", "--player", "-1", "--max-len", "4"),
        ("br", "--player", "3", "--max-len", "4"),
        ("br", "--player", "1", "--max-len", "-1"),
        ("br", "--player", "1", "--max-len", "2"),
    ],
    ids=["so-negative", "so-too-short", "ne-outcomes-negative", "values-negative",
         "br-player-0", "br-player-minus-1", "br-player-3", "br-negative",
         "br-too-short"],
)
def test_oracle_rejects_out_of_range(capsys, tmp_path, fig1_file, argv):
    extra = ("--profile", _fig1_profile(tmp_path)) if argv[0] == "br" else ()
    code, out, err = invoke_raw(
        capsys, "oracle", *argv, *extra, "--arena", fig1_file, "--players", "2"
    )
    assert code == 2
    assert out == ""
    assert err.startswith("dyncong: ") and err.count("\n") == 1


_FUZZ_KEYS = ["states", "source", "target", "edges", "from", "to", "cost",
              "pieces", "from_load", "slope", "intercept", "value", "steps",
              "moves", "weights", "config", "profile"]
_FUZZ_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 6) | st.floats()
    | st.sampled_from(["src", "v1", "v2", "v3", "tgt"]) | st.text(max_size=2),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(_FUZZ_KEYS) | st.text(max_size=2), inner,
                      max_size=4),
    max_leaves=10,
)


@st.composite
def _mutated(draw, base):
    """``base`` with one nested value, at a random depth, replaced by
    arbitrary JSON."""
    data = copy.deepcopy(base)
    node = data
    while node:
        key = draw(st.sampled_from(list(node) if isinstance(node, dict)
                                   else range(len(node))))
        if not isinstance(node[key], (dict, list)) or draw(st.booleans()):
            node[key] = draw(_FUZZ_JSON)
            break
        node = node[key]
    return data


_FUZZ_BASES = {
    "arena": json.loads(serialize_arena(fig1_arena())),
    "outcome": json.loads(SO_FIG1_N2)["witness"],
    "profile": FIG1_PROFILE,
}
_FUZZ_COMMANDS = {  # file kind -> command lines, {} standing for the file
    "arena": [["validate", "--arena", "{}"],
              ["so", "--arena", "{}", "--players", "2"]],
    "outcome": [[cmd, "--arena", "@fig1", "--players", "2", "--outcome", "{}"]
                for cmd in ("check-ne", "check-spe")],
    "profile": [["eval", "--arena", "@fig1", "--players", "2", "--profile", "{}"]],
}


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(_FUZZ_BASES)).flatmap(
    lambda kind: st.tuples(st.just(kind),
                           _FUZZ_JSON | _mutated(_FUZZ_BASES[kind]))
))
def test_cli_exit_codes_on_arbitrary_json(case):
    """Arbitrary JSON, or a valid file with one value replaced, as the arena,
    outcome or profile file: ``cli.run`` returns an exit code, never raises."""
    kind, document = case
    with tempfile.TemporaryDirectory() as tmp:
        files = {"{}": os.path.join(tmp, "input.json"),
                 "@fig1": os.path.join(tmp, "fig1.json")}
        with open(files["{}"], "w", encoding="utf-8") as handle:
            json.dump(document, handle)
        with open(files["@fig1"], "w", encoding="utf-8") as handle:
            handle.write(serialize_arena(fig1_arena()))
        for argv in _FUZZ_COMMANDS[kind]:
            argv = [files.get(arg, arg) for arg in argv]
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = run(argv)
            assert code in (0, 1, 2, 3), (argv, document)


@pytest.mark.parametrize("players", [1, 2, 3, 4])
def test_source_at_target_witnesses_round_trip(capsys, tmp_path, players):
    """When the source is the target every outcome is the empty play: each
    solver prints it, and both outcome checks accept it back."""
    arena = tmp_path / "at-target.json"
    arena.write_text(json.dumps({
        "states": ["t", "u"], "source": "t", "target": "t",
        "edges": [{"from": "u", "to": "t",
                   "cost": {"pieces": [{"from_load": 1, "slope": 1}]}}],
    }))
    game = ("--arena", str(arena), "--players", str(players))
    for command in (("so",), ("ne", "--best"), ("ne", "--worst"), ("spe", "--exists")):
        code, payload = invoke(capsys, *command, *game)
        assert code == 0, command
        assert payload["witness"] == {"steps": []}, command
        outcome = _write_outcome(tmp_path, payload["witness"])
        for check in ("check-ne", "check-spe"):
            assert invoke_raw(capsys, check, *game, "--outcome", outcome)[:2] == (
                0, '{"command": "%s", "accepted": true}\n' % check
            ), (command, check)
