"""Self-tests of the benchmark: python3 -m pytest bench/test_bench.py -q"""

from __future__ import annotations

import json
import sys
import types

import pytest

import arenas
import check
import run
from tracer import Tracer
from workloads import WORKLOADS

sys.path.insert(0, str(run.SRC))

from dyncong.arena import parse_arena, validate_arena  # noqa: E402


def _reference():
    return json.loads(run.REFERENCE.read_text(encoding="utf-8"))


def _query(workload, label):
    return next(q for q in WORKLOADS[workload] if q.label == label)


@pytest.mark.parametrize("name", ["fig1", "fig5", "grid3", "grid4", "grid6"])
def test_generator_is_deterministic_per_seed_and_valid(name):
    for seed in (0, 1, 7):
        text = arenas.arena_text(name, seed)
        assert text == arenas.arena_text(name, seed)
        assert validate_arena(parse_arena(text)) == []
    assert arenas.arena_text(name, 1) != arenas.arena_text(name, 7)


def test_default_seed_reproduces_recorded_digests():
    for name, digest in _reference()["arena_digests"].items():
        assert arenas.digest(arenas.arena_text(name, arenas.DEFAULT_SEED)) == digest


@pytest.fixture()
def nash_games(tmp_path):
    files = run.write_arenas("nash", arenas.DEFAULT_SEED, tmp_path)
    return files, run.load_games("nash", files)


def _judge_one(query, result, games, seed=arenas.DEFAULT_SEED):
    passes = [[(query, result, check.payload_of(result))]]
    return run.judge("nash", passes, _reference(), seed, games)


def test_wrong_answer_is_counted_as_failed(nash_games):
    _, games = nash_games
    query = _query("nash", "ne-best-grid4-n2")
    right = {"code": 0, "seconds": 0.1, "traceback": None,
             "stdout": json.dumps({"command": "ne", "cost": 23})}
    assert _judge_one(query, right, games)[0] == 0
    wrong = dict(right, stdout=json.dumps({"command": "ne", "cost": 22}))
    failed, lines = _judge_one(query, wrong, games)
    assert failed == 1 and "reference" in lines[0]
    # The cost survives relabelling, so a wrong one fails on any seed.
    assert _judge_one(query, wrong, games, seed=5)[0] == 1


def test_budget_exceeded_exit_is_counted_as_failed(nash_games):
    files, games = nash_games
    query = _query("nash", "ne-best-grid4-n2")
    env = dict(run.child_env(), DYNCONG_NODE_BUDGET="5")
    argv = run.resolve(query.args, files, {})
    result = run.run_child(run.child_command("query", "0", "0", *argv), env)
    assert result["code"] == 3
    failed, lines = _judge_one(query, result, games)
    assert failed == 1 and "exit code 3" in lines[0]


def test_traceback_or_malformed_output_is_counted_as_failed(nash_games):
    _, games = nash_games
    query = _query("nash", "ne-best-grid4-n2")
    result = {"code": None, "seconds": 0.1, "stdout": "",
              "traceback": "Traceback ...\nKeyError: 'steps'"}
    assert _judge_one(query, result, games)[0] == 1
    malformed = {"code": 0, "seconds": 0.1, "traceback": None,
                 "stdout": json.dumps({"command": "ne", "cost": 23,
                                       "witness": {"steps": [{"moves": 5}]}})}
    assert _judge_one(query, malformed, games)[0] == 1


def test_missing_wrap_target_is_reported_as_absent():
    package = types.ModuleType("fakedyn")
    ne = types.ModuleType("fakedyn.ne")
    ne.compute_values = lambda game: "table"
    package.ne = ne
    sys.modules["fakedyn"], sys.modules["fakedyn.ne"] = package, ne
    try:
        tracer = Tracer(0)
        tracer.install(package)
    finally:
        del sys.modules["fakedyn"], sys.modules["fakedyn.ne"]
    assert "ne.explore" in tracer.absent
    assert "ne.compute_values" not in tracer.absent
    assert "spe.counter" in tracer.absent
    assert ne.compute_values.__name__ == "wrapper"


def test_absent_target_drops_its_metrics_without_crashing():
    query = _query("nash", "ne-best-grid4-n2")
    plain = {"seconds": 1.0}
    traced = {"seconds": 1.5, "trace": {
        "query": 1, "spans": [["cli.run", 0.0, 1.5, None, 0.0]],
        "summed": {}, "counts": {"cli.run.calls": 1},
        "absent": ["ne.explore"]}}
    metrics, absent = run.per_layer(
        [[(query, plain, None)], [(query, traced, None)]], [False, True], 0, 0)
    assert absent == ["ne.explore"]
    assert not any(name.startswith("ne.explore.") for name in metrics)
    assert metrics["cli.run.self_s"] == pytest.approx(1.5)
    assert metrics["trace.overhead_s"] == pytest.approx(0.5)


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, unit) for name, unit, _ in run.PER_LAYER]
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)
