"""The benchmark's tracer still finds and reads every layer it wraps.

``bench/tracer.py`` wraps dyncong functions by module and name and counts
work from their arguments and results; a renamed or moved target is
reported ``absent`` and its per-layer metrics are dropped from the result.
Each query here runs through ``bench/child.py`` with tracing on, in a fresh
interpreter as the benchmark runs it, on a small game.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

from dyncong.arena import serialize_arena

from corpus import fig1_arena, fig5_arena, grid_arena

ROOT = Path(__file__).resolve().parents[1]


def _traced(argv) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("DYNCONG_NODE_BUDGET", None)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "child.py"), str(ROOT / "src"),
         "query", "1", "0", *argv],
        capture_output=True, text=True, cwd=ROOT, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr

    def strict(constant):
        raise ValueError(f"non-finite {constant} in the child's report")

    return json.loads(proc.stdout.splitlines()[-1], parse_constant=strict)


def test_traced_queries_report_every_layer(tmp_path):
    arenas = {"fig1": fig1_arena(), "fig5": fig5_arena(), "grid3": grid_arena(3)}
    files = {}
    for name, arena in arenas.items():
        files[name] = tmp_path / f"{name}.json"
        files[name].write_text(serialize_arena(arena))
    grid3 = ("--arena", str(files["grid3"]), "--players", "2")
    witness = tmp_path / "spe.json"
    queries = [
        ("so", *grid3),
        ("blind-ne", "--arena", str(files["fig1"]), "--players", "2"),
        ("values", "--arena", str(files["fig5"]), "--players", "3"),
        ("ne", "--worst", *grid3),
        ("poa", *grid3),
        ("spe", "--best", *grid3),
        ("check-spe", *grid3, "--outcome", str(witness)),
    ]
    for argv in queries:
        report = _traced(argv)
        assert report["traceback"] is None, (argv, report["traceback"])
        assert report["code"] == 0, (argv, report["stderr"])
        trace = report["trace"]
        assert trace["absent"] == [], argv
        counts = trace["counts"]
        assert counts["cli.run.calls"] == 1, argv
        assert all(math.isfinite(v) for v in counts.values()), (argv, counts)
        if argv[0] == "ne":
            # Both wrapped ends of the worst-NE search read the same graph.
            assert counts["ne.explore.calls"] == 1
            assert counts["graphs.shortest_path.calls"] == 1
            assert counts["graphs.shortest_path.bellman_ford_calls"] == 1
            edges = counts["ne.explore.edges"]
            assert edges == counts["graphs.shortest_path.edges"] > 0
            assert counts["ne.explore.nodes"] > 0
        if argv[0] == "spe":
            assert counts["spe.counter.calls"] >= 1
            assert counts["graphs.shortest_path.edges"] > 0
            witness.write_text(json.dumps(json.loads(report["stdout"])["witness"]))
