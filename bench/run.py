"""dyncong query benchmark.

Usage:
    python3 bench/run.py --workload {routing,nash,subgame} [--seed N]
                         [--seconds S] [--trace 0|1]

A closed loop with one client: each query of the workload runs in a fresh
interpreter (:mod:`child`), as every CLI command does, and the next starts
only when it has ended.  The workload is repeated in passes for ``--seconds``
seconds; a metric is the sum over the workload's queries of each query's
median time across the passes.  Every answer is checked (:mod:`check`) and
checking time is excluded.

With ``--trace 0`` the last line of stdout is the JSON result with the
end-to-end metrics; with ``--trace 1`` passes alternate between untraced and
traced, and the result holds the per-layer metrics plus the tracing
overhead.  The lines before it are a readable report of every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))

import arenas  # noqa: E402
import calibrate  # noqa: E402
import check  # noqa: E402
from workloads import WORKLOADS, arenas_of  # noqa: E402

SETUP_REPEATS = 9
CHILD_TIMEOUT_S = 150
REFERENCE = BENCH / "reference.json"

# End-to-end metrics of the JSON result.  wall_s is the sum over the
# workload's queries of each query's median time across the passes.
END_TO_END = [("wall_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s")]
# The report splits wall_s by query kind and by command; a split the
# workload never exercises is printed as absent.
SPLITS = ["solve_s", "decide_s", "check_s", "so_s", "blind_ne_s", "values_s",
          "ne_best_s", "ne_worst_s", "ratio_s", "check_ne_s", "check_spe_s",
          "spe_s"]

# Per-layer metrics: (name, unit, trace name it depends on).  Times are self
# times: a span's duration minus the time its child spans cover.
PER_LAYER = [
    ("cli.run.self_s", "s", "cli.run"),
    ("cli.stdout_changed", "count", "cli.run"),
    ("cli.stdout_compared", "count", "cli.run"),
    ("arena.parse_arena.s", "s", "arena.parse_arena"),
    ("costfn.calls.socopt", "count", "costfn"),
    ("costfn.calls.ne", "count", "costfn"),
    ("costfn.calls.spe", "count", "costfn"),
    ("costfn.calls.dynamics", "count", "costfn"),
    ("costfn.calls.other", "count", "costfn"),
    ("graphs.distributions.calls", "count", "graphs.distributions"),
    ("graphs.distributions.yields", "count", "graphs.distributions"),
    ("graphs.reachable_graph.s", "s", "graphs.reachable_graph"),
    ("graphs.reachable_graph.calls", "count", "graphs.reachable_graph"),
    ("graphs.reachable_graph.calls_per_query", "ratio", "graphs.reachable_graph"),
    ("graphs.reachable_graph.configs", "count", "graphs.reachable_graph"),
    ("graphs.reachable_graph.transitions", "count", "graphs.reachable_graph"),
    ("graphs.shortest_path.s", "s", "graphs.shortest_path"),
    ("graphs.shortest_path.calls", "count", "graphs.shortest_path"),
    ("graphs.shortest_path.edges", "count", "graphs.shortest_path"),
    ("graphs.shortest_path.bellman_ford_calls", "count", "graphs.shortest_path"),
    ("graphs.step.calls", "count", "graphs.step"),
    ("socopt.search.s", "s", "socopt.search"),
    ("socopt.expanded", "count", "graphs.distributions"),
    ("socopt.yields", "count", "graphs.distributions"),
    ("socopt.distinct_successors", "count", "graphs.distributions"),
    ("socopt.dedup_ratio", "ratio", "graphs.distributions"),
    ("dynamics.blind_ne.s", "s", "dynamics.blind_ne"),
    ("dynamics.improvement_steps", "count", "dynamics.blind_ne"),
    ("dynamics.best_response.s", "s", "dynamics.best_response"),
    ("dynamics.best_response.calls", "count", "dynamics.best_response"),
    ("ne.compute_values.s", "s", "ne.compute_values"),
    ("ne.compute_values.calls", "count", "ne.compute_values"),
    ("ne.compute_values.calls_per_ne", "ratio", "ne.compute_values"),
    ("ne.value_states", "count", "ne.compute_values"),
    ("ne.explore.s", "s", "ne.explore"),
    ("ne.explore.calls", "count", "ne.explore"),
    ("ne.explore.calls_per_ratio", "ratio", "ne.explore"),
    ("ne.explore.nodes", "count", "ne.explore"),
    ("ne.explore.edges", "count", "ne.explore"),
    ("ne.deviation_floor.calls", "count", "ne.deviation_floor"),
    ("ne.check_ne_outcome.s", "s", "ne.check_ne_outcome"),
    ("ne.check_ne_outcome.calls", "count", "ne.check_ne_outcome"),
    ("spe.compute_lambda.s", "s", "spe.compute_lambda"),
    ("spe.rounds", "count", "spe.compute_lambda"),
    ("spe.labels", "count", "spe.compute_lambda"),
    ("spe.counter.builds", "count", "spe.counter"),
    ("spe.counter.s", "s", "spe.counter"),
    ("spe.counter.nodes", "count", "spe.counter"),
    ("spe.counter.distinct_nodes", "count", "spe.counter"),
    ("spe.counter.reexplore_ratio", "ratio", "spe.counter"),
    ("spe.sup.s", "s", "spe.sup"),
    ("spe.sup.calls", "count", "spe.sup"),
    ("spe.check_spe_outcome.s", "s", "spe.check_spe_outcome"),
    ("trace.wall_s", "s", "cli.run"),
    ("trace.overhead_s", "s", "cli.run"),
]


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def child_command(*args: str) -> list[str]:
    return [sys.executable, str(BENCH / "child.py"), str(SRC), *args]


def run_child(args: list[str], env=None) -> dict:
    """Runs one child to completion; a crash or timeout becomes a failed
    result with the child's stderr as its traceback."""
    try:
        proc = subprocess.run(args, capture_output=True, text=True, cwd=ROOT,
                              env=env, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"code": None, "seconds": CHILD_TIMEOUT_S, "maxrss_kb": 0,
                "traceback": f"child timed out after {CHILD_TIMEOUT_S} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"code": None, "seconds": 0.0, "maxrss_kb": 0,
                "traceback": proc.stderr.strip() or f"child exit {proc.returncode}"}
    return json.loads(lines[-1])


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env.pop("DYNCONG_NODE_BUDGET", None)
    return env


def write_arenas(workload: str, seed: int, workdir: Path) -> dict[str, Path]:
    files = {}
    for name in arenas_of(workload):
        path = workdir / f"{name}.json"
        path.write_text(arenas.arena_text(name, seed), encoding="utf-8")
        files[name] = path
    return files


def setup_once(workload: str, seed: int, workdir: Path, env):
    """Generates the arena files and validates them in a fresh interpreter;
    returns the set-up seconds and the validate results."""
    started = time.perf_counter()
    files = write_arenas(workload, seed, workdir)
    generated = time.perf_counter() - started
    report = run_child(child_command("setup", *map(str, files.values())), env)
    if report.get("code", 0) is None:
        raise BenchError(f"set-up child failed: {report['traceback']}")
    seconds = (generated + report["seconds"]) * speed_factor(report)
    return seconds, files, report["validate"]


def resolve(args, files, made) -> list[str]:
    """The CLI arguments of a query.  An output that an earlier query failed
    to make resolves to a file that does not exist, so the query exits 2 and
    counts as failed."""
    argv = []
    for arg in args:
        if arg.startswith("@"):
            arg = str(files[arg[1:]])
        elif arg.startswith("%"):
            arg = str(made.get(arg[1:], OUT / "never-made.json"))
        argv.append(arg)
    return argv


def run_pass(workload, files, workdir, trace, env, first_id):
    """One pass of the workload; returns ``(query, result, payload)`` triples.

    Outputs that later queries read (a blind-NE profile, a witness) are
    written between queries, outside the timed region.
    """
    made: dict[str, Path] = {}
    needed = {arg[1:] for q in WORKLOADS[workload] for arg in q.args
              if arg.startswith("%")}
    results = []
    for offset, query in enumerate(WORKLOADS[workload]):
        argv = resolve(query.args, files, made)
        result = run_child(child_command(
            "query", "1" if trace else "0", str(first_id + offset), *argv), env)
        payload = check.payload_of(result)
        if query.label in needed and payload is not None:
            data = ({"profile": payload["profile"]} if "profile" in payload
                    else payload.get("witness"))
            if data is not None:
                path = workdir / f"{query.label}.json"
                path.write_text(json.dumps(data), encoding="utf-8")
                made[query.label] = path
        results.append((query, result, payload))
    return results


# A result whose JSON lacks a field or has one of the wrong type fails its
# check instead of stopping the benchmark.
MALFORMED = (KeyError, TypeError, ValueError, AttributeError)


def judge(workload, passes, reference, seed, games) -> tuple[int, list[str]]:
    """Failed query count over all passes, and one line per problem."""
    default = seed == arenas.DEFAULT_SEED
    refs = reference["queries"].get(workload, {})
    failed, lines = 0, []
    for number, results in enumerate(passes):
        payloads = {q.label: p for q, _, p in results}
        bad: dict[str, list[str]] = {}
        for query, result, _ in results:
            try:
                problems = check.check_result(
                    query, result, refs.get(query.label), default,
                    games[query.game()])
            except MALFORMED as exc:
                problems = [f"malformed output: {exc!r}"]
            if problems:
                bad.setdefault(query.label, []).extend(problems)
        try:
            relations = check.pass_invariants(workload, payloads,
                                              reference["queries"])
        except MALFORMED as exc:
            relations = [("invariants", f"malformed output: {exc!r}")]
        for label, problem in relations:
            bad.setdefault(label, []).append(problem)
        failed += len(bad)
        for label, problems in bad.items():
            lines.extend(f"pass {number} {label}: {p}" for p in problems)
    return failed, lines


def load_games(workload, files):
    from dyncong.arena import Game, parse_arena

    games = {}
    for query in WORKLOADS[workload]:
        name, players = query.game()
        if (name, players) not in games:
            arena = parse_arena(files[name].read_text(encoding="utf-8"))
            games[(name, players)] = Game(arena, players)
    return games


def speed_factor(result: dict) -> float:
    """Reference seconds per measured second in this child (see calibrate)."""
    return calibrate.REFERENCE_S / result.get("calibration_s", calibrate.REFERENCE_S)


def scaled_seconds(result: dict) -> float:
    return result["seconds"] * speed_factor(result)


def per_query_medians(passes, measure=scaled_seconds) -> dict[str, float]:
    samples: dict[str, list[float]] = {}
    for results in passes:
        for query, result, _ in results:
            samples.setdefault(query.label, []).append(measure(result))
    return {label: statistics.median(v) for label, v in samples.items()}


def end_to_end(passes, setup_times) -> dict[str, float]:
    return {
        "wall_s": sum(per_query_medians(passes).values()),
        "peak_rss_mb": max(r.get("maxrss_kb", 0)
                           for results in passes for _, r, _ in results) / 1024,
        "setup_s": statistics.median(setup_times),
    }


def breakdown(workload, passes) -> dict[str, float]:
    """Sums of per-query medians by query kind and by command, for the
    report; a command the workload never runs is absent."""
    medians = per_query_medians(passes)
    found: dict[str, float] = {}
    for query in WORKLOADS[workload]:
        for key in (query.kind + "_s", query.command + "_s"):
            found[key] = found.get(key, 0.0) + medians[query.label]
    return found


def layer_sample(results) -> tuple[Counter, Counter, set]:
    """Self times and counts of one traced pass, plus absent trace names."""
    times, counts, absent = Counter(), Counter(), set()
    per_command = Counter()
    for query, result, _ in results:
        trace = result.get("trace")
        if trace is None:
            continue
        absent.update(trace["absent"])
        spans = trace["spans"]
        covered = [hidden for *_, hidden in spans]
        for name, start, end, parent, _ in spans:
            if parent is not None:
                covered[parent] += end - start
        factor = speed_factor(result)
        for index, (name, start, end, *_) in enumerate(spans):
            times[name] += (end - start - covered[index]) * factor
        times.update({name: t * factor for name, t in trace["summed"].items()})
        qcounts = trace["counts"]
        counts.update(qcounts)
        counts["queries"] += 1
        counts["spe.counter.query_distinct"] += qcounts.get(
            "spe.counter.distinct_nodes", 0)
        if query.args[0] == "ne":
            per_command["ne"] += 1
            per_command["ne.compute_values.calls"] += qcounts.get(
                "ne.compute_values.calls", 0)
        if query.args[0] in ("poa", "pos"):
            per_command["ratio"] += 1
            per_command["ne.explore.calls"] += qcounts.get("ne.explore.calls", 0)
    counts.update(_ratios(counts, per_command))
    return times, counts, absent


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def _ratios(counts, per_command) -> Counter:
    return Counter({
        "graphs.reachable_graph.calls_per_query": _ratio(
            counts["graphs.reachable_graph.calls"], counts["queries"]),
        "socopt.dedup_ratio": _ratio(
            counts["socopt.distinct_successors"], counts["socopt.yields"]),
        "spe.counter.reexplore_ratio": _ratio(
            counts["spe.counter.nodes"], counts["spe.counter.query_distinct"]),
        "ne.compute_values.calls_per_ne": _ratio(
            per_command["ne.compute_values.calls"], per_command["ne"]),
        "ne.explore.calls_per_ratio": _ratio(
            per_command["ne.explore.calls"], per_command["ratio"]),
    })


def per_layer(passes, traced_flags, stdout_changed, compared):
    traced = [r for r, flag in zip(passes, traced_flags) if flag]
    plain = [r for r, flag in zip(passes, traced_flags) if not flag]
    samples = [layer_sample(results) for results in traced]
    absent = set().union(*(a for _, _, a in samples))

    def wall(group):
        return statistics.median(sum(scaled_seconds(r) for _, r, _ in results)
                                 for results in group)

    metrics = {}
    for name, _, source in PER_LAYER:
        if source in absent:
            continue
        values = []
        for times, counts, _ in samples:
            if name.endswith(".s") or name.endswith(".self_s"):
                span = name.rsplit(".", 1)[0]
                values.append(times.get(span, 0.0))
            elif name == "spe.counter.builds":
                values.append(counts.get("spe.counter.calls", 0))
            else:
                values.append(counts.get(name, 0))
        metrics[name] = statistics.median(values)
    metrics["cli.stdout_changed"] = stdout_changed
    metrics["cli.stdout_compared"] = compared
    metrics["trace.wall_s"] = wall(traced)
    metrics["trace.overhead_s"] = wall(traced) - wall(plain)
    return metrics, sorted(absent)


def stdout_changes(workload, results, reference, seed) -> tuple[int, int]:
    if seed != arenas.DEFAULT_SEED:
        return 0, 0
    refs = reference["queries"].get(workload, {})
    compared = changed = 0
    for query, result, _ in results:
        ref = refs.get(query.label)
        if ref is None or result.get("stdout") is None:
            continue
        compared += 1
        changed += check.stdout_digest(result["stdout"]) != ref["stdout_sha256"]
    return changed, compared


def report_line(name, value, unit) -> str:
    return f"{name:44s} {value:>14.6f} {unit}"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=arenas.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv) -> int:
    args = parse_args(argv)
    if not (SRC / "dyncong" / "cli.py").is_file():
        print(f"bench: no dyncong source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    workdir = OUT / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return measure(args, reference, workdir)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, reference, workdir) -> int:
    env = child_env()
    workload, seed = args.workload, args.seed
    setup_times, bad_arenas, problems = [], set(), []
    for _ in range(SETUP_REPEATS):
        seconds, files, validations = setup_once(workload, seed, workdir, env)
        setup_times.append(seconds)
        for name, result in zip(files, validations):
            if result["code"] != 0 and name not in bad_arenas:
                bad_arenas.add(name)
                problems.append(f"validate {name}: {result['stderr'].strip()}")
    if seed == arenas.DEFAULT_SEED:
        for name, path in files.items():
            want = reference["arena_digests"].get(name)
            got = arenas.digest(path.read_text(encoding="utf-8"))
            if want != got:
                bad_arenas.add(name)
                problems.append(f"arena {name}: digest {got}, reference {want}")
    games = load_games(workload, files)

    passes, traced_flags = [], []
    started = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        pass_started = time.perf_counter()
        passes.append(run_pass(workload, files, workdir, traced, env,
                               len(passes) * 100))
        traced_flags.append(traced)
        took = time.perf_counter() - pass_started
        done = time.perf_counter() - started
        if len(passes) >= (2 if args.trace else 1) and done + took > args.seconds:
            break

    queries = sum(len(results) for results in passes)
    queries_failed, lines = judge(workload, passes, reference, seed, games)
    # One operation per arena file (generate and validate) plus every query.
    attempted = len(files) + queries
    failed = len(bad_arenas) + queries_failed
    problems.extend(lines)
    for line in problems:
        print("FAILED " + line)

    untraced = [r for r, flag in zip(passes, traced_flags) if not flag]
    print(f"workload {workload} seed {seed}: {len(passes)} passes, "
          f"{attempted} attempted, {failed} failed")
    if args.trace:
        changed, compared = stdout_changes(workload, passes[0], reference, seed)
        metrics, absent = per_layer(passes, traced_flags, changed, compared)
        units = {name: unit for name, unit, _ in PER_LAYER}
        for name in absent:
            print(f"{name:44s} {'absent':>14s}")
        write_trace(workload, seed, passes, traced_flags)
    else:
        metrics = end_to_end(untraced, setup_times)
        units = dict(END_TO_END)
        splits = breakdown(workload, untraced)
        for name in SPLITS:
            if name in splits:
                print(report_line(name, splits[name], "s"))
            else:
                print(f"{name:44s} {'absent':>14s}")
        print(report_line("wall_unscaled_s", sum(per_query_medians(
            untraced, lambda r: r["seconds"]).values()), "s"))
        print(report_line("calibration_s", statistics.median(
            r.get("calibration_s", 0.0) for results in untraced
            for _, r, _ in results), "s"))
        print(report_line("queries", queries, "count"))
        print(report_line("queries_failed", queries_failed, "count"))
    for name, value in metrics.items():
        print(report_line(name, value, units[name]))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def write_trace(workload, seed, passes, traced_flags) -> None:
    """Writes every span of the traced passes, one JSON object per query."""
    path = OUT / f"trace-{workload}-seed{seed}.jsonl"
    with path.open("w", encoding="utf-8") as handle:
        for number, (results, traced) in enumerate(zip(passes, traced_flags)):
            if not traced:
                continue
            for query, result, _ in results:
                trace = result.get("trace") or {}
                handle.write(json.dumps({
                    "pass": number, "label": query.label,
                    "query": trace.get("query"), "spans": trace.get("spans"),
                    "summed": trace.get("summed"), "counts": trace.get("counts"),
                }) + "\n")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
