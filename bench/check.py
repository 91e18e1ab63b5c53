"""Answer checks: every query result is judged before its time is used.

A query fails when its child raised, exited with 2 (invalid input) or 3
(budget exceeded), printed something that is not JSON, exited with a code
that disagrees with its own answer, gave an answer field that differs from
the recorded reference, returned a witness that does not replay through
``eval_path``, or broke an invariant between queries of the same pass.

Answer fields are compared with the reference on the default seed, and on
every other seed for queries whose answers survive the relabelling (see
:mod:`arenas`).  A difference in the stdout bytes alone is not a failure; it
is counted separately as ``cli.stdout_changed``.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

ANSWER_KEYS = ("cost", "satisfied", "exists", "accepted", "ratio",
               "social_optimum", "best_ne", "worst_ne")


def stdout_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def payload_of(result: dict):
    """The parsed stdout of a successful child, else None."""
    if result.get("traceback") or result.get("code") not in (0, 1):
        return None
    try:
        payload = json.loads(result["stdout"])
    except (KeyError, json.JSONDecodeError):
        return None
    return payload if isinstance(payload, dict) else None


def answers(payload: dict) -> dict:
    found = {key: payload[key] for key in ANSWER_KEYS if key in payload}
    if payload.get("command") == "values":
        # The multiset of values survives relabelling; its digest keeps the
        # reference file small.
        values = sorted(entry["value"] for entry in payload["values"])
        found["values_sha256"] = stdout_digest(json.dumps(values))
    return found


def expected_code(payload: dict) -> int:
    """The exit code the CLI documents for this answer."""
    for key in ("accepted", "satisfied", "exists"):
        if payload.get(key) is False:
            return 1
    return 0


def replay(game, witness: dict):
    """Per-player costs and social cost of a witness, recomputed by
    ``eval_path``; a string when the witness does not replay."""
    from dyncong.graphs import INF, SemanticsError, eval_path
    from dyncong.arena import ArenaError

    arena = game.arena
    try:
        moves = [
            tuple((arena.index(u), arena.index(v)) for u, v in entry["moves"])
            for entry in witness["steps"]
        ]
        costs, social, path = eval_path(game, moves)
    except (KeyError, TypeError, ValueError, ArenaError, SemanticsError) as exc:
        return f"witness does not replay: {exc}"
    for entry, (_, weights, nxt) in zip(witness["steps"], path.steps):
        if list(weights) != entry["weights"]:
            return "witness weights differ from the replay"
        if [arena.states[s] for s in nxt] != entry["config"]:
            return "witness configurations differ from the replay"
    if social == INF:
        return "witness leaves a player off the target"
    return costs, social


def check_result(query, result: dict, reference, default_seed: bool,
                 game) -> list[str]:
    """Problems with one query result, judged on its own."""
    if result.get("traceback"):
        return ["traceback: " + result["traceback"].strip().splitlines()[-1]]
    code = result.get("code")
    if code not in (0, 1):
        stderr = (result.get("stderr") or "").strip()
        return [f"exit code {code}: {stderr[-200:]}"]
    payload = payload_of(result)
    if payload is None:
        return ["stdout is not a JSON object"]
    problems = []
    if code != expected_code(payload):
        problems.append(f"exit code {code} disagrees with the answer")
    if reference is not None and (default_seed or query.seed_invariant):
        if code != reference["code"]:
            problems.append(f"exit code {code}, reference {reference['code']}")
        found = answers(payload)
        if found != reference["answers"]:
            problems.append(f"answer {found}, reference {reference['answers']}")
    if "witness" in payload:
        replayed = replay(game, payload["witness"])
        if isinstance(replayed, str):
            problems.append(replayed)
        else:
            costs, social = replayed
            gamma = payload.get("gamma", [1] * len(costs))
            weighted = sum(g * c for g, c in zip(gamma, costs))
            if payload.get("social", social) != social or (
                "cost" in payload and payload["cost"] != weighted
            ):
                problems.append("witness cost differs from its replay")
    return problems


def _fraction(value) -> Fraction | None:
    return None if value is None else Fraction(value["num"], value["den"])


def pass_invariants(workload: str, payloads: dict, reference: dict) -> list:
    """``(label, problem)`` pairs for relations between queries of one pass.

    A relation whose queries did not all answer is skipped: the failed query
    is already counted.
    """
    get = payloads.get
    problems = []

    def need(*labels):
        return all(get(label) is not None for label in labels)

    if workload == "routing" and need("blind-ne-grid6-n16", "eval-grid6-n16"):
        blind, evaluated = get("blind-ne-grid6-n16"), get("eval-grid6-n16")
        if not evaluated["is_blind_ne"]:
            problems.append(("eval-grid6-n16", "blind-ne profile is not a blind NE"))
        for key in ("costs", "social", "potential"):
            if evaluated[key] != blind[key]:
                problems.append(("eval-grid6-n16", f"eval {key} differs from blind-ne"))
    if workload == "nash":
        if need("so-grid4-n2", "ne-best-grid4-n2", "ne-worst-grid4-n2"):
            so = get("so-grid4-n2")["cost"]
            best = get("ne-best-grid4-n2")["cost"]
            worst = -get("ne-worst-grid4-n2")["cost"]
            if not so <= best <= worst:
                problems.append(("ne-worst-grid4-n2",
                                 f"SO {so} <= best NE {best} <= worst NE {worst} fails"))
            for label, key, value in (("poa-grid4-n2", "worst_ne", worst),
                                      ("pos-grid4-n2", "best_ne", best)):
                ratio = get(label)
                if ratio is None:
                    continue
                if ratio["social_optimum"] != so or ratio[key] != value:
                    problems.append((label, f"{key} or SO differs from the ne/so queries"))
                if so and _fraction(ratio["ratio"]) != Fraction(value, so):
                    problems.append((label, "ratio differs from equilibrium / SO"))
        ne_check = get("check-ne-fig5-n6")
        if ne_check is not None and not ne_check["accepted"]:
            problems.append(("check-ne-fig5-n6", "check-ne rejects the NE witness"))
    if workload == "subgame":
        # The NE costs come from the nash reference: every seed plays a game
        # isomorphic to the default one, so they hold on every seed.
        nash = reference.get("nash", {})
        best_ne = nash.get("ne-best-grid4-n2", {}).get("answers", {}).get("cost")
        worst_gamma = nash.get("ne-worst-grid4-n2", {}).get("answers", {}).get("cost")
        if need("spe-best-grid4-n2", "spe-worst-grid4-n2") and None not in (
                best_ne, worst_gamma):
            best_spe = get("spe-best-grid4-n2")["cost"]
            worst_spe = -get("spe-worst-grid4-n2")["cost"]
            if not best_ne <= best_spe <= worst_spe <= -worst_gamma:
                problems.append(("spe-worst-grid4-n2",
                                 "best NE <= best SPE <= worst SPE <= worst NE fails"))
        spe_check = get("check-spe-grid4-n2")
        if spe_check is not None and not spe_check["accepted"]:
            problems.append(("check-spe-grid4-n2", "check-spe rejects the SPE witness"))
    return problems
