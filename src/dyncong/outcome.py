"""Outcome paths that NE and SPE share: read from JSON, built from a
configuration chain or an abstract path, checked for shape and against a
per-step label, and the gamma-cheapest one of an explicit graph.

Building and checking play the moves through :func:`graphs.replay`, so
weights and configurations come from the validating :func:`graphs.step`;
:func:`path_from_json` only parses.  ``OutcomePath``, ``replay`` and
``eval_path`` stay in :mod:`graphs`.
"""

from __future__ import annotations

from .arena import Arena, Game
from .graphs import (
    Config,
    Edge,
    OutcomePath,
    SemanticsError,
    initial_config,
    replay,
    shortest_path,
    target_config,
)


_STEP_KEYS = {"moves", "weights", "config"}


def move_from_json(arena: Arena, move) -> Edge:
    if not isinstance(move, list) or len(move) != 2:
        raise SemanticsError(f"a move needs exactly two endpoints, got {move!r}")
    return arena.index(move[0]), arena.index(move[1])


def path_from_json(game: Game, data) -> OutcomePath:
    """Reads the ``{"steps": [...]}`` form of :meth:`OutcomePath.to_json`.

    An empty ``steps`` list is the play that stays at the initial
    configuration, which is how a game whose source is its target prints
    its outcomes.  Raises :class:`SemanticsError` for a malformed file or
    steps that do not chain; unknown state names raise :class:`ArenaError`.
    """
    if not isinstance(data, dict) or not isinstance(data.get("steps"), list):
        raise SemanticsError("outcome must be an object with a 'steps' list")
    steps = data["steps"]
    if not steps:
        return OutcomePath(start=initial_config(game), steps=())
    arena = game.arena
    built = []
    for entry in steps:
        if not (
            isinstance(entry, dict)
            and set(entry) == _STEP_KEYS
            and all(isinstance(entry[key], list) for key in _STEP_KEYS)
        ):
            raise SemanticsError(
                "each outcome step must be an object whose 'moves', "
                "'weights' and 'config' are lists"
            )
        moves = tuple(move_from_json(arena, m) for m in entry["moves"])
        nxt = tuple(arena.index(s) for s in entry["config"])
        if built and tuple(m[0] for m in moves) != built[-1][2]:
            raise SemanticsError("steps do not chain")
        if tuple(m[1] for m in moves) != nxt:
            raise SemanticsError("step config does not match move heads")
        built.append((moves, tuple(entry["weights"]), nxt))
    start = tuple(m[0] for m in built[0][0])
    return OutcomePath(start=start, steps=tuple(built))


def path_from_configs(game: Game, configs: list[Config]) -> OutcomePath:
    """Builds an outcome path through the given configurations, recomputing
    move vectors and weights."""
    return replay(game, configs[0], [
        tuple(zip(cur, nxt)) for cur, nxt in zip(configs, configs[1:])
    ])


def check_outcome_shape(game: Game, path: OutcomePath) -> None:
    """Raises :class:`SemanticsError` unless the path is a play from the
    initial to the target configuration whose weights and configurations
    match the recomputed joint steps."""
    if path.start != initial_config(game):
        raise SemanticsError("path must start at the initial configuration")
    if path.configs()[-1] != target_config(game):
        raise SemanticsError("path must end with every player at the target")
    replayed = replay(game, path.start, [moves for moves, _, _ in path.steps])
    for (_, weights, nxt), (_, recomputed, result) in zip(path.steps, replayed.steps):
        if result != nxt or recomputed != tuple(weights):
            raise SemanticsError("path weights or configurations are inconsistent")


def label_consistent(path: OutcomePath, label) -> bool:
    """Whether each player's suffix cost stays at or under the label of the
    step it starts with: ``suffix[i] <= label(cur, nxt, i)`` for every step
    cur => nxt in play order and every player i, stopping at the first
    violation.  NE outcomes take the deviation floors as labels, SPE
    outcomes the fixpoint labels."""
    configs = path.configs()
    for cur, nxt, suffix in zip(configs, configs[1:], path.suffix_costs()):
        for i, cost in enumerate(suffix):
            if cost > label(cur, nxt, i):
                return False
    return True


def cheapest_outcome(game: Game, start, nodes, edges, gamma, targets):
    """Gamma-cheapest play from ``start`` to a target of an explicit graph.

    Nodes are tuples whose first entry is a configuration; ``edges`` are
    ``(u, weights, v)`` triples, each weighed by gamma dot weights (see
    :func:`shortest_path`).  Returns ``(cost, witness)`` with the node chain
    lifted to an :class:`OutcomePath` through its configurations, whose
    weights :func:`graphs.replay` recomputes, or None when no target is
    reachable.
    """
    found = shortest_path(
        start, nodes, edges,
        lambda w: sum(g * x for g, x in zip(gamma, w)),
        targets,
    )
    if found is None:
        return None
    cost, chain = found
    return cost, path_from_configs(game, [node[0] for node in chain])


def lift_abstract_path(game: Game, dists: list[dict]) -> OutcomePath:
    """Realizes an abstract path as a concrete outcome.

    ``dists`` holds one edge-count map per step.  Players standing on a state
    are assigned to its out-edges in ascending player index and canonical
    edge order; by symmetry every assignment has the same social cost.
    """
    arena = game.arena
    config = initial_config(game)
    moves_list = []
    for dist in dists:
        remaining = dict(dist)
        moves = []
        for state in config:
            chosen = None
            for succ, _ in arena.out[state]:
                edge = (state, succ)
                if remaining.get(edge, 0) > 0:
                    chosen = edge
                    remaining[edge] -= 1
                    break
            if chosen is None:
                raise SemanticsError("abstract step does not cover a player")
            moves.append(chosen)
        moves_list.append(moves)
        config = tuple(v for _, v in moves)
    return replay(game, initial_config(game), moves_list)
