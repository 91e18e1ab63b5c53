"""Configuration-level semantics shared by every solver.

A configuration assigns each player a state; a move vector gives each player
an outgoing edge of their state; taking a joint step charges each player the
cost of their edge at its simultaneous load.  The Parikh view forgets player
identities and keeps only per-state head counts, which is sound for social
costs because all players are interchangeable.
"""

from __future__ import annotations

import heapq
import itertools
import math
import os

from .arena import Arena, Game
from .costfn import Record

INF = float("inf")
NEG_INF = float("-inf")

Config = tuple[int, ...]  # player index -> state index
Edge = tuple[int, int]
MoveVector = tuple[Edge, ...]


class SemanticsError(ValueError):
    """Raised for moves or paths that are invalid in the given game, and for
    a node budget that is not a positive integer."""


class BudgetExceeded(RuntimeError):
    """A search expanded more nodes than its budget allows."""


def node_budget() -> int:
    """Search node budget; override with DYNCONG_NODE_BUDGET, an integer >= 1."""
    raw = os.environ.get("DYNCONG_NODE_BUDGET")
    if not raw:
        return 10_000_000
    try:
        budget = int(raw)
    except ValueError:
        budget = 0
    if budget < 1:
        raise SemanticsError(
            f"DYNCONG_NODE_BUDGET must be an integer >= 1, not {raw!r}"
        )
    return budget


def initial_config(game: Game) -> Config:
    return (game.arena.src,) * game.n


def target_config(game: Game) -> Config:
    return (game.arena.tgt,) * game.n


def target_distances(arena: Arena) -> list[int]:
    """``dist_1(v)`` per state: the cheapest route to the target for a lone
    player, under the load-one costs.  Costs are nonnegative and do not
    decrease with load, so no play takes a player from v to the target for
    less; the social optimum and the SPE counter graphs use it as a lower
    bound.

    Finite everywhere, because ``build_arena`` rejects a state that cannot
    reach the target.
    """
    into: list[list[tuple[int, int]]] = [[] for _ in arena.states]
    for (u, v), fn in arena.edges.items():
        into[v].append((u, fn(1)))
    dist: list = [None] * len(arena.states)
    heap = [(0, arena.tgt)]
    while heap:
        d, v = heapq.heappop(heap)
        if dist[v] is not None:
            continue
        dist[v] = d
        for u, w in into[v]:
            if dist[u] is None:
                heapq.heappush(heap, (d + w, u))
    assert None not in dist, "every state reaches the target"
    return dist


class GameView:
    """The tables every solver reads, built once per game (``Game.view``):
    ``edge_id`` (index in ``arena.edge_list``), per edge ``cost[e] = (d_e(1),
    ..., d_e(n))``, per state ``out[v]``, its ``(successor, edge id, cost
    row)`` in ``arena.out`` order, and ``dist1`` (:func:`target_distances`).
    Solvers read them first, so ``n * |E|`` past the node budget stops here.
    """

    def __init__(self, game: Game):
        arena = game.arena
        if game.n * len(arena.edge_list) > node_budget():
            raise BudgetExceeded("game cost tables above node budget")
        self.edge_id = {edge: k for k, edge in enumerate(arena.edge_list)}
        self.cost = [
            tuple(arena.edges[edge](load) for load in range(1, game.n + 1))
            for edge in arena.edge_list
        ]
        self.out = [[] for _ in arena.states]
        for k, (u, v) in enumerate(arena.edge_list):  # the order of arena.out
            self.out[u].append((v, k, self.cost[k]))
        self.dist1 = target_distances(arena)

    def joint_steps(self, config: Config) -> list[tuple[Config, tuple[int, ...]]]:
        """Every ``(nxt, weights)`` step from ``config``, in product order
        over the players' out-edges; unlike :func:`step`, it validates
        nothing."""
        steps = []
        for combo in itertools.product(*[self.out[s] for s in config]):
            nxt, ids, rows = zip(*combo)
            steps.append((nxt, tuple(
                row[ids.count(e) - 1] for e, row in zip(ids, rows))))
        return steps


def step(game: Game, config: Config, moves: MoveVector):
    """Applies a move vector; returns the weight vector and next configuration.

    The load of an edge is the number of players taking that same edge in
    ``moves``; player i pays their edge's cost at that load.
    """
    arena = game.arena
    if len(moves) != len(config):
        raise SemanticsError("move vector length differs from player count")
    loads: dict[Edge, int] = {}
    for edge in moves:
        loads[edge] = loads.get(edge, 0) + 1
    weights = []
    nxt = []
    for player, edge in enumerate(moves):
        if edge not in arena.edges:
            raise SemanticsError(
                f"no edge {arena.states[edge[0]]} -> {arena.states[edge[1]]} "
                "in the arena"
            )
        if edge[0] != config[player]:
            raise SemanticsError(
                f"player {player + 1} is at {arena.states[config[player]]} "
                f"but moves along {arena.states[edge[0]]} -> {arena.states[edge[1]]}"
            )
        weights.append(arena.edges[edge](loads[edge]))
        nxt.append(edge[1])
    return tuple(weights), tuple(nxt)


class OutcomePath(Record):
    """A finite play: a start configuration and chained weighted joint steps."""

    _fields = ("start", "steps")

    def __init__(
        self,
        start: Config,
        steps: tuple[tuple[MoveVector, tuple[int, ...], Config], ...],
    ):
        self.start, self.steps = start, steps

    def configs(self) -> list[Config]:
        return [self.start] + [nxt for _, _, nxt in self.steps]

    def cost(self, player: int) -> int:
        """Sum of the weights charged to ``player`` (0-based) along the path."""
        return sum(w[player] for _, w, _ in self.steps)

    def suffix_costs(self) -> list[tuple[int, ...]]:
        """Per-player cost of the path from each configuration on: entry l
        belongs to configuration l, so the last entry is all zeros."""
        suffix = (0,) * len(self.start)
        suffixes = [suffix]
        for _, weights, _ in reversed(self.steps):
            suffix = tuple(s + w for s, w in zip(suffix, weights))
            suffixes.append(suffix)
        suffixes.reverse()
        return suffixes

    def to_json(self, arena: Arena) -> dict:
        return {
            "steps": [
                {
                    "moves": [[arena.states[u], arena.states[v]] for u, v in moves],
                    "weights": list(weights),
                    "config": [arena.states[s] for s in nxt],
                }
                for moves, weights, nxt in self.steps
            ]
        }


def replay(game: Game, start: Config, moves_list) -> OutcomePath:
    """Plays move vectors from ``start`` through :func:`step`; every
    outcome path is built or checked by this loop."""
    config = start
    steps = []
    for moves in moves_list:
        moves = tuple(moves)
        weights, config = step(game, config, moves)
        steps.append((moves, weights, config))
    return OutcomePath(start=start, steps=tuple(steps))


def eval_path(game: Game, moves_list) -> tuple[tuple, object, OutcomePath]:
    """Plays a move-vector sequence from the initial configuration.

    Returns per-player costs (``+inf`` for players that never reach the
    target), the social cost, and the reconstructed :class:`OutcomePath`.
    Weights supplied by callers are ignored; everything is recomputed from
    loads.
    """
    path = replay(game, initial_config(game), moves_list)
    tgt = game.arena.tgt
    costs = []
    for i in range(game.n):
        reached = path.start[i] == tgt or any(nxt[i] == tgt for _, _, nxt in path.steps)
        costs.append(path.cost(i) if reached else INF)
    social = sum(costs)
    return tuple(costs), social, path


def parikh(game: Game, config: Config) -> tuple[int, ...]:
    """Per-state player counts of a configuration."""
    counts = [0] * len(game.arena.states)
    for state in config:
        counts[state] += 1
    return tuple(counts)


def compositions(total: int, parts: int):
    """All ways to write ``total`` as an ordered sum of ``parts`` naturals,
    in ascending tuple order: stars and bars, with the ``parts - 1`` bars
    drawn in ascending order from ``total + parts - 1`` slots."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    slots = total + parts - 1
    for bars in itertools.combinations(range(slots), parts - 1):
        yield tuple(b - a - 1 for a, b in zip((-1, *bars), (*bars, slots)))


def distributions(arena: Arena, abstract: tuple[int, ...]):
    """Edge distributions compatible with an abstract configuration.

    Yields ``(dist, weight, nxt)`` where ``dist`` maps edges to counts with,
    for every state v, the counts on v's out-edges summing to abstract[v];
    ``weight`` is the total cost paid on this joint step and ``nxt`` the
    successor abstract configuration.  Enumeration order is the product of
    per-state compositions in canonical state and edge order.
    """
    per_state = []
    for v, cnt in enumerate(abstract):
        if not cnt:
            continue
        outs = arena.out[v]
        if not outs:
            return  # dead end: no distribution exists
        options = []
        for combo in compositions(cnt, len(outs)):
            added = {(v, succ): count
                     for count, (succ, _) in zip(combo, outs) if count}
            options.append((added, sum(count * arena.edges[edge](count)
                                       for edge, count in added.items())))
        per_state.append(options)
    for parts in itertools.product(*per_state):
        dist, weight, nxt = {}, 0, [0] * len(abstract)
        for added, wgt in parts:
            dist.update(added)
            weight += wgt
        for (_, v), count in dist.items():
            nxt[v] += count
        yield dist, weight, tuple(nxt)


def dev_set(game: Game, config: Config, nxt: Config, player: int):
    """Unilateral deviations of ``player`` from the joint step config => nxt.

    Returns ``(dev_config, dev_cost)`` pairs, one per edge out of the
    player's state (the prescribed move included); the deviation cost charges
    the chosen edge at one plus the number of *other* players taking that
    same edge under the prescribed step.
    """
    here = config[player]
    # The heads of the other players who leave the player's state.
    others = [v for j, (u, v) in enumerate(zip(config, nxt))
              if j != player and u == here]
    result = []
    for succ, _, row in game.view.out[here]:
        dev = list(nxt)
        dev[player] = succ
        result.append((tuple(dev), row[others.count(succ)]))
    return result


class ReachableGraph:
    """Configurations reachable from the initial one, with their transitions."""

    def __init__(
        self,
        configs: list[Config],
        transitions: dict[Config, list[tuple[Config, tuple[int, ...]]]],
    ):
        self.configs, self.transitions = configs, transitions

    def successors(self, config: Config):
        return self.transitions[config]


def reachable_graph(game: Game) -> ReachableGraph:
    """Reachable configurations in discovery order, with their joint steps."""
    budget = node_budget()
    view = game.view
    start = initial_config(game)
    # Keys in discovery order; a value stays None until its key is expanded.
    transitions: dict[Config, list[tuple[Config, tuple[int, ...]]]] = {start: None}
    frontier = [start]
    work = 0
    while frontier:
        config = frontier.pop()
        work += math.prod(len(view.out[s]) for s in config)
        if work > budget:
            raise BudgetExceeded("configuration graph above node budget")
        succs = transitions[config] = view.joint_steps(config)
        for nxt, _ in succs:
            if nxt not in transitions:
                transitions[nxt] = None
                frontier.append(nxt)
    return ReachableGraph(configs=list(transitions), transitions=transitions)


def shortest_path(start, nodes, edges, weight_of, targets):
    """Min-weight path in an explicit graph given as ``(u, payload, v)`` edges.

    Nodes are numbered in the iteration order of ``nodes``, and the edges
    are laid out as compressed rows: node u's edges, in edge order, fill the
    slots ``first[u]`` to ``first[u + 1] - 1`` of two flat lists, the
    successor ids and the weights, placed by a stable counting pass.  No
    tuple is built per edge.  Payloads are hashable, and ``weight_of`` is
    called once per distinct payload; nothing else of a payload is kept.
    With nonnegative weights Dijkstra runs on heap keys ``(distance, push
    counter)``.  ``weight_of(payload)`` may be negative, in which case
    Bellman-Ford sweeps the nodes in that numbering for at most ``|nodes| +
    1`` rounds; in the graphs built here every cycle has weight zero, so a
    last round that still improves raises.  Both scan a node's edges in edge
    order and set a node's parent, the id of the tail of the edge into it,
    only on a strict improvement.

    A Bellman-Ford sweep scans only the nodes whose distance fell since
    their last scan (Yen, 1970): it walks the ids in ascending order and
    reads each node's ``lowered`` flag when it reaches it, so a node
    lowered ahead of the sweep position is scanned in this sweep and one
    lowered at or behind it in the next.  This is the full sweep minus
    scans that cannot improve anything: a scan of u leaves ``dist[v] <=
    dist[u] + z`` on each of its edges, and distances only fall, so until
    ``dist[u]`` falls again no edge of u can improve.  The strict
    improvements happen in the same order, so every distance, every parent
    and the number of improving sweeps are those of the full sweep.

    Returns ``(distance, [start, ..., target])`` for the cheapest target,
    the first of ``targets`` on ties, or None when no target is reachable;
    the chain holds the objects of ``nodes``.
    """
    order = list(nodes)
    index = {node: k for k, node in enumerate(order)}
    first = [0] * (len(order) + 1)
    for u, _, _ in edges:
        first[index[u] + 1] += 1
    for u in range(len(order)):
        first[u + 1] += first[u]
    fill = first[:-1]  # per node, its next free slot
    heads = [0] * len(edges)
    zs = heads[:]
    weights: dict = {}
    for u, payload, v in edges:
        z = weights.get(payload)
        if z is None:
            z = weights[payload] = weight_of(payload)
        u = index[u]
        slot = fill[u]
        fill[u] = slot + 1
        heads[slot], zs[slot] = index[v], z
    negative = min(weights.values(), default=0) < 0
    source = index[start]
    target_ids = [index[t] for t in targets]
    del index, weights, fill  # the search needs ids only; this lowers its memory peak
    dist = [INF] * len(order)
    parent = [-1] * len(order)  # per node, the tail of its parent edge
    dist[source] = 0
    if not negative:
        heap = [(0, 0, source)]
        counter = 1
        while heap:
            d, _, u = heapq.heappop(heap)
            if dist[u] < d:
                continue
            for slot in range(first[u], first[u + 1]):
                v, dv = heads[slot], d + zs[slot]
                if dv < dist[v]:
                    dist[v] = dv
                    parent[v] = u
                    heapq.heappush(heap, (dv, counter, v))
                    counter += 1
    else:
        lowered = [False] * len(order)  # distance fell since the last scan
        lowered[source] = True
        for _ in range(len(order) + 1):
            changed = False
            for u in itertools.compress(range(len(order)), lowered):
                lowered[u] = False
                du = dist[u]
                for slot in range(first[u], first[u + 1]):
                    v, dv = heads[slot], du + zs[slot]
                    if dv < dist[v]:
                        dist[v] = dv
                        parent[v] = u
                        lowered[v] = changed = True
            if not changed:
                break
        else:
            raise AssertionError(
                "relaxation kept improving: negative cycle, which the "
                "residual-bound dynamics rule out"
            )
    reached = [t for t in target_ids if dist[t] != INF]
    if not reached:
        return None
    best = min(reached, key=lambda t: dist[t])
    chain = [best]
    while chain[-1] != source:
        chain.append(parent[chain[-1]])
    return dist[best], [order[k] for k in reversed(chain)]
