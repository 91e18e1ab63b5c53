"""Earlier implementations of the NE tables, kept as differential references.

``compute_values`` builds its coalition move table from
``graphs.distributions``; ``deviation_floor`` takes the minimum over
``graphs.dev_set``, reading each deviation's coalition value from a count
key rebuilt per deviation; ``ne_successors`` calls it once per player and
transition.  The solvers in ``dyncong.ne`` must reproduce all three exactly,
dict and list order included.
"""

from __future__ import annotations

from dyncong.costfn import kappa
from dyncong.graphs import (
    INF,
    BudgetExceeded,
    dev_set,
    distributions,
    node_budget,
    reachable_graph,
)
from dyncong.ne import ValueTable, _coalition_states


def compute_values(game):
    arena = game.arena
    num_states = len(arena.states)
    tgt = arena.tgt
    ceiling = num_states * kappa(game)
    budget = node_budget()

    all_counts: list[tuple[int, ...]] = []
    for counts in _coalition_states(game):
        if (len(all_counts) + 1) * num_states > budget:
            raise BudgetExceeded("value-table state space above node budget")
        all_counts.append(counts)
    count_index = {counts: ci for ci, counts in enumerate(all_counts)}
    total = len(all_counts) * num_states

    edges = [(v, succ) for v in range(num_states) for succ, _ in arena.out[v]]
    edge_id = {edge: k for k, edge in enumerate(edges)}
    options = [
        [
            (succ, tuple(fn(load) for load in range(1, game.n + 1)),
             edge_id[(v, succ)])
            for succ, fn in arena.out[v]
        ]
        for v in range(num_states)
    ]
    moves: list[list[tuple[tuple[int, ...], int]]] = []
    for counts in all_counts:
        row = []
        for dist, _, nxt in distributions(arena, counts):
            loads = [0] * len(edges)
            for edge, count in dist.items():
                loads[edge_id[edge]] = count
            row.append((tuple(loads), count_index[nxt] * num_states))
        moves.append(row)

    hops = arena.hops
    count_hops = [sum(c * h for c, h in zip(counts, hops)) for counts in all_counts]
    order = sorted(
        (s for s in range(total) if s % num_states != tgt),
        key=lambda s: (hops[s % num_states] + count_hops[s // num_states], s),
    )
    sweep = [(s, options[s % num_states], moves[s // num_states]) for s in order]

    values: list[float] = [INF] * total
    for s in range(tgt, total, num_states):
        values[s] = 0
    cap = num_states + total * ceiling
    for _ in range(cap):
        changed = False
        for s, opts, row in sweep:
            worst = -1
            for loads, base in row:
                response = INF
                for succ, table, eid in opts:
                    r = table[loads[eid]] + values[base + succ]
                    if r < response:
                        response = r
                        if r <= worst:
                            break
                if response > worst:
                    worst = response
            if worst != values[s]:
                values[s] = worst
                changed = True
        if not changed:
            break
    else:
        raise AssertionError("value iteration missed its convergence cap")

    table: dict = {}
    for ci, counts in enumerate(all_counts):
        for own in range(num_states):
            value = values[ci * num_states + own]
            assert value != INF
            assert value <= ceiling
            table[(own, counts)] = int(value)
    return ValueTable(values=table, ceiling=ceiling)


def _at_config(values, config, player, num_states):
    counts = [0] * num_states
    for j, state in enumerate(config):
        if j != player:
            counts[state] += 1
    return values.values[(config[player], tuple(counts))]


def deviation_floor(game, values, config, nxt, player):
    num_states = len(game.arena.states)
    return min(
        cost + _at_config(values, dev, player, num_states)
        for dev, cost in dev_set(game, config, nxt, player)
    )


def ne_successors(game, values):
    tgt = game.arena.tgt
    ceiling = values.ceiling
    graph = reachable_graph(game)
    options: dict = {}

    def successors(node):
        config, bounds = node
        opts = options.get(config)
        if opts is None:
            opts = options[config] = []
            for nxt, weights in graph.successors(config):
                caps = tuple(
                    0 if state == tgt else min(
                        deviation_floor(game, values, config, nxt, i) - weights[i],
                        ceiling,
                    )
                    for i, state in enumerate(config)
                )
                if min(caps) >= 0:
                    opts.append((nxt, weights, caps))
        result = []
        for nxt, weights, caps in opts:
            updated = tuple([min(b - w, c) for b, w, c in zip(bounds, weights, caps)])
            if min(updated) >= 0:
                result.append(((nxt, updated), weights))
        return result

    return successors
