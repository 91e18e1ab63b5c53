"""Brute-force reference implementations for desk-scale validation.

These deliberately avoid the solvers' machinery (no Parikh abstraction, no
layered graphs, no label fixpoints): costs come straight from replaying move
vectors, best responses from enumerating whole paths, values from bounded
game-tree search.  They are correctness anchors, not algorithms.
"""

from __future__ import annotations

import itertools

from .arena import Game, build_arena
from .costfn import linear, threshold
from .dynamics import BlindProfile, blind_strategy, play_profile
from .graphs import (
    INF,
    BudgetExceeded,
    Config,
    dev_set,
    initial_config,
    node_budget,
    step,
    target_config,
)
from .outcome import path_from_configs


def _all_moves(game: Game, config: Config):
    per_player = [game.arena.out[state] for state in config]
    for combo in itertools.product(*per_player):
        yield tuple(
            (config[i], succ) for i, (succ, _) in enumerate(combo)
        )


def brute_social_optimum(game: Game, max_steps: int) -> int:
    """Minimum social cost over all joint plays of at most ``max_steps``
    steps that bring every player to the target.

    Uniform-cost search over (configuration, steps-used) pairs; exhaustive
    within the step bound.
    """
    import heapq

    budget = node_budget()
    start = initial_config(game)
    goal = target_config(game)
    best = {(start, 0): 0}
    heap = [(0, 0, start)]
    expanded = 0
    while heap:
        cost, steps, config = heapq.heappop(heap)
        if best.get((config, steps), INF) < cost:
            continue
        expanded += 1
        if expanded > budget:
            raise BudgetExceeded("brute social-optimum search above budget")
        if config == goal:
            return cost
        if steps == max_steps:
            continue
        for moves in _all_moves(game, config):
            weights, nxt = step(game, config, moves)
            key = (nxt, steps + 1)
            cand = cost + sum(weights)
            if cand < best.get(key, INF):
                best[key] = cand
                heapq.heappush(heap, (cand, steps + 1, nxt))
    raise ValueError(f"target not reachable within {max_steps} steps")


def _all_blind_paths(arena, max_len: int):
    """Every src -> tgt path of at most ``max_len`` edges (cycles allowed)."""
    results = []
    budget = node_budget()

    def walk(state, edges):
        if len(edges) > max_len:
            return
        if state == arena.tgt and edges:
            results.append(tuple(edges))
            if len(results) > budget:
                raise BudgetExceeded("blind-path enumeration above budget")
            return
        if len(edges) == max_len:
            return
        for succ, _ in arena.out[state]:
            edges.append((state, succ))
            walk(succ, edges)
            edges.pop()

    walk(arena.src, [])
    return results


def brute_best_response(game: Game, profile: BlindProfile, player: int,
                        max_len: int) -> int:
    """Cheapest cost over every blind path of bounded length for ``player``,
    with the other players' paths fixed; ValueError when no blind path of
    at most ``max_len`` edges reaches the target."""
    best = INF
    for edges in _all_blind_paths(game.arena, max_len):
        candidate = profile.replace(player, blind_strategy(game.arena, edges))
        costs, _, _ = play_profile(game, candidate)
        if costs[player] < best:
            best = costs[player]
    if best == INF:
        raise ValueError(f"no blind path of at most {max_len} edges reaches the target")
    return best


def brute_values(game: Game, horizon: int):
    """Finite-horizon sup-inf values by explicit game-tree search.

    The coalition announces a joint distribution, the player answers with an
    edge; +inf where the player cannot be sure to reach the target within the
    horizon.  Exact wherever the player can force arrival within ``horizon``
    steps.  Keyed by ``(own, coalition)``, the coalition the other n - 1
    players' states in ascending order.
    """
    from .graphs import distributions

    arena = game.arena
    memo: dict = {}
    budget = node_budget()

    def value(own: int, counts, h: int):
        if own == arena.tgt:
            return 0
        if h == 0:
            return INF
        key = (own, counts, h)
        if key in memo:
            return memo[key]
        if len(memo) > budget:
            raise BudgetExceeded("value tree search above budget")
        worst = 0
        for dist, _, nxt in distributions(arena, counts):
            response = min(
                fn(1 + dist.get((own, succ), 0)) + value(succ, nxt, h - 1)
                for succ, fn in arena.out[own]
            )
            worst = max(worst, response)
        memo[key] = worst
        return worst

    table = {}
    num_states = len(arena.states)
    for combo in itertools.combinations_with_replacement(
        range(num_states), game.n - 1
    ):
        counts = [0] * num_states
        for s in combo:
            counts[s] += 1
        counts = tuple(counts)
        for own in range(num_states):
            table[(own, combo)] = value(own, counts, horizon)
    return table


def brute_ne_outcomes(game: Game, max_steps: int, horizon: int | None = None):
    """All equilibrium outcomes of at most ``max_steps`` steps, found by
    enumerating every play and testing each deviation against punishments
    computed by bounded game-tree search."""
    arena = game.arena
    if horizon is None:
        # deep enough to make the bounded values exact on every query
        num_states = len(arena.states)
        multisets = sum(
            1
            for _ in itertools.combinations_with_replacement(
                range(num_states), game.n - 1
            )
        )
        horizon = num_states * multisets + 1
    values = brute_values(game, horizon)
    goal = target_config(game)
    budget = node_budget()
    outcomes = []
    seen = 0

    def suffix_ok(path):
        configs = path.configs()
        for cur, nxt, suffix in zip(configs, configs[1:], path.suffix_costs()):
            for i in range(game.n):
                for dev, dev_cost in dev_set(game, cur, nxt, i):
                    others = tuple(sorted(dev[:i] + dev[i + 1:]))
                    bound = dev_cost + values[(dev[i], others)]
                    if suffix[i] > bound:
                        return False
        return True

    def extend(configs):
        nonlocal seen
        seen += 1
        if seen > budget:
            raise BudgetExceeded("outcome enumeration above budget")
        current = configs[-1]
        if current == goal:
            path = path_from_configs(game, configs)
            if suffix_ok(path):
                outcomes.append(path)
            return
        if len(configs) - 1 == max_steps:
            return
        for moves in _all_moves(game, current):
            _, nxt = step(game, current, moves)
            extend(configs + [nxt])

    extend([initial_config(game)])
    return outcomes


def gen_partition_arena(family):
    """Arena of the Partition reduction, plus its player count.

    For a family summing to 2S with m members, the gadget has states
    ``{src, tgt, d1, d2}`` and per member i a chain ``s_i, a_i1, a_i2`` with
    threshold costs; 2S + 2m players can all get through cheaply exactly when
    the family splits into two halves of equal sum.  Note the published
    figure labels the direct edges to the target with value 1, but the
    accompanying cost accounting (total 14S + 12m, per-player phase cost 2)
    requires value 2; this generator follows the accounting.
    """
    family = list(family)
    total = sum(family)
    if total % 2 != 0:
        raise ValueError("family must sum to an even number")
    if any(r < 1 for r in family):
        raise ValueError("family members must be positive")
    s_half = total // 2
    m = len(family)
    big_m = 14 * s_half + 12 * m + 1
    n = 2 * s_half + 2 * m

    states = ["src"]
    for i in range(1, m + 1):
        states += [f"s{i}", f"a{i}_1", f"a{i}_2"]
    states += ["d1", "d2", "tgt"]

    edges = []
    for i, r in enumerate(family, start=1):
        edges.append(("src", f"s{i}", threshold(r + 2, 1, big_m)))
        for j in (1, 2):
            edges.append((f"s{i}", f"a{i}_{j}", threshold(1, 2, 4)))
            edges.append((f"a{i}_{j}", f"d{j}", linear(0, 1)))
            edges.append((f"a{i}_{j}", "tgt", threshold(1, 2, big_m)))
    for j in (1, 2):
        edges.append((f"d{j}", "tgt", threshold(s_half, 1, big_m)))

    arena = build_arena(states, edges, "src", "tgt")
    return Game(arena=arena, n=n), big_m
