import heapq
import itertools
import json
import math
import random
import sys
import time

import pytest

import dyncong.graphs as graphs
from dyncong.arena import ArenaError, Game, build_arena
from dyncong.costfn import constant
from dyncong.dynamics import BlindProfile, blind_ne, is_blind_ne, play_profile
from dyncong.graphs import (
    INF,
    SemanticsError,
    dev_set,
    eval_path,
    initial_config,
    distributions,
    parikh,
    reachable_graph,
    shortest_path,
    step,
    target_config,
)
from dyncong.outcome import lift_abstract_path, path_from_json
from dyncong.spe import compute_lambda

from corpus import corpus_games, differential_games, grid_arena, random_arena


def cfg(arena, *names):
    return tuple(arena.index(s) for s in names)


def edge(arena, frm, to):
    return (arena.index(frm), arena.index(to))


def test_step_shared_edge(fig1, fig1_g2):
    moves = (edge(fig1, "src", "v1"), edge(fig1, "src", "v1"))
    weights, nxt = step(fig1_g2, cfg(fig1, "src", "src"), moves)
    assert weights == (2, 2)
    assert nxt == cfg(fig1, "v1", "v1")


def test_step_disjoint_edges(fig1, fig1_g2):
    moves = (edge(fig1, "v3", "tgt"), edge(fig1, "v2", "v3"))
    weights, nxt = step(fig1_g2, cfg(fig1, "v3", "v2"), moves)
    assert weights == (4, 1)
    assert nxt == cfg(fig1, "tgt", "v3")


def test_step_target_loop(fig1, fig1_g2):
    loop = edge(fig1, "tgt", "tgt")
    weights, nxt = step(fig1_g2, cfg(fig1, "tgt", "tgt"), (loop, loop))
    assert weights == (0, 0)


def test_step_rejects_wrong_source(fig1, fig1_g2):
    with pytest.raises(SemanticsError):
        step(
            fig1_g2,
            cfg(fig1, "src", "src"),
            (edge(fig1, "v1", "v3"), edge(fig1, "src", "v1")),
        )


def test_eval_path_example_one(fig1, fig1_g2, fig1_paths):
    profile = BlindProfile((fig1_paths["pi1"], fig1_paths["pi2"]))
    costs, social, path = play_profile(fig1_g2, profile)
    assert costs == (9, 13)
    assert social == 22
    assert [w for _, w, _ in path.steps] == [(2, 2), (3, 6), (4, 1), (0, 4)]


def test_eval_path_example_four(fig1, fig1_g2):
    # Player 1 via v2; player 2 via v1 then v2 (the adaptive route's outcome)
    configs = [
        cfg(fig1, "src", "src"),
        cfg(fig1, "v2", "v1"),
        cfg(fig1, "v3", "v2"),
        cfg(fig1, "tgt", "v3"),
        cfg(fig1, "tgt", "tgt"),
    ]
    moves = [tuple(zip(a, b)) for a, b in zip(configs, configs[1:])]
    costs, social, _ = eval_path(fig1_g2, moves)
    assert costs == (10, 12)
    assert social == 22


def test_eval_path_fig5_profile(fig5, fig5_g3, fig5_paths):
    profile = BlindProfile(
        (fig5_paths["rho1"], fig5_paths["rho1"], fig5_paths["rho2"])
    )
    costs, social, _ = play_profile(fig5_g3, profile)
    assert costs == (14, 14, 8)
    assert social == 36


def test_eval_path_unreached_player_is_infinite(fig1, fig1_g2):
    moves = [
        (edge(fig1, "src", "v1"), edge(fig1, "src", "v1")),
        (edge(fig1, "v1", "v3"), edge(fig1, "v1", "v2")),
        (edge(fig1, "v3", "tgt"), edge(fig1, "v2", "v3")),
    ]
    costs, social, _ = eval_path(fig1_g2, moves)
    assert costs[0] == 9
    assert costs[1] == INF
    assert social == INF


def test_parikh(fig1, fig1_g2):
    counts = parikh(fig1_g2, cfg(fig1, "src", "src"))
    assert counts[fig1.index("src")] == 2 and sum(counts) == 2
    game3 = Game(fig1, 3)
    counts = parikh(game3, cfg(fig1, "v1", "v2", "v1"))
    assert counts[fig1.index("v1")] == 2
    assert counts[fig1.index("v2")] == 1
    counts = parikh(game3, cfg(fig1, "tgt", "tgt", "tgt"))
    assert counts[fig1.index("tgt")] == 3


def test_dev_set_from_source(fig1, fig1_g2):
    devs = dev_set(
        fig1_g2, cfg(fig1, "src", "src"), cfg(fig1, "v1", "v1"), 0
    )
    assert (cfg(fig1, "v1", "v1"), 2) in devs
    assert (cfg(fig1, "v2", "v1"), 5) in devs
    assert len(devs) == 2


def test_dev_set_at_target_is_singleton(fig1, fig1_g2):
    devs = dev_set(
        fig1_g2, cfg(fig1, "tgt", "v3"), cfg(fig1, "tgt", "tgt"), 0
    )
    assert devs == [(cfg(fig1, "tgt", "tgt"), 0)]


def test_dev_set_fig5(fig5, fig5_g3):
    devs = dev_set(
        fig5_g3,
        cfg(fig5, "q0", "q0", "q0"),
        cfg(fig5, "q1", "q1", "q4"),
        2,
    )
    assert (cfg(fig5, "q1", "q1", "q1"), 6) in devs
    assert (cfg(fig5, "q1", "q1", "q4"), 3) in devs
    assert len(devs) == 2


def test_step_is_permutation_equivariant(corpus):
    rng = random.Random(7)
    for _, game in corpus:
        if game.n < 2:
            continue
        config = initial_config(game)
        for _ in range(20):
            options = game.arena.out
            moves = tuple(
                (s, rng.choice(options[s])[0]) for s in config
            )
            weights, nxt = step(game, config, moves)
            perm = list(range(game.n))
            rng.shuffle(perm)
            pweights, pnxt = step(
                game,
                tuple(config[p] for p in perm),
                tuple(moves[p] for p in perm),
            )
            assert pweights == tuple(weights[p] for p in perm)
            assert pnxt == tuple(nxt[p] for p in perm)
            config = nxt


def test_joint_steps_match_the_validating_step():
    # The corpus, the gap games, 30 random arenas and grid3 with two players:
    # every reachable configuration's trusted joint steps are the validating
    # step's, move vector by move vector in product order.
    for game in differential_games():
        arena = game.arena
        for config in reachable_graph(game).configs:
            expected = [
                (nxt, weights)
                for moves in itertools.product(
                    *[[(s, succ) for succ, _ in arena.out[s]] for s in config]
                )
                for weights, nxt in [step(game, config, moves)]
            ]
            assert game.view.joint_steps(config) == expected, (arena, config)


def _reference_reachable_graph(game):
    # The loop that reachable_graph replaced, kept verbatim: a seen set and a
    # discovery-order list beside the transitions dict.
    budget = graphs.node_budget()
    view = game.view
    start = initial_config(game)
    seen = {start}
    order = [start]
    transitions = {}
    frontier = [start]
    work = 0
    while frontier:
        config = frontier.pop()
        work += math.prod(len(view.out[s]) for s in config)
        if work > budget:
            raise graphs.BudgetExceeded("configuration graph above node budget")
        succs = transitions[config] = view.joint_steps(config)
        for nxt, _ in succs:
            if nxt not in seen:
                seen.add(nxt)
                order.append(nxt)
                frontier.append(nxt)
    return order, transitions


def test_reachable_graph_keeps_discovery_order():
    # ``configs`` is in discovery order, not expansion order: it sets the
    # order of the SPE regions' configurations and so of the SPE labels.
    for game in differential_games() + [Game(grid_arena(3), 3)]:
        order, transitions = _reference_reachable_graph(game)
        graph = reachable_graph(game)
        assert graph.configs == order, game.arena
        assert graph.transitions == transitions, game.arena


def test_each_game_builds_its_tables_once(monkeypatch):
    # Every solver reads the game's one ``dist1`` instead of computing its
    # own per best response or per label round.
    calls = []
    original = graphs.target_distances

    def counting(arena):
        calls.append(arena)
        return original(arena)

    for name, module in list(sys.modules.items()):
        if name.startswith("dyncong") and (
            getattr(module, "target_distances", None) is original
        ):
            monkeypatch.setattr(module, "target_distances", counting)
    game = Game(grid_arena(6), 16)
    profile, _ = blind_ne(game)
    assert is_blind_ne(game, profile)
    assert len(calls) == 1
    calls.clear()
    compute_lambda(Game(grid_arena(4), 2))
    assert len(calls) == 1


def _recursive_compositions(total, parts):
    """The recursive definition that ``graphs.compositions`` replaces: head
    counts ascending, each followed by the compositions of the rest."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _recursive_compositions(total - head, parts - 1):
            yield (head,) + rest


def test_compositions_match_the_recursive_definition():
    # Stars and bars yield the same tuples in the same order.
    for total in range(9):
        for parts in range(8):
            assert list(graphs.compositions(total, parts)) == list(
                _recursive_compositions(total, parts)), (total, parts)
    # One player over far more out-edges than the recursion limit allows.
    wide = list(graphs.compositions(1, sys.getrecursionlimit() + 100))
    assert len(wide) == sys.getrecursionlimit() + 100
    assert wide[0][-1] == 1 and wide[-1][0] == 1


def test_step_weight_sum_matches_abstract_edge(corpus):
    rng = random.Random(11)
    for _, game in corpus:
        config = initial_config(game)
        for _ in range(12):
            moves = tuple(
                (s, rng.choice(game.arena.out[s])[0]) for s in config
            )
            weights, nxt = step(game, config, moves)
            successors = {
                (weight, succ)
                for _, weight, succ in distributions(game.arena, parikh(game, config))
            }
            assert (sum(weights), parikh(game, nxt)) in successors
            config = nxt


def test_abstract_paths_lift_at_equal_cost():
    # Parikh soundness, lifting direction, for n up to 4
    rng = random.Random(3)
    for _, base_game in corpus_games()[:8]:
        for n in (2, 4):
            game = Game(base_game.arena, n)
            abstract = parikh(game, initial_config(game))
            dists = []
            total = 0
            for _ in range(5):
                options = list(distributions(game.arena, abstract))
                dist, weight, abstract = options[rng.randrange(len(options))]
                dists.append(dist)
                total += weight
            lifted = lift_abstract_path(game, dists)
            assert sum(sum(w) for _, w, _ in lifted.steps) == total


def test_random_arenas_are_valid():
    rng = random.Random(42)
    for _ in range(25):
        arena = random_arena(rng)
        assert 3 <= len(arena.states) <= 6


def test_outcome_path_json_roundtrip(fig1, fig1_g2, fig1_paths):
    _, _, path = play_profile(
        fig1_g2, BlindProfile((fig1_paths["pi1"], fig1_paths["pi2"]))
    )
    data = path.to_json(fig1)
    assert data["steps"][0]["moves"] == [["src", "v1"], ["src", "v1"]]
    again = path_from_json(fig1_g2, json.loads(json.dumps(data)))
    assert again == path


def test_long_outcome_reads_in_linear_time():
    # Names are looked up in ``Arena.names``; scanning ``states`` for each
    # name took over 7 s on this outcome.
    states = [f"s{k}" for k in range(20_001)]
    pairs = list(zip(states, states[1:]))
    arena = build_arena(states, [(u, v, constant(1)) for u, v in pairs],
                        states[0], states[-1])
    data = {"steps": [{"moves": [[u, v]], "weights": [1], "config": [v]}
                      for u, v in pairs]}
    started = time.perf_counter()
    path = path_from_json(Game(arena, 1), data)
    assert time.perf_counter() - started < 1
    assert len(path.steps) == 20_000 and path.configs()[-1] == (arena.tgt,)
    for name in ("nowhere", ["s0"]):
        with pytest.raises(ArenaError, match="unknown state"):
            arena.index(name)


def _dict_shortest_path(start, nodes, edges, weight_of, targets):
    """Reference: the dict-based search that the id-based
    :func:`shortest_path` replaced, kept verbatim."""
    adjacency: dict = {}
    for u, payload, v in edges:
        adjacency.setdefault(u, []).append((weight_of(payload), v, payload))
    negative = any(weight_of(p) < 0 for _, p, _ in edges)
    dist = {start: 0}
    parent: dict = {}
    if not negative:
        heap = [(0, 0, start)]
        counter = 1
        while heap:
            d, _, u = heapq.heappop(heap)
            if dist.get(u, INF) < d:
                continue
            for z, v, payload in adjacency.get(u, []):
                if d + z < dist.get(v, INF):
                    dist[v] = d + z
                    parent[v] = (u, payload)
                    heapq.heappush(heap, (d + z, counter, v))
                    counter += 1
    else:
        order = list(nodes)
        for _ in range(len(order) + 1):
            changed = False
            for u in order:
                if u not in dist:
                    continue
                for z, v, payload in adjacency.get(u, []):
                    if dist[u] + z < dist.get(v, INF):
                        dist[v] = dist[u] + z
                        parent[v] = (u, payload)
                        changed = True
            if not changed:
                break
        else:
            raise AssertionError("negative cycle")
    reached = [t for t in targets if t in dist]
    if not reached:
        return None
    best = min(reached, key=lambda t: dist[t])
    path = []
    cur = best
    while cur != start:
        prev, payload = parent[cur]
        path.append((prev, payload, cur))
        cur = prev
    path.reverse()
    return dist[best], path


def _reference_chain(start, nodes, edges, weight_of, targets):
    """:func:`_dict_shortest_path` projected to what :func:`shortest_path`
    returns: the distance and the node chain, ``[start]`` followed by each
    edge's head.  The payload of each edge is dropped, so on graphs with
    parallel edges it is not compared which of them won."""
    found = _dict_shortest_path(start, nodes, edges, weight_of, targets)
    if found is None:
        return None
    dist, path = found
    return dist, [start] + [v for _, _, v in path]


def _search_graphs(game):
    """The explicit graphs the solvers search: the NE bound-augmented graph
    and the SPE fixpoint counter graph from the initial configuration, each
    as ``(start, nodes, edges, targets)``."""
    from dyncong.ne import _explore_ne_graph, compute_values
    from dyncong.spe import CounterExploration, compute_lambda

    tgt = target_config(game)
    start, nodes, edges = _explore_ne_graph(game, compute_values(game))
    yield start, nodes, edges, [node for node in nodes if node[0] == tgt]
    lam = compute_lambda(game)
    exploration = CounterExploration(
        game, lam.graph, lam.labels, [initial_config(game)]
    )
    co = exploration.coaccessible
    start = exploration.start_nodes[initial_config(game)]
    if start in co:
        edges = [(u, w, v) for u, succs in exploration.adjacency.items() if u in co
                 for w, v in succs if v in co]
        yield start, co, edges, list(exploration.targets)


def test_shortest_path_matches_dict_reference():
    # Same distance and same path, ties included, for the Bellman-Ford
    # gammas (all -1, alternating) and Dijkstra (all 1) on both graph kinds.
    rng = random.Random(28)  # its largest NE graph has 4,121 edges
    games = [game for _, game in corpus_games()]
    games += [Game(random_arena(rng), 1 + k % 3) for k in range(20)]
    for k, game in enumerate(games):
        n = game.n
        gammas = [(-1,) * n, tuple((-1) ** i for i in range(n)), (1,) * n]
        for start, nodes, edges, targets in _search_graphs(game):
            for gamma in gammas:
                weigh = lambda w: sum(g * x for g, x in zip(gamma, w))
                expected = _reference_chain(start, nodes, edges, weigh, targets)
                assert shortest_path(start, nodes, edges, weigh, targets) == expected, (
                    k, gamma)


def _potential_graph(rng):
    """A random graph whose every cycle weighs at least zero: edge u -> v
    has payload ``(phi(u) - phi(v), s)`` with slack ``s >= 0``, mostly 0,
    so zero-weight cycles, mixed signs and tied paths are common and many
    edges share a payload.  Node labels are int tuples held in a set, whose
    iteration order differs from the order they were made in."""
    labels = [(rng.randrange(1000), k) for k in range(rng.randint(5, 40))]
    phi = {u: rng.randint(-6, 6) for u in labels}
    edges = []
    for _ in range(rng.randint(len(labels), 4 * len(labels))):
        u, v = rng.choice(labels), rng.choice(labels)
        slack = 0 if rng.random() < 0.6 else rng.randint(1, 3)
        edges.append((u, (phi[u] - phi[v], slack), v))
    targets = rng.sample(labels, rng.randint(1, 3))
    return rng.choice(labels), set(labels), edges, targets


def _full_sweep_events(start, nodes, edges, weight_of):
    """Replays the full Bellman-Ford sweep and reports whether some node was
    lowered twice within one sweep, and whether some node was lowered at or
    behind the sweep position (so only the next sweep can scan it)."""
    order = list(nodes)
    index = {node: k for k, node in enumerate(order)}
    dist = {start: 0}
    twice = behind = False
    for _ in range(len(order) + 1):
        lowered: dict = {}
        for u in order:
            if u not in dist:
                continue
            du = dist[u]
            for x, payload, v in edges:
                if x == u and du + weight_of(payload) < dist.get(v, INF):
                    dist[v] = du + weight_of(payload)
                    lowered[v] = lowered.get(v, 0) + 1
                    twice |= lowered[v] > 1
                    behind |= index[v] <= index[u]
        if not lowered:
            return twice, behind
    raise AssertionError("negative cycle")


def test_lowered_node_sweep_matches_dict_reference_on_synthetic_graphs():
    # Same distance and same path, ties included, as the full sweep of the
    # reference on graphs with zero-weight cycles and ties; the graphs must
    # make the sweep lower a node twice in one sweep and lower a node
    # behind the sweep position.
    rng = random.Random(14)
    weigh = lambda payload: payload[0] + payload[1]
    seen = {"twice": 0, "behind": 0, "bellman_ford": 0}
    for k in range(300):
        start, nodes, edges, targets = _potential_graph(rng)
        expected = _reference_chain(start, nodes, edges, weigh, targets)
        assert shortest_path(start, nodes, edges, weigh, targets) == expected, k
        if any(weigh(p) < 0 for _, p, _ in edges):
            twice, behind = _full_sweep_events(start, nodes, edges, weigh)
            seen["bellman_ford"] += 1
            seen["twice"] += twice
            seen["behind"] += behind
    assert min(seen.values()) >= 20, seen


def test_shortest_path_raises_on_a_negative_cycle():
    cycle = [(0, -1, 1), (1, 0, 2), (2, 0, 0), (2, 5, 3)]
    with pytest.raises(AssertionError):
        shortest_path(0, {0, 1, 2, 3}, cycle, lambda z: z, [3])
    loop = [(0, 2, 1), (1, -1, 1)]
    with pytest.raises(AssertionError):
        shortest_path(0, {0, 1}, loop, lambda z: z, [1])
