import random

import pytest

import dyncong.ne as ne
from dyncong.arena import Game, build_arena, serialize_arena
from dyncong.cli import run
from dyncong.costfn import constant, kappa
from dyncong.dynamics import BlindProfile, blind_ne, play_profile
from dyncong.graphs import (
    SemanticsError,
    initial_config,
    reachable_graph,
    step,
    target_config,
)
from dyncong.ne import (
    check_ne_outcome,
    compute_values,
    constrained_ne,
    gamma_min_ne,
)
from dyncong.oracle import _all_moves, brute_values
from dyncong.outcome import cheapest_outcome, path_from_configs
from dyncong.socopt import social_optimum

import ne_reference
from corpus import (
    corpus_games,
    differential_games,
    fig1_arena,
    fig5_arena,
    grid_arena,
    layered_arena,
    ne_gap_games,
    random_arena,
    trivial_arena,
)


def _vs(arena, my, others):
    counts = [0] * len(arena.states)
    for name in others:
        counts[arena.index(name)] += 1
    return (arena.index(my), tuple(counts))


def test_values_zero_at_target(fig1, fig1_g2):
    table = compute_values(fig1_g2)
    for (own, counts), value in table.values.items():
        if own == fig1.tgt:
            assert value == 0


def test_values_forced_shared_crossing(fig1, fig1_g2):
    table = compute_values(fig1_g2)
    assert table.values[_vs(fig1, "v3", ["v3"])] == 8


def test_values_hand_computed_entries(fig1, fig1_g2):
    # worked out by unrolling the one-step max-min from the leaf states up
    table = compute_values(fig1_g2)
    expect = {
        ("v3", ("tgt",)): 4,
        ("v3", ("v1",)): 4,
        ("v2", ("v2",)): 10,
        ("v2", ("v3",)): 5,
        ("v2", ("v1",)): 9,
        ("v1", ("v1",)): 11,
        ("v1", ("v2",)): 11,
        ("v1", ("v3",)): 7,
        ("v1", ("src",)): 7,
        ("v2", ("src",)): 5,
        ("src", ("src",)): 13,
    }
    for (my, others), want in expect.items():
        assert table.values[_vs(fig1, my, list(others))] == want, (my, others)


def test_values_match_bounded_tree_search(fig1, fig1_g2):
    table = compute_values(fig1_g2)
    brute = brute_values(fig1_g2, 6)
    for state, value in table.values.items():
        assert brute[state] == value, state


def test_values_respect_ceiling(corpus):
    for name, game in corpus:
        table = compute_values(game)
        ceiling = len(game.arena.states) * kappa(game)
        for value in table.values.values():
            assert 0 <= value <= ceiling, name


def _outcome(game, arena, rows):
    return path_from_configs(
        game, [tuple(arena.index(s) for s in row) for row in rows]
    )


def test_check_ne_accepts_example_four(fig1, fig1_g2):
    path = _outcome(
        fig1_g2,
        fig1,
        [
            ("src", "src"),
            ("v2", "v1"),
            ("v3", "v2"),
            ("tgt", "v3"),
            ("tgt", "tgt"),
        ],
    )
    assert path.cost(0) == 10 and path.cost(1) == 12
    assert check_ne_outcome(fig1_g2, path)


def test_check_ne_rejects_shared_fast_route(fig1, fig1_g2, fig1_paths):
    _, _, path = play_profile(
        fig1_g2, BlindProfile((fig1_paths["pi1"], fig1_paths["pi1"]))
    )
    assert path.cost(0) == 16
    assert not check_ne_outcome(fig1_g2, path)


def test_check_ne_trivial_arena():
    game = Game(trivial_arena(), 2)
    path = _outcome(game, game.arena, [("src", "src"), ("tgt", "tgt")])
    assert check_ne_outcome(game, path)


def test_check_ne_rejects_malformed(fig1, fig1_g2):
    path = _outcome(fig1_g2, fig1, [("src", "src"), ("v1", "v1")])
    with pytest.raises(SemanticsError):
        check_ne_outcome(fig1_g2, path)


def test_gamma_min_ne_fig1(fig1_g2):
    cost, witness = gamma_min_ne(fig1_g2, (1, 1))
    assert cost == 22
    assert check_ne_outcome(fig1_g2, witness)


def test_gamma_min_ne_fig5(fig5_g3):
    cost, _ = gamma_min_ne(fig5_g3, (1, 1, 1))
    assert cost == 36


def test_gamma_zero_vector(fig1_g2):
    cost, _ = gamma_min_ne(fig1_g2, (0, 0))
    assert cost == 0


def test_constrained_ne(fig5_g3, fig1_g2):
    ok, cost, witness = constrained_ne(fig5_g3, (1, 1, 1), 36)
    assert ok and cost == 36 and witness is not None
    ok, cost, _ = constrained_ne(fig5_g3, (1, 1, 1), 35)
    assert not ok
    ok, _, _ = constrained_ne(fig1_g2, (1, 1), 22)
    assert ok


def test_equilibrium_sandwich(corpus):
    for name, game in corpus:
        values = compute_values(game)
        so = social_optimum(game).cost
        best, _ = gamma_min_ne(game, (1,) * game.n, values)
        worst_neg, _ = gamma_min_ne(game, (-1,) * game.n, values)
        worst = -worst_neg
        profile, _ = blind_ne(game)
        _, blind_social, _ = play_profile(game, profile)
        assert so <= best <= blind_social, name
        assert best <= worst, name


def test_gamma_search_agrees_with_enumeration_on_corpus(corpus):
    # Best/worst searches must bracket every bounded equilibrium outcome and
    # coincide with the enumerated extremes whenever their witnesses fit the
    # enumeration depth.
    from dyncong.oracle import brute_ne_outcomes

    for name, game in corpus:
        values = compute_values(game)
        socials = [
            sum(sum(w) for _, w, _ in path.steps)
            for path in brute_ne_outcomes(game, 6)
        ]
        assert socials, name  # a blind equilibrium always exists
        best, best_witness = gamma_min_ne(game, (1,) * game.n, values)
        worst_neg, worst_witness = gamma_min_ne(game, (-1,) * game.n, values)
        worst = -worst_neg
        assert best <= min(socials), name
        assert worst >= max(socials), name
        if len(best_witness.steps) <= 6:
            assert best == min(socials), name
        if len(worst_witness.steps) <= 6:
            assert worst == max(socials), name


def test_gamma_search_brackets_enumerated_outcomes(fig1_g2):
    # every bounded equilibrium outcome sits between the best and worst
    # gamma-search answers; on this arena both ends are 22 exactly
    from dyncong.oracle import brute_ne_outcomes

    values = compute_values(fig1_g2)
    best, _ = gamma_min_ne(fig1_g2, (1, 1), values)
    worst = -gamma_min_ne(fig1_g2, (-1, -1), values)[0]
    socials = []
    for path in brute_ne_outcomes(fig1_g2, 6):
        socials.append(sum(sum(w) for _, w, _ in path.steps))
    assert socials
    assert best <= min(socials)
    assert worst >= max(socials)
    assert best == worst == 22


def test_blind_ne_outcome_is_general_ne(corpus):
    for name, game in corpus:
        profile, _ = blind_ne(game)
        _, _, path = play_profile(game, profile)
        assert check_ne_outcome(game, path), name


def test_values_match_oracle_on_random_arenas():
    rng = random.Random(4)
    for trial in range(24):
        game = Game(random_arena(rng), rng.randint(1, 3))
        horizon = 2 * len(game.arena.states)
        brute = brute_values(game, horizon)
        # One more step of lookahead is one more application of the one-step
        # operator, so an unchanged table is its fixpoint: the exact values.
        assert brute_values(game, horizon + 1) == brute, trial
        table = compute_values(game)
        assert list(table.values) == list(brute), trial
        for state, value in table.values.items():
            assert brute[state] == value, (trial, state)


def test_nash_commands_solve_values_and_search_once(monkeypatch, tmp_path):
    # Each command runs one NE search: the full-graph exploration for a worst
    # equilibrium witness, the on-demand A* for both ratios, and the A* plus
    # its bounded replay for a best equilibrium witness.
    calls = {"values": 0, "explore": 0, "search": 0}

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(ne, "compute_values", counting("values", ne.compute_values))
    monkeypatch.setattr(ne, "_explore_ne_graph", counting("explore", ne._explore_ne_graph))
    monkeypatch.setattr(ne, "_min_ne_search", counting("search", ne._min_ne_search))
    arena = tmp_path / "fig5.json"
    arena.write_text(serialize_arena(fig5_arena()))
    searches = {
        ("ne", "--worst"): {"explore": 1, "search": 0},
        ("poa",): {"explore": 0, "search": 1},
        ("pos",): {"explore": 0, "search": 1},
        ("ne", "--best"): {"explore": 0, "search": 2},
    }
    for command, search in searches.items():
        calls.update(values=0, explore=0, search=0)
        assert run([*command, "--arena", str(arena), "--players", "3"]) == 0
        assert calls == {"values": 1, **search}, command


def _full_graph_min_ne(game, gamma, values):
    """The gamma-cheapest equilibrium over the whole bound-augmented graph:
    the search a gamma with a negative weight runs, and the one every gamma
    ran before the on-demand best-NE search."""
    start, nodes, edges = ne._explore_ne_graph(game, values)
    tgt = target_config(game)
    targets = [node for node in nodes if node[0] == tgt]
    targets.sort(key=lambda node: node != start)
    return cheapest_outcome(game, start, nodes, edges, gamma, targets)


def _floors(game):
    """The whole bound graph (floor 0) and the part whose bounds still cover
    ``dist1`` (the floor of the A* searches)."""
    return [0] * len(game.arena.states), game.view.dist1


def test_best_ne_search_matches_full_graph_search():
    # Cost and witness of the pruned A* plus bounded Dijkstra replay equal
    # the full-graph Dijkstra's, ties included, for nonnegative gamma.
    for k, game in enumerate(differential_games()):
        values = compute_values(game)
        n = game.n
        for gamma in {(1,) * n, (0,) + (1,) * (n - 1), (2,) + (1,) * (n - 1),
                      tuple(range(1, n + 1))}:
            expected = _full_graph_min_ne(game, gamma, values)
            assert gamma_min_ne(game, gamma, values) == expected, (k, gamma)
            assert ne._min_ne_search(
                game, gamma, values, ne._ne_successors(game, values, _floors(game)[0])
            )[0] == expected[0], (k, gamma)


def test_min_ne_search_matches_full_graph_search_for_every_sign():
    # The A* under the bound-aware heuristic finds the full-graph optimum
    # for negative, mixed and nonnegative gamma, with a witness that is an
    # equilibrium outcome of exactly that gamma-cost, both over the whole
    # bound graph and over the nodes that can still pay their way.
    for k, game in enumerate(differential_games()):
        values = compute_values(game)
        n = game.n
        start, nodes, edges = ne._explore_ne_graph(game, values)
        tgt = target_config(game)
        targets = sorted(
            (node for node in nodes if node[0] == tgt), key=lambda node: node != start
        )
        alternating = tuple((-1) ** i for i in range(n))
        gammas = {(-1,) * n, alternating, tuple(-g for g in alternating), (1,) * n,
                  tuple(range(1, n + 1))}
        for gamma in gammas:
            expected, _ = cheapest_outcome(game, start, nodes, edges, gamma, targets)
            for floor in _floors(game):
                cost, witness = ne._min_ne_search(
                    game, gamma, values, ne._ne_successors(game, values, floor)
                )
                assert cost == expected, (k, gamma, floor)
                assert check_ne_outcome(game, witness, values), (k, gamma, floor)
                assert sum(g * witness.cost(i) for i, g in enumerate(gamma)) == cost, (
                    k, gamma, floor)


def test_ratio_search_expands_only_nodes_that_can_pay_their_way(monkeypatch):
    # The PoA A* on grid4 n=2 expanded 2,945 nodes of the whole bound graph;
    # skipping nodes whose bound is below ``dist1`` leaves it 14.
    expanded = []
    make = ne._ne_successors

    def counting(*args):
        successors = make(*args)

        def wrapper(node):
            expanded.append(node)
            return successors(node)
        return wrapper

    monkeypatch.setattr(ne, "_ne_successors", counting)
    assert ne.equilibrium_ratio(Game(grid_arena(4), 2), worst=True)[:2] == (23, 27)
    assert 0 < len(expanded) < 100


def test_ne_graph_edges_hold_one_object_per_node():
    # The successors function builds a new node per transition; the
    # exploration stores the first copy of each in every edge, so the graph
    # holds one object per node.  Its nodes, their set order and its edges
    # stay those of an exploration that stores each node as built.
    game = Game(grid_arena(4), 2)
    values = compute_values(game)
    start, nodes, edges = ne._explore_ne_graph(game, values)
    assert len(edges) > 4 * len(nodes)
    held = {id(u) for u, _, _ in edges} | {id(v) for _, _, v in edges}
    assert len(held) <= len(nodes)
    assert held <= {id(node) for node in nodes}
    successors = ne._ne_successors(game, values, _floors(game)[0])
    plain_nodes, plain_edges, frontier = {start}, [], [start]
    while frontier:
        node = frontier.pop()
        for nxt, weights in successors(node):
            plain_edges.append((node, weights, nxt))
            if nxt not in plain_nodes:
                plain_nodes.add(nxt)
                frontier.append(nxt)
    assert list(nodes) == list(plain_nodes)
    assert edges == plain_edges
    assert len({id(v) for _, _, v in plain_edges}) > len(nodes)


def _table_games():
    # Seed 37 keeps the largest bound-augmented graph at 1,356 nodes, so the
    # node-by-node successor comparison stays well under a second.
    rng = random.Random(37)
    games = [game for _, game in corpus_games()]
    return games + [Game(random_arena(rng), 1 + k % 3) for k in range(20)]


def test_compute_values_matches_reference_tables():
    # The move table built from cached edge-id spreads gives the same values,
    # in the same dict order, as the table built from ``graphs.distributions``.
    for k, game in enumerate(_table_games() + [Game(fig5_arena(), 6)]):
        got = compute_values(game)
        want = ne_reference.compute_values(game)
        assert list(got.values.items()) == list(want.values.items()), k
        assert got.ceiling == want.ceiling, k


def test_one_sweep_values_match_reference_tables():
    # Where every edge off the target leads one hop closer, compute_values
    # stops after its first sweep; fig1 (a DAG whose v1 -> v2 keeps its hop
    # count) and the grids (wait loops) sweep until nothing changes.  Both
    # must give the reference table, items in order.  In the DAG below, a
    # is swept before b at the same key and first reads b's +inf, so a's
    # first-sweep value 10 is not final (it is 1).
    same_hop = build_arena(
        ["src", "a", "b", "tgt"],
        [("src", "a", constant(1)), ("a", "b", constant(0)),
         ("a", "tgt", constant(10)), ("b", "tgt", constant(1))],
        "src", "tgt",
    )
    rng = random.Random(18)
    layered = [Game(layered_arena(rng), 1 + k % 4) for k in range(16)]
    others = [Game(arena, n) for arena in (fig1_arena(), same_hop) for n in (1, 2, 3)]
    others += [Game(grid_arena(k), 2) for k in (3, 4)]
    for k, game in enumerate(layered + others):
        hops = game.arena.hops
        assert (k < len(layered)) == all(
            hops[v] < hops[u] for u, v in game.arena.edges if u != game.arena.tgt
        ), k
        got = compute_values(game)
        want = ne_reference.compute_values(game)
        assert list(got.values.items()) == list(want.values.items()), k


def test_ne_successors_match_reference():
    # Floors shared per deviation class give the same successor lists, in
    # order, at every node of the bound-augmented graph.  With the ``dist1``
    # floor of the A* searches, a list keeps, in order, the successors whose
    # every bound covers ``dist1`` of its player's state.
    for k, game in enumerate(_table_games()):
        values = compute_values(game)
        zeros, dist1 = _floors(game)
        successors = ne._ne_successors(game, values, zeros)
        pruned = ne._ne_successors(game, values, dist1)
        reference = ne_reference.ne_successors(game, values)
        _, nodes, _ = ne._explore_ne_graph(game, values)
        for node in nodes:
            listed = reference(node)
            assert successors(node) == listed, (k, node)
            assert pruned(node) == [
                (nxt, weights) for nxt, weights in listed
                if all(b >= dist1[s] for s, b in zip(*nxt))
            ], (k, node)


def test_deviation_floor_matches_min_over_dev_set():
    num_checked = 0
    for k, game in enumerate(_table_games()):
        values = compute_values(game)
        graph = reachable_graph(game)
        for config, succs in graph.transitions.items():
            for nxt, _ in succs:
                for i in range(game.n):
                    want = ne_reference.deviation_floor(game, values, config, nxt, i)
                    assert ne.deviation_floor(game, values, config, nxt, i) == want, (
                        k, config, nxt, i)
                    num_checked += 1
    assert num_checked > 1000


def _plays_to_target(game, max_steps):
    """Every play from the initial to the target configuration of at most
    ``max_steps`` joint steps."""
    goal = target_config(game)
    found = []

    def walk(configs):
        if configs[-1] == goal:
            found.append(path_from_configs(game, configs))
        elif len(configs) <= max_steps:
            for moves in _all_moves(game, configs[-1]):
                walk(configs + [step(game, configs[-1], moves)[1]])

    walk([initial_config(game)])
    return found


def test_check_ne_outcome_matches_brute_force_on_ne_gap_games():
    # On games whose best and worst equilibria differ, the outcome check
    # accepts exactly the enumerated equilibrium outcomes, and the blind
    # equilibrium's outcome is among them.
    from dyncong.oracle import brute_ne_outcomes

    for k, (game, values) in enumerate(ne_gap_games(41, 8)):
        accepted = set(brute_ne_outcomes(game, 5))
        checked = {
            path for path in _plays_to_target(game, 5)
            if check_ne_outcome(game, path, values)
        }
        assert accepted and checked == accepted, k
        profile, _ = blind_ne(game)
        _, _, path = play_profile(game, profile)
        assert check_ne_outcome(game, path, values), k


def test_reachable_value_table_is_exact(monkeypatch):
    # The NE solvers table only the coalition states that plays from the
    # start reach, with every own state.  Each such entry equals the whole
    # table's, and where the two tables differ, the searches and checks give
    # the same costs, witnesses and verdicts over either; a key outside the
    # reachable table would raise.  Where they are equal, so is every answer.
    # The plays of at most 4 steps on the 15 games where they differ hold
    # 170 equilibrium outcomes and 435 other plays.
    arenas = (fig1_arena(), fig5_arena(), grid_arena(3), grid_arena(4))
    games = differential_games() + [Game(a, n) for a in arenas for n in range(1, 5)]
    solve = ne.compute_values
    shrunk = 0
    for k, game in enumerate(games):
        whole = solve(game)
        part = solve(game, reachable=True)
        assert part.ceiling == whole.ceiling, k
        assert part.values.items() <= whole.values.items(), k
        coalitions = {counts for _, counts in part.values}
        assert len(part.values) == len(coalitions) * len(game.arena.states), k
        if part.values == whole.values:
            continue
        shrunk += 1
        n = game.n
        alternating = tuple((-1) ** i for i in range(n))
        for gamma in {(1,) * n, (-1,) * n, alternating, tuple(range(1, n + 1))}:
            found = gamma_min_ne(game, gamma, part)
            assert gamma_min_ne(game, gamma, whole) == found, (k, gamma)
        for path in _plays_to_target(game, 4):
            verdict = check_ne_outcome(game, path, part)
            assert check_ne_outcome(game, path, whole) == verdict, (k, path)
        ratios = [ne.equilibrium_ratio(game, worst) for worst in (True, False)]
        monkeypatch.setattr(ne, "compute_values", lambda game, reachable=False: whole)
        assert [ne.equilibrium_ratio(game, worst) for worst in (True, False)] == ratios, k
        monkeypatch.setattr(ne, "compute_values", solve)
    assert shrunk >= 10


def test_ne_best_reads_a_small_table_and_few_floors(monkeypatch, capsys, tmp_path):
    # On fig5 n=6 the whole value table holds 6,336 states, and ``ne --best``
    # once computed 6,162 deviation floors, once per class of each
    # configuration it expanded.  Its plays reach 160 value states, and
    # floors keyed by the player's state and the others' moves number 115.
    tables, floors = [], []
    solve, floor = ne.compute_values, ne.deviation_floor

    def counting_values(*args, **kwargs):
        table = solve(*args, **kwargs)
        tables.append(len(table.values))
        return table

    def counting_floor(*args):
        floors.append(args)
        return floor(*args)

    monkeypatch.setattr(ne, "compute_values", counting_values)
    monkeypatch.setattr(ne, "deviation_floor", counting_floor)
    arena = tmp_path / "fig5.json"
    arena.write_text(serialize_arena(fig5_arena()))
    assert run(["ne", "--best", "--arena", str(arena), "--players", "6"]) == 0
    assert len(tables) == 1 and 0 < tables[0] < 200
    assert 0 < len(floors) < 200
