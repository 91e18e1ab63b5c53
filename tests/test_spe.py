import random

import pytest

import dyncong.spe as spe
from dyncong.arena import Game
from dyncong.dynamics import BlindProfile, play_profile
from dyncong.costfn import kappa
from dyncong.graphs import (
    INF,
    NEG_INF,
    BudgetExceeded,
    dev_set,
    initial_config,
    step,
    target_config,
    target_distances,
)
from dyncong.ne import check_ne_outcome, compute_values, gamma_min_ne
from dyncong.oracle import _all_moves
from dyncong.outcome import path_from_configs
from dyncong.spe import (
    CounterExploration,
    LambdaResult,
    check_spe_outcome,
    compute_lambda,
    constrained_spe,
    gamma_min_spe,
    reachable_graph,
    spe_exists,
)

import spe_reference
from corpus import (
    chain_arena,
    detour_arena,
    diamond_arena,
    differential_games,
    fig5_arena,
    free_wait_arena,
    grid_arena,
    layered_arena,
    ne_gap_games,
    paid_wait_arena,
    random_arena,
    shortcut_arena,
    threshold_arena,
    trivial_arena,
)


def cfg(arena, *names):
    return tuple(arena.index(s) for s in names)


def _mu0_labels(game):
    """Labels with no constraints: 0 for players already done, +inf else."""
    graph = reachable_graph(game)
    tgt = game.arena.tgt
    labels = {}
    for config in graph.configs:
        for nxt, _ in graph.successors(config):
            labels[(config, nxt)] = tuple(
                0 if config[i] == tgt else INF for i in range(game.n)
            )
    return labels, graph


# ---------------------------------------------------------------- counter ops


def _counter_moves(game, labels, config):
    """Counter-graph successors ``{next config: counters}`` of the start node
    of ``config``."""
    exploration = CounterExploration(game, reachable_graph(game), labels, [config])
    node = exploration.start_nodes[config]
    return {nxt: counters for _, (nxt, counters) in exploration.adjacency[node]}


def test_counter_step_all_done(trivial):
    game = Game(trivial, 2)
    labels, _ = _mu0_labels(game)
    done = target_config(game)
    assert _counter_moves(game, labels, done) == {done: (0, 0)}


def test_counter_step_propagates_infinity(trivial):
    game = Game(trivial, 2)
    labels, _ = _mu0_labels(game)
    moves = _counter_moves(game, labels, initial_config(game))
    assert moves == {target_config(game): (INF, INF)}


def test_counter_step_rejects_negative(trivial):
    game = Game(trivial, 2)
    start = initial_config(game)
    goal = target_config(game)
    # weights on the shared edge are (2, 2): a label of 2 leaves player 1 a
    # zero budget, a label of 1 would turn it negative and drops the edge
    labels = {(start, goal): (2, INF), (goal, goal): (0, 0)}
    assert _counter_moves(game, labels, start) == {goal: (0, INF)}
    labels[(start, goal)] = (1, INF)
    assert _counter_moves(game, labels, start) == {}


# ------------------------------------------------------------- consistency


def test_consistent_exists_at_target(fig1_g2):
    labels, graph = _mu0_labels(fig1_g2)
    goal = target_config(fig1_g2)
    exploration = CounterExploration(fig1_g2, graph, labels, [goal])
    assert exploration.valid_exists(goal)
    assert exploration.start_nodes[goal] in exploration.targets


def test_consistent_exists_unconstrained(fig1_g2):
    labels, graph = _mu0_labels(fig1_g2)
    found = gamma_min_spe(fig1_g2, (1, 1), LambdaResult(labels, graph))
    assert found is not None
    assert found[1].configs()[-1] == target_config(fig1_g2)


def test_consistent_exists_with_fixpoint_labels(fig1_g2):
    lam = compute_lambda(fig1_g2)
    ok, witness = spe_exists(fig1_g2, lam)
    assert ok
    assert sum(sum(w) for _, w, _ in witness.steps) <= 22


# ------------------------------------------------------------------ sup cost


def brute_sup(game, labels, start, player, max_len):
    """Max player cost over label-consistent bounded paths; None if none."""
    goal = target_config(game)
    best = [None]

    def consistent(configs):
        weights = []
        for cur, nxt in zip(configs, configs[1:]):
            w, _ = step(game, cur, tuple(zip(cur, nxt)))
            weights.append(w)
        suffix = [0] * game.n
        suffixes = [tuple(suffix)]
        for w in reversed(weights):
            suffix = [a + b for a, b in zip(suffix, w)]
            suffixes.append(tuple(suffix))
        suffixes.reverse()
        for k, (cur, nxt) in enumerate(zip(configs, configs[1:])):
            label = labels[(cur, nxt)]
            for i in range(game.n):
                if suffixes[k][i] > label[i]:
                    return None
        return sum(w[player] for w in weights)

    def walk(configs):
        if configs[-1] == goal:
            cost = consistent(configs)
            if cost is not None and (best[0] is None or cost > best[0]):
                best[0] = cost
            return
        if len(configs) - 1 == max_len:
            return
        for moves in _all_moves(game, configs[-1]):
            _, nxt = step(game, configs[-1], moves)
            walk(configs + [nxt])

    walk([start])
    return best[0]


def _sup(game, labels, graph, start, player):
    return CounterExploration(game, graph, labels, [start]).sup(start, player)


def test_sup_zero_when_player_done(fig1, fig1_g2):
    labels, graph = _mu0_labels(fig1_g2)
    start = cfg(fig1, "tgt", "v3")
    assert _sup(fig1_g2, labels, graph, start, 0) == 0


def test_sup_infinite_on_paid_cycle():
    game = Game(paid_wait_arena(), 2)
    labels, graph = _mu0_labels(game)
    assert _sup(game, labels, graph, initial_config(game), 0) == INF


def test_sup_finite_with_free_cycle():
    # waiting is free, so the worst consistent outcome is the joint crossing
    game = Game(free_wait_arena(), 2)
    labels, graph = _mu0_labels(game)
    assert _sup(game, labels, graph, initial_config(game), 0) == 6


def _assert_sup_matches_enumeration(game, labels, graph, max_len):
    # one exploration from every start, as compute_lambda builds them
    exploration = CounterExploration(game, graph, labels, graph.configs)
    for start in graph.configs:
        for player in range(game.n):
            got = exploration.sup(start, player)
            assert got == _sup(game, labels, graph, start, player), (start, player)
            want = brute_sup(game, labels, start, player, max_len)
            assert got == want, (start, player)


def test_sup_matches_enumeration_unconstrained(fig1, fig1_g2):
    labels, graph = _mu0_labels(fig1_g2)
    _assert_sup_matches_enumeration(fig1_g2, labels, graph, 6)


def test_sup_matches_enumeration_fixpoint_labels(fig1, fig1_g2):
    lam = compute_lambda(fig1_g2)
    _assert_sup_matches_enumeration(fig1_g2, lam.labels, lam.graph, 6)


# ------------------------------------------------------------ label fixpoint


def test_lambda_base_case(fig1_g2):
    lam = compute_lambda(fig1_g2)
    goal = target_config(fig1_g2)
    assert lam.labels[(goal, goal)] == (0, 0)


def test_lambda_two_state_single_player(trivial):
    game = Game(trivial, 1)
    lam = compute_lambda(game)
    start = initial_config(game)
    goal = target_config(game)
    assert lam.labels[(start, goal)] == (1,)  # the edge cost at load one


def test_lambda_values_bounded(corpus):
    for name, game in corpus:
        lam = compute_lambda(game)
        for values in lam.labels.values():
            for v in values:
                assert v == NEG_INF or (0 <= v <= lam.ceiling), name


# -------------------------------------------------------------- spe queries


def test_spe_exists_fig1(fig1_g2):
    ok, witness = spe_exists(fig1_g2)
    assert ok
    assert sum(sum(w) for _, w, _ in witness.steps) == 22


def test_spe_exists_trivial():
    game = Game(trivial_arena(), 3)
    ok, witness = spe_exists(game)
    assert ok


def test_spe_exists_fig5(fig5_g3):
    # The machinery decides the 36-cost equilibrium outcome is not
    # subgame-perfect: the cheapest SPE outcome costs 37.
    lam = compute_lambda(fig5_g3)
    ok, _ = spe_exists(fig5_g3, lam)
    assert ok
    cost, witness = gamma_min_spe(fig5_g3, (1, 1, 1), lam)
    assert cost == 37
    # NE social costs span 36..46 here and every SPE costs 37
    _assert_spe_costs_within_ne(fig5_g3, lam, compute_values(fig5_g3))


def test_check_spe_fig1_examples(fig1_g2, fig1_paths):
    lam = compute_lambda(fig1_g2)
    _, _, good = play_profile(
        fig1_g2, BlindProfile((fig1_paths["pi1"], fig1_paths["pi2"]))
    )
    assert check_spe_outcome(fig1_g2, good, lam)
    _, _, bad = play_profile(
        fig1_g2, BlindProfile((fig1_paths["pi1"], fig1_paths["pi1"]))
    )
    assert not check_spe_outcome(fig1_g2, bad, lam)


def test_check_spe_trivial_crossing():
    game = Game(trivial_arena(), 2)
    path = path_from_configs(
        game, [initial_config(game), target_config(game)]
    )
    assert check_spe_outcome(game, path)


def test_gamma_min_spe_fig1(fig1_g2):
    lam = compute_lambda(fig1_g2)
    cost, witness = gamma_min_spe(fig1_g2, (1, 1), lam)
    assert cost <= 22
    assert check_spe_outcome(fig1_g2, witness, lam)
    cost, _ = gamma_min_spe(fig1_g2, (0, 0), lam)
    assert cost == 0
    worst, _ = gamma_min_spe(fig1_g2, (-1, -1), lam)
    assert worst >= -32
    ok, cost, _ = constrained_spe(fig1_g2, (1, 1), 22, lam)
    assert ok


def _bounded_outcomes(game, max_steps):
    goal = target_config(game)
    found = []

    def walk(configs):
        if configs[-1] == goal:
            found.append(tuple(configs))
            return
        if len(configs) - 1 == max_steps:
            return
        for moves in _all_moves(game, configs[-1]):
            _, nxt = step(game, configs[-1], moves)
            walk(configs + [nxt])

    walk([initial_config(game)])
    return found


def test_counter_monotonicity_and_zero_counters(corpus):
    for name, game in corpus:
        lam = compute_lambda(game)
        exploration = CounterExploration(
            game, lam.graph, lam.labels, [initial_config(game)]
        )
        tgt = game.arena.tgt
        for node, succs in exploration.adjacency.items():
            config, counters = node
            for weights, (nxt, updated) in succs:
                for i in range(game.n):
                    if counters[i] != INF:
                        assert updated[i] <= counters[i], name
                    if counters[i] == 0 and config[i] != tgt:
                        # exhausted budget: no further payments possible
                        assert weights[i] == 0, name


def test_reachable_counter_states_within_bound(corpus):
    from dyncong.costfn import kappa

    for name, game in corpus:
        lam = compute_lambda(game)
        exploration = CounterExploration(
            game, lam.graph, lam.labels, [initial_config(game)]
        )
        states = len(game.arena.states)
        cap = (states ** game.n) * (
            game.n * states ** game.n * max(kappa(game), 1)
        ) ** states
        assert len(exploration.nodes) <= cap, name


def test_gamma_min_spe_is_deterministic(fig1_g2):
    lam = compute_lambda(fig1_g2)
    first = gamma_min_spe(fig1_g2, (1, 1), lam)
    second = gamma_min_spe(fig1_g2, (1, 1), lam)
    assert first == second


def test_consistency_check_equals_counter_lifting(corpus):
    # A path satisfies the per-suffix label check exactly when the greedy
    # counter propagation stays nonnegative all the way to the target.
    for name, game in corpus:
        lam = compute_lambda(game)
        exploration = CounterExploration(
            game, lam.graph, lam.labels, [initial_config(game)]
        )
        for configs in _bounded_outcomes(game, 5):
            path = path_from_configs(game, list(configs))
            node = exploration.start_nodes[configs[0]]
            for nxt in configs[1:]:
                by_config = {succ[0]: succ for _, succ in exploration.adjacency[node]}
                node = by_config.get(nxt)
                if node is None:
                    break
            liftable = node is not None
            assert liftable == check_spe_outcome(game, path, lam), (name, configs)


def _assert_spe_costs_within_ne(game, lam, values):
    """Every SPE outcome is an NE outcome, so wherever an SPE exists:
    best NE <= best SPE <= worst SPE <= worst NE (social costs).  Returns
    those four costs, or None when no SPE exists."""
    ones, minus = (1,) * game.n, (-1,) * game.n
    best_spe = gamma_min_spe(game, ones, lam)
    if best_spe is None:
        return None
    worst_spe = -gamma_min_spe(game, minus, lam)[0]
    best_ne = gamma_min_ne(game, ones, values)[0]
    worst_ne = -gamma_min_ne(game, minus, values)[0]
    assert best_ne <= best_spe[0] <= worst_spe <= worst_ne
    return best_ne, best_spe[0], worst_spe, worst_ne


def test_spe_outcomes_are_ne_outcomes(corpus):
    for name, game in corpus:
        lam = compute_lambda(game)
        values = compute_values(game)
        for configs in _bounded_outcomes(game, 5):
            path = path_from_configs(game, list(configs))
            if check_spe_outcome(game, path, lam):
                assert check_ne_outcome(game, path, values), (name, configs)
        _assert_spe_costs_within_ne(game, lam, values)


def test_spe_invariants_on_games_with_ne_cost_gaps():
    # On these games the NE costs spread, so the SPE costs have room to
    # break the chain best NE <= best SPE <= worst SPE <= worst NE.
    strict = 0
    for game, values in ne_gap_games(41, 8):
        lam = compute_lambda(game)
        ok, witness = spe_exists(game, lam)
        if ok:
            assert check_spe_outcome(game, witness, lam)
            assert check_ne_outcome(game, witness, values)
        for configs in _bounded_outcomes(game, 4):
            path = path_from_configs(game, list(configs))
            if check_spe_outcome(game, path, lam):
                assert check_ne_outcome(game, path, values), configs
        costs = _assert_spe_costs_within_ne(game, lam, values)
        if costs is not None and costs[2] < costs[3]:
            strict += 1
    assert strict > 0  # some worst SPE is cheaper than the worst NE


# ------------------------------------------------------- counter-graph pruning


def _counter_reference(game, graph, labels):
    """The counter graph from every configuration, with no pruning.

    Returns its nodes, the start node of each configuration, the
    coaccessible nodes, the successors of each node and, per player, the
    worst cost from each coaccessible node.  Written apart from ``spe.py``:
    a plain forward search, a backward search from the target nodes, and a
    longest path that calls a cost unbounded when the node reaches a cycle
    that charges the player.
    """
    tgt = game.arena.tgt
    goal = target_config(game)
    starts = {
        c: (c, tuple(0 if s == tgt else INF for s in c)) for c in graph.configs
    }
    succs = {}
    stack = list(starts.values())
    while stack:
        node = stack.pop()
        if node in succs:
            continue
        config, counters = node
        out = []
        for nxt, weights in graph.successors(config):
            label = labels[(config, nxt)]
            updated = tuple(
                0 if config[i] == tgt else min(counters[i], label[i]) - weights[i]
                for i in range(game.n)
            )
            if min(updated) >= 0:
                out.append((weights, (nxt, updated)))
        succs[node] = out
        stack.extend(succ for _, succ in out)

    preds = {node: [] for node in succs}
    for node, out in succs.items():
        for _, succ in out:
            preds[succ].append(node)
    coaccessible = {node for node in succs if node[0] == goal}
    stack = list(coaccessible)
    while stack:
        for prev in preds[stack.pop()]:
            if prev not in coaccessible:
                coaccessible.add(prev)
                stack.append(prev)

    edges = [
        (node, weights, succ)
        for node in coaccessible
        for weights, succ in succs[node]
        if succ in coaccessible
    ]
    reach = {}
    for node in coaccessible:
        seen, todo = {node}, [node]
        while todo:
            for _, succ in succs[todo.pop()]:
                if succ in coaccessible and succ not in seen:
                    seen.add(succ)
                    todo.append(succ)
        reach[node] = seen

    worst = []
    for i in range(game.n):
        paid_cycles = [u for u, w, v in edges if w[i] > 0 and u in reach[v]]
        value = {
            node: INF if any(u in reach[node] for u in paid_cycles)
            else (0 if node[0] == goal else NEG_INF)
            for node in coaccessible
        }
        rounds = 0
        changed = True
        while changed:  # no charging cycle among finite nodes: terminates
            rounds += 1
            assert rounds <= len(coaccessible) + 1
            changed = False
            for u, w, v in edges:
                if value[u] != INF and w[i] + value[v] > value[u]:
                    value[u] = w[i] + value[v]
                    changed = True
        worst.append(value)
    return set(succs), starts, coaccessible, succs, worst


def _assert_pruning_changes_nothing(game, graph, labels):
    nodes, starts, coaccessible, succs, worst = _counter_reference(
        game, graph, labels
    )
    exploration = CounterExploration(game, graph, labels, graph.configs)
    assert exploration.nodes <= nodes
    assert exploration.coaccessible == coaccessible
    goal = target_config(game)
    assert set(exploration.targets) == {node for node in nodes if node[0] == goal}
    # The stabilisation-bound assert never sees the counters of pruned nodes;
    # they still stay within the largest finite label, which compute_lambda
    # checks against the same bound.
    finite = [
        v for label in labels.values() for v in label if v not in (INF, NEG_INF)
    ]
    cap = max([0] + finite)
    for _, counters in nodes:
        assert all(c == INF or c <= cap for c in counters)
    for node in coaccessible:
        kept = [s for _, s in exploration.adjacency[node] if s in coaccessible]
        assert kept == [s for _, s in succs[node] if s in coaccessible]
    for config in graph.configs:
        start = starts[config]
        assert exploration.start_nodes[config] == start
        assert exploration.valid_exists(config) == (start in coaccessible)
        for i in range(game.n):
            want = worst[i][start] if start in coaccessible else None
            assert exploration.sup(config, i) == want, (config, i)
    return len(nodes) - len(exploration.nodes)


def test_pruned_counter_graph_matches_unpruned_reference(corpus):
    import random

    from corpus import random_arena

    rng = random.Random(71)
    games = [game for _, game in corpus]
    games += [Game(random_arena(rng), 1 + k % 3) for k in range(30)]
    pruned = 0
    for game in games:
        lam = compute_lambda(game)
        pruned += _assert_pruning_changes_nothing(game, lam.graph, lam.labels)
        labels, graph = _mu0_labels(game)
        pruned += _assert_pruning_changes_nothing(game, graph, labels)
    assert pruned > 0  # the comparison covers nodes the solver left out


# -------------------------------------------------- one-shot deviation oracle


def outcome_domain(game, graph, start, horizon=None, path_cap=None):
    """The finite set of plays from ``start`` that the one-shot oracle
    starts from, each mapped to its per-player total costs: the plays of at
    most ``horizon`` steps, or, with no horizon, the plays on which every
    player's cost stays at most ``|V| * kappa``.  The latter is finite when
    every edge off the target costs at least 1 at load one.  None when there
    are more than ``path_cap`` plays."""
    goal = target_config(game)
    cap = len(game.arena.states) * kappa(game)
    to_go = target_distances(game.arena)  # a lower bound on what is left
    out = {}

    def walk(configs, costs):
        if configs[-1] == goal:
            out[tuple(configs)] = costs
            return path_cap is None or len(out) <= path_cap
        if len(configs) - 1 == horizon:
            return True
        for nxt, weights in graph.successors(configs[-1]):
            paid = tuple(c + w for c, w in zip(costs, weights))
            if horizon is None and any(
                c + to_go[s] > cap for c, s in zip(paid, nxt)
            ):
                continue
            if not walk(configs + [nxt], paid):
                return False
        return True

    return out if walk([start], (0,) * game.n) else None


def oneshot_stable_sets(game, horizon=None, path_cap=None):
    """Greatest fixpoint of the one-shot-deviation stability operator over
    the plays of :func:`outcome_domain`, per configuration.  Independent of
    the label machinery: pure enumeration.  None when some configuration's
    domain has more than ``path_cap`` plays.

    The operator is monotone, so sweeping in place from the whole domain
    reaches its greatest fixpoint.  With no horizon, that is the fixpoint
    over all plays: every play of the latter is label-consistent, so it
    keeps each player's suffix cost at or below a finite label, at most
    ``|V| * kappa``, and lies in the domain; and a fixpoint inside the
    domain is a fixpoint over all plays.
    """
    graph = reachable_graph(game)
    n = game.n
    sets = {}
    for c in graph.configs:
        sets[c] = outcome_domain(game, graph, c, horizon, path_cap)
        if sets[c] is None:
            return None

    def worst_of(plays):
        return [max((costs[i] for costs in plays.values()), default=None)
                for i in range(n)]

    worst = {c: worst_of(plays) for c, plays in sets.items()}
    deviations = {}
    changed = True
    while changed:
        changed = False
        for c in graph.configs:
            keep = {}
            for configs, total in sets[c].items():
                ok = True
                paid = (0,) * n
                for cur, nxt in zip(configs, configs[1:]):
                    succs = graph.successors(cur)
                    if any(not sets[succ] for succ, _ in succs):
                        ok = False
                        break
                    for i in range(n):
                        key = (cur, nxt, i)
                        if key not in deviations:
                            deviations[key] = dev_set(game, cur, nxt, i)
                        if any(
                            total[i] - paid[i] > dev_cost + worst[dev][i]
                            for dev, dev_cost in deviations[key]
                        ):
                            ok = False
                            break
                    if not ok:
                        break
                    paid = tuple(p + w for p, w in zip(paid, dict(succs)[nxt]))
                if ok:
                    keep[configs] = total
            if len(keep) != len(sets[c]):
                sets[c] = keep
                worst[c] = worst_of(keep)
                changed = True
    return {c: set(plays) for c, plays in sets.items()}


@pytest.mark.parametrize(
    "arena_maker",
    [trivial_arena, diamond_arena, shortcut_arena, threshold_arena, chain_arena],
)
def test_label_machinery_matches_oneshot_oracle(arena_maker):
    game = Game(arena_maker(), 2)
    horizon = 6
    stable = oneshot_stable_sets(game, horizon)[initial_config(game)]
    lam = compute_lambda(game)
    accepted = set()
    for configs in _bounded_outcomes(game, horizon):
        path = path_from_configs(game, list(configs))
        if check_spe_outcome(game, path, lam):
            accepted.add(configs)
    assert accepted == stable


def test_label_machinery_matches_oneshot_oracle_on_ne_gap_games():
    # The two games with 36 reachable configurations are left out: the
    # oracle takes up to minutes on them.
    checked = 0
    for game, _ in ne_gap_games(41, 8):
        if len(reachable_graph(game).configs) > 26:
            continue
        stable = oneshot_stable_sets(game, 4)[initial_config(game)]
        lam = compute_lambda(game)
        accepted = {
            configs for configs in _bounded_outcomes(game, 4)
            if check_spe_outcome(game, path_from_configs(game, list(configs)), lam)
        }
        assert accepted == stable
        checked += 1
    assert checked == 6


def test_label_machinery_matches_oneshot_oracle_on_layered_arenas():
    # Seeded hop-layered arenas, two players, and three for every fourth
    # game.  Every play reaches the target within |V| steps, so that
    # horizon covers every outcome.  Games with more than 40 reachable
    # configurations are left out: here the two games with 57 and 84, on
    # which the oracle took 0.9 and 21 s on a 2-vCPU machine.
    rng = random.Random(5)
    checked = 0
    for k in range(24):
        game = Game(layered_arena(rng), 3 if k % 4 == 3 else 2)
        if len(reachable_graph(game).configs) > 40:
            continue
        horizon = len(game.arena.states)
        stable = oneshot_stable_sets(game, horizon)[initial_config(game)]
        lam = compute_lambda(game)
        accepted = {
            configs for configs in _bounded_outcomes(game, horizon)
            if check_spe_outcome(game, path_from_configs(game, list(configs)), lam)
        }
        assert accepted == stable, k
        checked += 1
    assert checked >= 20, checked


def test_label_machinery_matches_cost_bounded_oracle_on_cyclic_arenas():
    # Arenas with cycles whose every edge off the target costs at least 1 at
    # load one: paid_wait and detour, and the cyclic random_arena draws of
    # seeds 3 and 11 (two players).  The oracle starts from the plays that
    # cost each player at most |V| * kappa, so its fixpoint is the set of
    # all SPE outcomes, with no horizon, and the SCC sweep and pumping rule
    # of the counter graphs are checked against it.  Games with more than
    # 16 reachable configurations, or a configuration with more than 5,000
    # plays in its domain, are skipped and counted.
    def positive(arena):
        return all(fn(1) >= 1 for (u, _), fn in arena.edges.items()
                   if u != arena.tgt)

    games = [Game(paid_wait_arena(), 2), Game(paid_wait_arena(), 3),
             Game(detour_arena(), 2), Game(detour_arena(), 3)]
    for seed in (3, 11):
        rng = random.Random(seed)
        for _ in range(100):
            arena = random_arena(rng)
            if positive(arena) and not _is_dag(arena):
                games.append(Game(arena, 2))
    checked = too_many_configs = too_many_plays = 0
    for game in games:
        assert positive(game.arena) and not _is_dag(game.arena)
        graph = reachable_graph(game)
        if len(graph.configs) > 16:
            too_many_configs += 1
            continue
        sets = oneshot_stable_sets(game, path_cap=5000)
        if sets is None:
            too_many_plays += 1
            continue
        start = initial_config(game)
        lam = compute_lambda(game)
        accepted = {
            configs for configs in outcome_domain(game, graph, start)
            if check_spe_outcome(game, path_from_configs(game, list(configs)), lam)
        }
        assert accepted == sets[start], checked
        assert spe_exists(game, lam)[0] == bool(accepted), checked
        checked += 1
    assert (checked, too_many_configs, too_many_plays) == (30, 18, 6)


@pytest.mark.parametrize(
    "arena_maker",
    [trivial_arena, diamond_arena, shortcut_arena, threshold_arena, chain_arena],
)
def test_gamma_spe_matches_oneshot_extremes(arena_maker):
    game = Game(arena_maker(), 2)
    stable = oneshot_stable_sets(game, 6)[initial_config(game)]
    assert stable
    socials = []
    for configs in stable:
        total = 0
        for cur, nxt in zip(configs, configs[1:]):
            w, _ = step(game, cur, tuple(zip(cur, nxt)))
            total += sum(w)
        socials.append(total)
    lam = compute_lambda(game)
    best, _ = gamma_min_spe(game, (1, 1), lam)
    worst = -gamma_min_spe(game, (-1, -1), lam)[0]
    assert best == min(socials)
    assert worst == max(socials)


def _is_dag(arena):
    visiting, done = set(), set()

    def visit(state):
        if state in done:
            return True
        if state in visiting:
            return False
        visiting.add(state)
        for succ, _ in arena.out[state]:
            if (state, succ) == (arena.tgt, arena.tgt):
                continue
            if not visit(succ):
                return False
        visiting.discard(state)
        done.add(state)
        return True

    return all(visit(s) for s in range(len(arena.states)))


def test_spe_machinery_on_random_arenas():
    import random

    from corpus import random_arena
    from dyncong.ne import check_ne_outcome as ne_check

    rng = random.Random(31)
    checked = 0
    while checked < 12:
        arena = random_arena(rng)
        game = Game(arena, 2)
        lam = compute_lambda(game)  # shrinkage and bounds asserted inline
        ok, witness = spe_exists(game, lam)
        if ok:
            assert check_spe_outcome(game, witness, lam)
            assert ne_check(game, witness)
        _assert_spe_costs_within_ne(game, lam, compute_values(game))
        if _is_dag(arena):
            horizon = len(arena.states)
            stable = oneshot_stable_sets(game, horizon)[initial_config(game)]
            accepted = set()
            for configs in _bounded_outcomes(game, horizon):
                path = path_from_configs(game, list(configs))
                if check_spe_outcome(game, path, lam):
                    accepted.add(configs)
            assert accepted == stable
            assert ok == bool(stable)
        checked += 1


def test_sup_cost_on_random_dag_arenas():
    import random

    from corpus import random_arena

    rng = random.Random(57)
    checked = 0
    while checked < 8:
        arena = random_arena(rng)
        if not _is_dag(arena):
            continue
        game = Game(arena, 2)
        labels, graph = _mu0_labels(game)
        _assert_sup_matches_enumeration(game, labels, graph, len(arena.states))
        checked += 1


# ------------------------------------------------- label rounds per class


def test_compute_lambda_builds_each_deviation_class_once(monkeypatch):
    # A player's deviations from config => nxt depend only on the class
    # (config, player, nxt without the player's entry): grid4 with two
    # players has 1,290 classes against 3,612 edge-player pairs.
    calls = [0]

    def counting(*args):
        calls[0] += 1
        return dev_set(*args)

    monkeypatch.setattr(spe, "dev_set", counting)
    game = Game(grid_arena(4), 2)
    compute_lambda(game)
    graph = reachable_graph(game)
    tgt = game.arena.tgt
    pairs = [
        (config, i, nxt[:i] + nxt[i + 1:])
        for config in graph.configs
        for nxt, _ in graph.successors(config)
        for i in range(game.n)
        if config[i] != tgt
    ]
    assert (calls[0], len(set(pairs)), len(pairs)) == (1290, 1290, 3612)


def test_compute_lambda_matches_reference_rounds():
    # Class values, a sup sweep for all players and rewriting only changed
    # labels give the same labels, in the same dict order, the same rounds
    # per region and the same counter graphs as recomputing every edge from
    # a snapshot; so every gamma-optimal cost and witness is the same too.
    for k, game in enumerate(differential_games()):
        got = compute_lambda(game)
        want = spe_reference.compute_lambda(game)
        assert list(got.labels.items()) == list(want.labels.items()), k
        assert got.region_iterations == want.region_iterations, k
        assert got.ceiling == want.ceiling, k
        configs = want.graph.configs
        new = CounterExploration(game, got.graph, got.labels, configs)
        old = spe_reference.CounterExploration(game, want.graph, want.labels, configs)
        assert list(new.adjacency.items()) == list(old.adjacency.items()), k
        assert list(new.targets) == list(old.targets), k
        assert new.coaccessible == old.coaccessible, k
        for config in configs:
            for i in range(game.n):
                assert new.sup(config, i) == old.sup(config, i), (k, config, i)
        n = game.n
        alternating = tuple((-1) ** i for i in range(n))
        for gamma in ((1,) * n, (-1,) * n, alternating):
            assert gamma_min_spe(game, gamma, got) == (
                spe_reference.gamma_min_spe(game, gamma, want)
            ), (k, gamma)


def test_compute_lambda_matches_reference_on_larger_and_cyclic_games():
    # Rounds that rebuild only the counter graphs a rewritten label can
    # reach, and that reuse the worst costs of finished regions, give the
    # reference's labels, in the same dict order, its rounds per region and
    # its gamma-optimal costs and witnesses, on games with more regions and
    # rounds than differential_games() and on random arenas with cycles.
    rng = random.Random(23)
    games = [Game(grid_arena(4), 2), Game(grid_arena(3), 3),
             Game(fig5_arena(), 4)]
    while len(games) < 15:
        arena = random_arena(rng)
        if not _is_dag(arena):
            games.append(Game(arena, 2 + len(games) % 2))
    for k, game in enumerate(games):
        got = compute_lambda(game)
        want = spe_reference.compute_lambda(game)
        assert list(got.labels.items()) == list(want.labels.items()), k
        assert got.region_iterations == want.region_iterations, k
        assert got.ceiling == want.ceiling, k
        n = game.n
        alternating = tuple((-1) ** i for i in range(n))
        for gamma in ((1,) * n, (-1,) * n, alternating):
            assert gamma_min_spe(game, gamma, got) == (
                spe_reference.gamma_min_spe(game, gamma, want)
            ), (k, gamma)


def _counter_graph_sizes(monkeypatch, game):
    """Node count of each counter graph one compute_lambda builds."""
    sizes = []
    build = CounterExploration.__init__

    def counting(self, *args, **kwargs):
        build(self, *args, **kwargs)
        sizes.append(len(self.nodes))

    monkeypatch.setattr(CounterExploration, "__init__", counting)
    compute_lambda(game)
    monkeypatch.setattr(CounterExploration, "__init__", build)
    return sizes


def test_compute_lambda_explores_only_affected_starts_and_open_regions(
        monkeypatch):
    # grid4 with two players: 14 counter graphs in one call.  Built from
    # every start of the region in every round, with finished regions
    # explored again, they would hold 2,816 nodes; from the affected starts
    # only, with the nodes of finished regions memoised, they hold 2,197.
    sizes = _counter_graph_sizes(monkeypatch, Game(grid_arena(4), 2))
    assert (len(sizes), sum(sizes), max(sizes)) == (14, 2197, 359)


def test_counter_graph_budget_counts_memoised_nodes(monkeypatch):
    # reachable_graph reads graphs.node_budget, so patching spe's copy
    # leaves the configuration graph alone.  A memoised node is not expanded
    # but still counts: the largest counter graph of the call holds 359
    # nodes, and it fits a budget of exactly that and no less.
    game = Game(grid_arena(4), 2)
    want = compute_lambda(game)
    assert max(_counter_graph_sizes(monkeypatch, game)) == 359
    for budget in (100, 358):
        monkeypatch.setattr(spe, "node_budget", lambda: budget)
        with pytest.raises(BudgetExceeded, match="counter graph above node budget"):
            compute_lambda(game)
    monkeypatch.setattr(spe, "node_budget", lambda: 359)
    assert list(compute_lambda(game).labels.items()) == list(want.labels.items())
