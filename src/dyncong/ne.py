"""General Nash equilibria.

The outcome of a Nash equilibrium is characterized step by step: deviating at
any point can be punished by the coalition of all other players, and the most
they can force on player i from configuration c is the zero-sum value of c
for i.  :func:`check_ne_outcome` decides from these values alone, with no
punishing strategy profile built.  Since the game is symmetric, that value
only depends on the player's own state and the multiset of coalition
positions, so one value table serves every player.  :func:`compute_values`
solves it by in-place sweeps over integer-indexed value states in order of
hop distance to the target (``Arena.hops``), reading each edge cost from
the game's cost rows (``Game.view``); a sweep that changes nothing is the
greatest fixpoint, and on an arena where every edge off the target leads
one hop closer the first sweep already is, so it stops there (see its
docstring).  Optimal
(best or worst) Nash equilibria come from a shortest-path search over the
configuration graph augmented with per-player residual bounds that encode
"no pending deviation is profitable".  Its
successors are generated on demand from each configuration's joint steps,
with no configuration graph built first.  The on-demand search is A* for every
gamma, under a heuristic that charges the load-one distance to the target for
a nonnegative weight and the residual bound for a negative one
(:func:`_min_ne_search`).  PoA and PoS need only its cost; a best NE
(gamma >= 0) takes its witness from a bounded replay of the full-graph
Dijkstra.  A witness for a negative weight (worst NE, mixed gamma) still
comes from exploring the whole graph and running Bellman-Ford, whose
tie-breaks only the whole graph fixes (see :func:`gamma_min_ne`).  That
graph holds one object per node, which every edge into it shares
(:func:`_explore_ne_graph`), and the search reads it as compressed rows
and returns a chain of nodes, whose configurations make the witness; its
sweeps scan only the nodes whose distance fell, which keeps every
tie-break (:func:`graphs.shortest_path`).  Each deviation floor is computed
once per deviation class of a configuration, and a node's successor bounds
are worked out one player column at a time.  Every command builds the table
once and runs one such search, PoA and PoS included
(:func:`equilibrium_ratio`).
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math

from .arena import Game
from .costfn import kappa
from .graphs import (
    INF,
    BudgetExceeded,
    Config,
    OutcomePath,
    SemanticsError,
    compositions,
    dev_set,
    initial_config,
    node_budget,
    parikh,
    target_config,
)
from .outcome import (
    check_outcome_shape,
    cheapest_outcome,
    label_consistent,
    path_from_configs,
)
from .socopt import social_optimum

ValueState = tuple[int, tuple[int, ...]]  # (own state, coalition counts)


class ValueTable:
    """Fixpoint values of the punish-one-player zero-sum game.

    ``values[s]`` is the worst total cost the coalition can force on the
    distinguished player from value state ``s``; ``ceiling`` is ``|V| *
    kappa``, an upper bound on every value.
    """

    def __init__(self, values: dict[ValueState, int], ceiling: int):
        self.values, self.ceiling = values, ceiling


def _coalition_states(game: Game):
    """The coalition's per-state head counts, one per multiset of the other
    n - 1 players' states."""
    states = range(len(game.arena.states))
    for combo in itertools.combinations_with_replacement(states, game.n - 1):
        yield parikh(game, combo)


def compute_values(game: Game) -> ValueTable:
    """Ordered in-place value iteration for the sup-inf deviation values.

    One step resolves as: the coalition commits to an edge distribution, then
    the player, who can read the coalition strategy, picks their own edge;
    the player pays their edge's cost at one plus the coalition load on that
    same edge.  Value state ``(own, counts)`` has integer id
    ``count_index * |V| + own``; each player edge's cost is read from the
    game's cost row ``(d(1), ..., d(n))`` (``Game.view``), indexed by the
    coalition load.

    Values start at +inf off the target (0 on it) and are updated in place
    (Gauss-Seidel), each sweep visiting the non-target states in ascending
    order of ``hops(own) + sum(counts[v] * hops(v))``, the hop distances to
    the target (``Arena.hops``), so that one sweep carries values back along
    short routes.  The iteration stops after the first sweep that changes
    nothing.  This is the same fixpoint the Jacobi iteration reaches: the
    one-step operator F is monotone and every iterate starts at +inf, so
    each in-place value stays at or above F's greatest fixpoint (induction:
    x >= nu implies F(x) >= F(nu) = nu) and at or below the Jacobi iterate
    of the same sweep (values only decrease, so an in-place update reads
    values no larger than Jacobi's).  A sweep that changes nothing is a
    fixpoint at or above the greatest one, hence equal to it and to the
    Jacobi limit.  The sweep order and the order of each row's distributions
    affect only the speed.

    When every edge off the target lowers ``hops`` (a hop-layered arena,
    such as Figure 5), the first sweep is the fixpoint and no confirming
    sweep runs (topological value iteration).  Every joint step from a
    non-target own state moves the player one hop closer and no coalition
    member farther (the target has only its loop), so it strictly lowers the
    sweep key, or lands on a target-own state, fixed at 0.  By induction on
    the key, every value a state reads is final when the sweep reaches it,
    and a second sweep would change nothing.  Other arenas, wait loops or
    not, iterate until a sweep changes nothing.

    The fixpoint must be finite (the player alone controls their position,
    so the target is never barred) and at most ``|V| * kappa``.
    """
    arena = game.arena
    num_states = len(arena.states)
    tgt = arena.tgt
    ceiling = num_states * kappa(game)
    budget = node_budget()
    out, edges = game.view.out, arena.edge_list

    all_counts: list[tuple[int, ...]] = []
    for counts in _coalition_states(game):
        if (len(all_counts) + 1) * num_states > budget:
            raise BudgetExceeded("value-table state space above node budget")
        all_counts.append(counts)
    count_index = {counts: ci for ci, counts in enumerate(all_counts)}
    total = len(all_counts) * num_states

    # Per coalition state: (per-edge coalition loads, successor id base) for
    # each coalition distribution, the product over the occupied states of
    # the ways to spread their players over their out-edges, each spread
    # listed once as (edge id, count) pairs.  Their number, the product of
    # the per-state counts C(c + d - 1, d - 1) summed over the rows, is held
    # to the node budget before any row is built; no spread list is longer
    # than the number of coalition states, which passed it.
    @functools.cache
    def spreads(v, count):
        return [
            [(eid, c) for (_, eid, _), c in zip(out[v], combo) if c]
            for combo in compositions(count, len(out[v]))
        ]

    if sum(math.prod(len(spreads(v, c)) for v, c in enumerate(counts) if c)
           for counts in all_counts) > budget:
        raise BudgetExceeded("value-table moves above node budget")
    moves: list[list[tuple[tuple[int, ...], int]]] = []
    for counts in all_counts:
        row = []
        for parts in itertools.product(
            *[spreads(v, c) for v, c in enumerate(counts) if c]
        ):
            loads = [0] * len(edges)
            nxt = [0] * num_states
            for k, c in itertools.chain(*parts):
                loads[k] = c
                nxt[edges[k][1]] += c
            row.append((tuple(loads), count_index[tuple(nxt)] * num_states))
        moves.append(row)

    hops = arena.hops
    layered = all(hops[v] < hops[u] for u, v in arena.edges if u != tgt)
    count_hops = [sum(c * h for c, h in zip(counts, hops)) for counts in all_counts]
    order = sorted(
        (s for s in range(total) if s % num_states != tgt),
        key=lambda s: (hops[s % num_states] + count_hops[s // num_states], s),
    )
    sweep = [(s, out[s % num_states], moves[s // num_states]) for s in order]

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
                for succ, eid, row in opts:
                    r = row[loads[eid]] + values[base + succ]
                    if r < response:
                        response = r
                        if r <= worst:
                            break  # this distribution cannot beat ``worst``
                if response > worst:
                    worst = response
            if worst != values[s]:
                values[s] = worst
                changed = True
        if layered or not changed:
            break
    else:
        raise AssertionError("value iteration missed its convergence cap")

    table: dict[ValueState, int] = {}
    for ci, counts in enumerate(all_counts):
        for own in range(num_states):
            value = values[ci * num_states + own]
            assert value != INF, (
                "infinite fixpoint value: the player alone controls reachability"
            )
            assert value <= ceiling, "fixpoint value above the |V|*kappa ceiling"
            table[(own, counts)] = int(value)
    return ValueTable(values=table, ceiling=ceiling)


def check_ne_outcome(game: Game, path: OutcomePath, values: ValueTable | None = None) -> bool:
    """Whether the path is the outcome of some Nash equilibrium.

    Checks, for every player and step, that the suffix cost is covered by
    the player's :func:`deviation_floor` there: the cheapest unilateral
    deviation's step cost plus the coalition value at the deviated
    configuration (:func:`outcome.label_consistent`).
    """
    check_outcome_shape(game, path)
    if values is None:
        values = compute_values(game)
    return label_consistent(path, functools.partial(deviation_floor, game, values))


def deviation_floor(game: Game, values: ValueTable, config: Config,
                    nxt: Config, player: int) -> int:
    """Least cost ``player`` can secure by deviating from config => nxt.

    Each deviation of :func:`graphs.dev_set` pays its step cost, then faces
    the coalition's value at the deviated configuration.  The coalition
    counts are those of ``nxt`` without the player, whatever the deviation,
    so they are counted once.
    """
    counts = [0] * len(game.arena.states)
    for state in nxt[:player] + nxt[player + 1:]:
        counts[state] += 1
    key = tuple(counts)
    return min(cost + values.values[(dev[player], key)]
               for dev, cost in dev_set(game, config, nxt, player))


def _start_node(game: Game):
    return (initial_config(game), (INF,) * game.n)


def _ne_successors(game: Game, values: ValueTable):
    """Successor function of the bound-augmented configuration graph.

    Nodes are ``(configuration, bounds)`` with bounds in [0, Y] or +inf.
    ``successors(node)`` lists ``((nxt, bounds'), weights)`` in the order of
    the configuration's joint steps (:meth:`graphs.GameView.joint_steps`),
    keeping the edges on which every updated bound stays nonnegative.
    Bounds above the ceiling Y are clamped to Y, which is sound because no
    equilibrium suffix costs more than Y.  Each configuration's joint steps
    are generated on its first expansion and kept for this successor
    function only; no configuration graph is built beforehand.  A deviation
    floor depends on the transition only through the other players' moves,
    so it is computed once per deviation class ``(player, nxt without the
    player)`` of the configuration.  The kept transitions are also stored
    as one column per player, its weights and caps across them, so a node's
    new bounds take n short list passes, one per column; the bound tuples,
    their values and types, and the successor order are those of a pass per
    transition.
    """
    tgt = game.arena.tgt
    ceiling = values.ceiling
    joint_steps = game.view.joint_steps
    # Per configuration, its transitions as (nxt, weights, caps) with
    # caps_i = min(floor_i - w_i, Y): the new bound is min(b_i - w_i, caps_i)
    # (b_i - w_i <= Y when b_i is finite).  A player on the target pays 0
    # on its zero-cost loop and keeps bound 0, as a floor of 0 yields.  A
    # transition with a negative cap is closed from every node.
    options: dict[Config, tuple] = {}

    def successors(node):
        config, bounds = node
        opts = options.get(config)
        if opts is None:
            kept, kept_caps = [], []
            floors = {}  # per deviation class (player, nxt without them)
            for nxt, weights in joint_steps(config):
                caps = []
                for i, state in enumerate(config):
                    cls = (i, nxt[:i] + nxt[i + 1:])
                    if cls not in floors:
                        floors[cls] = 0 if state == tgt else deviation_floor(
                            game, values, config, nxt, i)
                    caps.append(min(floors[cls] - weights[i], ceiling))
                if min(caps) >= 0:
                    kept.append((nxt, weights))
                    kept_caps.append(caps)
            # Per player i, the column of its weights and caps across the
            # kept transitions.
            opts = options[config] = (
                kept, list(zip(zip(*[w for _, w in kept]), zip(*kept_caps))))
        kept, columns = opts
        # Per player, min(b - w, c) down a column, or -1 where b < w closes
        # the transition (every kept cap c is >= 0).
        updated = zip(*[[(x if x <= c else c) if (x := b - w) >= 0 else -1
                         for w, c in zip(ws, cs)]
                        for b, (ws, cs) in zip(bounds, columns)])
        return [((nxt, bnds), weights)
                for (nxt, weights), bnds in zip(kept, updated) if -1 not in bnds]

    return successors


def _explore_ne_graph(game: Game, values: ValueTable):
    """Forward reachable part of the bound-augmented configuration graph
    (:func:`_ne_successors`), as ``(start, nodes, edges)`` with edges
    ``(node, weights, successor)`` in depth-first expansion order.

    Each edge holds the object ``nodes`` holds for each of its nodes,
    found through a ``node -> node`` dict; the set gets the same inserts
    in the same order, so its iteration order (the Bellman-Ford
    numbering) is unchanged."""
    successors = _ne_successors(game, values)
    budget = node_budget()
    start = _start_node(game)
    nodes = {start}
    canonical = {start: start}
    frontier = [start]
    edges = []
    while frontier:
        node = frontier.pop()
        for nxt, weights in successors(node):
            known = canonical.setdefault(nxt, nxt)
            edges.append((node, weights, known))
            if known is nxt:  # first seen: successors() built a new object
                nodes.add(nxt)
                if len(nodes) > budget:
                    raise BudgetExceeded("equilibrium graph above node budget")
                frontier.append(nxt)
    return start, nodes, edges


def _heuristic(game: Game, gamma, ceiling: int):
    """``h(config, bounds) = sum over gamma_i >= 0 of gamma_i * dist_1(c_i)
    + sum over gamma_i < 0 of gamma_i * min(b_i, Y)``, Y the value ceiling.

    A lower bound on the gamma-cost still to pay: a player at state v pays
    at least ``dist_1(v)`` before reaching the target (``Game.view.dist1``),
    and at most their bound b_i, since each step leaves a nonnegative bound
    ``b'_i <= b_i - w_i``.  See :func:`_min_ne_search` for why it is
    consistent.
    """
    dist1 = game.view.dist1

    def h(node):
        config, bounds = node
        return sum(
            g * (dist1[s] if g >= 0 else min(b, ceiling))
            for g, s, b in zip(gamma, config, bounds)
        )

    return h


def _min_ne_search(game: Game, gamma, values: ValueTable, successors,
                   optimum=None):
    """Gamma-cheapest play from the start to the target configuration over
    on-demand successors, as ``(cost, witness)``, for any gamma.

    A* on heap keys ``(g + h, push counter)`` with h from :func:`_heuristic`;
    a parent is set only on a strict improvement, so the witness is the
    parent chain of the first popped target node.  h is consistent (Hart,
    Nilsson and Raphael, 1968), so that node carries the optimum:

    - take a step u -> v of weights w and cost ``z = gamma . w`` from a
      node u other than the start.  Each gamma_i >= 0 term obeys
      ``dist_1(c_i) <= w_i + dist_1(c'_i)``.  The bounds of u are finite,
      so ``b_i <= Y`` and ``b'_i <= b_i - w_i``; with gamma_i < 0 that gives
      ``gamma_i * b_i <= gamma_i * w_i + gamma_i * b'_i``.  Summed over the
      players, ``h(u) <= z + h(v)``: every reduced cost is nonnegative;
    - only the start has +inf bounds; it is popped first and never reached
      again (every successor has finite bounds), so the steps out of it
      need no such inequality;
    - at the target configuration every bound is 0 and every ``dist_1`` is
      0, so h = 0 there and the popped key is the cost itself.

    Given the ``optimum``, it runs the witness replay of
    :func:`gamma_min_ne` instead: Dijkstra on heap keys ``(g, push
    counter)``, skipping every push with ``g + h > optimum``.
    """
    h = _heuristic(game, gamma, values.ceiling)
    tgt_cfg = target_config(game)
    budget = node_budget()
    start = _start_node(game)
    best = {start: 0}
    parent: dict = {}
    heap = [(0, 0, 0, start)]  # the start's key is never compared
    counter = 1
    while heap:
        _, _, d, node = heapq.heappop(heap)
        if best[node] < d:
            continue
        if node[0] == tgt_cfg:
            break
        for nxt, weights in successors(node):
            cost = d + sum(g * w for g, w in zip(gamma, weights))
            if cost < best.get(nxt, INF):
                key = cost + h(nxt)
                if optimum is not None:
                    if key > optimum:
                        continue
                    key = cost
                best[nxt] = cost
                if len(best) > budget:
                    raise BudgetExceeded("equilibrium graph above node budget")
                parent[nxt] = node
                heapq.heappush(heap, (key, counter, cost, nxt))
                counter += 1
    else:
        raise AssertionError("equilibria always exist, so the target must be reachable")
    configs = [node[0]]
    while node != start:
        node = parent[node]
        configs.append(node[0])
    configs.reverse()
    return d, path_from_configs(game, configs)


def gamma_min_ne(game: Game, gamma, values: ValueTable | None = None):
    """Cost and witness outcome of a gamma-minimal Nash equilibrium.

    ``gamma`` weights each player's cost in the objective; all-ones yields a
    best (socially cheapest) equilibrium, all-minus-ones a worst one, whose
    social cost is the negated result.

    The printed witness is the path of a Dijkstra (gamma >= 0) or
    Bellman-Ford search over the whole bound-augmented graph of
    :func:`_explore_ne_graph`, and that is what gamma with a negative weight
    still runs.  For gamma >= 0 the graph is never built:

    - **Cost.** :func:`_min_ne_search` runs A* and gives the optimum C*.
    - **Witness.** Given C*, :func:`_min_ne_search` replays the full-graph
      Dijkstra (same successor order, heap keys ``(d, push counter)``, a
      parent set only on a strict improvement) but skips every push with
      ``d + z + h(v) > C*`` and stops when it pops the target.  A node v
      with ``dist(v) + h(v) <= C*`` keeps its distance: each of its optimal
      predecessors u has ``dist(u) + h(u) <= dist(u) + z + h(v) <= C*`` by
      consistency, so the optimal pushes into v are all kept.  A skipped
      push into v carries a larger distance than any kept one, so it never
      decided whether a kept push was a strict improvement, and the pushes
      of a node outside that set are all skipped.  The kept pushes thus
      happen in the same relative order, keys compare as before, nodes pop
      in the same relative order, and each node gets the same first optimal
      predecessor as its parent.
    - **One target.** Entering the target configuration leaves every bound
      at 0, because the prescribed move is one of the deviations and the
      target's value is 0.  So the target node is unique, and popping it
      ends the search, unless the start is itself at the target
      configuration: then both searches pop it first and the witness is the
      empty play.

    The A* would give the cost for a negative weight too, but not the same
    witness: the full-graph Bellman-Ford breaks ties by the iteration order
    of the node set, which only the whole graph fixes, so those witnesses
    keep it.  Its sweeps scan only the nodes whose distance fell since
    their last scan, which makes the same strict improvements in the same
    order as full sweeps (see :func:`graphs.shortest_path`), so the
    witness does not change.  A start at the target configuration is
    listed first among its targets, so there too the empty play wins the
    tie with the target loop.
    """
    gamma = tuple(gamma)
    if len(gamma) != game.n:
        raise SemanticsError("gamma must have one weight per player")
    if values is None:
        values = compute_values(game)
    if min(gamma) >= 0:
        # The replay expands about the nodes the A* expanded.
        successors = functools.cache(_ne_successors(game, values))
        cost = _min_ne_search(game, gamma, values, successors)[0]
        replayed, witness = _min_ne_search(game, gamma, values, successors, cost)
        assert replayed == cost, "the replay must find the A* optimum"
    else:
        start, nodes, edges = _explore_ne_graph(game, values)
        tgt_cfg = target_config(game)
        targets = [node for node in nodes if node[0] == tgt_cfg]
        targets.sort(key=lambda node: node != start)
        found = cheapest_outcome(game, start, nodes, edges, gamma, targets)
        assert found is not None, (
            "equilibria always exist, so the target must be reachable"
        )
        cost, witness = found
    assert check_ne_outcome(game, witness, values), (
        "witness from the equilibrium graph must itself pass the outcome check"
    )
    return cost, witness


def constrained_ne(game: Game, gamma, bound: int, values: ValueTable | None = None):
    """Whether some Nash equilibrium has gamma-weighted cost <= bound."""
    cost, witness = gamma_min_ne(game, gamma, values)
    if cost <= bound:
        return True, cost, witness
    return False, cost, None


def equilibrium_ratio(game: Game, worst: bool):
    """Price of anarchy (``worst``) or of stability, with one NE search.

    Returns ``(optimum, equilibrium, ratio)``: the social optimum, the social
    cost of the worst (or best) Nash equilibrium, and their exact quotient;
    ``ratio`` is None when it is infinite (zero optimum against a positive
    equilibrium cost).  No witness is printed, so both run the A* of
    :func:`_min_ne_search` alone, with gamma all-minus-ones or all-ones,
    and re-check its witness with :func:`check_ne_outcome`.
    """
    # Imported here, not at module level: ``fractions`` loads ``decimal``,
    # about 0.4 MB of resident memory that no other command needs.
    from fractions import Fraction

    optimum = social_optimum(game).cost
    values = compute_values(game)
    gamma = (-1 if worst else 1,) * game.n
    cost, witness = _min_ne_search(
        game, gamma, values, _ne_successors(game, values)
    )
    assert check_ne_outcome(game, witness, values), (
        "witness from the equilibrium search must itself pass the outcome check"
    )
    equilibrium = -cost if worst else cost
    if optimum == 0:
        ratio = Fraction(1) if equilibrium == 0 else None
    else:
        ratio = Fraction(equilibrium, optimum)
    return optimum, equilibrium, ratio


def poa(game: Game):
    """Price of anarchy: worst equilibrium social cost over the optimum."""
    return equilibrium_ratio(game, worst=True)[2]


def pos(game: Game):
    """Price of stability: best equilibrium social cost over the optimum."""
    return equilibrium_ratio(game, worst=False)[2]

