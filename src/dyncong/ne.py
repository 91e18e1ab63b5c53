"""General Nash equilibria.

The outcome of a Nash equilibrium is characterized step by step: deviating at
any point can be punished by the coalition of all other players, and the most
they can force on player i from configuration c is the zero-sum value of c
for i.  :func:`check_ne_outcome` decides from these values alone, with no
punishing strategy profile built.  Since the game is symmetric, that value
only depends on the player's own state and the multiset of coalition
positions, so one value table serves every player.  The NE solvers table
only the coalition multisets reachable from the start's, which hold every
entry their plays read; ``values`` prints the whole table.
:func:`compute_values` solves it by in-place sweeps over integer-indexed
value states in order of hop distance to the target (``Arena.hops``),
reading each edge cost from the game's cost rows (``Game.view``); a sweep
that changes nothing is the greatest fixpoint, and on an arena where every
edge off the target leads one hop closer the first sweep already is, so it
stops there (see its docstring).  Optimal (best or worst) Nash equilibria
come from a shortest-path search over the configuration graph augmented
with per-player residual bounds that encode "no pending deviation is
profitable".  Its successors are generated on demand from each
configuration's joint steps, with no configuration graph built first.  The
on-demand search is A* for every gamma, under a heuristic that charges the
load-one distance to the target for a nonnegative weight and the residual
bound for a negative one (:func:`_min_ne_search`).  It skips every node
where some bound is below that distance, since such a node reaches no
target (:func:`_ne_successors`).
PoA and PoS need only its cost; a best NE
(gamma >= 0) takes its witness from a bounded replay of the full-graph
Dijkstra, which skips the same nodes.  A witness for a negative weight
(worst NE, mixed gamma) still comes from exploring the whole graph, none of
it skipped, and running Bellman-Ford, whose
tie-breaks only the whole graph fixes (see :func:`gamma_min_ne`).  That
graph holds one object per node, which every edge into it shares
(:func:`_explore_ne_graph`), and the search reads it as compressed rows
and returns a chain of nodes, whose configurations make the witness; its
sweeps scan only the nodes whose distance fell, which keeps every
tie-break (:func:`graphs.shortest_path`).  Each deviation floor is computed
once per search, for its deviation class (the player's state and the
others' moves), and a node's successor bounds come from the counter step
the SPE counter graphs take too (:func:`graphs.counter_step`), with the
floors as labels.  Every command builds the table once and runs one such
search, PoA and PoS included (:func:`equilibrium_ratio`).
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
    counter_step,
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


def compute_values(game: Game, reachable: bool = False) -> ValueTable:
    """Ordered in-place value iteration for the sup-inf deviation values.

    The table holds every multiset of coalition positions, or with
    ``reachable`` only those R reachable from the start's coalition (n - 1
    players at the source), each with every own state; the NE solvers ask
    for the latter.  R x V is closed under the value game's moves, since
    the coalition's successor is a distribution of its own multiset, so
    the equations there read nothing outside it: the sweeps below reach
    the same greatest fixpoint on it, entry by entry, and the one-sweep
    argument holds there too.  Every key a search or check reads is
    ``(own, counts(nxt - i))`` for a step cur => nxt of a play from the
    initial configuration; the coalition nxt - i is a successor of cur -
    i, so by induction on the play it is in R.

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

    # Coalition states by id.  Each one added counts its row's moves, the
    # product over its occupied states of the ways C(c + d - 1, c) to spread
    # c players over d out-edges, before any row past it is built; the
    # value-table states and these moves are both held to the node budget.
    all_counts: list[tuple[int, ...]] = []
    count_index: dict[tuple[int, ...], int] = {}
    work = 0

    def add(counts):
        nonlocal work
        if (len(all_counts) + 1) * num_states > budget:
            raise BudgetExceeded("value-table state space above node budget")
        work += math.prod(math.comb(c + len(out[v]) - 1, c)
                          for v, c in enumerate(counts) if c)
        count_index[counts] = len(all_counts)
        all_counts.append(counts)
        return count_index[counts]

    for counts in ([parikh(game, initial_config(game)[1:])] if reachable
                   else _coalition_states(game)):
        add(counts)

    # Per coalition state: (per-edge coalition loads, successor id base) for
    # each coalition distribution, each per-state spread listed once as
    # (edge id, count) pairs; no spread list is longer than its row.  The
    # list grows while it is read when ``reachable``: a successor met first
    # is added, a breadth-first closure.
    @functools.cache
    def spreads(v, count):
        return [
            [(eid, c) for (_, eid, _), c in zip(out[v], combo) if c]
            for combo in compositions(count, len(out[v]))
        ]

    moves: list[list[tuple[tuple[int, ...], int]]] = []
    for counts in all_counts:
        if work > budget:
            raise BudgetExceeded("value-table moves above node budget")
        row = []
        for parts in itertools.product(
            *[spreads(v, c) for v, c in enumerate(counts) if c]
        ):
            loads = [0] * len(edges)
            nxt = [0] * num_states
            for k, c in itertools.chain(*parts):
                loads[k] = c
                nxt[edges[k][1]] += c
            key = tuple(nxt)
            ci = count_index.get(key)
            if ci is None:
                ci = add(key)
            row.append((tuple(loads), ci * num_states))
        moves.append(row)
    total = len(all_counts) * num_states

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
        values = compute_values(game, reachable=True)
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


def _ne_successors(game: Game, values: ValueTable, floor):
    """Successor function of the bound-augmented configuration graph.

    Nodes are ``(configuration, bounds)`` with bounds in [0, Y] or +inf, Y
    the value ceiling.  ``successors(node)`` lists ``((nxt, bounds'),
    weights)`` in the order of the configuration's joint steps
    (:meth:`graphs.GameView.joint_steps`): the counter step of
    :func:`graphs.counter_step` with the deviation floors f_i as labels,
    keeping the steps on which every new bound b'_i is at least
    ``floor[c'_i]``.  Floor 0 keeps the whole graph.  The A* searches pass
    ``Game.view.dist1``, the least a player at c'_i still pays; that drops
    only nodes from which no target is coaccessible, by the argument of
    :class:`spe.CounterExploration`: from ``b_i < dist1[c_i]``, ``b'_i <=
    b_i - w_i < dist1[c'_i]``, down to a negative bound at the target.  No
    bound exceeds Y, which the step asserts: the prescribed move is one of
    the deviations of :func:`graphs.dev_set`, at cost exactly w_i, and
    every value is at most Y, so ``f_i <= w_i + Y`` and ``b'_i = min(b_i,
    f_i) - w_i <= Y``.  A player on the target pays 0 on its zero-cost loop
    and keeps bound 0.

    Each configuration's joint steps are generated on its first expansion,
    after their number is held to the node budget, and kept for this
    successor function only; no configuration graph is built beforehand.
    :func:`deviation_floor` reads only the player's state, the heads of the
    others who leave it and the others' next states, all fixed by the
    player's state and the multiset of the others' ``(from, to)`` moves.
    So each floor is computed once per successor function, for the
    deviation class ``(config[i], sorted moves of the others)``, whichever
    player or configuration meets it; a move u -> v is coded ``u * |V| +
    v``.  Only the steps open from the all-+inf node are kept, with their
    floors: a bound only falls, so a step closed there is closed from every
    node.
    """
    tgt = game.arena.tgt
    ceiling = values.ceiling
    out, joint_steps = game.view.out, game.view.joint_steps
    size, budget = len(out), node_budget()
    options: dict[Config, tuple] = {}  # per configuration: (steps, floors)
    floors = {}  # per deviation class

    def successors(node):
        config = node[0]
        opts = options.get(config)
        if opts is None:
            if math.prod(len(out[s]) for s in config) > budget:
                raise BudgetExceeded("equilibrium graph above node budget")
            unbounded = (config, (INF,) * len(config))
            steps, rows = opts = options[config] = [], []
            for step in joint_steps(config):
                nxt = step[0]
                codes = [u * size + v for u, v in zip(config, nxt)]
                moves = sorted(codes)
                row = [0] * len(config)
                for i, code in enumerate(codes):
                    if config[i] != tgt:
                        k = moves.index(code)
                        cls = (config[i], *moves[:k], *moves[k + 1:])
                        if cls not in floors:
                            floors[cls] = deviation_floor(game, values, config, nxt, i)
                        row[i] = floors[cls]
                if counter_step(tgt, unbounded, [step], [row], floor, ceiling):
                    steps.append(step)
                    rows.append(tuple(row))
        return counter_step(tgt, node, *opts, floor, ceiling)

    return successors


def _explore_ne_graph(game: Game, values: ValueTable):
    """Forward reachable part of the bound-augmented configuration graph
    (:func:`_ne_successors`), as ``(start, nodes, edges)`` with edges
    ``(node, weights, successor)`` in depth-first expansion order.

    Each edge holds the object ``nodes`` holds for each of its nodes,
    found through a ``node -> node`` dict; the set gets the same inserts
    in the same order, so its iteration order (the Bellman-Ford
    numbering) is unchanged."""
    successors = _ne_successors(game, values, [0] * len(game.arena.states))
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


def _heuristic(game: Game, gamma):
    """``h(config, bounds) = sum over gamma_i >= 0 of gamma_i * dist_1(c_i)
    + sum over gamma_i < 0 of gamma_i * b_i``.

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
            g * (dist1[s] if g >= 0 else b)
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
      at most Y by the argument of :func:`_ne_successors`, and
      ``b'_i <= b_i - w_i``; with gamma_i < 0 that gives
      ``gamma_i * b_i <= gamma_i * w_i + gamma_i * b'_i``.  Summed over the
      players, ``h(u) <= z + h(v)``: every reduced cost is nonnegative.
      That holds edge by edge, so also where a ``dist1`` floor drops the
      nodes that reach no target, which leaves the optimum unchanged;
    - only the start has +inf bounds; it is popped first and never reached
      again (every successor has finite bounds), so the steps out of it
      need no such inequality;
    - at the target configuration every bound is 0 and every ``dist_1`` is
      0, so h = 0 there and the popped key is the cost itself.

    Given the ``optimum``, it runs the witness replay of
    :func:`gamma_min_ne` instead: Dijkstra on heap keys ``(g, push
    counter)``, skipping every push with ``g + h > optimum``.
    """
    h = _heuristic(game, gamma)
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
      predecessor as its parent.  Both searches skip the nodes below the
      ``dist1`` floor of :func:`_ne_successors`; these reach only such
      nodes, so none relaxes a node that reaches the target, and the kept
      pushes keep their order.
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
        values = compute_values(game, reachable=True)
    if min(gamma) >= 0:
        # The replay expands about the nodes the A* expanded.
        successors = functools.cache(_ne_successors(game, values, game.view.dist1))
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
    values = compute_values(game, reachable=True)
    gamma = (-1 if worst else 1,) * game.n
    cost, witness = _min_ne_search(
        game, gamma, values, _ne_successors(game, values, game.view.dist1)
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

