"""The SPE label fixpoint as it stood before deviation classes, kept as a
differential reference.

``compute_lambda`` rebuilds every edge's per-player deviations with
``graphs.dev_set``, recomputes every edge of a region in every round from a
``dict(labels)`` snapshot, and asks ``CounterExploration.sup`` one player at
a time.  The solver in ``dyncong.spe`` must reproduce its labels, their dict
order and its per-region round counts exactly, and ``gamma_min_spe``'s cost
and witness on them.  ``gamma_min_spe`` here runs over this module's
``CounterExploration``.
"""

from __future__ import annotations

from dyncong.arena import Game
from dyncong.costfn import kappa
from dyncong.graphs import (
    INF,
    NEG_INF,
    BudgetExceeded,
    Config,
    ReachableGraph,
    SemanticsError,
    dev_set,
    initial_config,
    node_budget,
    reachable_graph,
    target_config,
    target_distances,
)
from dyncong.outcome import cheapest_outcome
from dyncong.spe import (
    EdgeKey,
    LabelTable,
    LambdaResult,
    _mu_bound,
    check_spe_outcome,
    initial_counters,
    region,
)


class CounterExploration:
    """Reachable part of a counter graph from a set of start configurations.

    Shares one forward exploration, one backward (coaccessibility) pass and
    one SCC decomposition across all queries against the same label snapshot;
    per player it then answers "is there a valid path" and "what is the worst
    consistent cost" questions.

    Nodes are ``(config, counters)``.  Along an edge, a player on the target
    gets counter 0; any other counter becomes the minimum of itself and the
    edge's label, less the weight just paid.  A valid path keeps every
    counter nonnegative up to and including the step on which its player
    enters the target, so a -inf label poisons the edge.

    Only nodes that can still pay their way to the target are explored (the
    admissible lower-bound pruning of A*, Hart, Nilsson and Raphael, 1968):
    a successor is dropped when some counter it updates is below
    ``dist1[state]``, the load-one distance of that player's new state to
    the target (``graphs.target_distances``).  That is sound:

    - ``validate_pieces`` makes costs nonnegative and non-decreasing in load,
      so player i pays at least ``dist1[state_i]`` before reaching the
      target;
    - a counter only falls, by at least the weights paid, and must stay
      >= 0 through the step that enters the target;
    - so a pruned node is not coaccessible, and neither is anything reached
      only through it.

    ``dist1`` of the target is 0, so steps into the target keep the plain
    nonnegativity test.  Pruning only ever removes non-coaccessible nodes,
    and a node that is not coaccessible reaches none that is, so the forward
    search meets the coaccessible nodes in the same order with or without
    the prune.  Hence ``coaccessible``, :meth:`valid_exists`, :meth:`sup`,
    the coaccessible part of ``adjacency`` and ``targets`` (the target nodes
    in ``adjacency`` order) are those of the full counter graph, and
    ``coaccessible`` is filled in the same order, so the witness search of
    :func:`gamma_min_spe` breaks cost ties the same way.

    ``counter_bound`` checks every counter of every explored edge, before the
    prune test.  Pruned nodes are not expanded, but their counters obey the
    bound too: a finite counter is at most some finite label it met (or an
    initial 0), and ``compute_lambda`` asserts labels against the bound.
    """

    def __init__(self, game: Game, graph: ReachableGraph, labels: LabelTable,
                 starts, counter_bound=None):
        self.game = game
        self.graph = graph
        self.labels = labels
        dist1 = target_distances(game.arena)
        tgt_cfg = target_config(game)
        budget = node_budget()
        self.start_nodes = {
            c: (c, initial_counters(game, c)) for c in starts
        }
        adjacency: dict = {}
        seen = set(self.start_nodes.values())
        frontier = list(seen)
        tgt = game.arena.tgt
        while frontier:
            node = frontier.pop()
            config, counters = node
            succs = []
            for nxt, weights in graph.successors(config):
                label = labels[(config, nxt)]
                updated = []
                keep = True
                for i in range(game.n):
                    if config[i] == tgt:
                        updated.append(0)
                        continue
                    value = min(counters[i], label[i]) - weights[i]
                    if counter_bound is not None and value != INF:
                        assert value <= counter_bound, (
                            "counter exceeded its stabilisation bound"
                        )
                    if value < dist1[nxt[i]]:
                        keep = False
                    updated.append(value)
                if keep:
                    succs.append((weights, (nxt, tuple(updated))))
            adjacency[node] = succs
            for _, nxt_node in succs:
                if nxt_node not in seen:
                    seen.add(nxt_node)
                    if len(seen) > budget:
                        raise BudgetExceeded("counter graph above node budget")
                    frontier.append(nxt_node)
        self.nodes = seen
        self.adjacency = adjacency

        # Coaccessibility: nodes from which some (c_tgt, b) is reachable.
        incoming: dict = {node: [] for node in seen}
        for node, succs in adjacency.items():
            for _, nxt_node in succs:
                incoming[nxt_node].append(node)
        targets = dict.fromkeys(
            node for node in adjacency if node[0] == tgt_cfg
        )
        coaccessible = set(targets)
        stack = list(targets)
        while stack:
            node = stack.pop()
            for prev in incoming[node]:
                if prev not in coaccessible:
                    coaccessible.add(prev)
                    stack.append(prev)
        self.coaccessible = coaccessible
        self.targets = targets
        self._sup_cache: dict[int, dict] = {}
        self._components = None

    def valid_exists(self, config: Config) -> bool:
        """Whether the counter graph has a valid path from this start."""
        node = self.start_nodes[config]
        return node in self.coaccessible

    def _condense(self):
        """Tarjan SCCs (iterative) over the coaccessible subgraph, returned in
        reverse topological order of the condensation."""
        if self._components is not None:
            return self._components
        index: dict = {}
        low: dict = {}
        on_stack: set = set()
        stack: list = []
        comp_of: dict = {}
        components: list[list] = []
        counter = [0]

        for root in self.coaccessible:
            if root in index:
                continue
            work = [(root, iter(self._co_succs(root)))]
            index[root] = low[root] = counter[0]
            counter[0] += 1
            stack.append(root)
            on_stack.add(root)
            while work:
                node, it = work[-1]
                advanced = False
                for succ in it:
                    if succ not in index:
                        index[succ] = low[succ] = counter[0]
                        counter[0] += 1
                        stack.append(succ)
                        on_stack.add(succ)
                        work.append((succ, iter(self._co_succs(succ))))
                        advanced = True
                        break
                    if succ in on_stack:
                        low[node] = min(low[node], index[succ])
                if advanced:
                    continue
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    comp = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        comp_of[member] = len(components)
                        comp.append(member)
                        if member == node:
                            break
                    components.append(comp)
        self._components = (components, comp_of)
        return self._components

    def _co_succs(self, node):
        return [
            succ for _, succ in self.adjacency[node] if succ in self.coaccessible
        ]

    def sup(self, config: Config, player: int):
        """Worst cost of ``player`` over consistent continuations from config.

        None when no valid path exists; +inf when a reachable cycle keeps the
        player's counter at +inf while charging them a positive amount (such
        a cycle can be pumped arbitrarily often and still completed); the
        exact maximum otherwise, by longest path over the condensation, where
        in-component edges are free for the player (a positive-weight
        in-component edge would itself be pumpable).
        """
        start = self.start_nodes[config]
        if start not in self.coaccessible:
            return None
        cache = self._sup_cache.get(player)
        if cache is None:
            cache = self._player_sup(player)
            self._sup_cache[player] = cache
        return cache[start]

    def _player_sup(self, player: int):
        components, comp_of = self._condense()
        comp_sup = []
        for comp in components:  # reverse topological order: succs first
            members = set(comp)
            value = 0 if any(node in self.targets for node in comp) else NEG_INF
            pump = False
            for node in comp:
                for weights, succ in self.adjacency[node]:
                    if succ not in self.coaccessible:
                        continue
                    w = weights[player]
                    if succ in members:
                        if w > 0:
                            pump = True
                    else:
                        candidate = w + comp_sup[comp_of[succ]]
                        if candidate > value:
                            value = candidate
            comp_sup.append(INF if pump else value)
        result = {}
        for node in self.coaccessible:
            value = comp_sup[comp_of[node]]
            assert value >= 0, "coaccessible node must reach a target"
            result[node] = value
        return result


def compute_lambda(game: Game) -> LambdaResult:
    """Computes the SPE edge labels by the stratified fixpoint.

    Strata are processed from all-players-done downward.  Within a stratum,
    every refinement recomputes all of its edges from the previous snapshot
    (Jacobi style), so the result matches the definitional fixpoint; labels
    of higher strata stay fixed.  Refinement must shrink labels pointwise and
    stabilise within ``|V| (1 + n kappa |E|^n)`` rounds, and the final finite
    labels must not exceed ``|V| * kappa``; violations raise.
    """
    arena = game.arena
    graph = reachable_graph(game)
    kap = kappa(game)
    ceiling = len(arena.states) * kap
    tgt = arena.tgt
    n = game.n

    by_region: dict[int, list[EdgeKey]] = {}
    for config in graph.configs:
        j = region(game, config)
        for nxt, _ in graph.successors(config):
            by_region.setdefault(j, []).append((config, nxt))

    labels: LabelTable = {}
    result = LambdaResult(labels=labels, graph=graph, ceiling=ceiling)

    tgt_cfg = target_config(game)
    if region(game, tgt_cfg) == n:  # always true; keeps the base case visible
        labels[(tgt_cfg, tgt_cfg)] = (0,) * n

    iteration_cap = len(arena.states) * (
        1 + n * kap * len(arena.edges) ** n
    )

    for j in range(n - 1, -1, -1):
        edges = by_region.get(j, [])
        if not edges:
            result.region_iterations[j] = 0
            continue
        # Round-invariant: the sources, the start configurations of the
        # counter graphs (every successor of a source) and each edge's
        # per-player deviations (None for a player already on the target).
        sources = list(dict.fromkeys(config for config, _ in edges))
        starts = {nxt for _, nxt in edges}
        deviations = {}
        for (config, nxt) in edges:
            labels[(config, nxt)] = tuple(
                0 if config[i] == tgt else INF for i in range(n)
            )
            deviations[(config, nxt)] = [
                None if config[i] == tgt else dev_set(game, config, nxt, i)
                for i in range(n)
            ]
        iterations = 0
        while True:
            iterations += 1
            assert iterations <= iteration_cap, (
                "label refinement missed its stabilisation bound"
            )
            snapshot = dict(labels)
            bound = max(ceiling, _mu_bound(game, iterations, kap))
            exploration = CounterExploration(
                game, graph, snapshot, starts, counter_bound=bound
            )
            dead = {
                config: any(
                    not exploration.valid_exists(succ)
                    for succ, _ in graph.successors(config)
                )
                for config in sources
            }
            changed = False
            for (config, nxt) in edges:
                values = []
                for i, devs in enumerate(deviations[(config, nxt)]):
                    if devs is None:
                        values.append(0)
                        continue
                    if dead[config]:
                        values.append(NEG_INF)
                        continue
                    best = INF
                    for dev, dev_cost in devs:
                        worst = exploration.sup(dev, i)
                        assert worst is not None, (
                            "live source implies consistent continuations "
                            "from every deviation"
                        )
                        candidate = dev_cost + worst
                        if candidate < best:
                            best = candidate
                    values.append(best)
                new = tuple(values)
                old = snapshot[(config, nxt)]
                for a, b in zip(new, old):
                    assert a <= b, "labels must shrink monotonically"
                if new != old:
                    changed = True
                for v in new:
                    if v not in (INF, NEG_INF):
                        assert v <= bound, "label exceeded its growth bound"
                labels[(config, nxt)] = new
            if not changed:
                break
        result.region_iterations[j] = iterations
        for (config, nxt) in edges:
            for v in labels[(config, nxt)]:
                assert v != INF, "stabilised labels are finite or -inf"
                if v != NEG_INF:
                    assert v <= ceiling, "stabilised label above |V| * kappa"
    return result


def gamma_min_spe(game: Game, gamma, lam: LambdaResult | None = None):
    """Cost and witness of a gamma-minimal SPE outcome, or None when no SPE
    exists.  The search runs over the fixpoint counter graph with each step
    weighed by gamma dot w."""
    gamma = tuple(gamma)
    if len(gamma) != game.n:
        raise SemanticsError("gamma must have one weight per player")
    if lam is None:
        lam = compute_lambda(game)
    start_cfg = initial_config(game)
    exploration = CounterExploration(game, lam.graph, lam.labels, [start_cfg])
    coaccessible = exploration.coaccessible
    start = exploration.start_nodes[start_cfg]
    if start not in coaccessible:
        return None
    edges = [
        (node, weights, succ)
        for node, succs in exploration.adjacency.items()
        if node in coaccessible
        for weights, succ in succs
        if succ in coaccessible
    ]
    found = cheapest_outcome(
        game, start, coaccessible, edges, gamma, exploration.targets
    )
    assert found is not None, "coaccessible start must reach a target"
    cost, witness = found
    assert check_spe_outcome(game, witness, lam), (
        "gamma-optimal witness must itself be label-consistent"
    )
    return cost, witness
