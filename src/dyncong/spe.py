"""Subgame-perfect equilibria via per-edge labels and counter graphs.

The set of SPE outcomes is exactly the set of paths that are *consistent*
with a family of edge labels: along the path, every player's suffix cost must
stay below the label of the edge being taken.  The labels are computed by a
nested fixpoint.  Configurations are stratified by how many players already
sit on the target (that number never decreases); within one stratum, labels
start at "no constraint" and shrink monotonically: the new label of an edge is
the cheapest cost the deviating player could secure against the *worst*
continuation that is still consistent with the previous labels.  Worst
consistent continuations are evaluated on a counter graph, where each player
carries a residual budget that tightens with every label passed.  A player's
deviations from an edge depend only on the edge's source and the other
players' moves, so each round computes one value per such deviation class.
Rounds are semi-naive (Bancilhon and Ramakrishnan, SIGMOD 1986): after a
stratum's first round, only what a rewritten label can reach is re-derived,
and the counter nodes of finished strata are evaluated once per fixpoint.

A label of -inf marks an edge whose source has a successor with no consistent
continuation at all; such an edge can never be used.  All finite labels at the
fixpoint are bounded by ``|V| * kappa``.
"""

from __future__ import annotations

from functools import cached_property

from .arena import Game
from .costfn import kappa
from .graphs import (
    INF,
    NEG_INF,
    BudgetExceeded,
    Config,
    OutcomePath,
    ReachableGraph,
    SemanticsError,
    dev_set,
    initial_config,
    node_budget,
    reachable_graph,
    target_config,
)
from .outcome import check_outcome_shape, cheapest_outcome, label_consistent

EdgeKey = tuple[Config, Config]
LabelTable = dict[EdgeKey, tuple]  # per-edge tuple of per-player labels


def region(game: Game, config: Config) -> int:
    """Number of players already on the target; never decreases along play."""
    return config.count(game.arena.tgt)


def initial_counters(game: Game, config: Config) -> tuple:
    return tuple(0 if s == game.arena.tgt else INF for s in config)


class CounterExploration:
    """Reachable part of a counter graph from a set of start configurations.

    Shares one forward exploration and one SCC sweep across all queries
    against the same labels: "is there a valid path" (:meth:`valid_exists`)
    and "what is the worst consistent cost" (:meth:`sup`, every player's
    value in the one sweep).  The labels are read in ``__init__`` only, so a
    caller may rewrite them while it still queries the exploration.

    Nodes are ``(config, counters)``.  Along an edge, a player on the target
    gets counter 0; any other counter becomes the minimum of itself and the
    edge's label, less the weight just paid.  A valid path keeps every
    counter nonnegative up to and including the step on which its player
    enters the target, so a -inf label poisons the edge.

    Only nodes that can still pay their way to the target are explored (the
    admissible lower-bound pruning of A*, Hart, Nilsson and Raphael, 1968):
    a successor is dropped when some counter it updates is below
    ``dist1[state]``, the load-one distance of that player's new state to
    the target (``Game.view.dist1``).  That is sound:

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
    :func:`gamma_min_spe` breaks cost ties the same way.  ``coaccessible``
    and ``targets`` are computed on first use; the label rounds never read
    them.

    ``known`` maps finished nodes to their worst costs (None: not
    coaccessible).  A known node counts in ``nodes`` and the node budget but
    is not expanded; the sweep takes its value, and adds every node of a
    region above the lowest start's.  So pass ``known`` only while those
    regions' labels are final: a node's value then depends on the node
    alone, and no component spans two regions, as the region never
    decreases along an edge.  ``coaccessible`` and ``targets`` assume no
    ``known``.

    ``counter_bound`` checks every counter of every explored edge, before the
    prune test.  Pruned nodes are not expanded, but their counters obey the
    bound too: a finite counter is at most some finite label it met (or an
    initial 0), and ``compute_lambda`` asserts labels against the bound.
    Counters behind a known node are not checked again: each is at most one
    checked on the edge into it, or a final label, at most ``|V| * kappa``.
    """

    def __init__(self, game: Game, graph: ReachableGraph, labels: LabelTable,
                 starts, counter_bound=None, known=None):
        n = game.n
        tgt = game.arena.tgt
        dist1 = game.view.dist1
        budget = node_budget()
        bound = INF if counter_bound is None else counter_bound
        known = self._known = {} if known is None else known
        self.start_nodes = {
            c: (c, initial_counters(game, c)) for c in starts
        }
        adjacency = self.adjacency = {}
        movers: dict = {}  # per config, the players not yet on the target
        seen = self.nodes = set(self.start_nodes.values())
        frontier = list(seen)
        while frontier:
            node = frontier.pop()
            if node in known:
                continue
            config, counters = node
            players = movers.get(config)
            if players is None:
                players = movers[config] = [
                    i for i in range(n) if config[i] != tgt
                ]
            succs = []
            for nxt, weights in graph.successors(config):
                label = labels[(config, nxt)]
                updated = [0] * n
                keep = True
                for i in players:
                    value = counters[i]
                    if label[i] < value:
                        value = label[i]
                    value -= weights[i]
                    assert value <= bound or value == INF, (
                        "counter exceeded its stabilisation bound"
                    )
                    if value < dist1[nxt[i]]:
                        keep = False
                    updated[i] = value
                if keep:
                    succs.append((weights, (nxt, tuple(updated))))
            adjacency[node] = succs
            for _, nxt_node in succs:
                if nxt_node not in seen:
                    seen.add(nxt_node)
                    if len(seen) > budget:
                        raise BudgetExceeded("counter graph above node budget")
                    frontier.append(nxt_node)
        self._n = n
        self._tgt = tgt

    @cached_property
    def targets(self):
        """The target nodes, in ``adjacency`` order."""
        tgt_cfg = (self._tgt,) * self._n
        return dict.fromkeys(
            node for node in self.adjacency if node[0] == tgt_cfg
        )

    @cached_property
    def coaccessible(self):
        """Nodes from which a target node is reachable (backward pass)."""
        incoming: dict = {node: [] for node in self.nodes}
        for node, succs in self.adjacency.items():
            for _, nxt_node in succs:
                incoming[nxt_node].append(node)
        coaccessible = set(self.targets)
        stack = list(self.targets)
        while stack:
            node = stack.pop()
            for prev in incoming[node]:
                if prev not in coaccessible:
                    coaccessible.add(prev)
                    stack.append(prev)
        return coaccessible

    def valid_exists(self, config: Config) -> bool:
        """Whether the counter graph has a valid path from this start."""
        return self.sup(config, 0) is not None

    def sup(self, config: Config, player: int):
        """Worst cost of ``player`` over consistent continuations from config.

        None when no valid path exists; +inf when a reachable cycle keeps the
        player's counter at +inf while charging them a positive amount (such
        a cycle can be pumped arbitrarily often and still completed); the
        exact maximum otherwise, by longest path over the condensation, where
        in-component edges are free for the player (a positive-weight
        in-component edge would itself be pumpable).  The first call sweeps
        the condensation once for every player.
        """
        values = self._sweep.get(config)
        return None if values is None else values[player]

    @cached_property
    def _sweep(self):
        """Per start configuration, every player's worst cost, or None
        without a valid path.

        Iterative Tarjan (1972) over the explored nodes, with stack
        positions as visit numbers (the stack keeps push order, and a
        popped component takes every node above its root).  A component is
        popped after all it reaches, so it is then known whether it is
        coaccessible (it holds the target node or has an edge into a
        coaccessible component) and each player's worst cost, under the
        pumping rule of :meth:`sup`.  A known node is a component of its own
        with its memoised value; nodes of a region above the lowest start's
        are memoised in turn."""
        n = self._n
        tgt = self._tgt
        adjacency = self.adjacency
        known = self._known
        floor = min((c.count(tgt) for c in self.start_nodes), default=n)
        low = {}  # stack position, lowered to the lowest one reached
        stack = []
        work = []
        comp_of = {}  # set as a node leaves the stack
        comp_sup = []  # per component, its worst costs or None

        def enter(node):
            low[node] = len(stack)
            stack.append(node)
            work.append((node, low[node], iter(adjacency.get(node, ()))))

        for root in self.start_nodes.values():
            if root not in low:
                enter(root)
            while work:
                node, pos, succs = work[-1]
                for _, succ in succs:
                    if succ not in low:
                        enter(succ)
                        break
                    if succ not in comp_of:
                        low[node] = min(low[node], low[succ])
                else:
                    work.pop()
                    if work:
                        parent = work[-1][0]
                        low[parent] = min(low[parent], low[node])
                    if low[node] != pos:
                        continue
                    comp = stack[pos:]
                    del stack[pos:]
                    k = len(comp_sup)
                    for member in comp:
                        comp_of[member] = k
                    if node in known:
                        comp_sup.append(known[node])
                        continue
                    here = node[0].count(tgt)  # the region of every member
                    coaccessible = here == n  # the target node
                    value = [0 if coaccessible else NEG_INF] * n
                    for member in comp:
                        for weights, succ in adjacency[member]:
                            j = comp_of[succ]
                            if j == k:  # a charged in-component edge pumps
                                for i in range(n):
                                    if weights[i] > 0:
                                        value[i] = INF
                                continue
                            after = comp_sup[j]
                            if after is None:  # not coaccessible
                                continue
                            coaccessible = True
                            for i in range(n):
                                candidate = weights[i] + after[i]
                                if candidate > value[i]:
                                    value[i] = candidate
                    if coaccessible:
                        assert min(value) >= 0, (
                            "coaccessible node must reach a target"
                        )
                    else:
                        value = None
                    comp_sup.append(value)
                    if here > floor:
                        for member in comp:
                            known[member] = value
        return {
            c: comp_sup[comp_of[node]] for c, node in self.start_nodes.items()
        }


class LambdaResult:
    """Fixpoint labels plus the per-region iteration counts, for the
    stabilisation-bound checks."""

    def __init__(
        self,
        labels: LabelTable,
        graph: ReachableGraph,
        region_iterations: dict[int, int] | None = None,
        ceiling: int = 0,
    ):
        self.labels, self.graph, self.ceiling = labels, graph, ceiling
        self.region_iterations = {} if region_iterations is None else region_iterations


def _mu_bound(game: Game, k: int, kap: int) -> int:
    """Growth bound for finite label values after k refinement steps."""
    states = len(game.arena.states)
    big_c = states ** game.n
    n = game.n
    return (n * big_c + 2 * states) * sum(
        (n * big_c) ** (l - 1) * kap ** l for l in range(1, k + 1)
    )


def compute_lambda(game: Game) -> LambdaResult:
    """Computes the SPE edge labels by the stratified fixpoint.

    Strata are processed from all-players-done downward; labels of higher
    strata stay fixed.  Each deviation class ``(config, i, nxt without
    entry i)`` gets its deviation list once per stratum and, in each round,
    one value: the minimum of deviation cost plus worst consistent
    continuation.  An edge's label holds its classes' values (0 for a player
    on the target, -inf once the source is dead); a round rewrites only the
    edges whose values changed.  After a stratum's first round, the sources
    of the edges rewritten in the last round are closed backwards over the
    stratum's predecessor lists; the round explores the counter graph from
    the starts in that closure only, and recomputes only the sources in it.
    The rest keep their values exactly: ``sup(dev, .)`` and the valid-path
    check read only labels of edges reachable from ``dev``, none of which
    changed, and the counter bound only grows, so earlier checks still
    hold.  Counter nodes of higher strata, whose labels are final, are
    memoised once per call in ``known``.  Rounds stay Jacobi style, as in
    the definitional fixpoint, with no snapshot: the round's
    ``CounterExploration`` reads the labels in its constructor, before any
    is rewritten, and every value of the round comes from it or, for a
    start outside the closure, from an earlier round that read the same
    labels.  Values must shrink, a dead source must stay dead, refinement
    must stabilise within ``|V| (1 + n kappa |E|^n)`` rounds, and final
    finite labels must not exceed ``|V| * kappa``; violations raise.
    """
    arena = game.arena
    graph = reachable_graph(game)
    kap = kappa(game)
    ceiling = len(arena.states) * kap
    tgt = arena.tgt
    n = game.n

    by_region: dict[int, list[Config]] = {}
    for config in graph.configs:
        by_region.setdefault(region(game, config), []).append(config)

    labels: LabelTable = {}
    result = LambdaResult(labels=labels, graph=graph, ceiling=ceiling)
    tgt_cfg = target_config(game)
    labels[(tgt_cfg, tgt_cfg)] = (0,) * n

    iteration_cap = len(arena.states) * (
        1 + n * kap * len(arena.edges) ** n
    )
    known: dict = {}  # counter nodes of finished regions: worst costs

    for j in range(n - 1, -1, -1):
        sources = by_region.get(j, [])
        # Round-invariant: the start configurations of the counter graphs
        # (every successor of a source) with their predecessors among the
        # sources, each source's deviation classes as [player, deviations,
        # edges, value], and each edge's per-player class (None for a player
        # already on the target).
        preds: dict[Config, list] = {}
        classes: dict[Config, list] = {}
        edge_classes: dict[EdgeKey, list] = {}
        for config in sources:
            keyed: dict = {}
            for nxt, _ in graph.successors(config):
                preds.setdefault(nxt, []).append(config)
                row = edge_classes[(config, nxt)] = []
                for i in range(n):
                    cls = None
                    if config[i] != tgt:
                        key = (i, nxt[:i] + nxt[i + 1:])
                        cls = keyed.get(key)
                        if cls is None:
                            cls = keyed[key] = [
                                i, dev_set(game, config, nxt, i), [], INF
                            ]
                        cls[2].append((config, nxt))
                    row.append(cls)
            classes[config] = list(keyed.values())
        dead = set()
        worst: dict = {}  # per start: its worst costs, False without a path
        affected = {*preds, *sources}  # the first round reads everything
        stale = dict.fromkeys(edge_classes)  # in edge order: first writes
        iterations = 0
        while stale:
            for edge in stale:
                labels[edge] = tuple(
                    0 if cls is None else cls[3] for cls in edge_classes[edge]
                )
            if iterations:  # the configs that reach a rewritten edge
                todo = [config for config, _ in stale]
                affected = set()
                while todo:
                    config = todo.pop()
                    if config not in affected:
                        affected.add(config)
                        todo += preds.get(config, ())
            stale = {}
            iterations += 1
            assert iterations <= iteration_cap, (
                "label refinement missed its stabilisation bound"
            )
            bound = max(ceiling, _mu_bound(game, iterations, kap))
            exploration = CounterExploration(
                game, graph, labels, [c for c in affected if c in preds],
                counter_bound=bound, known=known,
            )
            for start in exploration.start_nodes:
                worst[start] = exploration.valid_exists(start) and [
                    exploration.sup(start, i) for i in range(n)
                ]
            del exploration  # freed before the next one is built
            for config in sources:
                if config not in affected:
                    continue
                is_dead = not all(
                    worst[succ] for succ, _ in graph.successors(config)
                )
                if config in dead:
                    assert is_dead, "a dead source never comes back to life"
                    continue
                if is_dead:
                    dead.add(config)
                for cls in classes[config]:
                    i, devs, edges, old = cls
                    if is_dead:
                        new = NEG_INF
                    else:
                        new = INF
                        for dev, dev_cost in devs:
                            assert worst[dev], (
                                "live source implies consistent "
                                "continuations from every deviation"
                            )
                            if dev_cost + worst[dev][i] < new:
                                new = dev_cost + worst[dev][i]
                        assert new == INF or new <= bound, (
                            "label exceeded its growth bound"
                        )
                    assert new <= old, "labels must shrink monotonically"
                    if new != old:
                        cls[3] = new
                        stale.update(dict.fromkeys(edges))
        result.region_iterations[j] = iterations
        for config in sources:
            for cls in classes[config]:
                assert cls[3] != INF, "stabilised labels are finite or -inf"
                assert cls[3] == NEG_INF or cls[3] <= ceiling, (
                    "stabilised label above |V| * kappa"
                )
    return result


def check_spe_outcome(game: Game, path: OutcomePath,
                      lam: LambdaResult | None = None) -> bool:
    """Whether the path is the outcome of a subgame-perfect equilibrium:
    every suffix cost must respect the fixpoint label of the edge taken
    (:func:`outcome.label_consistent`)."""
    check_outcome_shape(game, path)
    if lam is None:
        lam = compute_lambda(game)
    return label_consistent(path, lambda cur, nxt, i: lam.labels[(cur, nxt)][i])


def spe_exists(game: Game, lam: LambdaResult | None = None):
    """Whether the game admits any subgame-perfect equilibrium; with a
    socially cheapest witness outcome when it does."""
    found = gamma_min_spe(game, (1,) * game.n, lam)
    if found is None:
        return False, None
    return True, found[1]


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


def constrained_spe(game: Game, gamma, bound: int,
                    lam: LambdaResult | None = None):
    """Whether some SPE has gamma-weighted cost <= bound."""
    found = gamma_min_spe(game, gamma, lam)
    if found is None:
        return False, None, None
    cost, witness = found
    return cost <= bound, cost, witness
