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

A label of -inf marks an edge whose source has a successor with no consistent
continuation at all; such an edge can never be used.  All finite labels at the
fixpoint are bounded by ``|V| * kappa``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
from .outcome import check_outcome_shape, cheapest_outcome

EdgeKey = tuple[Config, Config]
LabelTable = dict[EdgeKey, tuple]  # per-edge tuple of per-player labels


def region(game: Game, config: Config) -> int:
    """Number of players already on the target; never decreases along play."""
    tgt = game.arena.tgt
    return sum(1 for s in config if s == tgt)


def initial_counters(game: Game, config: Config) -> tuple:
    tgt = game.arena.tgt
    return tuple(0 if s == tgt else INF for s in config)


class CounterExploration:
    """Reachable part of a counter graph from a set of start configurations.

    Shares one forward exploration, one backward (coaccessibility) pass and
    one SCC sweep across all queries against the same labels: "is there a
    valid path" (:meth:`valid_exists`) and "what is the worst consistent
    cost" (:meth:`sup`, every player's value in the one sweep).  The labels
    are read in ``__init__`` only, so a caller may rewrite them while it
    still queries the exploration.

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
    :func:`gamma_min_spe` breaks cost ties the same way.

    ``counter_bound`` checks every counter of every explored edge, before the
    prune test.  Pruned nodes are not expanded, but their counters obey the
    bound too: a finite counter is at most some finite label it met (or an
    initial 0), and ``compute_lambda`` asserts labels against the bound.
    """

    def __init__(self, game: Game, graph: ReachableGraph, labels: LabelTable,
                 starts, counter_bound=None):
        n = game.n
        tgt = game.arena.tgt
        dist1 = game.view.dist1
        tgt_cfg = target_config(game)
        budget = node_budget()
        bound = INF if counter_bound is None else counter_bound
        self.start_nodes = {
            c: (c, initial_counters(game, c)) for c in starts
        }
        adjacency: dict = {}
        movers: dict = {}  # per config, the players not yet on the target
        seen = set(self.start_nodes.values())
        frontier = list(seen)
        while frontier:
            node = frontier.pop()
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
        self._n = n
        self._sup = None

    def valid_exists(self, config: Config) -> bool:
        """Whether the counter graph has a valid path from this start."""
        node = self.start_nodes[config]
        return node in self.coaccessible

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
        if self._sup is None:
            self._sup = self._sweep()
        values = self._sup.get(config)
        return None if values is None else values[player]

    def _sweep(self):
        """Iterative Tarjan over the coaccessible subgraph.  A component is
        complete only after every component it reaches, so each one's
        per-player worst costs are computed as it is popped."""
        n = self._n
        adjacency = self.adjacency
        coaccessible = self.coaccessible
        index: dict = {}
        low: dict = {}
        on_stack: set = set()
        stack: list = []
        comp_of: dict = {}
        comp_sup: list = []

        def co_succs(node):
            return iter([
                succ for _, succ in adjacency[node] if succ in coaccessible
            ])

        for root in coaccessible:
            if root in index:
                continue
            work = [(root, co_succs(root))]
            index[root] = low[root] = len(index)
            stack.append(root)
            on_stack.add(root)
            while work:
                node, it = work[-1]
                advanced = False
                for succ in it:
                    if succ not in index:
                        index[succ] = low[succ] = len(index)
                        stack.append(succ)
                        on_stack.add(succ)
                        work.append((succ, co_succs(succ)))
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
                if low[node] != index[node]:
                    continue
                comp = []
                k = len(comp_sup)
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    comp_of[member] = k
                    comp.append(member)
                    if member == node:
                        break
                value = [
                    0 if any(m in self.targets for m in comp) else NEG_INF
                ] * n
                for member in comp:
                    for weights, succ in adjacency[member]:
                        j = comp_of.get(succ)
                        if j is None:  # not coaccessible
                            continue
                        if j == k:  # a charged in-component edge pumps
                            for i in range(n):
                                if weights[i] > 0:
                                    value[i] = INF
                            continue
                        after = comp_sup[j]
                        for i in range(n):
                            candidate = weights[i] + after[i]
                            if candidate > value[i]:
                                value[i] = candidate
                assert min(value) >= 0, "coaccessible node must reach a target"
                comp_sup.append(value)
        return {
            c: comp_sup[comp_of[node]]
            for c, node in self.start_nodes.items() if node in comp_of
        }


@dataclass
class LambdaResult:
    """Fixpoint labels plus the per-region iteration counts, for the
    stabilisation-bound checks."""

    labels: LabelTable
    graph: ReachableGraph
    region_iterations: dict[int, int] = field(default_factory=dict)
    ceiling: int = 0


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
    edges whose values changed.  Rounds stay Jacobi style, as in the
    definitional fixpoint, with no snapshot: the round's
    ``CounterExploration`` reads the labels in its constructor, before any
    is rewritten, and every value of the round comes from it.  Values must
    shrink, a dead source must stay dead, refinement must stabilise within
    ``|V| (1 + n kappa |E|^n)`` rounds, and final finite labels must not
    exceed ``|V| * kappa``; violations raise.
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

    for j in range(n - 1, -1, -1):
        sources = by_region.get(j, [])
        # Round-invariant: the start configurations of the counter graphs
        # (every successor of a source), each source's deviation classes as
        # [player, deviations, edges, value], and each edge's per-player
        # class (None for a player already on the target).
        starts = set()
        classes: dict[Config, list] = {}
        edge_classes: dict[EdgeKey, list] = {}
        for config in sources:
            keyed: dict = {}
            for nxt, _ in graph.successors(config):
                starts.add(nxt)
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
        stale = dict.fromkeys(edge_classes)  # in edge order: first writes
        iterations = 0
        while stale:
            for edge in stale:
                labels[edge] = tuple(
                    0 if cls is None else cls[3] for cls in edge_classes[edge]
                )
            stale = {}
            iterations += 1
            assert iterations <= iteration_cap, (
                "label refinement missed its stabilisation bound"
            )
            bound = max(ceiling, _mu_bound(game, iterations, kap))
            exploration = CounterExploration(
                game, graph, labels, starts, counter_bound=bound
            )
            sup = exploration.sup
            for config in sources:
                is_dead = not all(
                    exploration.valid_exists(succ)
                    for succ, _ in graph.successors(config)
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
                            worst = sup(dev, i)
                            assert worst is not None, (
                                "live source implies consistent "
                                "continuations from every deviation"
                            )
                            if dev_cost + worst < new:
                                new = dev_cost + worst
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
    every suffix cost must respect the fixpoint label of the edge taken."""
    check_outcome_shape(game, path)
    if lam is None:
        lam = compute_lambda(game)
    configs = path.configs()
    for cur, nxt, suffix in zip(configs, configs[1:], path.suffix_costs()):
        label = lam.labels[(cur, nxt)]
        if any(cost > bound for cost, bound in zip(suffix, label)):
            return False
    return True


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
