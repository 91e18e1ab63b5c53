"""Spans and counters around the public functions of each dyncong layer.

The tracer wraps module attributes from outside the program: a timed target
records a span (name, start, end, parent span, query id) per call, a counted
target only increments counters.  Hot functions that run millions of times
(cost evaluation, joint steps, deviation floors, distribution enumeration)
are counted, never timed, and the cached ``CounterExploration.sup`` lookups
are timed as one running total, so the trace stays small.

Each target is replaced at every import site: every ``dyncong`` module
attribute bound to the original object gets the wrapper, so
``dyncong.ne.shortest_path`` and ``dyncong.spe.shortest_path`` are both
traced.  A target that no longer exists is listed in ``absent`` instead of
raising, so a later change that removes a function still gets a report.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

# Layers that attribute cost-function calls: a call counts toward the
# innermost open span of one of these layers, else toward "other".
SOLVER_LAYERS = ("socopt", "ne", "spe", "dynamics")


class Tracer:
    def __init__(self, query_id: int):
        self.query_id = query_id
        # [name, start, end, parent index, seconds covered without a span]
        self.spans: list[list] = []
        self.totals: Counter = Counter()  # seconds of summed functions
        self.open: list[int] = []
        self.solver: list[str] = []
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self.counter_nodes: set = set()

    # -- wrapping -------------------------------------------------------

    def timed(self, name: str, fn, after=None):
        """Wraps ``fn`` in a span; ``after(args, result)`` counts work once
        the span has closed, and its time is hidden from the parent span."""
        layer = name.split(".", 1)[0]
        solver = layer in SOLVER_LAYERS
        spans, open_, stack, counts = self.spans, self.open, self.solver, self.counts
        calls = name + ".calls"

        def wrapper(*args, **kwargs):
            index = len(spans)
            parent = open_[-1] if open_ else None
            spans.append([name, time.perf_counter(), None, parent, 0.0])
            open_.append(index)
            if solver:
                stack.append(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index][2] = time.perf_counter()
                open_.pop()
                if solver:
                    stack.pop()
            counts[calls] += 1
            if after is not None:
                started = time.perf_counter()
                after(args, result)
                if parent is not None:
                    spans[parent][4] += time.perf_counter() - started
            return result

        return wrapper

    def summed(self, name: str, fn):
        """Times a hot function without a span per call: its total time is
        kept under ``name`` and covered out of the enclosing span."""
        spans, open_, counts, totals = self.spans, self.open, self.counts, self.totals
        calls = name + ".calls"

        def wrapper(*args, **kwargs):
            started = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                totals[name] += elapsed
                counts[calls] += 1
                if open_:
                    spans[open_[-1]][4] += elapsed

        return wrapper

    def counted(self, name: str, fn):
        counts = self.counts
        calls = name + ".calls"

        def wrapper(*args, **kwargs):
            counts[calls] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _costfn(self, fn):
        counts, stack = self.counts, self.solver

        def wrapper(self_, load):
            counts["costfn.calls." + (stack[-1] if stack else "other")] += 1
            return fn(self_, load)

        return wrapper

    def _distributions(self, fn):
        counts, stack = self.counts, self.solver

        def wrapper(*args, **kwargs):
            counts["graphs.distributions.calls"] += 1
            in_socopt = bool(stack) and stack[-1] == "socopt"
            successors = set()
            yields = 0
            for item in fn(*args, **kwargs):
                yields += 1
                if in_socopt:
                    successors.add(item[2])
                yield item
            counts["graphs.distributions.yields"] += yields
            if in_socopt:
                counts["socopt.expanded"] += 1
                counts["socopt.yields"] += yields
                counts["socopt.distinct_successors"] += len(successors)

        return wrapper

    # -- work counted from results -------------------------------------

    def _after_reachable(self, args, graph):
        self.counts["graphs.reachable_graph.configs"] += len(graph.configs)
        self.counts["graphs.reachable_graph.transitions"] += sum(
            len(succs) for succs in graph.transitions.values()
        )

    def _after_shortest_path(self, args, result):
        _, _, edges, weight_of, _ = args
        self.counts["graphs.shortest_path.edges"] += len(edges)
        if any(weight_of(payload) < 0 for _, payload, _ in edges):
            self.counts["graphs.shortest_path.bellman_ford_calls"] += 1

    def _after_blind_ne(self, args, result):
        self.counts["dynamics.improvement_steps"] += result[1]

    def _after_values(self, args, table):
        self.counts["ne.value_states"] += len(table.values)

    def _after_explore(self, args, result):
        _, nodes, edges = result
        self.counts["ne.explore.nodes"] += len(nodes)
        self.counts["ne.explore.edges"] += len(edges)

    def _after_lambda(self, args, lam):
        self.counts["spe.rounds"] += sum(lam.region_iterations.values())
        self.counts["spe.labels"] += len(lam.labels)

    def _after_counter(self, args, result):
        exploration = args[0]
        self.counts["spe.counter.nodes"] += len(exploration.nodes)
        self.counter_nodes.update(exploration.nodes)

    # -- installation ---------------------------------------------------

    def install(self, package) -> None:
        """Wraps every target of ``package`` (the imported ``dyncong``)."""
        timed, counted = self.timed, self.counted
        functions = [  # (module, attribute, trace name, wrapper factory)
            ("cli", "run", "cli.run", timed),
            ("arena", "parse_arena", "arena.parse_arena", timed),
            ("socopt", "_search", "socopt.search", timed),
            ("graphs", "distributions", "graphs.distributions",
             lambda name, f: self._distributions(f)),
            ("graphs", "reachable_graph", "graphs.reachable_graph",
             lambda name, f: timed(name, f, self._after_reachable)),
            ("graphs", "shortest_path", "graphs.shortest_path",
             lambda name, f: timed(name, f, self._after_shortest_path)),
            ("graphs", "step", "graphs.step", counted),
            ("dynamics", "blind_ne", "dynamics.blind_ne",
             lambda name, f: timed(name, f, self._after_blind_ne)),
            ("dynamics", "best_response", "dynamics.best_response", timed),
            ("ne", "compute_values", "ne.compute_values",
             lambda name, f: timed(name, f, self._after_values)),
            ("ne", "_explore_ne_graph", "ne.explore",
             lambda name, f: timed(name, f, self._after_explore)),
            ("ne", "deviation_floor", "ne.deviation_floor", counted),
            ("ne", "check_ne_outcome", "ne.check_ne_outcome", timed),
            ("ne", "gamma_min_ne", "ne.gamma_min_ne", timed),
            ("spe", "compute_lambda", "spe.compute_lambda",
             lambda name, f: timed(name, f, self._after_lambda)),
            ("spe", "check_spe_outcome", "spe.check_spe_outcome", timed),
            ("spe", "spe_exists", "spe.spe_exists", timed),
            ("spe", "gamma_min_spe", "spe.gamma_min_spe", timed),
        ]
        for module, attr, name, make in functions:
            original = getattr(getattr(package, module, None), attr, None)
            if original is None:
                self.absent.append(name)
            else:
                _replace_everywhere(package, original, make(name, original))
        methods = [  # (module, class, method, trace name, wrapper factory)
            ("costfn", "CostFunction", "__call__", "costfn",
             lambda name, f: self._costfn(f)),
            ("spe", "CounterExploration", "__init__", "spe.counter",
             lambda name, f: timed(name, f, self._after_counter)),
            ("spe", "CounterExploration", "sup", "spe.sup", self.summed),
        ]
        for module, cls_name, attr, name, make in methods:
            cls = getattr(getattr(package, module, None), cls_name, None)
            if cls is None or attr not in vars(cls):
                self.absent.append(name)
            else:
                setattr(cls, attr, make(name, vars(cls)[attr]))

    # -- export ---------------------------------------------------------

    def export(self) -> dict:
        counts = dict(self.counts)
        if self.counter_nodes:
            counts["spe.counter.distinct_nodes"] = len(self.counter_nodes)
        return {
            "query": self.query_id,
            "spans": self.spans,
            "summed": dict(self.totals),
            "counts": counts,
            "absent": self.absent,
        }


def _replace_everywhere(package, original, wrapper) -> None:
    """Rebinds every attribute of the package's modules that is ``original``."""
    prefix = package.__name__
    for name, module in list(sys.modules.items()):
        if module is None or not (name == prefix or name.startswith(prefix + ".")):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapper)
