"""Game arenas: weighted directed graphs with a source, a target, and a
player count.

The JSON file format (see :func:`parse_arena`) is strict: unknown keys are
rejected, cost-function pieces must be sorted by ``from_load``, and the target
state carries an implicit zero-cost self-loop that files may omit.
"""

from __future__ import annotations

import functools
import json

from .costfn import ZERO, CostFunction, CostFunctionError, Record, validate_pieces


class ArenaError(ValueError):
    """Raised for syntactically or structurally invalid arenas."""


class Arena(Record):
    """States, edges, source and target.

    States are kept in file declaration order, which is the canonical order
    used for every later tie-break.  ``edges`` maps ordered state-index pairs
    to cost functions (at most one edge per pair); ``edge_list`` is the
    declaration order of edges with the target self-loop last when implicit.
    ``out`` lists, per state, its outgoing ``(successor, cost_fn)`` pairs in
    edge declaration order.
    """

    _fields = ("states", "edges", "edge_list", "out", "src", "tgt")

    def __init__(
        self,
        states: tuple[str, ...],
        edges: dict[tuple[int, int], CostFunction],
        edge_list: tuple[tuple[int, int], ...],
        out: tuple[tuple[tuple[int, CostFunction], ...], ...],
        src: int,
        tgt: int,
    ):
        self.states, self.edges, self.edge_list = states, edges, edge_list
        self.out, self.src, self.tgt = out, src, tgt

    @functools.cached_property
    def names(self) -> dict[str, int]:
        """State name -> index, built on first use."""
        return {name: k for k, name in enumerate(self.states)}

    def index(self, name: str) -> int:
        try:
            return self.names[name]
        except (KeyError, TypeError):  # TypeError: an unhashable name
            raise ArenaError(f"unknown state {name!r}") from None

    @functools.cached_property
    def hops(self) -> list[int]:
        """Fewest edges from each state to the target, -1 where there is no
        route (BFS on reversed edges), built on first use."""
        preds: list[list[int]] = [[] for _ in self.states]
        for u, v in self.edges:
            preds[v].append(u)
        hops = [-1] * len(self.states)
        hops[self.tgt] = 0
        queue = [self.tgt]
        for v in queue:
            for u in preds[v]:
                if hops[u] < 0:
                    hops[u] = hops[v] + 1
                    queue.append(u)
        return hops


class Game:
    """An arena played by ``n`` players, all routing src -> tgt."""

    def __init__(self, arena: Arena, n: int):
        if n < 1:
            raise ArenaError(f"player count must be >= 1, got {n}")
        self.arena, self.n = arena, n

    @functools.cached_property
    def view(self):
        """The game's tables (:class:`graphs.GameView`), built on first use."""
        from .graphs import GameView  # graphs imports this module

        return GameView(self)


def build_arena(states, edges, src, tgt) -> Arena:
    """Assembles an arena from state names and ``(from, to, cost_fn)`` triples.

    Inserts the target self-loop if missing and checks all structural
    invariants; raises :class:`ArenaError` with the offending state or edge
    otherwise.
    """
    states = tuple(states)
    if len(set(states)) != len(states):
        raise ArenaError("duplicate state name")
    index = {s: i for i, s in enumerate(states)}
    for endpoint in (src, tgt):
        if endpoint not in index:
            raise ArenaError(f"unknown state {endpoint!r}")
    edge_map: dict[tuple[int, int], CostFunction] = {}
    edge_list: list[tuple[int, int]] = []
    for frm, to, fn in edges:
        if frm not in index or to not in index:
            missing = frm if frm not in index else to
            raise ArenaError(f"edge references unknown state {missing!r}")
        key = (index[frm], index[to])
        if key in edge_map:
            raise ArenaError(f"duplicate edge {frm!r} -> {to!r}")
        edge_map[key] = fn
        edge_list.append(key)
    tgt_i = index[tgt]
    loop = (tgt_i, tgt_i)
    if loop not in edge_map:
        edge_map[loop] = ZERO
        edge_list.append(loop)
    out: list[list[tuple[int, CostFunction]]] = [[] for _ in states]
    for (u, v) in edge_list:
        out[u].append((v, edge_map[(u, v)]))
    arena = Arena(
        states=states,
        edges=edge_map,
        edge_list=tuple(edge_list),
        out=tuple(tuple(row) for row in out),
        src=index[src],
        tgt=tgt_i,
    )
    arena.names = index
    violations = validate_arena(arena)
    if violations:
        raise ArenaError("; ".join(violations))
    return arena


def validate_arena(arena: Arena) -> list[str]:
    """Returns the list of invariant violations (empty means valid); the
    states that cannot reach the target come last, in state order, read
    from ``Arena.hops``."""
    violations = []
    loop = (arena.tgt, arena.tgt)
    if loop not in arena.edges:
        violations.append(f"target {arena.states[arena.tgt]!r} misses its self-loop")
    elif not arena.edges[loop].is_zero:
        violations.append("target self-loop must have the constant-zero cost")
    for (u, v) in arena.edges:
        if u == arena.tgt and v != arena.tgt:
            violations.append(
                f"target has an outgoing edge to {arena.states[v]!r}; "
                "only the self-loop is allowed"
            )
    for name, hops in zip(arena.states, arena.hops):
        if hops < 0:
            violations.append(f"target unreachable from {name!r}")
    return violations


_ARENA_KEYS = {"states", "source", "target", "edges"}
_EDGE_KEYS = {"from", "to", "cost"}


def _parse_cost(obj) -> CostFunction:
    if not isinstance(obj, dict) or set(obj) != {"pieces"}:
        raise ArenaError(f"cost must be an object with a 'pieces' key: {obj!r}")
    if not isinstance(obj["pieces"], list):
        raise ArenaError(f"cost 'pieces' must be a list: {obj['pieces']!r}")
    pieces = []
    last_from = 0
    for piece in obj["pieces"]:
        if not isinstance(piece, dict) or set(piece) - {
            "from_load",
            "slope",
            "intercept",
        }:
            raise ArenaError(f"bad cost piece {piece!r}")
        entry = (
            piece.get("from_load"),
            piece.get("slope", 0),
            piece.get("intercept", 0),
        )
        if entry[0] is None:
            raise ArenaError(f"cost piece misses 'from_load': {piece!r}")
        if not all(isinstance(v, int) and not isinstance(v, bool) for v in entry):
            raise ArenaError(f"cost piece values must be integers: {piece!r}")
        if entry[0] <= last_from:
            raise ArenaError("cost pieces must be sorted by from_load")
        last_from = entry[0]
        pieces.append(entry)
    try:
        return validate_pieces(pieces)
    except CostFunctionError as exc:
        raise ArenaError(f"invalid cost function: {exc}") from exc


def parse_arena(text: str) -> Arena:
    """Parses the JSON arena format into a validated :class:`Arena`."""
    try:
        data = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ArenaError(f"not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ArenaError("arena file must contain a JSON object")
    unknown = set(data) - _ARENA_KEYS
    if unknown:
        raise ArenaError(f"unknown keys {sorted(unknown)}")
    missing = _ARENA_KEYS - set(data)
    if missing:
        raise ArenaError(f"missing keys {sorted(missing)}")
    states = data["states"]
    if not isinstance(states, list) or not all(isinstance(s, str) for s in states):
        raise ArenaError(f"'states' must be a list of state names: {states!r}")
    for key in ("source", "target"):
        if not isinstance(data[key], str):
            raise ArenaError(f"'{key}' must be a state name: {data[key]!r}")
    if not isinstance(data["edges"], list):
        raise ArenaError(f"'edges' must be a list: {data['edges']!r}")
    edges = []
    for edge in data["edges"]:
        if not isinstance(edge, dict):
            raise ArenaError(f"edge must be an object: {edge!r}")
        unknown = set(edge) - _EDGE_KEYS
        if unknown:
            raise ArenaError(f"unknown edge keys {sorted(unknown)}")
        if set(edge) != _EDGE_KEYS:
            raise ArenaError(f"edge misses keys: {edge!r}")
        if not (isinstance(edge["from"], str) and isinstance(edge["to"], str)):
            raise ArenaError(f"edge endpoints must be state names: {edge!r}")
        edges.append((edge["from"], edge["to"], _parse_cost(edge["cost"])))
    arena = build_arena(states, edges, data["source"], data["target"])
    # Files may declare the target loop, but only as the zero function; any
    # other declared loop was already rejected by build_arena's validation.
    return arena


def serialize_arena(arena: Arena) -> str:
    """Canonical JSON for an arena; the implicit target self-loop is omitted."""
    edges = []
    for (u, v) in arena.edge_list:
        if (u, v) == (arena.tgt, arena.tgt) and arena.edges[(u, v)].is_zero:
            continue
        fn = arena.edges[(u, v)]
        edges.append(
            {
                "from": arena.states[u],
                "to": arena.states[v],
                "cost": {
                    "pieces": [
                        {"from_load": f, "slope": a, "intercept": b}
                        for f, a, b in fn.pieces
                    ]
                },
            }
        )
    payload = {
        "states": list(arena.states),
        "source": arena.states[arena.src],
        "target": arena.states[arena.tgt],
        "edges": edges,
    }
    return json.dumps(payload, indent=2)
