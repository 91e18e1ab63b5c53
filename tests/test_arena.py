import json
import random
import time

import pytest

from dyncong.arena import (
    Arena,
    ArenaError,
    build_arena,
    parse_arena,
    serialize_arena,
    validate_arena,
)
from dyncong.costfn import constant, linear

from corpus import corpus_games, fig1_arena, fig5_arena, grid_arena, random_arena


def _fig1_json():
    def lin(slope, intercept=0):
        return {"pieces": [{"from_load": 1, "slope": slope, "intercept": intercept}]}

    return {
        "states": ["src", "v1", "v2", "v3", "tgt"],
        "source": "src",
        "target": "tgt",
        "edges": [
            {"from": "src", "to": "v1", "cost": lin(1)},
            {"from": "src", "to": "v2", "cost": lin(0, 5)},
            {"from": "v1", "to": "v2", "cost": lin(0, 6)},
            {"from": "v1", "to": "v3", "cost": lin(3)},
            {"from": "v2", "to": "v3", "cost": lin(1)},
            {"from": "v3", "to": "tgt", "cost": lin(4)},
        ],
    }


def test_parse_fig1():
    arena = parse_arena(json.dumps(_fig1_json()))
    assert arena.states == ("src", "v1", "v2", "v3", "tgt")
    # six declared edges plus the implicit target loop
    assert len(arena.edges) == 7
    loop = (arena.tgt, arena.tgt)
    assert arena.edges[loop].is_zero
    assert arena == fig1_arena()


def test_parse_two_state():
    text = json.dumps(
        {
            "states": ["src", "tgt"],
            "source": "src",
            "target": "tgt",
            "edges": [
                {
                    "from": "src",
                    "to": "tgt",
                    "cost": {"pieces": [{"from_load": 1, "slope": 1, "intercept": 0}]},
                }
            ],
        }
    )
    arena = parse_arena(text)
    assert (arena.tgt, arena.tgt) in arena.edges


def test_parse_rejects_target_out_edge():
    data = _fig1_json()
    data["edges"].append(
        {
            "from": "tgt",
            "to": "v1",
            "cost": {"pieces": [{"from_load": 1, "slope": 0, "intercept": 0}]},
        }
    )
    with pytest.raises(ArenaError, match="outgoing"):
        parse_arena(json.dumps(data))


def test_parse_rejects_nonzero_target_loop():
    data = _fig1_json()
    data["edges"].append(
        {
            "from": "tgt",
            "to": "tgt",
            "cost": {"pieces": [{"from_load": 1, "slope": 0, "intercept": 2}]},
        }
    )
    with pytest.raises(ArenaError, match="self-loop"):
        parse_arena(json.dumps(data))


def test_parse_rejects_unknown_keys():
    data = _fig1_json()
    data["comment"] = "nope"
    with pytest.raises(ArenaError, match="unknown keys"):
        parse_arena(json.dumps(data))
    data = _fig1_json()
    data["edges"][0]["weight"] = 3
    with pytest.raises(ArenaError, match="unknown edge keys"):
        parse_arena(json.dumps(data))


def test_parse_rejects_unsorted_pieces():
    data = _fig1_json()
    data["edges"][0]["cost"] = {
        "pieces": [
            {"from_load": 2, "slope": 0, "intercept": 4},
            {"from_load": 1, "slope": 0, "intercept": 2},
        ]
    }
    with pytest.raises(ArenaError, match="sorted"):
        parse_arena(json.dumps(data))


def test_parse_rejects_duplicate_edge():
    data = _fig1_json()
    data["edges"].append(data["edges"][0])
    with pytest.raises(ArenaError, match="duplicate edge"):
        parse_arena(json.dumps(data))


def test_parse_rejects_unknown_state():
    data = _fig1_json()
    data["edges"][0]["to"] = "nowhere"
    with pytest.raises(ArenaError, match="unknown state"):
        parse_arena(json.dumps(data))


def test_parse_rejects_bad_json():
    with pytest.raises(ArenaError, match="JSON"):
        parse_arena("{not json")


def test_validate_fig1_and_fig5_ok():
    assert validate_arena(fig1_arena()) == []
    assert validate_arena(fig5_arena()) == []


def test_validate_names_unreachable_state():
    with pytest.raises(ArenaError, match="unreachable from 'u'"):
        build_arena(
            ["src", "u", "tgt"],
            [("src", "tgt", linear(1)), ("src", "u", constant(1))],
            "src",
            "tgt",
        )


def _fixpoint_validate_arena(arena: Arena) -> list[str]:
    """Reference: :func:`validate_arena` before it read ``Arena.hops``,
    with its edge-rescanning reachability fixpoint, kept verbatim."""
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
    # Backward reachability to tgt over the edge relation.
    can_reach = {arena.tgt}
    changed = True
    while changed:
        changed = False
        for (u, v) in arena.edges:
            if v in can_reach and u not in can_reach:
                can_reach.add(u)
                changed = True
    for i, name in enumerate(arena.states):
        if i not in can_reach:
            violations.append(f"target unreachable from {name!r}")
    return violations


def _with_dead_states(arena: Arena, rng: random.Random) -> Arena:
    """A copy of ``arena`` with one to four added states that cannot reach
    the target.  Existing states, the target among them, may lead into
    them; they lead only among themselves, in a ring (every one on a cycle)
    or a chain that ends in a state with no out-edge.  ``build_arena`` would
    reject the copy, so it is assembled directly."""
    base, k = len(arena.states), rng.randint(1, 4)
    dead = range(base, base + k)
    added = [(rng.randrange(base), d) for d in dead if rng.random() < 0.7]
    ring = rng.random() < 0.5
    added += [(d, base + (d - base + 1) % k) for d in dead
              if ring or d < base + k - 1]
    edges = dict(arena.edges)
    for edge in added:
        edges.setdefault(edge, constant(1))
    edge_list = tuple(dict.fromkeys(arena.edge_list + tuple(added)))
    out = [[] for _ in range(base + k)]
    for u, v in edge_list:
        out[u].append((v, edges[(u, v)]))
    return Arena(
        states=arena.states + tuple(f"dead{d - base}" for d in dead),
        edges=edges, edge_list=edge_list, out=tuple(map(tuple, out)),
        src=arena.src, tgt=arena.tgt,
    )


def test_validate_arena_matches_fixpoint_reference():
    # The reverse BFS of ``Arena.hops`` names the same states, in state
    # order, as the fixpoint it replaced, with every other violation in
    # place, on valid arenas and on copies with states off every route.
    rng = random.Random(20)
    arenas = [game.arena for _, game in corpus_games()]
    arenas += [random_arena(rng) for _ in range(30)] + [grid_arena(3)]
    rings = 0
    for k, arena in enumerate(arenas):
        assert validate_arena(arena) == _fixpoint_validate_arena(arena) == [], k
        for _ in range(3):
            broken = _with_dead_states(arena, rng)
            got = validate_arena(broken)
            assert got == _fixpoint_validate_arena(broken), k
            dead = broken.states[len(arena.states):]
            assert got[-len(dead):] == [
                f"target unreachable from {name!r}" for name in dead], k
            # Only a ring leads from the last added state to the first.
            rings += (len(broken.states) - 1, len(arena.states)) in broken.edges
    assert rings >= 20, rings


def test_long_chain_declared_source_first_validates_in_linear_time():
    # Each edge leads one state closer to the target, declared from the
    # source on: the fixpoint rescanned every edge once per state here.
    names = [f"s{i}" for i in range(20_000)]
    edges = [(frm, to, constant(1)) for frm, to in zip(names, names[1:])]
    started = time.perf_counter()
    arena = build_arena(names, edges, names[0], names[-1])
    assert time.perf_counter() - started < 2
    assert arena.hops[arena.src] == len(names) - 1


def test_roundtrip_parse_serialize():
    arena = fig1_arena()
    again = parse_arena(serialize_arena(arena))
    assert again == arena
    # serialized form omits the implicit loop
    assert '"tgt", "to": "tgt"' not in serialize_arena(arena)


def test_roundtrip_fig5():
    arena = fig5_arena()
    assert parse_arena(serialize_arena(arena)) == arena


def test_roundtrip_random_arenas():
    import random

    from corpus import random_arena

    rng = random.Random(17)
    for _ in range(20):
        arena = random_arena(rng)
        assert parse_arena(serialize_arena(arena)) == arena
